"""Fail when a pytest JUnit XML report counts any skipped or xfailed test.

Usage: python .github/no_skips.py REPORT.xml

pytest reports an xfailed test as a skipped one (``<skipped
type="pytest.xfail">``), so one count covers both.
"""

import sys
import xml.etree.ElementTree as ET

root = ET.parse(sys.argv[1]).getroot()
skipped = [
    f"{case.get('classname')}::{case.get('name')}: {mark.get('message', '')}"
    for case in root.iter("testcase")
    for mark in case.findall("skipped")
]
for line in skipped:
    print(f"skipped: {line}")
if skipped:
    sys.exit(f"tier-1 must run without skips or xfails: {len(skipped)} skipped or xfailed")
print(f"no skipped or xfailed test in {sys.argv[1]}")
