"""The package's public names are exactly its modules' public names."""

import richman
from richman import agents, graphs, series, simulate, solver


def test_package_all_is_the_union_of_the_module_lists():
    modules = (agents, graphs, series, simulate, solver)
    assert set(richman.__all__) == {name for m in modules for name in m.__all__}
    for m in modules:
        for name in m.__all__:
            assert getattr(richman, name) is getattr(m, name)
