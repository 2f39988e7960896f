"""Parsing, serialization and structural validation of game arenas."""

import pytest

from richman import (
    GameGraph,
    GraphFormatError,
    Violation,
    parse_game_graph,
    serialize_game_graph,
    validate,
)

import corpus


def test_parse_fig1(fig1):
    assert fig1.blue == "b"
    assert fig1.red == "r"
    assert fig1.vertices == frozenset({"a", "b", "c", "m", "r", "v"})
    assert fig1.non_terminals == ("a", "c", "m", "v")
    assert fig1.moves["v"] == ("c", "m")
    assert fig1.moves["m"] == ("b", "r")


def test_parse_skips_blank_lines_and_comments():
    g = parse_game_graph("# arena\n\nblue b\n  # indented comment\nred r\nedge v b\nedge v r\n")
    assert g.non_terminals == ("v",)


def test_parse_allows_any_declaration_order():
    g = parse_game_graph("edge v r\nred r\nedge v b\nblue b\n")
    assert g.moves["v"] == ("b", "r")


def test_round_trip_is_identity(fig1, path_graph, star):
    for g in (fig1, path_graph, star):
        assert parse_game_graph(serialize_game_graph(g)) == g


def test_round_trip_loses_a_vertex_on_no_edge():
    """The text format has no line for a lone vertex, so only graphs whose
    every vertex is a terminal or an edge endpoint come back equal."""
    g = GameGraph.from_parts({"x"}, [("v", "b"), ("v", "r")], "b", "r")
    back = parse_game_graph(serialize_game_graph(g))
    assert g.vertices - back.vertices == {"x"}
    assert back == GameGraph.from_parts((), g.edges, "b", "r")


def test_serialization_is_canonical(star):
    text = serialize_game_graph(star)
    assert text == "blue b\nred r\nedge v b\nedge v r\n"
    # Same graph assembled in a different edge order serializes identically.
    twin = GameGraph.from_parts(["b", "r", "v"], [("v", "r"), ("v", "b")], "b", "r")
    assert serialize_game_graph(twin) == text


PARSE_ERRORS = [
    ("blue b\nred r\nedge v\n", 3, "expected 'edge <from> <to>'"),
    ("blue\nred r\n", 1, "expected 'blue <id>'"),
    ("blue b\nred r\nteleport v b\n", 3, "unknown directive 'teleport'"),
    ("blue b\nblue c\nred r\n", 2, "duplicate blue declaration"),
    ("blue b\nred r\nred q\n", 3, "duplicate red declaration"),
    ("blue b\nred r\nedge # x\n", 3, "bad vertex id '#'"),
    ("blue b\nred\n", 2, "expected 'red <id>'"),
    ("blue b\nred r s\n", 2, "expected 'red <id>'"),
]


@pytest.mark.parametrize("text, line, message", PARSE_ERRORS, ids=[f"{t}-{n}" for t, n, _ in PARSE_ERRORS])
def test_parse_errors_carry_line_numbers(text, line, message):
    with pytest.raises(GraphFormatError) as info:
        parse_game_graph(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


def test_split_separates_exactly_at_isspace_code_points():
    """The parser takes vertex ids from ``str.split()`` and checks them only
    for ``#``: no id is empty or holds whitespace because ``split``
    separates at exactly the code points ``str.isspace`` accepts."""
    for cp in range(0x110000):
        ch = chr(cp)
        assert (f"a{ch}b".split() == ["a", "b"]) == ch.isspace(), hex(cp)


@pytest.mark.parametrize(
    "text, line", [("blue b\nred r\nedge # x\n", 3), ("blue b\nred r\nedge x #\n", 3), ("blue #\nred r\n", 1)]
)
def test_parse_refuses_a_hash_vertex_id(text, line):
    with pytest.raises(GraphFormatError) as info:
        parse_game_graph(text)
    assert (str(info.value), info.value.line) == (f"line {line}: bad vertex id '#'", line)


def test_parse_requires_both_terminals():
    with pytest.raises(GraphFormatError, match="^missing red declaration$"):
        parse_game_graph("blue b\nedge v b\n")
    with pytest.raises(GraphFormatError, match="^missing blue declaration$"):
        parse_game_graph("red r\nedge v r\n")
    with pytest.raises(GraphFormatError, match="^blue and red must be distinct vertices$"):
        parse_game_graph("blue x\nred x\n")


def test_from_parts_unions_edge_endpoints():
    g = GameGraph.from_parts([], [("v", "w"), ("w", "b"), ("w", "r")], "b", "r")
    assert g.vertices == frozenset({"b", "r", "v", "w"})


def test_game_graph_is_a_frozen_value_of_its_four_fields():
    fields = {"vertices": frozenset("brv"), "edges": frozenset({("v", "b"), ("v", "r")}), "blue": "b", "red": "r"}
    g = GameGraph(**fields)
    twin = GameGraph(*fields.values())
    assert twin is not g and twin == g and hash(twin) == hash(g) == hash(tuple(fields.values()))
    assert g != tuple(fields.values())
    others = {"vertices": frozenset({"b", "r", "v", "w"}), "edges": frozenset({("v", "b")}), "blue": "v", "red": "v"}
    for name, other in others.items():
        assert GameGraph(**{**fields, name: other}) != g
    assert repr(g) == f"GameGraph(vertices={fields['vertices']!r}, edges={fields['edges']!r}, blue='b', red='r')"
    assert g.validation is g.validation  # cached: cached_property writes the instance __dict__ itself
    for name in (*fields, "moves", "validation", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g == twin


def test_successors_empty_at_terminals_even_with_outgoing_edges():
    g = GameGraph.from_parts(["b", "r", "v"], [("v", "b"), ("v", "r"), ("b", "v")], "b", "r")
    assert "b" not in g.moves
    assert ("b", "v") in g.edges


def test_successors_and_is_terminal_reject_unknown_vertices(star):
    with pytest.raises(KeyError):
        star.moves["nope"]
    with pytest.raises(KeyError):
        star.is_terminal("nope")


def test_validate_accepts_the_example_arenas(fig1, path_graph, star):
    for g in (fig1, path_graph, star):
        report = validate(g)
        assert report.ok
        assert report.violations == ()


def test_validate_flags_dead_end_and_unreachable(data_dir):
    g = parse_game_graph((data_dir / "bad.rg").read_text())
    report = validate(g)
    assert not report.ok
    codes = [(w.code, w.subject) for w in report.violations]
    assert ("DEAD_END", "sink") in codes
    assert ("UNREACHABLE_TERMINALS", "sink") in codes


def test_validate_flags_terminal_self_loop():
    g = GameGraph.from_parts(["b", "r", "v"], [("v", "b"), ("v", "r"), ("r", "r")], "b", "r")
    report = validate(g)
    assert [w.code for w in report.violations] == ["TERMINAL_SELF_LOOP"]
    assert report.violations[0].subject == "r"


def test_validate_flags_identical_terminals():
    g = GameGraph(vertices=frozenset({"x", "v"}), edges=frozenset({("v", "x")}), blue="x", red="x")
    codes = {w.code for w in validate(g).violations}
    assert "BLUE_EQUALS_RED" in codes


def test_validate_flags_missing_terminal_and_bad_endpoint():
    g = GameGraph(
        vertices=frozenset({"b", "v"}),
        edges=frozenset({("v", "b"), ("v", "ghost")}),
        blue="b",
        red="r",
    )
    report = validate(g)
    codes = {(w.code, w.subject) for w in report.violations}
    assert ("MISSING_TERMINAL", "r") in codes
    assert ("BAD_EDGE_ENDPOINT", "ghost") in codes


def test_bad_edge_endpoints_are_reported_in_edge_order():
    g = GameGraph(
        vertices=frozenset({"b", "r", "v"}),
        edges=frozenset({("v", "b"), ("v", "r"), ("v", "zed"), ("v", "ghost"), ("ghost", "r")}),
        blue="b",
        red="r",
    )
    assert validate(g).violations == (
        Violation("BAD_EDGE_ENDPOINT", "ghost", "edge (ghost, r) mentions unknown vertex 'ghost'"),
        Violation("BAD_EDGE_ENDPOINT", "ghost", "edge (v, ghost) mentions unknown vertex 'ghost'"),
        Violation("BAD_EDGE_ENDPOINT", "zed", "edge (v, zed) mentions unknown vertex 'zed'"),
    )


def test_edge_only_to_an_unknown_vertex_is_a_dead_end():
    g = GameGraph(
        vertices=frozenset({"b", "r", "v"}),
        edges=frozenset({("v", "ghost")}),
        blue="b",
        red="r",
    )
    codes = {(w.code, w.subject) for w in validate(g).violations}
    assert {("DEAD_END", "v"), ("BAD_EDGE_ENDPOINT", "ghost")} <= codes


def test_validate_matches_the_name_based_reference(data_dir, fig1):
    """Every violation code, on graphs built directly as well as parsed:
    the integer index leaves out edges to unknown vertices, as the move
    table's reading of them does."""
    graphs = [
        fig1,
        parse_game_graph((data_dir / "bad.rg").read_text()),
        GameGraph.from_parts(["b", "r", "v"], [("v", "b"), ("v", "r"), ("r", "r"), ("b", "b")], "b", "r"),
        GameGraph(frozenset({"x", "v"}), frozenset({("v", "x")}), "x", "x"),
        GameGraph(frozenset({"b", "v", "w"}), frozenset({("v", "b"), ("v", "ghost"), ("w", "r")}), "b", "r"),
        GameGraph(frozenset({"b", "r", "v", "w"}), frozenset({("v", "ghost"), ("w", "v"), ("w", "r")}), "b", "r"),
        GameGraph(frozenset({"b", "r", "v", "d"}), frozenset({("v", "d"), ("v", "b"), ("d", "ghost")}), "b", "r"),
    ]
    codes = set()
    for g in graphs:
        report = validate(g)
        assert report == corpus.reference_validate(g)
        codes |= {w.code for w in report.violations}
    assert codes == {
        "BAD_EDGE_ENDPOINT", "BLUE_EQUALS_RED", "DEAD_END",
        "MISSING_TERMINAL", "TERMINAL_SELF_LOOP", "UNREACHABLE_TERMINALS",
    }  # fmt: skip


def test_violations_are_sorted(data_dir):
    g = parse_game_graph((data_dir / "bad.rg").read_text())
    report = validate(g)
    keys = [(w.code, w.subject) for w in report.violations]
    assert keys == sorted(keys)


def test_random_corpus_parses_and_validates():
    for g in corpus.corpus200()[:40]:
        assert validate(g).ok
        assert parse_game_graph(serialize_game_graph(g)) == g
        assert 1 <= len(g.non_terminals) <= 10
