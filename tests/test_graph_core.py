"""Vertex-level graph primitives against frozen examples and brute force."""

import itertools
import json
import random

import pytest
from hypothesis import example, given, strategies as st

from indmorse import graph_core
from indmorse import (
    CapabilityError,
    Graph,
    bits,
    domination_number,
    graph_from_json,
    graph_to_json,
    grid_graph,
    GridSpec,
    power_graph_cyclic,
    random_chordal,
    standard_graph,
)
from oracles import (
    closed_neighborhood,
    domination_number_scan,
    induced_delete,
    is_clique,
    is_simplicial,
    universal_vertices,
)
from test_generators import small_specs

P3 = standard_graph("path", 3)
P4 = standard_graph("path", 4)
P5 = standard_graph("path", 5)
C4 = standard_graph("cycle", 4)
K1 = standard_graph("complete", 1)
K3 = standard_graph("complete", 3)
GRID11 = grid_graph(GridSpec.of(1, 1, [[1, 1], [1, 1]]))


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        yield Graph.from_edges(n, [e for e, keep in zip(pairs, picks) if keep])


def graphs(max_n=7):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(
            Graph.from_edges,
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))
                ).filter(lambda e: e[0] != e[1]),
                max_size=2 * n,
            ),
        )
        if n
        else st.just(Graph.from_edges(0, []))
    )


def test_bits_enumerates_set_positions():
    assert list(bits(0)) == []
    assert list(bits(0b1011)) == [0, 1, 3]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1)], labels=[(0, 0)])


def assert_checked(g):
    # from_edges skips the row scan; the checked constructor must accept
    # its rows and give an equal graph.
    assert g == Graph(g.n, g.adj, g.labels)


def test_from_edges_equals_the_checked_graph():
    families = [grid_graph(spec) for spec in small_specs(2, 2, 2)]
    families += [power_graph_cyclic(p, q, m, n) for p, q in ((2, 3), (3, 5))
                 for m in range(3) for n in range(2)]
    families += [random_chordal(1 + s % 16, (s % 6) / 5, s) for s in range(60)]
    families += [standard_graph(kind, n) for kind in ("path", "cycle", "complete", "empty")
                 for n in range(3 if kind == "cycle" else 0, 9)]
    for g in families:
        assert_checked(g)
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        Graph.from_edges(-1, [])
    with pytest.raises(ValueError, match="^labels length does not match vertex count$"):
        Graph.from_edges(2, [(0, 1)], labels=[(0, 0)])


@given(graphs())
def test_from_edges_equals_the_checked_graph_on_fuzz_graphs(g):
    assert_checked(g)


def test_edges_lists_each_edge_once_from_its_lower_end():
    for n in range(6):
        for g in all_graphs(n):
            both_ways = [(u, v) for u in range(g.n) for v in bits(g.adj[u]) if u < v]
            assert g.edges() == both_ways


def test_closed_neighborhood_examples():
    assert closed_neighborhood(P3, 1) == 0b111
    assert closed_neighborhood(K1, 0) == 1
    assert closed_neighborhood(GRID11, 0) == 0b1111


def test_is_clique_examples():
    assert is_clique(P3, 0)
    for mask in range(8):
        assert is_clique(K3, mask)
    assert not is_clique(P3, 0b101)


def test_is_simplicial_examples():
    assert is_simplicial(P3, 0)
    assert not is_simplicial(P3, 1)
    for v in range(4):
        assert not is_simplicial(C4, v)
    for v in range(3):
        assert is_simplicial(K3, v)


def test_is_simplicial_matches_pairwise_scan_exhaustively():
    for g in all_graphs(4):
        for v in range(g.n):
            nbrs = [w for w in range(g.n) if g.adj[v] >> w & 1]
            expect = all(
                g.adj[a] >> b & 1 for a, b in itertools.combinations(nbrs, 2)
            )
            assert is_simplicial(g, v) == expect


def test_universal_vertices_examples():
    assert universal_vertices(K3) == 0b111
    assert universal_vertices(P3) == 0b010
    assert universal_vertices(GRID11) == 0b1001


def test_simplicial_universal_vertex_forces_complete_graph():
    for g in all_graphs(5):
        full = g.full_mask
        for v in range(g.n):
            if is_simplicial(g, v) and (g.adj[v] | 1 << v) == full:
                assert all((g.adj[w] | 1 << w) == full for w in range(g.n))


def test_induced_delete_examples():
    same, ids = induced_delete(P4, 0)
    assert same.n == 4 and same.adj == P4.adj and ids == (0, 1, 2, 3)
    left, ids = induced_delete(P4, closed_neighborhood(P4, 1))
    assert left.n == 1 and left.adj == (0,) and ids == (3,)
    empty, ids = induced_delete(K3, K3.full_mask)
    assert empty.n == 0 and ids == ()


def test_induced_delete_preserves_surviving_edges():
    for g in all_graphs(4):
        for kill in range(1 << g.n):
            h, ids = induced_delete(g, kill)
            back = {new: old for new, old in enumerate(ids)}
            got = {(back[a], back[b]) for a, b in h.edges()}
            keep = set(ids)
            expect = {
                (a, b) for a, b in g.edges() if a in keep and b in keep
            }
            assert got == expect


def test_domination_number_examples():
    for n in range(1, 6):
        assert domination_number(standard_graph("complete", n)) == 1
    assert domination_number(P5) == 2
    assert domination_number(Graph.from_edges(3, [(1, 2)])) == 2


def test_domination_number_matches_subset_scan():
    for g in all_graphs(4):
        if g.n:
            assert domination_number(g) == domination_number_scan(g)
    for n, edges in [(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])]:
        g = Graph.from_edges(n, edges)
        assert domination_number(g) == domination_number_scan(g)


def test_domination_number_vertex_cap():
    with pytest.raises(CapabilityError):
        domination_number(standard_graph("empty", 25))


@given(graphs())
def test_closed_neighborhood_contains_vertex_and_neighbors(g):
    for v in range(g.n):
        nb = closed_neighborhood(g, v)
        assert nb >> v & 1
        assert nb == g.adj[v] | 1 << v


@given(graphs(5))
def test_clique_subsets_stay_cliques(g):
    for mask in range(1 << g.n):
        if is_clique(g, mask):
            for v in bits(mask):
                assert is_clique(g, mask & ~(1 << v))


def test_graph_json_round_trip():
    for g in (P4, K3, GRID11, standard_graph("empty", 2)):
        back = graph_from_json(graph_to_json(g))
        assert back.n == g.n and back.adj == g.adj and back.labels == g.labels


def test_graph_json_writes_upper_rows_in_hex():
    assert graph_to_json(P3) == {"n": 3, "rows": ["1", "1", "0"]}
    assert graph_to_json(Graph.from_edges(0, [])) == {"n": 0, "rows": []}
    assert graph_to_json(GRID11) == {
        "n": 4, "rows": ["7", "2", "1", "0"], "labels": [[0, 0], [0, 1], [1, 0], [1, 1]]
    }
    # Bit i of entry v stands for vertex v + 1 + i.
    g = Graph.from_edges(20, [(0, 19), (3, 4), (3, 8)])
    assert graph_to_json(g)["rows"] == ["40000", "0", "0", "11"] + ["0"] * 16


def edge_list_json(g):
    """The edge-list form of g, the other form graph_from_json reads."""
    obj = {"n": g.n, "edges": g.edges()}
    if g.labels is not None:
        obj["labels"] = [list(lab) for lab in g.labels]
    return obj


LABELLED_GRIDS = [grid_graph(spec) for spec in small_specs(2, 2, 2)]


@given(st.one_of(graphs(12), st.just(Graph.from_edges(0, [])), st.sampled_from(LABELLED_GRIDS)))
def test_both_graph_json_forms_load_to_the_graph(g):
    for doc in (graph_to_json(g), edge_list_json(g)):
        assert graph_from_json(json.loads(json.dumps(doc))) == g


def test_graph_json_rows_are_linear_in_the_adjacency_bits():
    k200 = standard_graph("complete", 200)
    assert len(json.dumps(graph_to_json(k200))) < 8000
    assert len(json.dumps(edge_list_json(k200))) > 200_000


def test_graph_json_row_errors():
    # K_30's rows are past the mirror's crossover; "7ffffff" in row 3 sets
    # vertex 30, and in row 7 vertex 34.
    k30 = graph_to_json(standard_graph("complete", 30))["rows"]
    bad3 = k30[:3] + ["7ffffff"] + k30[4:]
    bad3_7 = bad3[:7] + ["7ffffff"] + bad3[8:]
    cases = [
        ({"n": 2, "edges": [], "rows": ["1", "0"]}, 'graph JSON must not contain both "edges" and "rows"'),
        ({"n": 2}, 'graph JSON must contain "n" and "edges"'),
        ({"rows": []}, 'graph JSON must contain "n" and "rows"'),
        ({"n": -1, "rows": []}, '"n" must be a nonnegative integer'),
        ({"n": 2**62, "rows": []}, f'"rows" must be a list of {2**62} hex strings'),
        ({"n": 2, "rows": "10"}, '"rows" must be a list of 2 hex strings'),
        ({"n": 2, "rows": ["1"]}, '"rows" must be a list of 2 hex strings'),
        ({"n": 2, "rows": ["1", 0]}, "malformed row 0 of vertex 1"),
        ({"n": 2, "rows": ["0x1", "0"]}, "malformed row '0x1' of vertex 0"),
        ({"n": 2, "rows": ["", "0"]}, "malformed row '' of vertex 0"),
        ({"n": 3, "rows": ["1_0", "0", "0"]}, "malformed row '1_0' of vertex 0"),
        ({"n": 2, "rows": ["A", "0"]}, "malformed row 'A' of vertex 0"),
        ({"n": 2, "rows": [type("Hex", (str,), {})("1"), "0"]}, "malformed row '1' of vertex 0"),
        ({"n": 2, "rows": ["2", "0"]}, "adjacency row of 0 mentions unknown vertices"),
        ({"n": 2, "rows": ["1", "1"]}, "adjacency row of 1 mentions unknown vertices"),
        ({"n": 30, "rows": bad3}, "adjacency row of 3 mentions unknown vertices"),
        ({"n": 30, "rows": bad3_7}, "adjacency row of 3 mentions unknown vertices"),
        # A malformed row anywhere comes before a row out of range.
        ({"n": 2, "rows": ["2", "x"]}, "malformed row 'x' of vertex 1"),
        ({"n": 2, "rows": ["1", "0"], "labels": [[0, 0], [0, True]]}, "malformed label [0, True]"),
        ({"n": 2, "rows": ["1", "0"], "labels": [[0, 0]]}, "labels length does not match vertex count"),
    ]
    for doc, text in cases:
        with pytest.raises(ValueError) as got:
            graph_from_json(doc)
        assert str(got.value) == text, doc


def first_malformed_row(rows):
    """The message naming the first row that is not a nonempty str of
    lowercase hex digits, by a character scan, or None."""
    for v, text in enumerate(rows):
        if type(text) is not str or not text or any(c not in "0123456789abcdef" for c in text):
            return f"malformed row {text!r} of vertex {v}"
    return None


# int(text, 16) reads each of these, the non-ASCII digits among them too;
# the loader refuses them all.
PARSED_BY_INT = ["0x1", "+1", "1_0", " 1", "A", "\u0663", "\uff11", "1\u0663", "\uff13"]


def test_rows_are_checked_before_they_are_parsed():
    # K_200's rows are long; one malformed row after them, or among them,
    # is named, whatever else is wrong with the list.
    k200 = graph_to_json(standard_graph("complete", 200))["rows"]
    bad_rows = PARSED_BY_INT + ["", "\ud800", 0, None, ["1"], 1.0, True, b"1"]
    assert [int(text, 16) for text in PARSED_BY_INT] == [1, 1, 16, 1, 10, 3, 1, 19, 3]
    for bad in bad_rows:
        for v in (0, 150, 199):
            rows = k200[:v] + [bad] + k200[v + 1:]
            want = f"malformed row {bad!r} of vertex {v}"
            assert first_malformed_row(rows) == want
            with pytest.raises(ValueError) as got:
                graph_from_json({"n": 200, "rows": rows})
            assert str(got.value) == want
    assert graph_from_json({"n": 200, "rows": k200}) == standard_graph("complete", 200)


@given(st.lists(st.one_of(st.text("0123456789abcdefABx_+ \u0663\uff11", max_size=4), st.none())))
@example(["1", "\u0663"])
def test_row_check_matches_a_character_scan(rows):
    # Rows that pass the scan are parsed; any that fail it raise the
    # scan's message, before a row out of range is reported.
    want = first_malformed_row(rows)
    try:
        graph_from_json({"n": len(rows), "rows": rows})
        got = None
    except ValueError as exc:
        got = str(exc)
    if want is not None or got is None:
        assert got == want
    else:
        assert "mentions unknown vertices" in got


@st.composite
def graphs_of_any_density(draw):
    n = draw(st.integers(0, 80))
    p = draw(st.floats(0, 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


K200 = standard_graph("complete", 200)
GRID300 = grid_graph(GridSpec.of(4, 4, [[12] * 5] * 5))
PATH1500 = standard_graph("path", 1500)


def _upper_rows(g):
    return [row >> v + 1 for v, row in enumerate(g.adj)]


def _mirror_path(ups):
    """_mirrored's rows for ups, and whether it wrote them as text."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_core, "bin", lambda x: calls.append(x) or bin(x), raising=False)
        return graph_core._mirrored(ups), bool(calls)


@given(graphs_of_any_density())
@example(K200)
@example(GRID300)
@example(PATH1500)
@example(Graph.from_edges(0, []))
def test_both_mirror_paths_give_the_graph_rows(g):
    ups = _upper_rows(g)
    assert _mirror_path(ups)[0] == g.adj
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_core, "_EDGE_COST", 0)
        assert _mirror_path(ups) == (g.adj, False)
        mp.setattr(graph_core, "_ROW_COST", -(10**9))
        assert _mirror_path(ups) == (g.adj, g.n > 0)


def test_the_mirror_crossover_splits_the_named_graphs():
    for g, transposed in ((K200, True), (GRID300, True), (PATH1500, False)):
        assert _mirror_path(_upper_rows(g)) == (g.adj, transposed)


def _asymmetry_reference(adj):
    """The first entry (v, w), row by row, whose mirror (w, v) is missing."""
    for v, row in enumerate(adj):
        for w in range(len(adj)):
            if row >> w & 1 and not adj[w] >> v & 1:
                return v, w
    return None


@given(graphs(9), st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=3))
def test_adjacency_check_names_the_first_asymmetric_entry(g, flips):
    adj = list(g.adj)
    for v, w in flips:
        if v != w and v < g.n and w < g.n:
            adj[v] ^= 1 << w
    witness = _asymmetry_reference(adj)
    if witness is None:
        assert Graph(g.n, tuple(adj)).adj == tuple(adj)
    else:
        with pytest.raises(ValueError) as got:
            Graph(g.n, tuple(adj))
        assert str(got.value) == "adjacency is not symmetric at (%d, %d)" % witness


def test_adjacency_range_errors_come_before_asymmetry():
    with pytest.raises(ValueError, match="row of 2 mentions unknown"):
        Graph(3, (0b010, 0b000, 0b1000))
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        Graph(3, (0b010, 0b000, 0b100))


def test_graph_json_error_precedence():
    # A malformed edge anywhere is reported first, then a vertex count too
    # large to allocate, then the first out-of-range edge or self-loop.
    cases = [
        ({"n": 3, "edges": [[0, 5], [1, 1], [0, "2"]]}, ValueError, "malformed edge [0, '2']"),
        ({"n": 3, "edges": [[0, 5], [1, 2, 0]]}, ValueError, "malformed edge [1, 2, 0]"),
        ({"n": 10**20, "edges": [[0, 1], [True, 1]]}, ValueError, "malformed edge [True, 1]"),
        ({"n": 10**20, "edges": [[-1, 0]]}, ValueError, f"vertex count {10**20} is too large"),
        ({"n": 2**62, "edges": [[0, 0]]}, ValueError, f"vertex count {2**62} is too large"),
        ({"n": 2**64, "edges": [[0, 1]]}, ValueError, f"vertex count {2**64} is too large"),
        ({"n": 3, "edges": [[0, 1], [0, 5], [1, 1]]}, ValueError, "edge (0, 5) out of range"),
        ({"n": 3, "edges": [[0, 1], [1, 1], [0, 5]]}, ValueError, "self-loop at vertex 1"),
        ({"n": 3, "edges": [[7, 7]]}, ValueError, "edge (7, 7) out of range"),
        ({"n": 3, "edges": 4}, TypeError, None),
    ]
    for doc, exc, text in cases:
        with pytest.raises(exc) as got:
            graph_from_json(doc)
        if text is not None:
            assert str(got.value) == text, doc
