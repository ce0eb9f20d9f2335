"""Count-only recursions against the explicit construction."""

import random
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from indmorse import (
    Graph,
    GridSpec,
    HomotopyType,
    SimplicialComplex,
    UnsupportedGraphError,
    bits,
    build_auto,
    build_chordal_matching,
    build_grid_matching,
    check_field,
    chordal,
    classify,
    counts,
    critical_fvector_recursive,
    grid_count_table,
    grid_critical_fvector,
    grid_graph,
    independence_complex,
    is_chordal,
    is_maximal,
    morse,
    random_chordal,
    standard_graph,
)

from indmorse.homotopy import homotopy_from_counts
from oracles import critical_fvector_recursive_reference
from test_chordal import _python_lines
from test_generators import small_specs
from test_graph_core import graphs
from test_homotopy import subtree_intersection_graph


def test_recursive_counts_examples():
    assert critical_fvector_recursive(standard_graph("path", 5)) == (1, 1)
    for n in range(1, 6):
        assert critical_fvector_recursive(standard_graph("complete", n)) == (n,)
    cone = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert critical_fvector_recursive(cone) == (1,)
    assert critical_fvector_recursive(standard_graph("empty", 0)) == ()
    with pytest.raises(ValueError, match="at least one critical simplex"):
        homotopy_from_counts(())


# Vertex 0 is simplicial with neighbors 1 and 2; both children are
# chordless 4-cycles, and the one under neighbor 1 must be the one reported.
TWO_BAD_CHILDREN = Graph.from_edges(
    8, [(0, 1), (0, 2), (1, 2), (1, 7), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3),
        (7, 4), (7, 6)]
)


@given(graphs(10))
@example(TWO_BAD_CHILDREN)
def test_recursive_counts_match_the_recursive_reference(g):
    # Both routes run on morse._recurse; the construction must visit the
    # subgraphs in the reference's order too.
    routes = (critical_fvector_recursive, lambda g: build_auto(g).critical_f)
    try:
        want = critical_fvector_recursive_reference(g)
    except UnsupportedGraphError as exc:
        for route in routes:
            with pytest.raises(UnsupportedGraphError) as got:
                route(g)
            assert str(got.value) == str(exc)
            assert got.value.vertices == exc.vertices
    else:
        for route in routes:
            assert route(g) == want


def test_recursive_counts_on_long_paths():
    # Kozlov: Ind(P_n) is S^(k-1) for n in {3k-1, 3k} and a point for
    # n = 3k+1.  These paths are far deeper than the interpreter's recursion
    # limit, and long enough that a count route quadratic in n shows.
    sphere_6000 = HomotopyType("wedge", (0,) * 1999 + (1,))
    sphere_6002 = HomotopyType("wedge", (0,) * 2000 + (1,))
    fvecs = {
        n: critical_fvector_recursive(standard_graph("path", n))
        for n in (6000, 6001, 6002)
    }
    assert fvecs[6000] == (1,) + (0,) * 1998 + (1,)
    assert fvecs[6001] == (1,)
    assert fvecs[6002] == (1,) + (0,) * 1999 + (1,)
    assert homotopy_from_counts(fvecs[6000]) == sphere_6000
    assert homotopy_from_counts(fvecs[6001]) == HomotopyType("collapsible")
    assert homotopy_from_counts(fvecs[6002]) == sphere_6002


def _relabeled(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def subdivided_tree(nodes: int, seed: int) -> Graph:
    """A random recursive tree on ``nodes`` nodes with every edge replaced
    by a path of three edges, so 3 * nodes - 2 vertices."""
    rng = random.Random(seed)
    n, edges = nodes, []
    for v in range(1, nodes):
        prev = rng.randrange(v)
        for _ in range(2):
            edges.append((prev, n))
            prev, n = n, n + 1
        edges.append((prev, v))
    return Graph.from_edges(n, edges)


@st.composite
def shuffled_chordal(draw):
    """A chordal graph with its vertex ids permuted, so that its perfect
    elimination ordering is not the identity."""
    kind = draw(st.sampled_from(["random", "subtrees", "tree"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "random":
        g = random_chordal(draw(st.integers(1, 24)), draw(st.floats(0, 1)), seed)
    elif kind == "subtrees":
        g = subtree_intersection_graph(draw(st.integers(1, 20)), seed)
    else:
        g = subdivided_tree(draw(st.integers(1, 200)), seed)
    return _relabeled(g, draw(st.permutations(range(g.n))))


@settings(deadline=None)
@given(shuffled_chordal())
def test_chordal_count_policy_matches_the_recursive_reference(g):
    # The chordal policy selects along one perfect elimination ordering;
    # the reference takes the smallest simplicial vertex after the isolated
    # and complete checks, and the counts must not depend on the choice.
    assert is_chordal(g)
    assert critical_fvector_recursive(g) == critical_fvector_recursive_reference(g)


def test_chordal_count_policy_does_not_scan(monkeypatch):
    calls = []

    def counted_selector(*table):
        select = morse._auto_selector(*table)

        def wrapper(g, mask):
            calls.append("auto")
            return select(g, mask)

        return wrapper

    monkeypatch.setattr(counts, "_auto_selector", counted_selector)
    chordal_graphs = (
        standard_graph("path", 40),
        standard_graph("complete", 5),
        standard_graph("empty", 3),
        random_chordal(30, 0.5, 1),
        subdivided_tree(20, 2),
    )
    for g in chordal_graphs:
        # Counted, not timed, past the graph's one kept search: the
        # recursion walks each N(v) & mask and the selection scans nothing,
        # so the Python lines run stay within a budget per node and per
        # neighbor walked; a selection that scans the mask or the ordering
        # adds lines per vertex of it.
        critical_fvector_recursive(g)
        trace = {}
        morse._recurse(g, morse._peo_selector(g), morse._assemble_counts, trace)
        walked = sum((g.adj[node["v"]] & mask).bit_count() for mask, node in trace.items())
        budget = 30 * len(trace) + 15 * walked + 60
        assert _python_lines(partial(critical_fvector_recursive, g), budget) <= budget
    assert calls == []
    # Non-chordal input keeps the generic selection and its error.
    grid = grid_graph(GridSpec.of(2, 2, [[1] * 3] * 3))
    assert not is_chordal(grid)
    critical_fvector_recursive(grid)
    assert "auto" in calls
    with pytest.raises(UnsupportedGraphError) as got:
        critical_fvector_recursive(TWO_BAD_CHILDREN)
    assert str(got.value) == "no simplicial vertex in the induced subgraph on [3, 4, 5, 6]"
    assert got.value.vertices == (3, 4, 5, 6)


def _lines_per_node(run, g, select) -> float:
    """The Python lines one run of ``run`` takes per node of the recursion
    that ``select`` drives on g, past the graph's kept search."""
    run()
    trace = {}
    morse._recurse(g, select, morse._assemble_counts, trace)
    return _python_lines(run, 10**7) / len(trace)


GRID_4X4 = GridSpec.of(3, 3, [[2] * 4] * 4)


@pytest.mark.parametrize(
    "name, budget",
    [("build-grid-4x4", 175), ("count-path-300", 39), ("count-subdivided-tree-60", 40)],
)
def test_recursion_line_budget_per_node(name, budget):
    # Counted, not timed: Python lines per node, set-up included, of a grid
    # build and of the count route on a path and a subdivided tree, whose
    # nodes have about one child each.  A node's neighbors are walked
    # inline, its result is built once and a child with the single count
    # (1,) is assembled without trimming; a generator per walk, a dataclass
    # __init__ per node or a dict rebuilt per recipe pushes the counts past
    # these budgets.
    if name == "build-grid-4x4":
        g = grid_graph(GRID_4X4)
        run = partial(build_grid_matching, g, GRID_4X4)
        select = morse._grid_selector(g, GRID_4X4)
    else:
        g = standard_graph("path", 300) if name == "count-path-300" else subdivided_tree(60, 2)
        run = partial(critical_fvector_recursive, g)
        select = morse._peo_selector(g)
    per_node = _lines_per_node(run, g, select)
    assert per_node <= budget


def test_generic_count_line_budget_per_twin_class():
    # Counted, not timed: Python lines of the generic count route, set-up
    # included, on a grid of 4x4 cells of 12 true twins each: a few lines
    # per vertex for the twin table, and a budget per node and per class of
    # true twins in each N(v) & mask walked.  A walk of N(v) one u at a
    # time, or a selection that tests a rejected vertex's twins, adds lines
    # per vertex of the class and pushes the count past the budget.
    g = grid_graph(GridSpec.of(3, 3, [[12] * 4] * 4))
    assert not is_chordal(g)
    run = partial(critical_fvector_recursive, g)
    run()
    closed, twins = morse._twin_table(g)
    trace = {}
    morse._recurse(g, morse._auto_selector(closed, twins), morse._assemble_counts, trace, twins)
    classes = sum(
        len({twins[u] for u in bits(g.adj[node["v"]] & mask)}) for mask, node in trace.items()
    )
    budget = 3 * g.n + 25 * (len(trace) + classes) + 60
    assert _python_lines(run, budget) <= budget


# Grids that mix 1- and 2-cells, so both case (ii) and case (iii) pairs
# occur at many nodes.
MIXED_GRIDS = {
    "mixed-3x4": GridSpec.of(2, 3, [[1, 2, 1, 2], [2, 1, 2, 1], [1, 2, 1, 2]]),
    "mixed-4x3": GridSpec.of(3, 2, [[2, 1, 1], [1, 2, 1], [1, 1, 2], [2, 2, 1]]),
}


@pytest.mark.parametrize(
    "name, step, budget",
    [
        ("mixed-3x4", "check", 25), ("mixed-4x3", "check", 25),
        ("mixed-3x4", "derive", 17.5), ("mixed-4x3", "derive", 21),
    ],
)
def test_gate_line_budget_per_pair(name, step, budget):
    # Counted, not timed: Python lines per pair of the field check on a
    # fresh complex, and of the first read of a fresh build's pairs and
    # critical set.  The check accepts a valid matching by set algebra, not
    # a loop over its pairs, and the derivation walks the tree once instead
    # of building a tuple and a frozenset at every inner node; a loop per
    # pair or a derivation per node pushes the counts past these budgets.
    spec = MIXED_GRIDS[name]
    g = grid_graph(spec)
    res = build_grid_matching(g, spec)
    if step == "check":
        x = independence_complex(g)
        pairs = res.pairs
        lines = _python_lines(
            lambda: check_field(SimplicialComplex(x.n, x.faces), pairs), 10**7
        )
    else:
        lines = _python_lines(lambda: (res.pairs, res.critical_set), 10**7)
    assert lines / len(res.pairs) <= budget


@pytest.mark.parametrize("name, budget", [("mixed-3x4", 61), ("mixed-4x3", 61)])
def test_maximality_line_budget_per_critical_cell(name, budget):
    # Counted, not timed: Python lines per critical cell of criterion 3's
    # maximality gate and of classify, on a fresh complex whose field check
    # is already kept, so both read the one 1-skeleton table, built here.
    # A facet set per queried size, or a call of is_maximal per cell in
    # classify, pushes the count past this budget.
    spec = MIXED_GRIDS[name]
    g = grid_graph(spec)
    res = build_grid_matching(g, spec)
    x = independence_complex(g)
    fresh = SimplicialComplex(x.n, x.faces)
    check_field(fresh, res.pairs)
    special, critical = res.special_zero, res.critical_set

    def gate_and_classify():
        assert all(s == special or is_maximal(fresh, s) for s in critical)
        classify(fresh, res)

    lines = _python_lines(gate_and_classify, 10**7)
    assert lines / len(critical) <= budget


def test_one_search_for_a_chordal_build_and_its_count(monkeypatch):
    # Both the chordal driver and the count route select along the graph's
    # one kept perfect elimination ordering: no search per node.
    searches = []
    mcs = chordal._mcs_masked

    def counted(adj, mask, check=False):
        searches.append((mask, check))
        return mcs(adj, mask, check)

    for module in (chordal, morse):
        monkeypatch.setattr(module, "_mcs_masked", counted, raising=False)
    # Past the explicit cap; a build that reads only its counts derives no cell.
    monkeypatch.setattr(morse, "EXPLICIT_VERTEX_CAP", 40)
    g = standard_graph("path", 40)
    assert build_chordal_matching(g).critical_f == critical_fvector_recursive(g)
    # One search, which checks its own order as it goes.
    assert searches == [(g.full_mask, True)]


def test_recursive_counts_match_grid_construction():
    spec = GridSpec.of(2, 2, [[1] * 3] * 3)
    g = grid_graph(spec)
    assert critical_fvector_recursive(g) == build_grid_matching(g, spec).critical_f


def test_recursive_counts_reject_cycles():
    for n in (4, 5, 6):
        with pytest.raises(UnsupportedGraphError):
            critical_fvector_recursive(standard_graph("cycle", n))


def test_recursive_counts_match_explicit_chordal():
    for seed in range(80):
        g = random_chordal(1 + seed % 14, (seed % 5) / 4, seed)
        assert critical_fvector_recursive(g) == build_chordal_matching(g).critical_f


def test_count_table_zero_dim_cases():
    spec = GridSpec.of(2, 2, [[1] * 3] * 3)
    table = grid_count_table(spec)
    assert table.entry(0, 1, 0) == 2
    for sizes in ([[2, 1, 2], [1, 2, 1], [2, 1, 1]], [[1, 2], [3, 1], [1, 1]]):
        spec = GridSpec.of(len(sizes) - 1, len(sizes[0]) - 1, sizes)
        table = grid_count_table(spec)
        n = spec.n
        for i in range(spec.m):
            assert table.entry(i, n, 0) == sum(sizes[r][n] for r in range(i + 1))


def test_count_table_requires_nondegenerate_grid():
    with pytest.raises(ValueError):
        grid_count_table(GridSpec.of(0, 2, [[1, 1, 1]]))
    with pytest.raises(ValueError):
        grid_count_table(GridSpec.of(2, 0, [[1], [1], [1]]))


def test_count_table_entries_match_sub_rectangle_constructions():
    # entry(i, j, l) counts the l-critical simplices of the rectangle with
    # rows 0..i and columns j..n.
    for spec in small_specs(2, 2, 2):
        if spec.m == 0 or spec.n == 0:
            continue
        table = grid_count_table(spec)
        for i in range(spec.m):
            for j in range(1, spec.n + 1):
                sub = GridSpec.of(
                    i, spec.n - j, [row[j:] for row in spec.sizes[: i + 1]]
                )
                g = grid_graph(sub)
                fvec = build_grid_matching(g, sub).critical_f
                d = min(i, spec.n - j)
                got = tuple(table.entry(i, j, l) for l in range(d + 1))
                assert got == tuple(fvec) + (0,) * (d + 1 - len(fvec))


def test_grid_fvector_examples():
    assert grid_critical_fvector(GridSpec.of(1, 1, [[1, 1], [1, 1]])) == (3,)
    assert grid_critical_fvector(GridSpec.of(0, 2, [[1, 2, 3]])) == (6,)
    assert grid_critical_fvector(GridSpec.of(2, 0, [[2], [1], [2]])) == (5,)
    assert grid_critical_fvector(GridSpec.of(1, 1, [[1, 2], [1, 2]])) == (4,)


def test_grid_fvector_matches_construction_exhaustively():
    for spec in small_specs(2, 2, 2):
        g = grid_graph(spec)
        built = build_grid_matching(g, spec).critical_f
        assert grid_critical_fvector(spec) == built
        assert critical_fvector_recursive(g) == built


def test_grid_fvector_shape_on_random_specs():
    rng = random.Random(5)
    for _ in range(60):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        sizes = [[rng.randint(1, 4) for _ in range(n + 1)] for _ in range(m + 1)]
        fvec = grid_critical_fvector(GridSpec.of(m, n, sizes))
        assert all(c >= 0 for c in fvec)
        assert len(fvec) <= min(m, n) + 1


def test_grid_fvector_counts_scale_past_explicit_limits():
    # Count-only arithmetic has no vertex cap; cross-check the two count
    # routes on a 450-vertex spec.
    sizes = [[50] * 3] * 3
    spec = GridSpec.of(2, 2, sizes)
    fvec = grid_critical_fvector(spec)
    assert fvec == critical_fvector_recursive(grid_graph(spec))
    assert fvec[0] == 1 + 50 + 50
