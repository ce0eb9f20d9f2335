"""The recursive matching construction and its three drivers."""

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indmorse import (
    CapabilityError,
    check_field,
    ConstructionResult,
    Graph,
    GridSpec,
    SimplicialComplex,
    UnsupportedGraphError,
    bits,
    build_auto,
    build_chordal_matching,
    build_grid_matching,
    certify_tree,
    critical_fvector_recursive,
    critical_simplices,
    grid_graph,
    independence_complex,
    is_chordal,
    is_maximal,
    extend_matching,
    graph_to_json,
    morse,
    power_graph_cyclic,
    random_chordal,
    standard_graph,
    verify_acyclic,
    verify_matching,
)
from indmorse.cli import main
from indmorse.morse import _auto_selector, _grid_selector, _recurse, _twin_table

from oracles import (
    auto_counts_reference,
    auto_matching_reference,
    auto_recursion_reference,
    grid_rectangle_trace,
    induced_delete,
    is_simplicial,
    lifted_by_node,
    universal_vertices,
)
from test_counts import TWO_BAD_CHILDREN
from test_generators import small_specs
from test_graph_core import graphs
from test_homotopy import subtree_intersection_graph

GRID11 = grid_graph(GridSpec.of(1, 1, [[1, 1], [1, 1]]))


def check_result(g, res):
    x = independence_complex(g)
    assert verify_matching(x, res.pairs)
    assert verify_acyclic(x, res.pairs)
    crit, fvec = critical_simplices(x, res.pairs)
    assert crit == res.critical_set and fvec == res.critical_f
    return x


# An isolated vertex is simplicial, and the extension step at it collapses
# I(G) onto {v}: with no neighbors, only case (iii) applies, and every
# simplex avoiding v is paired with its v-extension.
def test_isolated_rule_k1():
    g = standard_graph("complete", 1)
    res = build_auto(g)
    assert res.pairs == ((0, 1),)
    assert res.critical_set == frozenset({1}) and res.critical_f == (1,)
    assert res.special_zero == 1
    check_result(g, res)


def test_isolated_rule_two_points():
    g = standard_graph("empty", 2)
    res = build_auto(g)
    assert set(res.pairs) == {(0, 1), (2, 3)}
    assert res.critical_set == frozenset({1})
    check_result(g, res)


def test_isolated_rule_cone_over_p3():
    # The isolated 3 is no rule of its own: the smallest simplicial vertex is
    # the end 0 of the path, and the one child, under u = 1, is the single
    # vertex 3, whose {3} is x_1.
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    res = build_auto(g)
    assert res.critical_f == (1,)
    assert res.critical_set == frozenset({0b0001}) and res.special_zero == 0b0001
    assert (0, 0b0001) in res.pairs and (0b0010, 0b1010) in res.pairs
    check_result(g, res)


def test_complete_rule_examples():
    # A clique is no rule of its own: at its lowest vertex v no u has a
    # child, so the step pairs only (empty, {v}) and leaves n critical points.
    for n in range(1, 6):
        g = standard_graph("complete", n)
        res = build_auto(g)
        assert res.pairs == ((0, 1),) and res.critical_f == (n,)
        assert res.special_zero == 1 and res.critical_set == {1 << w for w in range(n)}
        check_result(g, res)
    col = grid_graph(GridSpec.of(2, 0, [[1], [1], [1]]))
    assert build_auto(col).critical_f == (3,)
    spec = GridSpec.of(0, 2, [[2, 1, 1]])
    res = build_grid_matching(grid_graph(spec), spec)
    assert res.pairs == ((0, 1),) and res.critical_f == (4,)


def test_extend_matching_covers_isolated_and_universal_vertices():
    # The step at an isolated v or in a clique needs no sub-matching and
    # gives build_auto's counts.
    k3 = standard_graph("complete", 3)
    cone = Graph.from_edges(4, [(0, 1), (1, 2)])
    cases = [(standard_graph("complete", 1), 0), (cone, 3)]
    cases += [(k3, v) for v in range(3)]
    for g, v in cases:
        res = extend_matching(g, v, {})
        field = check_field(independence_complex(g), res.pairs)
        assert field.ok and field.critical == res.critical_set
        assert res.special_zero == 1 << v
        assert field.critical_f == res.critical_f == build_auto(g).critical_f


def test_extend_matching_p3():
    g = standard_graph("path", 3)
    res = extend_matching(g, 0, {})
    assert res.critical_set == frozenset({0b001, 0b010})
    assert res.critical_f == (2,) and res.special_zero == 0b001
    check_result(g, res)


def test_extend_matching_p5():
    g = standard_graph("path", 5)
    sub = ConstructionResult.given(
        pairs=(),
        critical_set=frozenset({0b01000, 0b10000}),
        critical_f=(2,),
        special_zero=None,
        driver="complete",
    )
    res = extend_matching(g, 0, {1: sub})
    assert res.critical_f == (1, 1) and res.special_zero == 0b00001
    assert res.critical_set == frozenset({0b00001, 0b10010})
    assert (0b00010, 0b01010) in res.pairs
    check_result(g, res)


def test_extend_matching_grid_corner():
    res = extend_matching(GRID11, 2, {})
    assert res.critical_f == (3,)
    assert res.critical_set == frozenset({0b0001, 0b0100, 0b1000})
    check_result(GRID11, res)


def test_extend_matching_rejects_bad_vertices():
    p5 = standard_graph("path", 5)
    with pytest.raises(ValueError):
        extend_matching(standard_graph("cycle", 4), 0, {})
    with pytest.raises(ValueError):
        extend_matching(p5, 0, {})


def test_extend_matching_rejects_bad_sub_matchings():
    p5 = standard_graph("path", 5)
    shared = ConstructionResult.given(
        pairs=((0b01000, 0b11000), (0b10000, 0b11000)),
        critical_set=frozenset(),
        critical_f=(),
        special_zero=None,
        driver="auto",
    )
    with pytest.raises(ValueError):
        extend_matching(p5, 0, {1: shared})
    outside = ConstructionResult.given(
        pairs=((0b00100, 0b01100),),
        critical_set=frozenset({0b10000}),
        critical_f=(1,),
        special_zero=None,
        driver="auto",
    )
    with pytest.raises(ValueError):
        extend_matching(p5, 0, {1: outside})
    # With no pair, both {3} and {4} are critical in I(G - N[1]).
    own = ConstructionResult.given(
        pairs=(),
        critical_set=frozenset({0b01000, 0b10000}),
        critical_f=(2,),
        special_zero=None,
        driver="auto",
    )
    assert extend_matching(p5, 0, {1: own}).critical_f == (1, 1)
    for critical_set, critical_f, special_zero in (
        # Valid pairs whose critical data is not theirs: understated, a
        # wrong set with the right f-vector, the right set with a wrong one.
        ({0b01000}, (1,), None),
        ({0b01000, 0b00100}, (2,), None),
        ({0b01000, 0b10000}, (1,), None),
        # {2} is no cell of I(G - N[1]), so it cannot be the special 0-simplex.
        ({0b01000, 0b10000}, (2,), 0b00100),
    ):
        bad = ConstructionResult.given((), critical_set, critical_f, special_zero, "auto")
        with pytest.raises(ValueError, match="sub-matching for neighbor 1 is invalid"):
            extend_matching(p5, 0, {1: bad})
    # On P6, {3, 5} is a critical cell of I(G - N[1]) but no 0-simplex.
    cells = frozenset({0b001000, 0b010000, 0b100000, 0b101000})
    edge = ConstructionResult.given(
        pairs=(), critical_set=cells, critical_f=(3, 1), special_zero=0b101000,
        driver="auto",
    )
    with pytest.raises(ValueError, match="sub-matching for neighbor 1 is invalid"):
        extend_matching(standard_graph("path", 6), 0, {1: edge})


def test_build_chordal_examples():
    cases = [
        ("path", 4, (1,)),
        ("path", 5, (1, 1)),
        ("complete", 3, (3,)),
        ("complete", 1, (1,)),
    ]
    for kind, n, fvec in cases:
        g = standard_graph(kind, n)
        res = build_chordal_matching(g)
        assert res.critical_f == fvec and res.driver == "chordal"
        check_result(g, res)


def test_build_chordal_empty_graph():
    res = build_chordal_matching(standard_graph("empty", 0))
    assert res.pairs == () and res.critical_f == ()


def test_build_chordal_rejects_non_chordal():
    for n in (4, 5):
        with pytest.raises(ValueError):
            build_chordal_matching(standard_graph("cycle", n))


def test_build_chordal_isolated_short_circuit():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    res = build_chordal_matching(g)
    assert res.critical_f == (1,) and res.special_zero == 0b1000
    check_result(g, res)


def test_build_grid_examples():
    res = build_grid_matching(GRID11, GridSpec.of(1, 1, [[1, 1], [1, 1]]))
    assert res.critical_f == (3,) and res.driver == "grid"
    check_result(GRID11, res)

    z6 = power_graph_cyclic(2, 3, 1, 1)
    spec = GridSpec.of(1, 1, [[1, 2], [1, 2]])
    res = build_grid_matching(z6, spec)
    assert res.critical_f == (4,)
    check_result(z6, res)

    col = grid_graph(GridSpec.of(1, 0, [[1], [2]]))
    res = build_grid_matching(col, GridSpec.of(1, 0, [[1], [2]]))
    assert res.critical_f == (3,)


def shuffled(g, seed):
    """g with its vertex ids permuted by a seeded shuffle."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    adj = [0] * g.n
    labels = [None] * g.n
    for old, new in enumerate(perm):
        adj[new] = sum(1 << perm[w] for w in bits(g.adj[old]))
        labels[new] = g.labels[old]
    return Graph(g.n, tuple(adj), tuple(labels))


def test_grid_trace_matches_rectangle_oracle():
    cases = []
    for m, n in itertools.product(range(3), repeat=2):
        for combo in itertools.product((1, 2), repeat=(m + 1) * (n + 1)):
            spec = GridSpec.of(
                m, n, [combo[r * (n + 1):(r + 1) * (n + 1)] for r in range(m + 1)]
            )
            cases.append((grid_graph(spec), spec))
    cases.append((power_graph_cyclic(2, 3, 1, 1), GridSpec.of(1, 1, [[1, 2], [1, 2]])))
    spec = GridSpec.of(2, 2, [[1, 2, 1], [2, 1, 2], [1, 2, 2]])
    cases.append((shuffled(grid_graph(spec), 7), spec))
    for g, spec in cases:
        trace = {}
        build_grid_matching(g, spec, trace=trace)
        got = {
            mask: (node["rule"], node["v"], node["children"])
            for mask, node in trace.items()
        }
        assert got == grid_rectangle_trace(g, spec)


def test_grid_selector_rejects_non_rectangle():
    select = _grid_selector(GRID11, GridSpec.of(1, 1, [[1, 1], [1, 1]]))
    # Cells (0, 0) and (1, 1) alone: the corner is (1, 0), whose rectangle
    # is the whole grid.
    with pytest.raises(ValueError, match="inconsistent with the grid recursion"):
        select(GRID11, 0b1001)


def test_build_grid_rejects_inconsistent_input():
    with pytest.raises(ValueError):
        build_grid_matching(GRID11, GridSpec.of(1, 1, [[2, 1], [1, 1]]))
    with pytest.raises(ValueError):
        build_grid_matching(standard_graph("path", 4), GridSpec.of(1, 1, [[1, 1], [1, 1]]))


def test_build_auto_examples():
    res = build_auto(GRID11)
    assert res.critical_f == (3,) and res.driver == "auto"
    check_result(GRID11, res)
    with pytest.raises(UnsupportedGraphError) as err:
        build_auto(standard_graph("cycle", 4))
    assert err.value.vertices == (0, 1, 2, 3)
    with pytest.raises(UnsupportedGraphError):
        build_auto(standard_graph("cycle", 5))


def _selections_checked_by_the_oracle(g: Graph) -> list[int]:
    """Run the recursion on the generic driver's selector and twin classes
    with every selection checked against the smallest vertex that the
    oracle's ``is_simplicial`` accepts on G[mask]; return the masks in the
    order selected."""
    closed, twins = _twin_table(g)
    select = _auto_selector(closed, twins)
    seen = []

    def checked(g, mask):
        seen.append(mask)
        h, ids = induced_delete(g, g.full_mask & ~mask)
        want = next((ids[w] for w in range(h.n) if is_simplicial(h, w)), None)
        if want is not None:
            assert select(g, mask) == want, sorted(bits(mask))
            return want
        with pytest.raises(UnsupportedGraphError) as got:
            select(g, mask)
        assert str(got.value) == (
            f"no simplicial vertex in the induced subgraph on {sorted(bits(mask))}"
        )
        assert got.value.vertices == tuple(bits(mask))
        raise got.value

    try:
        _recurse(g, checked, lambda g, mask, v, children, twins: v, twins=twins)
    except UnsupportedGraphError:
        pass
    return seen


# Vertex 0 fails at the top, where 3 is selected; in the child under
# neighbor 4 its witness 2 is gone and 0 is the smallest simplicial vertex.
WITNESS_LOST = Graph.from_edges(
    7, [(0, 1), (0, 2), (1, 5), (2, 6), (3, 4), (4, 2)]
)


@settings(deadline=None)
@given(graphs(11))
@example(WITNESS_LOST)
@example(TWO_BAD_CHILDREN)
@example(standard_graph("cycle", 6))
def test_auto_selector_is_the_smallest_simplicial_vertex_at_every_node(g):
    # The selector keeps each rejected vertex's witness pair across nodes;
    # it must still select what a fresh scan would.
    if g.n:
        assert _selections_checked_by_the_oracle(g)


def test_auto_selector_on_grids_with_twins():
    # Each cell of a grid graph is a class of true twins, which the
    # selector's test skips.
    specs = [
        GridSpec.of(1, 1, [[1, 2], [2, 1]]),
        GridSpec.of(2, 2, [[1, 2, 1], [3, 1, 2], [1, 2, 2]]),
        GridSpec.of(2, 3, [[2] * 4, [1, 3, 1, 2], [2, 1, 1, 3]]),
        GridSpec.of(3, 3, [[2] * 4] * 4),
    ]
    for spec in specs:
        g = grid_graph(spec)
        assert _selections_checked_by_the_oracle(g), spec
    # The first bad subgraph of TWO_BAD_CHILDREN is the one under neighbor 1.
    assert _selections_checked_by_the_oracle(TWO_BAD_CHILDREN)[-1] == 0b1111000


def with_twins(g: Graph, copies) -> Graph:
    """g with one true twin added per entry w of copies: a new vertex with
    the closed neighborhood of vertex w (mod the vertices so far)."""
    adj = [set(bits(row)) for row in g.adj]
    for w in copies if g.n else ():
        w %= len(adj)
        adj.append(adj[w] | {w})
        for x in adj[-1]:
            adj[x].add(len(adj) - 1)
    return Graph.from_edges(len(adj), [(u, v) for u, row in enumerate(adj) for v in row if u < v])


@st.composite
def twin_rich_graphs(draw):
    """Grids of up to 3x3 cells of 1 to 12 vertices, each cell a class of
    true twins, and graphs of up to 9 vertices with up to 12 true twins
    added; the ids are shuffled, so a class need not be consecutive."""
    if draw(st.booleans()):
        m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        rows = [draw(st.lists(st.integers(1, 12), min_size=n + 1, max_size=n + 1)) for _ in range(m + 1)]
        g = grid_graph(GridSpec.of(m, n, rows))
    else:
        g = with_twins(draw(graphs(9)), draw(st.lists(st.integers(0, 99), max_size=12)))
    perm = draw(st.permutations(range(g.n)))
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# Twins of 1 and of 4 and 6 on the chordless 4-cycles: the first subgraph
# without a simplicial vertex, under neighbor 1, takes the cycle's twins along.
TWO_BAD_CHILDREN_TWINS = with_twins(TWO_BAD_CHILDREN, [1, 4, 6, 6])


@settings(deadline=None, max_examples=200)
@given(twin_rich_graphs())
@example(TWO_BAD_CHILDREN_TWINS)
@example(grid_graph(GridSpec.of(3, 3, [[12] * 4] * 4)))
@example(grid_graph(GridSpec.of(2, 2, [[3, 4, 3], [4, 3, 4], [3, 4, 3]])))
def test_generic_route_matches_the_scan_reference_on_twins(g):
    # The selection drops a rejected vertex's twin class and the recursion
    # takes each class's child once; the reference scans every vertex and
    # walks every u.  Counts always, and on graphs within the explicit cap
    # the build's pairs in order, critical set and special 0-simplex.
    explicit = g.n <= 32
    try:
        nodes = auto_recursion_reference(g)
    except UnsupportedGraphError as exc:
        for route in (critical_fvector_recursive, build_auto)[: 1 + explicit]:
            with pytest.raises(UnsupportedGraphError) as got:
                route(g)
            assert (str(got.value), got.value.vertices) == (str(exc), exc.vertices)
        return
    want = auto_counts_reference(g, nodes)
    assert critical_fvector_recursive(g) == want
    if explicit:
        res = build_auto(g)
        assert res.critical_f == want
        assert (res.pairs, res.critical_set, res.special_zero) == auto_matching_reference(g, nodes)


def test_generic_error_names_the_subgraph_with_its_twins():
    for route in (critical_fvector_recursive, build_auto):
        with pytest.raises(UnsupportedGraphError) as got:
            route(TWO_BAD_CHILDREN_TWINS)
        assert str(got.value) == (
            "no simplicial vertex in the induced subgraph on [3, 4, 5, 6, 9, 10, 11]"
        )
        assert got.value.vertices == (3, 4, 5, 6, 9, 10, 11)


def test_vertex_cap_on_builders():
    big = standard_graph("empty", 33)
    with pytest.raises(CapabilityError):
        build_auto(big)


def _builds_with_every_driver():
    """(graph, build) over random chordal graphs, subtree intersection
    graphs and labelled grids, with every driver that accepts each."""
    for seed in range(40):
        g = random_chordal(1 + seed % 11, (seed % 5) / 4, seed)
        yield g, build_chordal_matching
        yield g, build_auto
    for seed in range(15):
        g = subtree_intersection_graph(6 + seed % 6, seed)
        yield g, build_chordal_matching
        yield g, build_auto
    for spec in itertools.islice(small_specs(2, 2, 2), 0, None, 9):
        g = grid_graph(spec)
        yield g, lambda g, trace=None, spec=spec: build_grid_matching(g, spec, trace)
        yield g, build_auto


def test_every_node_is_an_extension_step():
    built = 0
    for g, build in _builds_with_every_driver():
        trace = {}
        try:
            res = build(g, trace=trace)
        except UnsupportedGraphError:
            continue
        built += 1
        assert res.recipe is not None and trace
        for mask, node in trace.items():
            _, node_mask, v, steps = node["result"].recipe
            assert node["rule"] == "extend" and (node_mask, v) == (mask, node["v"])
            assert [u for u, _, _ in steps] == list(node["children"])
    assert built > 150
    # Only the 0-vertex graph, with no vertex to select, has no recipe.
    empty = standard_graph("empty", 0)
    for build in (build_auto, build_chordal_matching):
        trace = {}
        res = build(empty, trace=trace)
        assert trace == {} and res.recipe is None
        assert (res.pairs, res.critical_set, res.critical_f) == ((), frozenset(), ())


def test_pairs_are_derived_on_first_read_at_every_node(monkeypatch):
    enumerations = []
    independent_sets = morse._independent_sets

    def counted(adj, mask):
        enumerations.append(mask)
        return independent_sets(adj, mask)

    monkeypatch.setattr(morse, "_independent_sets", counted)
    built = 0
    for g, build in _builds_with_every_driver():
        trace = {}
        try:
            build(g, trace=trace)
        except UnsupportedGraphError:
            continue
        built += 1
        # The build assembles critical data only.
        assert enumerations == []
        faces = independence_complex(g).faces
        for mask, node in trace.items():
            x = SimplicialComplex(g.n, frozenset(f for f in faces if not f & ~mask))
            res = node["result"]
            assert verify_matching(x, res.pairs) and verify_acyclic(x, res.pairs)
            crit, fvec = critical_simplices(x, res.pairs)
            assert crit == res.critical_set and fvec == res.critical_f
        # Each extension node's pairs are derived once, however many
        # parents share it.
        assert len(enumerations) == len(trace)
        enumerations.clear()
    assert built > 150


def _assert_derived_as_lifted(nodes):
    """Each node's pairs, in order, and critical set equal the per-node
    lifting of the reference."""
    memo = {}
    for node in nodes:
        pairs, critical = lifted_by_node(node, memo)
        assert node.pairs == pairs and node.critical_set == critical


def test_one_walk_derivation_equals_the_per_node_lifting(monkeypatch):
    built = 0
    for k, (g, build) in enumerate(_builds_with_every_driver()):
        trace = {}
        try:
            build(g, trace=trace)
        except UnsupportedGraphError:
            continue
        built += 1
        nodes = [t["result"] for t in trace.values()]
        # Post-order reads each child before its parents; the reverse reads
        # the root first, as the gates do.
        _assert_derived_as_lifted(nodes if k % 2 else nodes[::-1])
    assert built > 150
    # Sub-matchings given whole to extend_matching, with and without their
    # special 0-simplex, so x_u is the child's {v} or its smallest critical
    # 0-simplex.
    for seed in range(30):
        g = random_chordal(2 + seed % 9, 0.25 + (seed % 4) / 4, seed)
        root = build_auto(g)
        _, _, v, steps = root.recipe
        subs = {
            u: ConstructionResult.given(
                child.pairs, child.critical_set, child.critical_f,
                child.special_zero if seed % 2 else None, "given",
            )
            for u, child, _ in steps
        }
        _assert_derived_as_lifted([extend_matching(g, v, subs)])
    # A tree with a wrong x_u: the largest critical 0-simplex of each child.
    monkeypatch.setattr(
        morse, "_choose_xu",
        lambda child: max(s for s in child.critical_set if s.bit_count() == 1),
    )
    for seed in (74, 108, 213):
        trace = {}
        build_auto(random_chordal(6 + seed % 7, 0.5 + (seed % 5) / 10, seed), trace=trace)
        _assert_derived_as_lifted([t["result"] for t in reversed(trace.values())])


def test_repr_reads_stored_fields_only():
    # A failed `assert res == ...` prints both sides; printing a cone of
    # 38,880 faces must not derive its pairs.
    res = build_auto(random_chordal(18, 0.35, 3))
    assert repr(res) == "ConstructionResult(critical_f=(1,), driver='auto')"
    assert "pairs" not in res.__dict__ and "critical_set" not in res.__dict__
    # The 0-vertex graph's node has no recipe and derives an empty matching.
    empty = build_chordal_matching(standard_graph("empty", 0))
    assert repr(empty) == "ConstructionResult(critical_f=(), driver='chordal')"
    assert (empty.pairs, empty.critical_set, empty.special_zero) == ((), frozenset(), None)


def _derived_fields(res):
    return res.pairs, res.critical_set, res.critical_f, res.special_zero, res.driver


GRID_SPECS = list(itertools.islice(small_specs(2, 2, 2), 0, None, 5))


@settings(max_examples=60, deadline=None)
@given(graphs(9), st.sampled_from(GRID_SPECS))
def test_builds_are_deterministic_and_equal_only_themselves(g, spec):
    grid = grid_graph(spec)
    builds = [(grid, lambda g: build_grid_matching(g, spec)), (grid, build_auto)]
    builds.append((g, build_auto))
    if is_chordal(g):
        builds.append((g, build_chordal_matching))
    for h, build in builds:
        try:
            first = build(h)
        except UnsupportedGraphError:
            continue
        second = build(h)
        assert _derived_fields(first) == _derived_fields(second)
        # Equality is identity: comparing two builds derives nothing.
        assert first == first and first != second
        assert len({first, first}) == 1 and len({first, second}) == 2


def test_a_node_cannot_hold_state_its_recipe_contradicts():
    res = build_auto(P5)
    with pytest.raises(TypeError):
        dataclasses.replace(res, special_zero=0b100)
    with pytest.raises(TypeError):
        dataclasses.replace(res, critical_set=frozenset({0b1}))
    for g, build in itertools.islice(_builds_with_every_driver(), 0, None, 11):
        trace = {}
        try:
            build(g, trace=trace)
        except UnsupportedGraphError:
            continue
        for node in (t["result"] for t in trace.values()):
            repr(node)
            assert "pairs" not in node.__dict__ and "critical_set" not in node.__dict__
            assert node.special_zero == 1 << node.recipe[2]


def test_a_given_node_inside_a_tree_fails_the_certificate():
    p7 = build_auto(P7)
    child = _child(p7, 1)
    whole = ConstructionResult.given(
        child.pairs, child.critical_set, child.critical_f, child.special_zero, "auto"
    )
    # The root reads only the child's counts and special 0-simplex, which agree.
    with pytest.raises(ValueError) as exc:
        certify_tree(P7, _restep(p7, 1, child=whole))
    assert str(exc.value) == (
        "extension hypothesis fails at node [3, 4, 5, 6]: "
        "a node with no recipe is not the 0-vertex graph's"
    )


def test_cross_driver_equality_when_heads_agree():
    # The two drivers agree on every head of about one graph in ten.
    agreements = 0
    for seed in range(300):
        g = random_chordal(1 + seed % 10, (seed % 5) / 4, seed)
        tc, ta = {}, {}
        rc = build_chordal_matching(g, trace=tc)
        ra = build_auto(g, trace=ta)
        heads_c = {m: t["v"] for m, t in tc.items() if t["rule"] == "extend"}
        heads_a = {m: t["v"] for m, t in ta.items() if t["rule"] == "extend"}
        if heads_c == heads_a:
            agreements += 1
            assert rc.pairs == ra.pairs
            assert rc.critical_set == ra.critical_set
        assert sum(rc.critical_f) == sum(ra.critical_f)
    assert agreements > 20


def audit_extend_node(g, mask, node, trace):
    """Recheck the per-node critical counts directly from the definitions."""
    v = node["v"]
    nv = g.adj[v] & mask
    k = 0
    child_f = []
    for u in bits(nv):
        mask_u = mask & ~(g.adj[u] | 1 << u)
        if mask_u == 0:
            k += 1
        else:
            assert node["children"][u] == mask_u
            child_f.append(trace[mask_u]["result"].critical_f)
    got = node["result"].critical_f
    deg = nv.bit_count()
    expect = [1 + k]
    depth = max((len(f) for f in child_f), default=0)
    for t in range(1, depth + 1):
        total = sum(f[t - 1] if t - 1 < len(f) else 0 for f in child_f)
        if t == 1:
            total -= deg - k
        expect.append(total)
    while expect and expect[-1] == 0:
        expect.pop()
    assert got == tuple(expect)


def test_theorem_counts_hold_at_every_node():
    for seed in range(40):
        g = random_chordal(1 + seed % 11, (seed % 4) / 3, seed)
        trace = {}
        build_chordal_matching(g, trace=trace)
        for mask, node in trace.items():
            if node["rule"] == "extend":
                audit_extend_node(g, mask, node, trace)


def test_verbatim_vpath_pairs_at_every_node():
    # For every non-universal neighbor u of the chosen v, the matching must
    # contain ({u},{u,x_u}) and ({x_u},{x_u,v}) with x_u drawn from the
    # child's critical 0-simplices.
    for seed in range(25):
        g = random_chordal(2 + seed % 10, (seed % 5) / 4, seed)
        trace = {}
        build_chordal_matching(g, trace=trace)
        for mask, node in trace.items():
            if node["rule"] != "extend":
                continue
            v = node["v"]
            up = dict(node["result"].pairs)
            for u, mask_u in node["children"].items():
                partner = up[1 << u]
                xu = partner & ~(1 << u)
                assert xu.bit_count() == 1
                assert xu in trace[mask_u]["result"].critical_set
                assert up[xu] == xu | 1 << v


def test_critical_characterization_at_root():
    for seed in range(25):
        g = random_chordal(2 + seed % 10, (seed % 5) / 4, seed)
        trace = {}
        res = build_chordal_matching(g, trace=trace)
        root = trace.get(g.full_mask)
        if root is None or root["rule"] != "extend":
            continue
        v = root["v"]
        up = dict(res.pairs)
        expect = {1 << v}
        for u in bits(g.adj[v]):
            mask_u = g.full_mask & ~(g.adj[u] | 1 << u)
            if mask_u == 0:
                expect.add(1 << u)
                continue
            child = trace[mask_u]["result"]
            xu = up[1 << u] & ~(1 << u)
            for c in child.critical_set:
                if c.bit_count() == 1 and c != xu:
                    expect.add(c | 1 << u)
                elif c.bit_count() >= 2:
                    expect.add(c | 1 << u)
        assert res.critical_set == expect


def test_maximality_of_criticals_except_special_zero():
    for seed in range(30):
        g = random_chordal(1 + seed % 10, (seed % 5) / 4, seed)
        res = build_chordal_matching(g)
        x = independence_complex(g)
        for s in res.critical_set:
            if s != res.special_zero:
                assert is_maximal(x, s)


def test_special_zero_is_a_critical_zero_simplex_or_none():
    for seed in range(30):
        g = random_chordal(1 + seed % 10, (seed % 5) / 4, seed)
        res = build_chordal_matching(g)
        if res.special_zero is None:
            assert universal_vertices(g) == g.full_mask
        else:
            assert res.special_zero.bit_count() == 1
            assert res.special_zero in res.critical_set


P5 = standard_graph("path", 5)
P7 = standard_graph("path", 7)
# An edge {0, 1} beside a path on 2..6: v = 0, and the child under u = 1 is
# the path, whose critical cells are one 0-simplex and one 1-simplex.
EDGE_AND_P5 = Graph.from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6)])
# The edge {0, 1} beside the edge {2, 3}: v = 0, and the child under u = 1
# is the clique {2, 3}, with two critical 0-simplices.
TWO_EDGES = Graph.from_edges(4, [(0, 1), (2, 3)])
# The edge {0, 1} beside the path 2-3-4: v = 0, and the child under u = 1
# has the critical 0-simplices {2}, its special one, and {3}.
EDGE_AND_P3 = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])


def _child(node, u):
    """The child node of ``node``'s recipe step for u."""
    return next(child for w, child, _ in node.recipe[3] if w == u)


def _recipe(node, **parts):
    """``node`` with parts of its recipe (v, or the step list) changed."""
    adj, mask, v, steps = node.recipe
    parts = {"v": v, "steps": steps, **parts}
    return dataclasses.replace(node, recipe=(adj, mask, parts["v"], parts["steps"]))


def _restep(node, u, **step):
    """``node`` with its recipe step for u changed or added: the child node
    or x_u."""
    steps = {w: {"child": child, "xu": xu} for w, child, xu in node.recipe[3]}
    steps[u] = dict(steps.get(u, {}), **step)
    listed = tuple((w, s["child"], s["xu"]) for w, s in sorted(steps.items()))
    return _recipe(node, steps=listed)


def test_certificate_accepts_the_builds():
    for g in (P5, EDGE_AND_P5, GRID11, standard_graph("complete", 3)):
        res = build_auto(g)
        assert certify_tree(g, res) == res.critical_f
    empty = standard_graph("empty", 0)
    assert certify_tree(empty, build_auto(empty)) == ()


def test_certificate_checks_the_root_critical_f():
    res = build_auto(P5)
    with pytest.raises(ValueError, match="the critical counts are not the extension's"):
        certify_tree(P5, dataclasses.replace(res, critical_f=(2, 1)))


def test_certificate_checks_each_node_once(monkeypatch):
    checked = []
    node_fault = morse._node_fault

    def counted(g, mask, node):
        checked.append(mask)
        return node_fault(g, mask, node)

    monkeypatch.setattr(morse, "_node_fault", counted)
    for g, build in itertools.islice(_builds_with_every_driver(), 0, None, 7):
        trace = {}
        try:
            res = build(g, trace=trace)
        except UnsupportedGraphError:
            continue
        checked.clear()
        certify_tree(g, res)
        # Memoized nodes are shared by several parents.
        assert sorted(checked) == sorted(trace)


def test_certificate_equals_the_field_check():
    built = 0
    for g, build in _builds_with_every_driver():
        try:
            res = build(g)
        except UnsupportedGraphError:
            continue
        certified = certify_tree(g, res)
        field = check_field(independence_complex(g), res.pairs)
        assert field.ok and certified == field.critical_f
        assert res.critical_set == field.critical
        built += 1
    assert built > 150


def _tampered_trees():
    """(graph, tampered tree, mask of the failing node, hypothesis).  Each
    tree has one node changed, spliced into its parent where it is not the
    root; the parent's checks still pass, so the changed node fails first."""
    p5 = build_auto(P5)
    p7 = build_auto(P7)
    # P7's root v = 0 has the one child {3, ..., 6} under u = 1, whose v is 3.
    p7_child = _child(p7, 1)
    yield pytest.param(
        P5, _recipe(p5, v=2), P5.full_mask, "v is not simplicial",
        id="v-not-simplicial")
    yield pytest.param(
        P5, _recipe(p5, v=5), P5.full_mask, "v is not in the mask",
        id="v-outside-the-graph")
    # A child's special 0-simplex is its {v}, and its parent checks it
    # against x_u inside the child's mask, so only a root can fail with v
    # outside its mask; a child fails at its parent.
    yield pytest.param(
        P7, _restep(p7, 1, child=_recipe(p7_child, v=0)), P7.full_mask,
        "x_1 is not the special 0-simplex of child 1", id="child-v-outside-its-mask")
    yield pytest.param(
        P7, p7_child, P7.full_mask, "the recipe is not this node's extension step",
        id="root-holds-a-child-recipe")
    chorded = Graph.from_edges(5, P5.edges() + [(2, 4)])
    yield pytest.param(
        P5, build_auto(chorded), P5.full_mask,
        "the recipe is not this node's extension step", id="tree-of-another-graph")
    # The child of {3, ..., 6} under u = 4 is {6}; the cone on 6 over a
    # hexagon on 0..5 has the same special 0-simplex {6} and counts (1,).
    cone = build_auto(Graph.from_edges(7, [(i, (i + 1) % 6) for i in range(6)]))
    yield pytest.param(
        P7, _restep(p7, 1, child=_restep(p7_child, 4, child=cone)), 0b1000000,
        "the recipe is not this node's extension step", id="child-from-another-graph")
    # P5's root v = 0 has the one child under u = 1; u = 2 is no neighbor.
    yield pytest.param(
        P5, _restep(p5, 2, child=_child(p5, 1), xu=0b1000), P5.full_mask,
        "the steps are not the u in N(v) with mask - N[u] nonempty",
        id="step-for-a-non-neighbor")
    edge_and_p5 = build_auto(EDGE_AND_P5)
    (edge,) = (c for c in _child(edge_and_p5, 1).critical_set if c.bit_count() == 2)
    yield pytest.param(
        EDGE_AND_P5, _restep(edge_and_p5, 1, xu=edge), EDGE_AND_P5.full_mask,
        "x_1 is not a critical 0-simplex of child 1", id="x_u-not-a-0-simplex")
    # The child under u = 1 is the edge {2, 3}; {0} is no cell of it.
    yield pytest.param(
        TWO_EDGES, _restep(build_auto(TWO_EDGES), 1, xu=0b0001), 0b1111,
        "x_1 is not a critical 0-simplex of child 1", id="x_u-outside-the-child")
    # x_1 = {3} is a critical 0-simplex of the child, but not its special {2}.
    yield pytest.param(
        EDGE_AND_P3, _restep(build_auto(EDGE_AND_P3), 1, xu=0b1000),
        EDGE_AND_P3.full_mask, "x_1 is not the special 0-simplex of child 1",
        id="x_u-not-the-special-zero")
    # Only the 0-vertex graph's node has no recipe; a clique's is an
    # extension step like any other.
    no_recipe = "a node with no recipe is not the 0-vertex graph's"
    singletons = frozenset(1 << w for w in range(5))
    yield pytest.param(
        P5, ConstructionResult.given((), singletons, (5,), None, "auto"),
        P5.full_mask, no_recipe, id="recipe-less-non-clique")
    k3 = standard_graph("complete", 3)
    yield pytest.param(
        k3, ConstructionResult.given((), {1, 2, 4}, (3,), None, "auto"),
        k3.full_mask, no_recipe, id="recipe-less-clique")
    yield pytest.param(
        k3, dataclasses.replace(build_auto(k3), critical_f=(2,)), k3.full_mask,
        "the critical counts are not the extension's", id="clique-counts-not-its-size")
    # The child {3, ..., 6} of P7 has critical_f (1,); the root's (1, 0, 1)
    # is the assembly of (1, 1), so only the child's counts are wrong.
    yield pytest.param(
        P7,
        dataclasses.replace(
            _restep(p7, 1, child=dataclasses.replace(p7_child, critical_f=(1, 1))),
            critical_f=(1, 0, 1),
        ),
        0b1111000, "the critical counts are not the extension's",
        id="inner-critical-f")


@pytest.mark.parametrize("g, tree, mask, hypothesis", list(_tampered_trees()))
def test_certificate_names_the_failing_node(g, tree, mask, hypothesis):
    with pytest.raises(ValueError) as exc:
        certify_tree(g, tree)
    message = str(exc.value)
    assert message.startswith(
        f"extension hypothesis fails at node {sorted(bits(mask))}: "
    )
    assert hypothesis in message


def test_explicit_analyze_derives_no_critical_set(capsys, tmp_path, monkeypatch):
    derived = []
    derive = morse._derive

    def counted(node):
        derived.append(node.recipe[1])
        return derive(node)

    monkeypatch.setattr(morse, "_derive", counted)
    grid = grid_graph(GridSpec.of(2, 1, [[1, 2], [2, 1], [1, 2]]))
    paths = {}
    for name, g in (("p7", P7), ("grid", grid)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(graph_to_json(g)), encoding="utf-8")
    # Explicit analyze reads the certified counts, never a critical set.
    for name, driver in itertools.product(paths, ("auto", "chordal", "grid")):
        if (name, driver) == ("p7", "grid"):
            continue  # a path has no grid labels
        for extra in ((), ("--gamma",)):
            argv = ["analyze", str(paths[name]), "--driver", driver, *extra]
            assert main(argv) == 0, argv
    assert derived == []
    # compare checks the derived set against the field's on the complex.
    assert main(["compare", str(paths["p7"])]) == 0
    assert derived
    capsys.readouterr()
