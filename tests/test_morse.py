"""The recursive matching construction and its three drivers."""

import dataclasses
import itertools
import random

import pytest

from indmorse import (
    CapabilityError,
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
    critical_simplices,
    grid_graph,
    independence_complex,
    is_maximal,
    match_complete,
    match_isolated,
    extend_matching,
    morse,
    power_graph_cyclic,
    random_chordal,
    standard_graph,
    verify_acyclic,
    verify_matching,
)
from indmorse.morse import _grid_selector, _select_auto

from oracles import grid_rectangle_trace, universal_vertices
from test_generators import small_specs
from test_homotopy import subtree_intersection_graph

GRID11 = grid_graph(GridSpec.of(1, 1, [[1, 1], [1, 1]]))


def check_result(g, res):
    x = independence_complex(g)
    assert verify_matching(x, res.pairs)
    assert verify_acyclic(x, res.pairs)
    crit, fvec = critical_simplices(x, res.pairs)
    assert crit == res.critical_set and fvec == res.critical_f
    return x


def test_match_isolated_k1():
    g = standard_graph("complete", 1)
    res = match_isolated(g, 0)
    assert res.pairs == ((0, 1),)
    assert res.critical_set == frozenset({1}) and res.critical_f == (1,)
    assert res.special_zero == 1
    check_result(g, res)


def test_match_isolated_two_points():
    g = standard_graph("empty", 2)
    res = match_isolated(g, 0)
    assert set(res.pairs) == {(0, 1), (2, 3)}
    assert res.critical_set == frozenset({1})
    check_result(g, res)


def test_match_isolated_cone_over_p3():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    res = match_isolated(g, 3)
    assert res.critical_f == (1,)
    assert res.critical_set == frozenset({0b1000})
    assert (0, 0b1000) in res.pairs
    check_result(g, res)


def test_match_isolated_rejects_non_isolated():
    with pytest.raises(ValueError):
        match_isolated(standard_graph("path", 3), 1)


def test_match_complete_examples():
    for n in (1, 3):
        g = standard_graph("complete", n)
        res = match_complete(g)
        assert res.pairs == () and res.critical_f == (n,)
        assert res.special_zero is None
        check_result(g, res)
    col = grid_graph(GridSpec.of(2, 0, [[1], [1], [1]]))
    assert match_complete(col).critical_f == (3,)


def test_match_complete_rejects_bad_graphs():
    with pytest.raises(ValueError):
        match_complete(standard_graph("path", 3))
    with pytest.raises(ValueError):
        match_complete(standard_graph("empty", 0))


def test_extend_matching_p3():
    g = standard_graph("path", 3)
    res = extend_matching(g, 0, {})
    assert res.critical_set == frozenset({0b001, 0b010})
    assert res.critical_f == (2,) and res.special_zero == 0b001
    check_result(g, res)


def test_extend_matching_p5():
    g = standard_graph("path", 5)
    sub = ConstructionResult(
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
        extend_matching(Graph.from_edges(2, []), 0, {})
    with pytest.raises(ValueError):
        extend_matching(standard_graph("complete", 3), 0, {})
    with pytest.raises(ValueError):
        extend_matching(standard_graph("cycle", 4), 0, {})
    with pytest.raises(ValueError):
        extend_matching(p5, 0, {})


def test_extend_matching_rejects_bad_sub_matchings():
    p5 = standard_graph("path", 5)
    shared = ConstructionResult(
        pairs=((0b01000, 0b11000), (0b10000, 0b11000)),
        critical_set=frozenset(),
        critical_f=(),
        special_zero=None,
        driver="auto",
    )
    with pytest.raises(ValueError):
        extend_matching(p5, 0, {1: shared})
    outside = ConstructionResult(
        pairs=((0b00100, 0b01100),),
        critical_set=frozenset({0b10000}),
        critical_f=(1,),
        special_zero=None,
        driver="auto",
    )
    with pytest.raises(ValueError):
        extend_matching(p5, 0, {1: outside})


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
        yield g, lambda g, trace, spec=spec: build_grid_matching(g, spec, trace)
        yield g, build_auto


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
        assert len(enumerations) == sum(nd["rule"] != "complete" for nd in trace.values())
        enumerations.clear()
    assert built > 150


def test_cross_driver_equality_when_heads_agree():
    agreements = 0
    for seed in range(60):
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


def smallest_simplicial(g, mask):
    rule, v = _select_auto(g, mask)
    return rule, v


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


def _tampered(g, mask=None, critical=None, **entries):
    """g's auto-driver trace with node ``mask`` (default the root) changed."""
    trace = {}
    build_auto(g, trace=trace)
    mask = g.full_mask if mask is None else mask
    node = dict(trace[mask], **entries)
    if critical is not None:
        node["result"] = dataclasses.replace(
            node["result"], critical_set=frozenset(critical(trace, node))
        )
    trace[mask] = node
    return trace


def _lift_swap(trace, node):
    # Keep x_1 + 1 and drop the lift of the child's critical 1-simplex.
    child = trace[node["children"][1]]["result"].critical_set
    (x1,) = (c for c in child if c.bit_count() == 1)
    (edge,) = (c for c in child if c.bit_count() == 2)
    return node["result"].critical_set - {edge | 0b10} | {x1 | 0b10}


def _without_child(g):
    trace = _tampered(g)
    del trace[trace[g.full_mask]["children"][1]]
    return trace


def _restepped(g, mask, u, **step):
    """g's auto-driver trace with the recipe step for u at node ``mask``
    changed or added: its child node or its x_u."""
    trace = {}
    build_auto(g, trace=trace)
    res = trace[mask]["result"]
    steps = {w: {"child": child, "xu": xu} for w, child, xu in res.recipe[3]}
    steps[u] = dict(steps.get(u, {}), **step)
    listed = tuple((w, s["child"], s["xu"]) for w, s in sorted(steps.items()))
    recipe = (*res.recipe[:3], listed)
    trace[mask] = dict(trace[mask], result=dataclasses.replace(res, recipe=recipe))
    return trace


def _swapped(g, mask, other):
    """g's auto-driver trace with node ``mask`` holding node ``other``'s result."""
    trace = {}
    build_auto(g, trace=trace)
    trace[mask] = dict(trace[mask], result=trace[other]["result"])
    return trace


# The edge {0, 1} beside the edge {2, 3}: v = 0, and the child under u = 1
# is the clique {2, 3}, with two critical 0-simplices.
TWO_EDGES = Graph.from_edges(4, [(0, 1), (2, 3)])


def test_certificate_accepts_the_builds():
    for g in (P5, EDGE_AND_P5, GRID11, standard_graph("complete", 3)):
        trace = {}
        res = build_auto(g, trace=trace)
        cert = certify_tree(g, trace)
        assert cert.ok and cert.critical == res.critical_set
        assert cert.critical_f == res.critical_f
    assert certify_tree(standard_graph("empty", 0), {}).critical == frozenset()


ROOT = P5.full_mask


# Each tampering is at one node: the root, which the post-order trace lists
# last, the clique {3, 4} under P5's root, or the path {3, ..., 6} under P7's.
@pytest.mark.parametrize(
    "g, mask, trace, hypothesis",
    [
        (P5, ROOT, _tampered(P5, v=2), "v is not simplicial"),
        (P5, ROOT, _tampered(P5, v=None), "v is not in the mask"),
        (P7, 0b1111000, _tampered(P7, mask=0b1111000, v=0), "v is not in the mask"),
        (P5, ROOT, _tampered(P5, children={1: 0b11100}), "child masks"),
        (P5, ROOT, _without_child(P5), "child 1 is not a node"),
        (EDGE_AND_P5, EDGE_AND_P5.full_mask,
         _tampered(EDGE_AND_P5, critical=_lift_swap),
         "x_1 is not a critical 0-simplex"),
        (P5, ROOT,
         _tampered(P5, critical=lambda t, node: node["result"].critical_set | {0b101}),
         "the critical set is not the extension's"),
        (P5, ROOT,
         _tampered(P5, rule="complete", v=None, children={},
                   critical=lambda t, node: {1 << w for w in range(5)}),
         "the mask is not a clique"),
        (P5, 0b11000, _tampered(P5, mask=0b11000, critical=lambda t, node: {0b1000}),
         "critical cells are not its singletons"),
        # P7's root v = 0 holds the recipe of {3, ..., 6}, whose v is 3.
        (P7, P7.full_mask, _swapped(P7, P7.full_mask, 0b1111000),
         "the recipe is not this node's extension step"),
        # P5's root v = 0 has the one child under u = 1.
        (P5, ROOT,
         _restepped(P5, ROOT, 2, child=match_complete(standard_graph("complete", 1)), xu=1),
         "the recipe has a step for no child"),
        # x_1 = {2} is dropped from the critical set; the recipe names {3}.
        (TWO_EDGES, 0b1111, _restepped(TWO_EDGES, 0b1111, 1, xu=0b1000),
         "the recipe's x_1 is not the critical 0-simplex dropped"),
        # The child of {3, ..., 6} under u = 4 is {6}; the cone on 6 over
        # 0, ..., 5 has the same critical cells and other pairs.
        (P7, 0b1111000,
         _restepped(P7, 0b1111000, 4, child=match_isolated(standard_graph("empty", 7), 6)),
         "the recipe's child 4 is not the node of mask - N[4]"),
    ],
)
def test_certificate_names_the_failing_node(g, mask, trace, hypothesis):
    with pytest.raises(ValueError) as exc:
        certify_tree(g, trace)
    message = str(exc.value)
    assert message.startswith(
        f"extension hypothesis fails at node {sorted(bits(mask))}: "
    )
    assert hypothesis in message


def test_certificate_needs_the_root():
    trace = {}
    build_auto(P5, trace=trace)
    del trace[P5.full_mask]
    with pytest.raises(ValueError, match="no node for the full graph"):
        certify_tree(P5, trace)
