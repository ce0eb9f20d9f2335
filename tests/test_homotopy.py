"""Homotopy-type classification, its one rule, and the oracle checks."""

import random

import pytest
from hypothesis import example, given, strategies as st

from indmorse import matching, morse
from indmorse import (
    ConstructionResult,
    Graph,
    GridSpec,
    HomologyProfile,
    HomotopyType,
    UnsupportedGraphError,
    build_auto,
    build_chordal_matching,
    build_grid_matching,
    check_domination_bound,
    classify,
    classify_tree,
    consistency_with_homology,
    grid_graph,
    homology_integer,
    independence_complex,
    is_chordal,
    is_maximal,
    power_graph_cyclic,
    random_chordal,
    standard_graph,
    verify_acyclic,
    verify_matching,
)
from oracles import acyclic_by_reachability, classify_by_scan, closure_complex
from test_complexes import skeleton_builds
from test_generators import small_specs


def manual_result(pairs, critical, driver="auto"):
    counts = []
    for s in critical:
        d = s.bit_count() - 1
        while len(counts) <= d:
            counts.append(0)
        counts[d] += 1
    return ConstructionResult.given(
        pairs=pairs,
        critical_set=critical,
        critical_f=tuple(counts),
        special_zero=None,
        driver=driver,
    )


def test_homotopy_type_validation():
    with pytest.raises(ValueError):
        HomotopyType("sphere")
    with pytest.raises(ValueError):
        HomotopyType("wedge", (0,))
    assert HomotopyType("wedge", (0, 2)).wedge == (0, 2)
    assert HomotopyType("collapsible").wedge == ()


def test_homotopy_type_is_canonical():
    # One type, one value: trailing zeros go, and only a wedge has spheres.
    assert HomotopyType("wedge", (0, 1, 0)) == HomotopyType("wedge", (0, 1))
    assert HomotopyType("wedge", [2, 0, 0]).wedge == (2,)
    assert HomotopyType("collapsible", (0, 0)) == HomotopyType("collapsible")
    for kind in ("collapsible", "unclassified"):
        with pytest.raises(ValueError):
            HomotopyType(kind, (3,))


def classify_graph(g):
    res = build_chordal_matching(g)
    return classify(independence_complex(g), res)


def test_classify_named_instances():
    assert classify_graph(standard_graph("path", 4)) == HomotopyType("collapsible")
    assert classify_graph(standard_graph("path", 5)) == HomotopyType("wedge", (0, 1))
    assert classify_graph(standard_graph("complete", 3)) == HomotopyType("wedge", (2,))

    spec = GridSpec.of(1, 1, [[1, 1], [1, 1]])
    g = grid_graph(spec)
    h = classify(independence_complex(g), build_grid_matching(g, spec))
    assert h == HomotopyType("wedge", (2,))

    z6 = power_graph_cyclic(2, 3, 1, 1)
    spec = GridSpec.of(1, 1, [[1, 2], [1, 2]])
    h = classify(independence_complex(z6), build_grid_matching(z6, spec))
    assert h == HomotopyType("wedge", (3,))


def test_classify_rejects_inconsistent_results():
    g = standard_graph("path", 4)
    x = independence_complex(g)
    res = build_chordal_matching(g)
    tampered = ConstructionResult.given(
        pairs=res.pairs,
        critical_set=frozenset({1}),
        critical_f=(1,),
        special_zero=None,
        driver="auto",
    )
    if res.critical_set != {1}:
        with pytest.raises(ValueError):
            classify(x, tampered)
    with pytest.raises(ValueError):
        classify(independence_complex(standard_graph("path", 3)), res)


def test_classify_single_dimension_branch():
    # Filled triangle 012 with a free path 1-3-2 glued on: a circle.  The
    # matching leaves {0} and the inner edge {1,2} critical, both
    # non-maximal, so the one rule does not apply.  Its critical cells sit
    # in one positive dimension, but classify names no type from that.
    x = closure_complex(4, [0b0111, 0b1010, 0b1100])
    pairs = [
        (0b0010, 0b0011),
        (0b0100, 0b1100),
        (0b1000, 0b1010),
        (0b0101, 0b0111),
    ]
    res = manual_result(pairs, [0b0001, 0b0110])
    assert verify_matching(x, pairs) and verify_acyclic(x, pairs)
    h = classify(x, res)
    assert h.kind == "unclassified" and h.reason
    prof = homology_integer(x)
    assert prof.betti == (1, 1, 0)
    assert not consistency_with_homology(h, prof)


def test_classify_descending_path_branch(monkeypatch):
    # A 2-sphere with a solid flap (vertices 0..4) wedged at vertex 0 with
    # a filled-triangle circle (vertices 0,5,6,7).  Critical cells sit in
    # dimensions 0, 1 and 2 and all of the higher ones are non-maximal, so
    # the one rule does not apply: classify leaves it unclassified, though
    # generalized paths would show it a wedge of a circle and a 2-sphere.
    facets = [0b00010111, 0b00001011, 0b00001101, 0b00001110, 0b01100001,
              0b10100000, 0b11000000]
    x = closure_complex(8, facets)
    pairs = [
        (0b00000010, 0b00000011),
        (0b00000100, 0b00000101),
        (0b00001000, 0b00001001),
        (0b00010000, 0b00010001),
        (0b00000110, 0b00001110),
        (0b00001010, 0b00001011),
        (0b00001100, 0b00001101),
        (0b00010010, 0b00010011),
        (0b00010100, 0b00010101),
        (0b00010110, 0b00010111),
        (0b00100000, 0b00100001),
        (0b01000000, 0b11000000),
        (0b10000000, 0b10100000),
        (0b01000001, 0b01100001),
    ]
    critical = [0b00000001, 0b01100000, 0b00000111]
    res = manual_result(pairs, critical)
    assert verify_matching(x, pairs) and verify_acyclic(x, pairs)
    # The field is validated once.
    checks = []
    unmatched_faces = matching._unmatched_faces

    def counted(*args):
        checks.append(args)
        return unmatched_faces(*args)

    monkeypatch.setattr(matching, "_unmatched_faces", counted)
    h = classify(x, res)
    monkeypatch.undo()
    assert len(checks) == 1
    assert h.kind == "unclassified" and h.reason
    prof = homology_integer(x)
    assert prof.betti == (1, 1, 1, 0)
    assert not consistency_with_homology(h, prof)


def test_classify_unclassified_case():
    # Two disjoint edges with both inner vertices critical: two non-maximal
    # critical 0-simplices defeat the one rule.
    x = closure_complex(4, [0b0101, 0b1010])
    pairs = [(0b0001, 0b0101), (0b0010, 0b1010)]
    res = manual_result(pairs, [0b0100, 0b1000])
    h = classify(x, res)
    assert h.kind == "unclassified" and h.reason
    assert not consistency_with_homology(h, homology_integer(x))


def test_domination_bound_examples():
    p5 = standard_graph("path", 5)
    assert check_domination_bound(p5, classify_graph(p5))
    k3 = standard_graph("complete", 3)
    assert check_domination_bound(k3, classify_graph(k3))
    z6 = power_graph_cyclic(2, 3, 1, 1)
    spec = GridSpec.of(1, 1, [[1, 2], [1, 2]])
    h = classify(independence_complex(z6), build_grid_matching(z6, spec))
    assert check_domination_bound(z6, h)
    assert check_domination_bound(p5, HomotopyType("collapsible"))
    assert not check_domination_bound(p5, HomotopyType("wedge", (1,)))
    with pytest.raises(ValueError):
        check_domination_bound(p5, HomotopyType("unclassified", reason="x"))


def test_consistency_with_homology_cases():
    collapsible = HomotopyType("collapsible")
    assert consistency_with_homology(collapsible, HomologyProfile((1,), (True,)))
    assert consistency_with_homology(
        collapsible, HomologyProfile((1, 0), (True, True))
    )
    assert not consistency_with_homology(
        collapsible, HomologyProfile((2, 0), (True, True))
    )
    assert not consistency_with_homology(
        collapsible, HomologyProfile((1, 1), (True, True))
    )

    circle = HomotopyType("wedge", (0, 1))
    assert consistency_with_homology(circle, HomologyProfile((1, 1), (True, True)))
    assert consistency_with_homology(
        circle, HomologyProfile((1, 1, 0), (True, True, True))
    )
    assert not consistency_with_homology(circle, HomologyProfile((1, 2), (True, True)))
    assert not consistency_with_homology(circle, HomologyProfile((1, 1), (True, False)))
    # A wedge given with trailing zeros names the same spheres.
    assert consistency_with_homology(
        HomotopyType("wedge", (0, 1, 0)), HomologyProfile((1, 1), (True, True))
    )

    points = HomotopyType("wedge", (2,))
    assert consistency_with_homology(points, HomologyProfile((3,), (True,)))
    assert consistency_with_homology(points, HomologyProfile((3, 0), (True, True)))
    assert not consistency_with_homology(points, HomologyProfile((2,), (True,)))
    # No Betti number at all (the empty complex) confirms nothing.
    assert not consistency_with_homology(collapsible, HomologyProfile((), ()))
    assert not consistency_with_homology(points, HomologyProfile((), ()))


def subtree_intersection_graph(n: int, seed: int) -> Graph:
    """Intersection graph of n small random subtrees of a random tree.

    Every such graph is chordal.  Each subtree after the first starts at a
    node of an earlier one, so the graph is connected.
    """
    rng = random.Random(seed)
    size = 3 * n
    tree: list[list[int]] = [[] for _ in range(size)]
    for i in range(1, size):
        p = rng.randrange(i)
        tree[i].append(p)
        tree[p].append(i)
    subtrees: list[set[int]] = []
    for _ in range(n):
        start = rng.choice(sorted(rng.choice(subtrees))) if subtrees else 0
        nodes = {start}
        frontier = list(tree[start])
        want = rng.randint(1, 3)
        while len(nodes) < want and frontier:
            w = frontier.pop(rng.randrange(len(frontier)))
            if w not in nodes:
                nodes.add(w)
                frontier += [y for y in tree[w] if y not in nodes]
        subtrees.append(nodes)
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if subtrees[a] & subtrees[b]
    ]
    return Graph.from_edges(n, edges)


def test_subtree_intersection_stratum_is_confirmed_by_homology():
    # Connected chordal graphs with no isolated vertex, whose complexes are
    # points or wedges of spheres but never cones over an isolated vertex.
    # At least half of the 200 instances must reach a sphere of dimension
    # >= 1 (this seed range gives 134, and 41 of dimension >= 2).
    higher = 0
    for seed in range(200):
        g = subtree_intersection_graph(10 + seed % 11, seed)
        reached = 1
        while True:
            grown = reached
            for v in range(g.n):
                if reached >> v & 1:
                    grown |= g.adj[v]
            if grown == reached:
                break
            reached = grown
        assert reached == g.full_mask and all(g.adj)
        x = independence_complex(g)
        h = classify(x, build_chordal_matching(g))
        assert consistency_with_homology(h, homology_integer(x)), (seed, h)
        higher += h.kind == "wedge" and any(h.wedge[1:])
    assert higher >= 100


def _certified_and_verified(g, build, *args):
    res = build(g, *args)
    x = independence_complex(g)
    # The certificate's lemma: every critical cell but special_zero is a facet.
    assert all(is_maximal(x, s) for s in res.critical_set - {res.special_zero})
    return classify_tree(g, res), classify(x, res)


def test_classify_builds_one_skeleton_table_on_a_cone():
    # One critical 0-simplex on a complex of 38,880 faces: classify answers
    # its maximality from the 1-skeleton table, built once.
    g = random_chordal(18, 0.35, 3)
    x = independence_complex(g)
    res = build_auto(g)
    assert len(x.faces) == 38_880 and len(res.critical_set) == 1
    with skeleton_builds() as builds:
        assert classify(x, res) == HomotopyType("collapsible")
        assert classify(x, res) == HomotopyType("collapsible")
    assert len(builds) == 1 and builds[0] is x


def test_gate_and_classify_build_one_skeleton_table():
    spec = GridSpec.of(2, 2, [[2, 1, 2], [1, 2, 1], [2, 1, 2]])
    g = grid_graph(spec)
    res = build_grid_matching(g, spec)
    x = independence_complex(g)
    # Criterion 3's check, then classify's, which asks every critical cell.
    with skeleton_builds() as builds:
        assert all(s == res.special_zero or is_maximal(x, s) for s in res.critical_set)
        classify(x, res)
    assert len({s.bit_count() for s in res.critical_set}) > 1
    assert len(builds) == 1 and builds[0] is x
    # On I(g) a vertex's link is every other vertex it is not adjacent to.
    links = {1 << v: g.full_mask & ~g.adj[v] & ~(1 << v) for v in range(g.n)}
    assert x._skeleton == (links, g.full_mask)


def _random_acyclic_matching(x, rng):
    """A random acyclic matching on the Hasse diagram of x, empty simplex
    included: edges in random order, each kept with probability 0.7 when it
    meets no kept cell and leaves the field acyclic by reachability."""
    edges = [(b & ~(1 << v), b) for b in sorted(x.faces) for v in range(x.n) if b >> v & 1]
    rng.shuffle(edges)
    pairs: list = []
    used: set = set()
    for a, b in edges:
        if rng.random() < 0.3 or a in used or b in used:
            continue
        if acyclic_by_reachability(x, pairs + [(a, b)]):
            pairs.append((a, b))
            used.update((a, b))
    return pairs


# The boundary of a triangle with one vertex paired to the empty simplex:
# vertex 0 is in the skeleton link of both ends of the critical edge {1, 2},
# yet {0, 1, 2} is no face, so the edge is maximal and the type a circle.
HOLLOW_TRIANGLE = (3, [0b011, 0b101, 0b110], [(0, 0b001), (0b010, 0b011), (0b100, 0b101)])


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=5)
        )
    ),
    st.randoms(use_true_random=False),
)
@example(HOLLOW_TRIANGLE[:2], None)
def test_classify_equals_the_scan_reference_on_closure_complexes(case, rng):
    # Closure complexes are not flag in general, so a vertex in the link of
    # every vertex of a cell need not extend it; classify's one pass over the
    # skeleton table must still agree with the per-vertex scan.
    n, tops = case
    x = closure_complex(n, tops)
    if rng is None:
        pairs = HOLLOW_TRIANGLE[2]
    else:
        pairs = _random_acyclic_matching(x, rng)
    up = dict(pairs)
    critical = x.faces - set(up) - set(up.values()) - {0} | ({up[0]} if 0 in up else set())
    res = manual_result(tuple(pairs), critical)
    h = classify(x, res)
    verdict = (h.kind, h.wedge) if h.kind == "wedge" else (h.kind,)
    assert verdict == classify_by_scan(x, critical)
    if rng is None:
        assert h == HomotopyType("wedge", (0, 1))


def random_non_chordal(seed: int) -> Graph:
    """A seeded G(n, p) graph on 4..11 vertices, redrawn until it is not
    chordal."""
    rng = random.Random(seed)
    while True:
        n, p = rng.randint(4, 11), rng.uniform(0.15, 0.6)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        g = Graph.from_edges(n, edges)
        if not is_chordal(g):
            return g


def test_certified_classification_equals_the_verified_one():
    # Every driver that accepts the graph: chordal and auto on chordal
    # graphs, grid and auto (when every stage has a simplicial vertex) on
    # labelled grids and on random non-chordal graphs.
    chordal = [random_chordal(1 + seed % 14, (seed % 6) / 5, seed) for seed in range(120)]
    chordal += [subtree_intersection_graph(5 + seed % 12, seed) for seed in range(60)]
    for g in chordal:
        for build in (build_chordal_matching, build_auto):
            certified, verified = _certified_and_verified(g, build)
            assert certified == verified
    grids = 0
    for spec in list(small_specs(2, 2, 2))[::5]:
        g = grid_graph(spec)
        certified, verified = _certified_and_verified(g, build_grid_matching, spec)
        assert certified == verified
        try:
            certified, verified = _certified_and_verified(g, build_auto)
        except UnsupportedGraphError:
            continue
        assert certified == verified
        grids += 1
    assert grids > 50
    non_chordal = 0
    for seed in range(120):
        g = random_non_chordal(seed)
        try:
            certified, verified = _certified_and_verified(g, build_auto)
        except UnsupportedGraphError:
            continue
        assert certified == verified
        non_chordal += 1
    assert non_chordal > 60


def test_classify_tree_rejects_an_x_u_other_than_the_special_zero(monkeypatch):
    # With x_u the largest critical 0-simplex instead of the child's special
    # one, the tree meets every other hypothesis of the extension theorem,
    # but lifted non-maximal cells survive.  The certificate names the x_u
    # hypothesis; classify on the complex finds those cells non-maximal.
    monkeypatch.setattr(
        morse, "_choose_xu",
        lambda child: max(s for s in child.critical_set if s.bit_count() == 1),
    )
    for seed in (74, 108, 213):
        g = random_chordal(6 + seed % 7, 0.5 + (seed % 5) / 10, seed)
        res = build_auto(g)
        with pytest.raises(ValueError, match="is not the special 0-simplex of child"):
            classify_tree(g, res)
        assert classify(independence_complex(g), res).kind == "unclassified", seed
