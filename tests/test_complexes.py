"""Independence complexes, f-vectors, Hasse edges, maximality, and the
four-block partition."""

from contextlib import contextmanager
from functools import cached_property
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from indmorse import (
    CapabilityError,
    Graph,
    GridSpec,
    SimplicialComplex,
    f_vector,
    grid_graph,
    hasse_edges,
    independence_complex,
    is_maximal,
    standard_graph,
)
from indmorse.complexes import _independent_sets
from oracles import (
    closure_complex,
    independent_set_masks,
    independent_sets_recursive,
    is_maximal_scan,
    partition_check,
)

from test_generators import small_specs
from test_graph_core import all_graphs, graphs
from test_homology import RP2

K3 = standard_graph("complete", 3)
P3 = standard_graph("path", 3)


def test_independence_complex_examples():
    assert independence_complex(K3).faces == frozenset({0, 1, 2, 4})
    assert independence_complex(P3).faces == frozenset({0, 1, 2, 4, 5})
    full = independence_complex(standard_graph("empty", 2))
    assert full.faces == frozenset({0, 1, 2, 3})


def test_independence_complex_matches_subset_filter():
    for g in all_graphs(4):
        assert independence_complex(g).faces == frozenset(independent_set_masks(g))


@given(graphs(9), st.integers(min_value=0, max_value=(1 << 9) - 1))
def test_independent_sets_keep_the_branching_order(g, mask):
    mask &= g.full_mask
    got = _independent_sets(g.adj, mask)
    assert got == list(independent_sets_recursive(g.adj, mask))
    assert len(set(got)) == len(got)


def test_independence_complex_vertex_cap():
    big = Graph.from_edges(33, [(i, i + 1) for i in range(32)])
    with pytest.raises(CapabilityError):
        independence_complex(big)


def test_from_simplices_validates_closure():
    x = SimplicialComplex.from_simplices(2, [0, 1, 2, 3])
    assert x.faces == frozenset({0, 1, 2, 3})
    assert SimplicialComplex.from_simplices(2, [1, 2]).faces == frozenset({0, 1, 2})
    with pytest.raises(ValueError):
        SimplicialComplex.from_simplices(2, [0, 3])
    with pytest.raises(ValueError):
        SimplicialComplex.from_simplices(1, [0, 2])
    with pytest.raises(ValueError):
        SimplicialComplex(2, frozenset({1, 2}))


def test_f_vector_examples():
    assert f_vector(independence_complex(K3)) == (3,)
    assert f_vector(independence_complex(P3)) == (3, 1)
    grid11 = grid_graph(GridSpec.of(1, 1, [[1, 1], [1, 1]]))
    assert f_vector(independence_complex(grid11)) == (4, 1)
    assert f_vector(SimplicialComplex(3, frozenset({0}))) == ()


def test_f_vector_sums_to_nonempty_simplex_count():
    for g in all_graphs(4):
        x = independence_complex(g)
        assert sum(f_vector(x)) == len(x.faces) - 1


def test_dim_examples():
    assert SimplicialComplex(3, frozenset({0})).dim() == -1
    assert independence_complex(K3).dim() == 0
    assert independence_complex(P3).dim() == 1


def _check_face_index(x):
    """The cached face index against filters of x.faces."""
    top = max(s.bit_count() for s in x.faces) - 1
    assert x.dim() == top
    for d in range(-2, top + 2):
        want = sorted(s for s in x.faces if s.bit_count() == d + 1)
        assert x.simplices_of_dim(d) == tuple(want)
    assert f_vector(x) == tuple(
        sum(1 for s in x.faces if s.bit_count() == d + 1) for d in range(top + 1)
    )


@given(graphs(9))
def test_face_index_equals_direct_filters(g):
    _check_face_index(independence_complex(g))


def test_face_index_on_rp2_and_the_empty_complex():
    _check_face_index(RP2)
    _check_face_index(SimplicialComplex(3, frozenset({0})))


def test_grid_complex_dimension_is_min_of_m_and_n():
    for spec in small_specs(2, 2, 2):
        x = independence_complex(grid_graph(spec))
        assert x.dim() == min(spec.m, spec.n)
    ones = GridSpec.of(3, 3, [[1] * 4] * 4)
    assert independence_complex(grid_graph(ones)).dim() == 3


def test_is_maximal_examples():
    xp3 = independence_complex(P3)
    assert is_maximal(xp3, 0b101)
    assert not is_maximal(xp3, 0b001)
    assert is_maximal(independence_complex(K3), 1)
    with pytest.raises(ValueError):
        is_maximal(xp3, 0b011)


def test_a_skeleton_candidate_need_not_be_a_coface():
    # Vertices 2 and 3 both lie in the skeleton links of 0 and 1, but of
    # their two extensions of {0, 1} only {0, 1, 3} is a face, and the
    # lower candidate is tried first.
    x = closure_complex(4, [0b1011, 0b0101, 0b0110])
    links, verts = x._skeleton
    assert verts == 0b1111 and links[0b0001] & links[0b0010] == 0b1100
    assert not is_maximal(x, 0b0011) and is_maximal(x, 0b1011)
    # The boundary of a triangle: its one candidate extends no edge.
    hollow = closure_complex(3, [0b011, 0b101, 0b110])
    links, _ = hollow._skeleton
    assert links[0b001] & links[0b010] == 0b100
    assert all(is_maximal(hollow, s) for s in (0b011, 0b101, 0b110))


@contextmanager
def skeleton_builds():
    """Record each complex whose 1-skeleton table is built inside the block."""
    builds = []
    build = SimplicialComplex._skeleton.func

    def counted(self):
        builds.append(self)
        return build(self)

    table = cached_property(counted)
    table.__set_name__(SimplicialComplex, "_skeleton")
    with mock.patch.object(SimplicialComplex, "_skeleton", table):
        yield builds


def _check_maximality(x):
    """is_maximal against the per-vertex scan on every face of x, and the
    ValueError of both on every non-face; all faces are asked twice, yet the
    1-skeleton table is built once, kept on x, and nothing else is kept."""
    with skeleton_builds() as builds:
        for _ in range(2):
            for s in x.faces:
                assert is_maximal(x, s) == is_maximal_scan(x, s), bin(s)
    assert len(builds) == 1 and builds[0] is x
    assert set(x.__dict__) - {"n", "faces"} == {"_by_size", "_skeleton"}
    for s in range(1 << x.n):
        if s not in x.faces:
            for check in (is_maximal, is_maximal_scan):
                with pytest.raises(ValueError, match="does not belong"):
                    check(x, s)


@given(
    st.integers(min_value=0, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6)
        )
    )
)
def test_maximality_equals_the_scan_on_closure_complexes(case):
    # Not flag complexes in general: the boundary of a triangle, for one.
    n, tops = case
    _check_maximality(closure_complex(n, tops))


@given(graphs(9))
def test_maximality_equals_the_scan_on_independence_complexes(g):
    _check_maximality(independence_complex(g))


def test_maximality_of_the_empty_simplex():
    only_empty = SimplicialComplex(3, frozenset({0}))
    _check_maximality(only_empty)
    assert is_maximal(only_empty, 0) and is_maximal_scan(only_empty, 0)
    assert not is_maximal(independence_complex(K3), 0)
    _check_maximality(closure_complex(3, [0b011, 0b101, 0b110]))


def test_universal_vertex_iff_maximal_singleton():
    for g in all_graphs(4):
        x = independence_complex(g)
        full = g.full_mask
        for v in range(g.n):
            assert is_maximal(x, 1 << v) == ((g.adj[v] | 1 << v) == full)


def test_hasse_edges_examples():
    k1 = independence_complex(standard_graph("complete", 1))
    assert hasse_edges(k1) == [(1, 0)]
    assert hasse_edges(independence_complex(P3)) == [
        (1, 0),
        (2, 0),
        (4, 0),
        (5, 1),
        (5, 4),
    ]
    full2 = independence_complex(standard_graph("empty", 2))
    assert hasse_edges(full2) == [(1, 0), (2, 0), (3, 1), (3, 2)]


def test_hasse_edges_are_exactly_codim_one_containments():
    for g in all_graphs(4):
        x = independence_complex(g)
        got = set(hasse_edges(x))
        expect = {
            (b, a)
            for a in x.faces
            for b in x.faces
            if a & ~b == 0 and (b ^ a).bit_count() == 1
        }
        assert got == expect


def test_partition_check_examples():
    assert partition_check(P3, 0)
    assert partition_check(standard_graph("path", 4), 0)
    k2 = standard_graph("complete", 2)
    assert partition_check(k2, 0) and partition_check(k2, 1)


def test_partition_check_on_every_eligible_vertex():
    for g in all_graphs(5):
        for v in range(g.n):
            nbrs = [w for w in range(g.n) if g.adj[v] >> w & 1]
            clique = all(
                g.adj[a] >> b & 1
                for i, a in enumerate(nbrs)
                for b in nbrs[i + 1:]
            )
            if nbrs and clique:
                assert partition_check(g, v)


def test_partition_check_rejects_bad_vertices():
    with pytest.raises(ValueError):
        partition_check(P3, 1)
    with pytest.raises(ValueError):
        partition_check(standard_graph("empty", 2), 0)
