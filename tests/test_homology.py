"""The integer homology oracle, its boundary columns, its excision pass,
and the exhaustive matching search."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from indmorse import (
    CapabilityError,
    Graph,
    HomologyProfile,
    SimplicialComplex,
    build_chordal_matching,
    build_grid_matching,
    grid_graph,
    GridSpec,
    homology_integer,
    independence_complex,
    optimal_matching_bruteforce,
    random_chordal,
    standard_graph,
)
from indmorse.homology import (
    _columns_of,
    _excise,
    _rank_and_factors,
    _smith_diagonal_dense,
)
from oracles import betti_rational, closure_complex

from test_acceptance import iter_chordal_corpus, iter_grid_specs
from test_graph_core import all_graphs, graphs

# Minimal 6-vertex triangulation of the real projective plane: 10 facets,
# every edge in exactly two of them; H_1 = Z/2.
RP2_FACETS = [19, 35, 13, 37, 25, 14, 22, 42, 52, 56]
RP2 = closure_complex(6, RP2_FACETS)


def boundary(x, d):
    """The full d-th boundary matrix of x, one column per d-simplex."""
    return _columns_of(x.simplices_of_dim(d), x.simplices_of_dim(d - 1))


def homology_unreduced(x) -> HomologyProfile:
    """Integer homology by elimination over every simplex, with no pass in
    front: beta_d = f_d - rank d_d - rank d_(d+1)."""
    top = x.dim()
    ranks = [0] * (top + 2)
    nontrivial = [False] * (top + 2)
    for d in range(1, top + 1):
        ranks[d], factors = _rank_and_factors(boundary(x, d))
        nontrivial[d] = bool(factors)
    return HomologyProfile(
        tuple(
            len(x.simplices_of_dim(d)) - ranks[d] - ranks[d + 1]
            for d in range(top + 1)
        ),
        tuple(not nontrivial[d + 1] for d in range(top + 1)),
    )


def test_boundary_matrix_of_p3():
    x = independence_complex(standard_graph("path", 3))
    assert x.simplices_of_dim(0) == (1, 2, 4) and x.simplices_of_dim(1) == (5,)
    assert boundary(x, 1) == [{2: 1, 0: -1}]


def test_boundary_columns_have_abs_sum_dim_plus_one():
    for g in all_graphs(4):
        x = independence_complex(g)
        for d in range(1, x.dim() + 1):
            cols = boundary(x, d)
            assert len(cols) == len(x.simplices_of_dim(d))
            for col in cols:
                assert set(col.values()) <= {1, -1}
                assert len(col) == d + 1


def test_boundary_composition_vanishes():
    for x in (RP2, independence_complex(standard_graph("cycle", 5))):
        for d in range(2, x.dim() + 1):
            lo = boundary(x, d - 1)
            for col in boundary(x, d):
                prod: dict[int, int] = {}
                for r, val in col.items():
                    for r2, val2 in lo[r].items():
                        prod[r2] = prod.get(r2, 0) + val * val2
                assert all(v == 0 for v in prod.values())


def test_homology_integer_examples():
    assert homology_integer(
        independence_complex(standard_graph("complete", 3))
    ) == HomologyProfile((3,), (True,))
    assert homology_integer(
        independence_complex(standard_graph("path", 5))
    ) == HomologyProfile((1, 1, 0), (True, True, True))
    assert homology_integer(
        independence_complex(standard_graph("cycle", 5))
    ) == HomologyProfile((1, 1), (True, True))
    assert homology_integer(
        independence_complex(standard_graph("cycle", 4))
    ) == HomologyProfile((2, 0), (True, True))
    assert homology_integer(SimplicialComplex(2, frozenset({0}))) == HomologyProfile(
        (), ()
    )


def test_homology_integer_detects_projective_plane_torsion():
    prof = homology_integer(RP2)
    assert prof.betti == (1, 0, 0)
    assert prof.torsion_free == (True, False, True)


def test_excision_matches_unreduced_elimination():
    grids = [
        independence_complex(grid_graph(spec))
        for spec in itertools.islice(iter_grid_specs(), 0, None, 50)
    ]
    others = [
        independence_complex(g)
        for g in itertools.islice(iter_chordal_corpus(), 0, None, 10)
    ]
    rng = random.Random(2009)
    for _ in range(100):
        n = rng.randint(1, 10)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        others.append(independence_complex(Graph.from_edges(n, edges)))
    # Dense G(n, p): small complexes (under 2,000 faces) with many cells left.
    for n, p in [(n, 0.5) for n in range(20, 31)] + [(32, 0.6)]:
        rng = random.Random(n)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        others.append(independence_complex(Graph.from_edges(n, edges)))
    # An isolated lowest vertex, a circle, an edge and another isolated point.
    components = closure_complex(
        7, [0b1, 0b110, 0b1100, 0b1010, 0b110000, 0b1000000]
    )
    assert homology_integer(components) == HomologyProfile((4, 1), (True, True))
    others += [
        RP2,
        components,
        SimplicialComplex(0, frozenset({0})),
        SimplicialComplex(1, frozenset({0, 1})),
    ]
    for x in grids + others:
        assert homology_integer(x) == homology_unreduced(x)
    # Excision leaves 23.8% of the grid sample's cells, pinned: a test that
    # stopped early on a vertex that passes would leave more of them.
    cells = sum(len(x.faces) - 1 for x in grids)
    left = sum(len(s) for x in grids for s in _excise(x))
    assert (len(grids), cells, left) == (1_500, 226_890, 54_062)


@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=8)
        )
    )
)
def test_excision_matches_unreduced_elimination_on_closure_complexes(case):
    # Not flag complexes in general: the hollow triangle, for one.
    n, tops = case
    x = closure_complex(n, tops)
    assert homology_integer(x) == homology_unreduced(x)


@given(graphs(10))
def test_excision_matches_unreduced_elimination_on_independence_complexes(g):
    x = independence_complex(g)
    assert homology_integer(x) == homology_unreduced(x)


def test_excision_skips_a_vertex_whose_link_is_gone():
    # Excising every star regardless would cut Ind(C_4), two disjoint edges,
    # to one point (betti (1, 0)) and the hollow triangle to a disk (1, 0).
    c4 = independence_complex(standard_graph("cycle", 4))
    rim = closure_complex(3, [0b011, 0b101, 0b110])
    assert homology_integer(c4) == HomologyProfile((2, 0), (True, True))
    assert homology_integer(rim) == HomologyProfile((1, 1), (True, True))
    for x in (c4, rim):
        assert homology_integer(x) == homology_unreduced(x)


def test_torsion_survives_excision():
    apexes = (1 << 6, 1 << 7)
    suspension = closure_complex(8, [f | a for f in RP2_FACETS for a in apexes])
    cone = closure_complex(7, [f | 1 << 6 for f in RP2_FACETS])
    assert homology_integer(suspension) == HomologyProfile(
        (1, 0, 0, 0), (True, True, False, True)
    )
    assert homology_integer(cone) == HomologyProfile((1, 0, 0, 0), (True,) * 4)
    for x in (suspension, cone):
        assert homology_integer(x) == homology_unreduced(x)


def test_cycles_match_kozlov():
    # Ind(C_n) is a wedge of two (k-1)-spheres for n = 3k, S^(k-1) for
    # n = 3k + 1 and S^k for n = 3k + 2 (Kozlov).
    for n in range(3, 22):
        k, r = divmod(n, 3)
        sphere, copies = ((k - 1, 2), (k - 1, 1), (k, 1))[r]
        x = independence_complex(standard_graph("cycle", n))
        betti = [1] + [0] * x.dim()
        betti[sphere] += copies
        assert homology_integer(x) == HomologyProfile(
            tuple(betti), (True,) * len(betti)
        )


def test_cross_polytopes_are_spheres():
    # Ind(k K_2), k disjoint edges, is the boundary of the k-dimensional
    # cross-polytope: S^(k-1), with 3^k faces.
    for k in range(1, 10):
        edges = [(2 * i, 2 * i + 1) for i in range(k)]
        x = independence_complex(Graph.from_edges(2 * k, edges))
        betti = [1] + [0] * (k - 1)
        betti[k - 1] += 1
        assert len(x.faces) == 3**k
        assert homology_integer(x) == HomologyProfile(tuple(betti), (True,) * k)


def test_integer_betti_agrees_with_rational_oracle():
    for g in all_graphs(4):
        x = independence_complex(g)
        assert homology_integer(x).betti == betti_rational(x)
    assert homology_integer(RP2).betti == betti_rational(RP2)


def test_smith_normal_form_dense_fallback():
    assert _smith_diagonal_dense([[2, 4], [6, 8]]) == [2, 4]
    assert _smith_diagonal_dense([[0, 0], [0, 0]]) == []
    assert _smith_diagonal_dense([[6]]) == [6]
    assert _smith_diagonal_dense([[2, 0], [0, 3]]) == [1, 6]
    rank, factors = _rank_and_factors([{0: 2, 1: 6}, {0: 4, 1: 8}])
    assert rank == 2 and factors == [2, 4]
    rank, factors = _rank_and_factors([{0: 1, 1: 1}, {0: 1, 1: -1}])
    assert rank == 2 and factors == [2]
    rank, factors = _rank_and_factors([{0: 1}, {1: -1}])
    assert rank == 2 and factors == []


def test_homology_simplex_cap():
    x = independence_complex(standard_graph("empty", 16))
    with pytest.raises(CapabilityError):
        homology_integer(x)


def test_optimal_matching_bruteforce_examples():
    assert optimal_matching_bruteforce(
        independence_complex(standard_graph("complete", 3))
    ) == 3
    assert optimal_matching_bruteforce(
        independence_complex(standard_graph("path", 3))
    ) == 2
    assert optimal_matching_bruteforce(
        independence_complex(standard_graph("path", 4))
    ) == 1
    rim = closure_complex(3, [0b011, 0b101, 0b110])
    assert optimal_matching_bruteforce(rim) == 2


def test_optimal_matching_bruteforce_cap():
    x = independence_complex(standard_graph("empty", 4))
    with pytest.raises(CapabilityError):
        optimal_matching_bruteforce(x)


def test_construction_attains_bruteforce_optimum_on_small_graphs():
    seen = 0
    for seed in range(40):
        g = random_chordal(1 + seed % 5, (seed % 4) / 3, seed)
        x = independence_complex(g)
        if len(x.faces) - 1 > 14:
            continue
        res = build_chordal_matching(g)
        assert sum(res.critical_f) == optimal_matching_bruteforce(x)
        seen += 1
    assert seen > 20
    spec = GridSpec.of(1, 1, [[1, 1], [1, 1]])
    g = grid_graph(spec)
    res = build_grid_matching(g, spec)
    assert sum(res.critical_f) == optimal_matching_bruteforce(independence_complex(g))
