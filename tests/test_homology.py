"""The integer homology oracle, its boundary columns, and the exhaustive
matching search."""

import pytest

from indmorse import (
    CapabilityError,
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
from indmorse.homology import _columns_of, _rank_and_factors, _smith_diagonal_dense
from oracles import betti_rational, closure_complex

from test_graph_core import all_graphs

# Minimal 6-vertex triangulation of the real projective plane: 10 facets,
# every edge in exactly two of them; H_1 = Z/2.
RP2 = closure_complex(6, [19, 35, 13, 37, 25, 14, 22, 42, 52, 56])


def test_boundary_matrix_of_p3():
    x = independence_complex(standard_graph("path", 3))
    assert x.simplices_of_dim(0) == (1, 2, 4) and x.simplices_of_dim(1) == (5,)
    assert _columns_of(x, 1) == [{2: 1, 0: -1}]


def test_boundary_columns_have_abs_sum_dim_plus_one():
    for g in all_graphs(4):
        x = independence_complex(g)
        for d in range(1, x.dim() + 1):
            cols = _columns_of(x, d)
            assert len(cols) == len(x.simplices_of_dim(d))
            for col in cols:
                assert set(col.values()) <= {1, -1}
                assert len(col) == d + 1


def test_boundary_composition_vanishes():
    for x in (RP2, independence_complex(standard_graph("cycle", 5))):
        for d in range(2, x.dim() + 1):
            lo = _columns_of(x, d - 1)
            for col in _columns_of(x, d):
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
    rank, factors = _rank_and_factors([{0: 2, 1: 6}, {0: 4, 1: 8}], 2)
    assert rank == 2 and factors == [2, 4]
    rank, factors = _rank_and_factors([{0: 1, 1: 1}, {0: 1, 1: -1}], 2)
    assert rank == 2 and factors == [2]
    rank, factors = _rank_and_factors([{0: 1}, {1: -1}], 2)
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
