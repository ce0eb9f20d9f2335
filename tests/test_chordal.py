"""Chordality recognition cross-checked against induced-cycle search."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from indmorse import (
    Graph,
    bits,
    is_chordal,
    maximum_cardinality_search,
    random_chordal,
    standard_graph,
    verify_peo,
)
from indmorse.chordal import _mcs_masked
from oracles import (
    has_induced_long_cycle,
    induced_delete,
    is_simplicial,
    mcs_quadratic,
    verify_peo_reference,
)

from test_graph_core import all_graphs, graphs


def test_mcs_returns_permutation():
    for g in (standard_graph("complete", 3), standard_graph("path", 5)):
        order = maximum_cardinality_search(g)
        assert sorted(order) == list(range(g.n))


@given(graphs(14), st.integers(min_value=0, max_value=(1 << 14) - 1))
def test_bucketed_mcs_keeps_the_rescan_order(g, mask):
    mask &= g.full_mask
    assert _mcs_masked(g.adj, mask) == mcs_quadratic(g.adj, mask)


def test_verify_peo_examples():
    assert verify_peo(standard_graph("complete", 1), (0,))
    assert verify_peo(standard_graph("path", 3), (0, 2, 1))
    c4 = standard_graph("cycle", 4)
    for order in itertools.permutations(range(4)):
        assert not verify_peo(c4, order)


@st.composite
def graphs_and_orders(draw):
    """A random graph or a random chordal graph, with either its MCS order
    (a PEO exactly when the graph is chordal) or a random permutation."""
    if draw(st.booleans()):
        g = draw(graphs(12))
    else:
        g = random_chordal(draw(st.integers(1, 16)), draw(st.floats(0, 1)),
                           draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        return g, maximum_cardinality_search(g)
    return g, draw(st.permutations(range(g.n)))


@given(graphs_and_orders())
def test_verify_peo_matches_the_clique_reference(case):
    g, order = case
    assert verify_peo(g, order) == verify_peo_reference(g, order)


def test_verify_peo_rejects_non_permutations():
    g = standard_graph("path", 3)
    with pytest.raises(ValueError):
        verify_peo(g, (0, 1))
    with pytest.raises(ValueError):
        verify_peo(g, (0, 0, 1))


def test_is_chordal_examples():
    for n in range(1, 7):
        assert is_chordal(standard_graph("path", n))
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert is_chordal(star)
    assert not is_chordal(standard_graph("cycle", 5))
    k4_minus = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_chordal(k4_minus)


def test_is_chordal_matches_induced_cycle_search_small():
    for n in range(6):
        for g in all_graphs(n):
            assert is_chordal(g) == (not has_induced_long_cycle(g))


def test_is_chordal_matches_induced_cycle_search_sampled():
    rng = random.Random(7)
    for n in (6, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(300):
            edges = [e for e in pairs if rng.random() < rng.choice((0.2, 0.5, 0.8))]
            g = Graph.from_edges(n, edges)
            assert is_chordal(g) == (not has_induced_long_cycle(g))


def test_mcs_head_is_simplicial_on_chordal_graphs():
    for seed in range(60):
        g = random_chordal(1 + seed % 11, (seed % 5) / 4, seed)
        order = maximum_cardinality_search(g)
        assert verify_peo(g, order)
        assert is_simplicial(g, order[0])


def test_chordality_survives_induced_deletion():
    rng = random.Random(3)
    for seed in range(40):
        g = random_chordal(2 + seed % 9, (seed % 4) / 3, seed)
        kill = rng.randrange(1 << g.n)
        h, _ = induced_delete(g, kill)
        assert is_chordal(h)
