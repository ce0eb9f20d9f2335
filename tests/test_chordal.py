"""Chordality recognition cross-checked against induced-cycle search."""

import itertools
import random
import sys
from functools import partial

from hypothesis import example, given, strategies as st

from indmorse import (
    Graph,
    bits,
    is_chordal,
    maximum_cardinality_search,
    random_chordal,
    standard_graph,
)
from indmorse.chordal import _mcs_masked, _peo
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
        assert verify_peo_reference(g, order)
        assert is_simplicial(g, order[0])


def test_chordality_survives_induced_deletion():
    rng = random.Random(3)
    for seed in range(40):
        g = random_chordal(2 + seed % 9, (seed % 4) / 3, seed)
        kill = rng.randrange(1 << g.n)
        h, _ = induced_delete(g, kill)
        assert is_chordal(h)


def _edges(g):
    return [(u, w) for u in range(g.n) for w in bits(g.adj[u]) if u < w]


@st.composite
def graphs_for_the_checked_search(draw):
    """A random graph, a random chordal graph, or a random chordal graph
    less one edge, which is often not chordal and fails the check early."""
    kind = draw(st.sampled_from(("random", "chordal", "chordal less an edge")))
    if kind == "random":
        return draw(graphs(12))
    g = random_chordal(draw(st.integers(1, 16)), draw(st.floats(0, 1)),
                       draw(st.integers(0, 10**6)))
    edges = _edges(g)
    if kind == "chordal" or not edges:
        return g
    drop = draw(st.sampled_from(edges))
    return Graph.from_edges(g.n, [e for e in edges if e != drop])


# Not chordal; at one pick the capped walk back misses the follower, and
# only the most recently picked neighbor, not the earliest, shows it.
FOLLOWER_PAST_THE_WALK = Graph.from_edges(8, [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3),
    (1, 4), (1, 5), (1, 6), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (5, 6),
])


@given(graphs_for_the_checked_search())
@example(FOLLOWER_PAST_THE_WALK)
@example(standard_graph("cycle", 4))
@example(standard_graph("empty", 0))
def test_the_checked_search_is_the_search_and_its_check(g):
    # _peo runs one search that checks its order as it goes; it must give
    # the full search's order exactly when the reference check accepts it.
    order = maximum_cardinality_search(g)
    want = order if verify_peo_reference(g, order) else None
    g.__dict__.pop("_peo", None)
    assert _peo(g) == want


def book_graph(k: int, spine_first: bool) -> Graph:
    """K_2 joined to k independent vertices, the K_2 numbered first or
    last: chordal, and every independent vertex's picked neighbors are the
    K_2, picked long before it."""
    a, b = (0, 1) if spine_first else (k, k + 1)
    pages = [v for v in range(k + 2) if v not in (a, b)]
    return Graph.from_edges(k + 2, [(a, b)] + [(s, v) for v in pages for s in (a, b)])


class _LineBudgetExceeded(Exception):
    pass


def _python_lines(fn, budget: int) -> int:
    """The Python lines fn() runs, counted by a trace function that stops
    the run once they pass ``budget``."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
            if count > budget:
                raise _LineBudgetExceeded
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    except _LineBudgetExceeded:
        pass
    finally:
        sys.settrace(previous)
    return count


def test_the_follower_lookup_stays_linear_on_the_book_graph():
    # Counted, not timed.  A walk back over the picks to each vertex's most
    # recently picked neighbor would pass every earlier page: quadratic.
    for spine_first in (True, False):
        g = book_graph(2000, spine_first)
        budget = 20 * (g.n + len(_edges(g)))
        search = partial(_mcs_masked, g.adj, g.full_mask, check=True)
        lines = _python_lines(search, budget)
        assert 0 < lines <= budget, spine_first
        assert _peo(g) == maximum_cardinality_search(g)
