"""Chordality recognition through maximum cardinality search.

A graph is chordal exactly when it admits a perfect elimination ordering
(PEO): an ordering v_1, ..., v_n where the later neighbors of each v_i form
a clique.  Maximum cardinality search emits such an ordering whenever one
exists, so chordality reduces to running MCS and verifying its output.
"""

from __future__ import annotations

from .graph_core import Graph


def _mcs_masked(adj: tuple[int, ...], mask: int) -> list[int]:
    """MCS on the subgraph induced by ``mask``; returns the PEO candidate.

    Vertices are numbered from the back: the vertex picked first (highest
    weight, smallest id on ties) comes last in the returned order.

    ``buckets[w]`` holds the unnumbered vertices of weight w (Tarjan &
    Yannakakis, SIAM J. Comput. 1984).  A picked vertex of weight w moves
    its unnumbered neighbors up one bucket by walking the levels w, w-1, ...
    until none is left; every neighbor has weight at most w, and w is at
    most the vertex's degree, so the whole search makes O(n + m) bucket
    operations.
    """
    order: list[int] = []
    # Weights stay below the vertex count, so bucket k + 1 always exists.
    buckets = [mask] + [0] * mask.bit_count()
    top = 0
    unnumbered = mask
    while unnumbered:
        while not buckets[top]:
            top -= 1
        b = buckets[top]
        low = b & -b
        buckets[top] = b ^ low
        unnumbered ^= low
        v = low.bit_length() - 1
        order.append(v)
        nb = adj[v] & unnumbered
        if nb:
            k = top
            top += 1
            while nb:
                hit = buckets[k] & nb
                if hit:
                    buckets[k] ^= hit
                    buckets[k + 1] |= hit
                    nb ^= hit
                k -= 1
    order.reverse()
    return order


def maximum_cardinality_search(g: Graph) -> tuple[int, ...]:
    """An elimination ordering (first vertex first) that is a PEO iff g is chordal.

    Ties between equal-weight vertices go to the smallest id, so the result
    is deterministic.
    """
    return tuple(_mcs_masked(g.adj, g.full_mask))


def verify_peo(g: Graph, order) -> bool:
    """Check the PEO condition: later neighbors of each vertex form a clique."""
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertices")
    adj = g.adj
    later = g.full_mask
    for v in order:
        later ^= 1 << v
        nb = adj[v] & later
        # A clique: each member is adjacent to the members above it.
        while nb:
            low = nb & -nb
            nb ^= low
            if nb & ~adj[low.bit_length() - 1]:
                return False
    return True


def _peo(g: Graph) -> tuple[int, ...] | None:
    """The MCS order of g if it is a perfect elimination ordering, else None.

    A Graph is immutable, so the search and its check run once per graph and
    the answer is kept in the instance dict, as ``functools.cached_property``
    would keep it: ``is_chordal``, the count route and the chordal driver
    share one search.
    """
    known = g.__dict__
    if "_peo" not in known:
        order = maximum_cardinality_search(g)
        known["_peo"] = order if verify_peo(g, order) else None
    return known["_peo"]


def is_chordal(g: Graph) -> bool:
    return _peo(g) is not None
