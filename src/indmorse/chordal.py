"""Chordality recognition through maximum cardinality search.

A graph is chordal exactly when it admits a perfect elimination ordering
(PEO): an ordering v_1, ..., v_n where the later neighbors of each v_i form
a clique.  Maximum cardinality search emits such an ordering whenever one
exists, so chordality reduces to one MCS that verifies its order as it goes.
"""

from __future__ import annotations

from itertools import islice

from .graph_core import Graph, bits


def _mcs_masked(
    adj: tuple[int, ...], mask: int, check: bool = False
) -> list[int] | None:
    """MCS on the subgraph induced by ``mask``, numbered from the back: the
    vertex picked first (highest weight, smallest id on ties) comes last.
    With ``check``, None as soon as the order is seen not to be a PEO.

    The weights are bit planes, highest bit first: a pick narrows the
    unnumbered set through them and takes its lowest bit, and a
    ripple-carry add raises its unnumbered neighbors' weights, so a pick
    costs O(log n) big-int operations.  The check is Tarjan & Yannakakis's
    (SIAM J. Comput. 1984): v's picked neighbors but f, the latest of them,
    must be neighbors of f.  A walk back over the picks, capped at their
    number, or else a max by pick position finds f: linear in all.
    """
    order: list[int] = []
    planes: list[int] = []
    position = [0] * len(adj) if check else None
    numbered = 0
    unnumbered = mask
    while unnumbered:
        pick = unnumbered
        for plane in planes:
            hit = pick & plane
            if hit:
                pick = hit
        low = pick & -pick
        v = low.bit_length() - 1
        unnumbered ^= low
        if check:
            later = adj[v] & numbered
            k = later.bit_count()
            # One picked neighbor is a clique; so is none.
            if k > 1:
                for f in islice(reversed(order), k):
                    if later >> f & 1:
                        break
                else:
                    f = max(bits(later), key=position.__getitem__)
                # f is in later(v) but not in N(f): the other k - 1 must be.
                if (later & adj[f]).bit_count() < k - 1:
                    return None
            position[v] = len(order)
            numbered |= low
        order.append(v)
        carry = adj[v] & unnumbered
        i = len(planes)
        while carry and i:
            i -= 1
            planes[i], carry = planes[i] ^ carry, planes[i] & carry
        if carry:
            planes.insert(0, carry)
    order.reverse()
    return order


def maximum_cardinality_search(g: Graph) -> tuple[int, ...]:
    """An elimination ordering (first vertex first) that is a PEO iff g is chordal.

    Ties between equal-weight vertices go to the smallest id, so the result
    is deterministic.
    """
    return tuple(_mcs_masked(g.adj, g.full_mask))


def _peo(g: Graph) -> tuple[int, ...] | None:
    """The MCS order of g if it is a perfect elimination ordering, else None.

    The search checks its order as it goes.  A Graph is immutable, so it
    runs once per graph and the answer is kept in the instance dict, as
    ``functools.cached_property`` would keep it: ``is_chordal``, the count
    route and the chordal driver share one search.
    """
    known = g.__dict__
    if "_peo" not in known:
        order = _mcs_masked(g.adj, g.full_mask, check=True)
        known["_peo"] = None if order is None else tuple(order)
    return known["_peo"]


def is_chordal(g: Graph) -> bool:
    return _peo(g) is not None
