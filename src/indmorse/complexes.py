"""Explicit independence complexes.

A simplex is an int bitmask over the ambient vertices; the empty simplex 0
is a first-class member of every complex (dimension -1).  The construction
pairs the empty simplex like any other face, so it is never special-cased
away.

A complex keeps what it derives in its instance dict, on first use: its
faces bucketed by vertex count, and its 1-skeleton (each vertex's link in
the edges), from which every maximality question is answered.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph_core import EXPLICIT_VERTEX_CAP, CapabilityError, Graph, bits


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed family of bitmask simplices containing 0."""

    n: int
    faces: frozenset[int]

    def __post_init__(self):
        if 0 not in self.faces:
            raise ValueError("a complex must contain the empty simplex")

    @staticmethod
    def from_simplices(n: int, simplices) -> "SimplicialComplex":
        """Build from an explicit family, checking downward closure."""
        faces = frozenset(simplices) | {0}
        for sigma in faces:
            if sigma & ~((1 << n) - 1):
                raise ValueError("simplex out of ambient range")
            for v in bits(sigma):
                if sigma & ~(1 << v) not in faces:
                    raise ValueError(
                        f"family is not downward closed at {sorted(bits(sigma))}"
                    )
        return SimplicialComplex(n, faces)

    @cached_property
    def _by_size(self) -> tuple[list[int], ...]:
        """The faces bucketed by vertex count, unsorted within a bucket: entry
        k holds the (k - 1)-simplices, so entry 0 is [0].  Built on first use."""
        buckets: list[list[int]] = [[]]
        for s in self.faces:
            k = s.bit_count()
            while k >= len(buckets):
                buckets.append([])
            buckets[k].append(s)
        return tuple(buckets)

    def dim(self) -> int:
        """Largest simplex dimension; -1 for the complex {0}."""
        return len(self._by_size) - 2

    def simplices_of_dim(self, d: int) -> tuple[int, ...]:
        """Sorted tuple of the d-dimensional simplices."""
        by_size = self._by_size
        return tuple(sorted(by_size[d + 1])) if 0 <= d + 1 < len(by_size) else ()

    @cached_property
    def _skeleton(self) -> tuple[dict[int, int], int]:
        """The 1-skeleton, read off the vertex and edge buckets on first use:
        the link mask of each vertex, keyed by its singleton, and the mask of
        all vertices."""
        by_size = self._by_size
        links = dict.fromkeys(by_size[1] if len(by_size) > 1 else (), 0)
        for e in by_size[2] if len(by_size) > 2 else ():
            low = e & -e
            links[low] |= e ^ low
            links[e ^ low] |= low
        return links, sum(links)


def _independent_sets(
    adj: tuple[int, ...], mask: int, limit: int | None = None
) -> list[int]:
    """All independent subsets of ``mask``, one vertex at a time.

    Vertices are added in increasing order; each one extends every set so
    far that avoids its neighbors.  The order equals that of branching on
    the highest vertex (exclude it first, then include it with its
    neighbors excluded), so pair lists built from it keep their order.
    With a ``limit``, the list is cut off as soon as it holds more than
    ``limit`` sets, so it is at most twice as long.
    """
    out = [0]
    rest = mask
    while rest:
        low = rest & -rest
        nbrs = adj[low.bit_length() - 1]
        out += [s | low for s in out if not s & nbrs]
        if limit is not None and len(out) > limit:
            break
        rest ^= low
    return out


def independence_complex(
    g: Graph, limit: int | None = None
) -> SimplicialComplex | None:
    """The complex of all independent sets of g, including the empty one;
    with a ``limit``, None when it has more than ``limit`` faces, which are
    then enumerated only up to the limit: there are up to 2^n of them."""
    if g.n > EXPLICIT_VERTEX_CAP:
        raise CapabilityError(
            f"explicit complexes are limited to {EXPLICIT_VERTEX_CAP} vertices"
        )
    faces = _independent_sets(g.adj, g.full_mask, limit)
    if limit is not None and len(faces) > limit:
        return None
    return SimplicialComplex(g.n, frozenset(faces))


def f_vector(x: SimplicialComplex) -> tuple[int, ...]:
    """Counts of d-simplices for d = 0..dim(x); empty for the complex {0}."""
    return tuple(map(len, x._by_size[1:]))


def is_maximal(x: SimplicialComplex, sigma: int) -> bool:
    """True iff sigma has no proper coface in x."""
    if sigma not in x.faces:
        raise ValueError("simplex does not belong to the complex")
    return not _non_maximal(x, (sigma,))


def _non_maximal(x: SimplicialComplex, cells) -> list[int]:
    """The faces among ``cells`` with a proper coface in x, in order.

    By downward closure any coface of s yields one s + w, and each edge
    {v, w} with v in s is a face of it, so w is a vertex in the link of every
    vertex of s.  Only such w are tried; on a flag complex, such as an
    independence complex, the first one is a coface.
    """
    links, verts = x._skeleton
    faces = x.faces
    out = []
    for s in cells:
        cand, rest = verts, s
        while rest and cand:
            low = rest & -rest
            cand &= links[low]
            rest ^= low
        while cand:
            low = cand & -cand
            if s | low in faces:
                out.append(s)
                break
            cand ^= low
    return out


def hasse_edges(x: SimplicialComplex) -> list[tuple[int, int]]:
    """All codimension-1 pairs (beta, alpha) with alpha a facet of beta.

    Includes (singleton, 0) edges.  Sorted by (dim, beta, alpha) so output
    order is reproducible.
    """
    out = []
    for beta in x.faces:
        for v in bits(beta):
            out.append((beta, beta & ~(1 << v)))
    out.sort(key=lambda e: (e[0].bit_count(), e[0], e[1]))
    return out
