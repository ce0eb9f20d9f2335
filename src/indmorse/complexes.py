"""Explicit independence complexes.

A simplex is an int bitmask over the ambient vertices; the empty simplex 0
is a first-class member of every complex (dimension -1).  The construction
pairs the empty simplex like any other face, so it is never special-cased
away.
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
    def _facet_sets(self) -> dict[int, frozenset[int]]:
        """facets_of's sets, keyed by k; only the queried sizes are built."""
        return {}

    def facets_of(self, k: int) -> frozenset[int]:
        """The faces with k - 1 vertices that lie in some k-vertex face, which
        are exactly the non-maximal ones of their size.  Read off the k-vertex
        bucket on the first query of k, then kept on the complex."""
        sets = self._facet_sets
        if k not in sets:
            sets[k] = _facets_of(self._by_size[k] if k < len(self._by_size) else ())
        return sets[k]


def _facets_of(simplices) -> frozenset[int]:
    """Every simplex of ``simplices`` less one of its vertices."""
    out: set[int] = set()
    add = out.add
    for s in simplices:
        rest = s
        while rest:
            low = rest & -rest
            add(s ^ low)
            rest ^= low
    return frozenset(out)


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
    # Downward closure means any strict superset yields a one-vertex extension.
    return sigma not in x.facets_of(sigma.bit_count() + 1)


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
