"""Discrete vector fields on a complex: validity, acyclicity, critical
simplices, and generalized alternating paths.

A matching is a collection of Hasse-edge pairs (alpha, beta) with
dim(beta) = dim(alpha) + 1; the empty simplex may appear as an alpha.  A
nonempty simplex is critical when it is unpaired or paired with the empty
simplex.

Every check reads check_field's certificate.  For a tuple of tuples, as a
ConstructionResult's pairs always are, it is kept in the complex's instance
dict with that tuple, so one (complex, pairs) is checked once.  Keying by
identity is safe: the complex and the tuple cannot change, and the kept
reference stops the tuple's id from passing to another object.  A list, or
a tuple of lists, is checked on every call.  The certificate is read off
the faces and the pairs alone, never off a recipe or a trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import SimplicialComplex
from .graph_core import bits

Pair = tuple[int, int]


def _pair_maps(pairs: Iterable[Pair]) -> tuple[dict[int, int], dict[int, int]]:
    up: dict[int, int] = {}
    down: dict[int, int] = {}
    for a, b in pairs:
        up[a] = b
        down[b] = a
    return up, down


def check_matching(x: SimplicialComplex, pairs: Sequence[Pair]):
    """Validate a matching; returns (ok, message) with message None on success."""
    seen: set[int] = set()
    for a, b in pairs:
        if a not in x.faces or b not in x.faces:
            return False, f"pair ({sorted(bits(a))}, {sorted(bits(b))}) leaves the complex"
        extra = b & ~a
        if a & ~b or extra.bit_count() != 1:
            return False, (
                f"pair ({sorted(bits(a))}, {sorted(bits(b))}) is not a Hasse edge"
            )
        if a in seen:
            return False, f"simplex {sorted(bits(a))} appears in two pairs"
        if b in seen:
            return False, f"simplex {sorted(bits(b))} appears in two pairs"
        seen.add(a)
        seen.add(b)
    return True, None


def verify_matching(x: SimplicialComplex, pairs: Sequence[Pair]) -> bool:
    """True iff all pairs are Hasse edges of x and no simplex is reused."""
    return check_field(x, pairs).error is None


def _alternating_cycle(up: dict[int, int]) -> tuple[int, ...] | None:
    """Layered cycle search on the upward pair map; None when acyclic.

    Reversed-edge cycles can only alternate between two consecutive
    dimensions, so each (d, d+1) layer is checked independently.  A reported
    cycle is the alternating simplex sequence [a0, b0, a1, ..., a0].
    """
    by_layer: dict[int, list[int]] = {}
    for a in up:
        by_layer.setdefault(a.bit_count(), []).append(a)
    for layer in sorted(by_layer):
        members = by_layer[layer]
        succ: dict[int, list[int]] = {}
        for a in members:
            b = up[a]
            nxt = []
            rest = b
            while rest:
                low = rest & -rest
                a2 = b ^ low
                if a2 != a and a2 in up:
                    nxt.append(a2)
                rest ^= low
            succ[a] = nxt
        # Iterative DFS with colors; a gray-to-gray edge closes a cycle.
        color: dict[int, int] = {}
        parent: dict[int, int] = {}
        for start in members:
            if color.get(start):
                continue
            stack = [(start, iter(succ[start]))]
            color[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for a2 in it:
                    if color.get(a2) == 1:
                        cycle = [a2]
                        cur = node
                        while cur != a2:
                            cycle.append(cur)
                            cur = parent[cur]
                        cycle.append(a2)
                        cycle.reverse()
                        out = []
                        for a in cycle:
                            out.extend((a, up[a]))
                        return tuple(out[: 2 * len(cycle) - 1])
                    if color.get(a2) is None:
                        color[a2] = 1
                        parent[a2] = node
                        stack.append((a2, iter(succ[a2])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()
    return None


def verify_acyclic(x: SimplicialComplex, pairs: Sequence[Pair]) -> bool:
    """True iff reversing the matched Hasse edges leaves the diagram acyclic;
    raises ValueError for pairs that are no matching on x."""
    cert = check_field(x, pairs)
    if cert.error is not None:
        raise ValueError(cert.error)
    return cert.cycle is None


def critical_simplices(x: SimplicialComplex, pairs: Sequence[Pair]):
    """The critical simplices and their counts per dimension.

    Returns (set, fvec) where fvec drops trailing zero dimensions.
    """
    cert = check_field(x, pairs)
    if cert.error is not None:
        raise ValueError(cert.error)
    return cert.critical, cert.critical_f


@dataclass(frozen=True)
class FieldCertificate:
    """Outcome of one validation pass over a matching (see check_field).

    ``error`` is check_matching's message for an invalid matching, and then
    nothing else is set.  For a valid matching, ``cycle`` is an
    alternating-cycle witness (None when acyclic), and ``critical`` /
    ``critical_f`` hold what critical_simplices returns.
    """

    error: str | None = None
    cycle: tuple[int, ...] | None = None
    critical: frozenset[int] = frozenset()
    critical_f: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.error is None and self.cycle is None


def check_field(x: SimplicialComplex, pairs: Sequence[Pair]) -> FieldCertificate:
    """Validate a gradient field once: matching, acyclicity, critical data.

    Runs check_matching and, on a valid matching, builds the pair maps once
    for the cycle search and the critical simplices.  A tuple of tuples
    gets its certificate kept on x (see the module docstring).
    """
    held = x.__dict__.get("_field_certificate")
    if held is not None and held[0] is pairs:
        return held[1]
    ok, message = check_matching(x, pairs)
    if ok:
        up, down = _pair_maps(pairs)
        # Unpaired, or paired with the empty simplex.
        crit = frozenset(s for s in x.faces if s and s not in up and not down.get(s, 0))
        cert = FieldCertificate(
            None, _alternating_cycle(up), crit, critical_fvector_of(crit)
        )
    else:
        cert = FieldCertificate(error=message)
    if type(pairs) is tuple and all(type(p) is tuple for p in pairs):
        x.__dict__["_field_certificate"] = (pairs, cert)
    return cert


def critical_fvector_of(critical: Iterable[int]) -> tuple[int, ...]:
    """Histogram of simplex dimensions, trailing zeros trimmed."""
    counts: list[int] = []
    for s in critical:
        d = s.bit_count() - 1
        while len(counts) <= d:
            counts.append(0)
        counts[d] += 1
    return tuple(counts)


def _proper_subsets(sigma: int):
    sub = (sigma - 1) & sigma
    while sub != sigma:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & sigma


def generalized_vpath_reachable(
    x: SimplicialComplex, pairs: Sequence[Pair], start: int
) -> frozenset[int]:
    """Critical simplices reachable from ``start`` along generalized paths.

    A generalized path drops from a simplex tau to ANY proper face sigma
    other than the face it just came from; if sigma is matched upward the
    path continues at its partner.  Every critical sigma encountered is
    reachable; ``start`` itself is included only when some path returns to
    it as a face.
    """
    crit, _ = critical_simplices(x, pairs)
    if start not in crit:
        raise ValueError("start simplex is not critical")
    up, _ = _pair_maps(pairs)
    reached: set[int] = set()
    seen_states: set[tuple[int, int]] = set()
    stack: list[tuple[int, int]] = [(start, -1)]
    seen_states.add((start, -1))
    while stack:
        tau, forbidden = stack.pop()
        for sigma in _proper_subsets(tau):
            if sigma == forbidden:
                continue
            if sigma in crit:
                reached.add(sigma)
            if sigma in up:
                state = (up[sigma], sigma)
                if state not in seen_states:
                    seen_states.add(state)
                    stack.append(state)
    return frozenset(reached)
