"""Discrete vector fields on a complex: validity, acyclicity, critical
simplices, and generalized alternating paths.

A matching is a collection of Hasse-edge pairs (alpha, beta) with
dim(beta) = dim(alpha) + 1; the empty simplex may appear as an alpha.  A
nonempty simplex is critical when it is unpaired or paired with the empty
simplex.  The matching is acyclic iff its step digraph is, where a step
goes from a matched alpha to another matched facet of its partner; one
Kahn peel over all matched simplices decides that and leaves any cycle's
witness behind.

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
    """Kahn's peel of the step digraph on the upward pair map; None when
    acyclic.

    A step goes from a matched simplex a to every other matched facet of
    up[a], so steps keep the dimension, and the matching is acyclic iff its
    step digraph is (Chari 2000).  The peel drops every simplex with no step
    to one still present until nothing drops; each simplex left has a step
    to another, so a walk from the smallest repeats one.  The loop from that
    repeat is reported as the alternating simplex sequence [a0, b0, a1, ...,
    a0].
    """
    preds: dict[int, list[int]] = {a: [] for a in up}
    out = dict.fromkeys(up, 0)
    for a, b in up.items():
        # The facets of b other than a: b less one vertex of a.
        rest = a
        while rest:
            low = rest & -rest
            if b ^ low in up:
                preds[b ^ low].append(a)
                out[a] += 1
            rest ^= low
    dropped = [a for a, k in out.items() if not k]
    for a in dropped:
        for p in preds[a]:
            out[p] -= 1
            if not out[p]:
                dropped.append(p)
    left = up.keys() - dropped
    if not left:
        return None
    walk: dict[int, int] = {}
    a = min(left)
    while a not in walk:
        walk[a] = len(walk)
        b = up[a]
        a = next(b ^ (1 << v) for v in bits(a) if b ^ (1 << v) in left)
    loop = list(walk)[walk[a]:]
    return tuple(s for c in loop for s in (c, up[c])) + (a,)


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

    Runs check_matching and, on a valid matching, builds the upward pair
    map once for the cycle search; the critical simplices are one set
    difference.  A tuple of tuples gets its certificate kept on x (see the
    module docstring).
    """
    held = x.__dict__.get("_field_certificate")
    if held is not None and held[0] is pairs:
        return held[1]
    ok, message = check_matching(x, pairs)
    if ok:
        up = dict(pairs)
        # Unpaired, or paired with the empty simplex.
        crit = x.faces.difference(up, (b for a, b in pairs if a), (0,))
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
    up = dict(pairs)
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
