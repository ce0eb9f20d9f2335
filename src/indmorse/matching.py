"""Discrete vector fields on a complex: validity, acyclicity, critical
simplices, and generalized alternating paths.

A matching is a collection of Hasse-edge pairs (alpha, beta) with
dim(beta) = dim(alpha) + 1; the empty simplex may appear as an alpha.  A
valid matching is accepted by set algebra over all its cells at once; only
one that fails is walked pair by pair, to name its first fault.  A
nonempty simplex is critical when it is unpaired or paired with the empty
simplex.  The matching is acyclic iff its step digraph is, where a step
goes from a matched alpha to another matched facet of its partner; one
Kahn peel over the simplices with steps decides that and leaves any
cycle's witness behind.

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
from operator import xor
from typing import Iterable, Sequence

from .complexes import SimplicialComplex
from .graph_core import bits

Pair = tuple[int, int]


def check_matching(x: SimplicialComplex, pairs: Sequence[Pair]):
    """Validate a matching; returns (ok, message) with message None on success."""
    rest, message = _unmatched_faces(x, pairs)
    return rest is not None, message


def _unmatched_faces(x: SimplicialComplex, pairs: Sequence[Pair]):
    """check_matching's pass: (the faces of x in no pair, None) for a valid
    matching, else (None, the message of its first fault).

    Its 2|P| cells are distinct faces iff removing them from the faces
    removes 2|P|.  With that, |a ^ b| and |b| - |a| each summing to |P| over
    the pairs make every pair a Hasse edge, so such a matching is accepted at
    once.  Any other is walked in order to name its first fault.
    """
    try:
        los, his = zip(*pairs, strict=True) if pairs else ((), ())
    except ValueError:  # a pair of another length, which the walk meets in order
        los = his = ()
    rest = x.faces.difference(los, his)
    if (
        len(rest) == len(x.faces) - 2 * len(pairs)
        and sum(map(int.bit_count, map(xor, los, his))) == len(los)
        and sum(map(int.bit_count, his)) - sum(map(int.bit_count, los)) == len(los)
    ):
        return rest, None
    seen: set[int] = set()
    for a, b in pairs:
        if a not in x.faces or b not in x.faces:
            return None, f"pair ({sorted(bits(a))}, {sorted(bits(b))}) leaves the complex"
        extra = b & ~a
        if a & ~b or extra.bit_count() != 1:
            return None, (
                f"pair ({sorted(bits(a))}, {sorted(bits(b))}) is not a Hasse edge"
            )
        if a in seen:
            return None, f"simplex {sorted(bits(a))} appears in two pairs"
        if b in seen:
            return None, f"simplex {sorted(bits(b))} appears in two pairs"
        seen.add(a)
        seen.add(b)
    return x.faces - seen, None


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
    a0].  A step a -> c = up[a] - w is kept as the bit w in into[c], since
    a = down[c + w]; out[a] counts a's steps to simplices still present.
    """
    out: dict[int, int] = {}
    into: dict[int, int] = {}
    for a, b in up.items():
        # The facets of b other than a: b less one vertex of a.
        rest = a
        while rest:
            low = rest & -rest
            c = b ^ low
            if c in up:
                into[c] = into.get(c, 0) | low
                out[a] = out.get(a, 0) + 1
            rest ^= low
    # Only a simplex with a step into it has anything to pass on as it drops.
    down = dict(zip(up.values(), up))
    live = len(out)
    dropped = [c for c in into if c not in out]
    for c in dropped:
        steps = into[c]
        while steps:
            low = steps & -steps
            a = down[c | low]
            out[a] -= 1
            if not out[a]:
                live -= 1
                if a in into:
                    dropped.append(a)
            steps ^= low
    if not live:
        return None
    left = {a for a, k in out.items() if k}
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

    Runs check_matching's pass and, on a valid matching, builds the upward
    pair map once for the cycle search; the critical simplices are the
    faces that the pass leaves unmatched.  A tuple of tuples gets its
    certificate kept on x (see the module docstring).
    """
    held = x.__dict__.get("_field_certificate")
    if held is not None and held[0] is pairs:
        return held[1]
    rest, message = _unmatched_faces(x, pairs)
    if rest is not None:
        up = dict(pairs)
        # Unpaired, or paired with the empty simplex, which is never critical.
        crit = rest | {up[0]} if 0 in up else rest - {0}
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
    sizes = list(map(int.bit_count, critical))
    return tuple(map(sizes.count, range(1, max(sizes, default=0) + 1)))


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
