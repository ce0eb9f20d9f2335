"""Expected answers computed without the program under test.

The homotopy type of the independence complex of a chordal graph comes from
the simplicial-vertex wedge formula

    Ind(G) ~ wedge over u in N(v) of  susp Ind(G - N[u])     (v simplicial)

with Ind of a graph with an isolated vertex contractible and Ind of the
empty graph the (-1)-sphere.  This module evaluates it with its own pivot
rule (the highest-id simplicial vertex, where the program takes the lowest
id or an MCS head), an explicit stack instead of recursion, and sphere
counts instead of critical-cell counts.  The program's matchings are
perfect (the acceptance gates check this), so a wedge with w_d spheres of
dimension d has critical f-vector (1 + w_0, w_1, ...), and a contractible
complex has (1,).
"""

from __future__ import annotations


class NotChordalError(ValueError):
    """The wedge formula needs a simplicial vertex and found none."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _simplicial_vertex(adj: list[int], mask: int) -> int:
    for v in sorted(_bits(mask), reverse=True):
        nv = adj[v] & mask
        if all(nv & ~(adj[u] | 1 << u) == 0 for u in _bits(nv)):
            return v
    raise NotChordalError("no simplicial vertex")


def _combine(children: list[tuple[int, ...] | None]) -> tuple[int, ...] | None:
    # Wedge of suspensions.  A sphere vector lists counts from dimension -1;
    # None stands for a contractible complex, which drops out of a wedge.
    out: list[int] = []
    for child in children:
        if child is None:
            continue
        for d, c in enumerate(child):
            while len(out) <= d + 1:
                out.append(0)
            out[d + 1] += c
    return tuple(out) if any(out) else None


def sphere_counts(n: int, edges) -> tuple[int, ...] | None:
    """Spheres per dimension (from -1) of Ind(G), or None when contractible."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    memo: dict[int, tuple[int, ...] | None] = {0: (1,)}
    stack = [(1 << n) - 1]
    while stack:
        mask = stack[-1]
        if mask in memo:
            stack.pop()
            continue
        if any(adj[v] & mask == 0 for v in _bits(mask)):
            memo[mask] = None
            stack.pop()
            continue
        v = _simplicial_vertex(adj, mask)
        child_masks = [mask & ~(adj[u] | 1 << u) for u in _bits(adj[v] & mask)]
        pending = [c for c in child_masks if c not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[mask] = _combine([memo[c] for c in child_masks])
        stack.pop()
    return memo[(1 << n) - 1]


def expected_report(spheres: tuple[int, ...] | None) -> tuple[list[int], object]:
    """(critical_f, homotopy) in the JSON shape `indmorse analyze` prints."""
    if spheres is None:
        return [1], "collapsible"
    wedge = list(spheres[1:])
    while wedge and wedge[-1] == 0:
        wedge.pop()
    return [1 + wedge[0]] + wedge[1:], {"wedge": wedge}


def homotopy_from_fvector(fvec) -> object:
    """The homotopy type a perfect critical f-vector implies."""
    if sum(fvec) == 1:
        return "collapsible"
    wedge = [fvec[0] - 1] + list(fvec[1:])
    return {"wedge": wedge}


def independent_set_count(n: int, edges) -> int:
    """Number of faces of Ind(G), the empty face included."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    memo: dict[int, int] = {0: 1}
    stack = [(1 << n) - 1]
    while stack:
        mask = stack[-1]
        if mask in memo:
            stack.pop()
            continue
        v = mask.bit_length() - 1
        without, with_v = mask & ~(1 << v), mask & ~(adj[v] | 1 << v)
        pending = [m for m in (without, with_v) if m not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[mask] = memo[without] + memo[with_v]
        stack.pop()
    return memo[(1 << n) - 1]
