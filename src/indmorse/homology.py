"""Independent ground truth: integer simplicial homology and brute-force
optimal matchings.

Nothing here looks at a constructed matching.  Betti numbers and torsion
come from the integer ranks and invariant factors of boundary matrices,
whose signed columns are built in one place (``_columns_of``); the optimum
comes from exhaustive search over acyclic matchings of tiny complexes.

One pass shrinks the augmented complex X, whose (-1)-cell is the empty
simplex, before any elimination.  ``_excise`` grows a subcomplex U from
nothing, one vertex b at a time, by descending degree in the 1-skeleton:
the live cells that contain b (upper) and the same cells less b (lower)
join U if every lower cell is live, so the first vertex brings its closed
star, the empty simplex included.  One scan of the live cells collects the
upper ones and stops at the first whose lower cell is gone, so most
vertices that fail cost a few cells.  A facet s - b - c of a lower cell is
a facet of s - c, which is in U or upper, so U stays a subcomplex.  The
test pairs each new upper cell s with a new cell s - b, with incidence +1
or -1, and no other facet of s is a lower cell, as it contains b: this
element matching (Jonsson, LNM 1928) has no gradient path, so the new
cells form a contractible complex relative to U.  By the exact sequence of
the triple, U stays acyclic, and reduced H(X) = H(X, U) over the integers,
torsion included: the homology of the cells left, with the boundary
restricted to them.  Without the test, an upper cell whose partner is in U
already would join unpaired: Ind(C_4) would lose a component.  Only the
survivors' columns reach the sparse elimination.

The pass finds its pairs in the complex alone and never reads the
construction's matching, although that matching would serve as well: an
oracle fed the construction's pairs would check the construction against
itself.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

from .complexes import SimplicialComplex
from .graph_core import CapabilityError, bits

HOMOLOGY_SIMPLEX_CAP = 50_000
BRUTEFORCE_SIMPLEX_CAP = 14


@dataclass(frozen=True)
class HomologyProfile:
    """Unreduced Betti numbers and per-dimension torsion-freeness flags."""

    betti: tuple[int, ...]
    torsion_free: tuple[bool, ...]


def _columns_of(cells, rows) -> list[dict[int, int]]:
    """Signed boundary columns of the given d-simplices over the given rows.

    ``rows`` is a sorted family of (d-1)-simplices; a column maps the row
    index of each facet found there to +1 or -1, the signs alternating along
    the sorted vertex order of the whole simplex.  With every (d-1)-simplex
    as rows this is the d-th boundary matrix; with fewer, its restriction.
    """
    row_index = {s: i for i, s in enumerate(rows)}
    cols = []
    for beta in cells:
        col: dict[int, int] = {}
        sign = 1
        rest = beta
        while rest:
            low = rest & -rest
            rest ^= low
            r = row_index.get(beta ^ low)
            if r is not None:
                col[r] = sign
            sign = -sign
        cols.append(col)
    return cols


def _excise(x: SimplicialComplex) -> list[list[int]]:
    """The cells that excision leaves in a complex with a vertex (see the
    module docstring), one sorted list per dimension from 0."""
    by_size = x._by_size
    edges = by_size[2] if len(by_size) > 2 else ()
    # An edge's two vertex bits are its lowest and the rest.
    degree = Counter([e & -e for e in edges] + [e & (e - 1) for e in edges])
    rest = set(x.faces)
    for b in sorted(by_size[1], key=lambda b: (-degree[b], b)):
        upper = []
        for s in rest:
            if s & b:
                if s ^ b not in rest:
                    break
                upper.append(s)
        else:
            rest.difference_update(upper, [s ^ b for s in upper])
    buckets: list[list[int]] = [[] for _ in range(x.dim() + 1)]
    for s in sorted(rest):
        buckets[s.bit_count() - 1].append(s)
    return buckets


def _smith_diagonal_dense(mat: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of a small dense integer matrix."""
    mat = [row[:] for row in mat]
    out: list[int] = []
    top = 0
    while True:
        best = None
        for r in range(top, len(mat)):
            for c in range(top, len(mat[0]) if mat else 0):
                e = mat[r][c]
                if e and (best is None or abs(e) < abs(mat[best[0]][best[1]])):
                    best = (r, c)
        if best is None:
            break
        r0, c0 = best
        mat[top], mat[r0] = mat[r0], mat[top]
        for row in mat:
            row[top], row[c0] = row[c0], row[top]
        pivot = mat[top][top]
        dirty = False
        for r in range(top + 1, len(mat)):
            q = mat[r][top] // pivot
            if q:
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[top])]
            if mat[r][top]:
                dirty = True
        for c in range(top + 1, len(mat[0])):
            q = mat[top][c] // pivot
            if q:
                for row in mat:
                    row[c] -= q * row[top]
            if mat[top][c]:
                dirty = True
        if dirty:
            continue
        # Pivot must divide every remaining entry for a true SNF diagonal.
        offender = None
        for r in range(top + 1, len(mat)):
            for c in range(top + 1, len(mat[0])):
                if mat[r][c] % pivot:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            mat[top] = [a + b for a, b in zip(mat[top], mat[offender])]
            continue
        out.append(abs(pivot))
        top += 1
        if top >= len(mat) or top >= len(mat[0]):
            break
    return out


def _rank_and_factors(cols: list[dict[int, int]]) -> tuple[int, list[int]]:
    """Rank over the integers plus all nontrivial invariant factors.

    Sparse elimination with unit pivots chosen by a low-fill heuristic; any
    leftover submatrix without unit entries is finished off densely.
    """
    row_entries: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for c, col in enumerate(cols):
        if col:
            col_rows[c] = set(col)
        for r, val in col.items():
            row_entries.setdefault(r, {})[c] = val
    heap = [(len(cs), len(row_entries[r]), r, c) for c, cs in col_rows.items() for r in cs]
    heapq.heapify(heap)
    rank = 0
    while heap:
        clen, rlen, r0, c0 = heapq.heappop(heap)
        if r0 not in row_entries or c0 not in row_entries.get(r0, {}):
            continue
        if c0 not in col_rows or clen != len(col_rows[c0]) or rlen != len(row_entries[r0]):
            if c0 in col_rows and r0 in row_entries:
                heapq.heappush(
                    heap, (len(col_rows[c0]), len(row_entries[r0]), r0, c0)
                )
            continue
        pivot = row_entries[r0][c0]
        if abs(pivot) != 1:
            # Leave non-unit entries for the dense fallback.
            continue
        rank += 1
        pivot_row = row_entries.pop(r0)
        for c in pivot_row:
            col_rows[c].discard(r0)
        rows_hit = [r for r in col_rows[c0] if r != r0]
        for r in rows_hit:
            factor = row_entries[r][c0] * pivot
            row = row_entries[r]
            for c, val in pivot_row.items():
                new = row.get(c, 0) - factor * val
                if new:
                    if c not in row:
                        col_rows[c].add(r)
                    row[c] = new
                elif c in row:
                    del row[c]
                    col_rows[c].discard(r)
            if not row:
                del row_entries[r]
        for c in pivot_row:
            if c in col_rows and not col_rows[c]:
                del col_rows[c]
        col_rows.pop(c0, None)
        for r in rows_hit:
            if r in row_entries:
                first = next(iter(row_entries[r]))
                heapq.heappush(
                    heap, (len(col_rows[first]), len(row_entries[r]), r, first)
                )
    if not row_entries:
        return rank, []
    live_rows = sorted(row_entries)
    live_cols = sorted({c for row in row_entries.values() for c in row})
    cpos = {c: i for i, c in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for i, r in enumerate(live_rows):
        for c, val in row_entries[r].items():
            dense[i][cpos[c]] = val
    diag = _smith_diagonal_dense(dense)
    return rank + len(diag), [e for e in diag if e != 1]


def homology_integer(x: SimplicialComplex) -> HomologyProfile:
    """Unreduced integer homology of the nonempty part of the complex."""
    if len(x.faces) - 1 > HOMOLOGY_SIMPLEX_CAP:
        raise CapabilityError(
            f"integer homology is limited to {HOMOLOGY_SIMPLEX_CAP} simplices"
        )
    top = x.dim()
    if top < 0:
        return HomologyProfile((), ())
    survivors = _excise(x)
    ranks = [0] * (top + 2)
    nontrivial = [False] * (top + 2)
    for d in range(1, top + 1):
        rank, factors = _rank_and_factors(_columns_of(survivors[d], survivors[d - 1]))
        ranks[d] = rank
        nontrivial[d] = bool(factors)
    betti = [len(survivors[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)]
    # Excising the empty simplex left reduced H_0: add its lost generator back.
    betti[0] += 1
    torsion_free = tuple(not nontrivial[d + 1] for d in range(top + 1))
    return HomologyProfile(tuple(betti), torsion_free)


def optimal_matching_bruteforce(x: SimplicialComplex) -> int:
    """Exact minimum of the total critical count over all acyclic matchings.

    Pairs involving the empty simplex never lower the count (their nonempty
    member stays critical), so the search runs over the nonempty Hasse
    diagram only: minimum = #simplices - 2 * (largest acyclic matching).
    """
    simplices = sorted((s for s in x.faces if s), key=lambda s: (s.bit_count(), s))
    count = len(simplices)
    if count > BRUTEFORCE_SIMPLEX_CAP:
        raise CapabilityError(
            f"brute-force optimum is limited to {BRUTEFORCE_SIMPLEX_CAP} simplices"
        )
    index = {s: i for i, s in enumerate(simplices)}
    neighbors: list[list[int]] = [[] for _ in simplices]
    for i, s in enumerate(simplices):
        for w in range(x.n):
            bit = 1 << w
            if not s & bit and (s | bit) in index:
                j = index[s | bit]
                neighbors[i].append(j)
                neighbors[j].append(i)

    up: dict[int, int] = {}

    def layer_acyclic(layer: int) -> bool:
        color: dict[int, int] = {}

        def visit(a: int) -> bool:
            color[a] = 1
            b = up[a]
            for v in bits(b):
                a2 = b & ~(1 << v)
                if a2 == a or a2 not in up:
                    continue
                st = color.get(a2)
                if st == 1:
                    return False
                if st is None and not visit(a2):
                    return False
            color[a] = 2
            return True

        for a in [m for m in up if m.bit_count() == layer]:
            if color.get(a) is None and not visit(a):
                return False
        return True

    best = count

    def search(pos: int, assigned: int, matched: int) -> None:
        nonlocal best
        remaining = count - assigned.bit_count()
        if count - 2 * (matched + remaining // 2) >= best:
            return
        i = pos
        while i < count and assigned >> i & 1:
            i += 1
        if i == count:
            best = min(best, count - 2 * matched)
            return
        taken = assigned | 1 << i
        for j in neighbors[i]:
            if assigned >> j & 1:
                continue
            a, b = simplices[i], simplices[j]
            if a.bit_count() > b.bit_count():
                a, b = b, a
            up[a] = b
            if layer_acyclic(a.bit_count()):
                search(i + 1, taken | 1 << j, matched + 1)
            del up[a]
        search(i + 1, taken, matched)

    search(0, 0, 0)
    return best
