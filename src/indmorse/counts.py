"""Critical f-vectors without materializing any complex.

Two routes: a memoized recursion over induced subgraphs that mirrors the
explicit construction count-for-count, and closed recurrences special to the
grid family, expressed through the corner-rectangle table c[i][j][l].
All arithmetic is plain Python int, so cell sizes may be arbitrarily large.
"""

from __future__ import annotations

from dataclasses import dataclass

from .generators import GridSpec
from .graph_core import Graph, bits
from .morse import _select_auto


def _trim(counts: list[int]) -> tuple[int, ...]:
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def critical_fvector_recursive(g: Graph) -> tuple[int, ...]:
    """Critical counts of the generic driver, by pure recursion on counts.

    Base cases: an empty vertex set gives the empty vector, a subgraph with
    an isolated vertex gives (1,), a complete subgraph on c vertices gives
    (c,).  Otherwise, with v the smallest simplicial vertex (the generic
    driver's selection, shared with build_auto), k universal
    vertices and children G - N[u] over u in N(v):

      f_0 = 1 + k
      f_1 = sum_u f_0(child_u) - (deg(v) - k)
      f_t = sum_u f_{t-1}(child_u)      for t >= 2.

    The recursion runs on an explicit stack, so its depth is not bounded by
    the interpreter's; subgraphs are visited in the same pre-order as a
    recursive evaluation, so the first one without a simplicial vertex is
    the one reported.
    """
    memo: dict[int, tuple[int, ...]] = {0: ()}
    # (mask, None) selects for mask; (mask, child_masks) combines its children.
    stack: list[tuple[int, list[int] | None]] = [(g.full_mask, None)]
    while stack:
        mask, child_masks = stack.pop()
        if child_masks is not None:
            memo[mask] = _combine([memo[c] for c in child_masks])
            continue
        if mask in memo:
            continue
        rule, v = _select_auto(g, mask)
        if rule == "isolated":
            memo[mask] = (1,)
            continue
        if rule == "complete":
            memo[mask] = (mask.bit_count(),)
            continue
        child_masks = [mask & ~(g.adj[u] | 1 << u) for u in bits(g.adj[v] & mask)]
        stack.append((mask, child_masks))
        stack.extend((c, None) for c in reversed(child_masks) if c not in memo)
    return memo[g.full_mask]


def _combine(child_fs: list[tuple[int, ...]]) -> tuple[int, ...]:
    # One child per neighbor of v; a universal neighbor's child is empty.
    k = sum(1 for f in child_fs if not f)
    top = max((len(f) for f in child_fs), default=0)
    counts = [0] * (top + 1)
    counts[0] = 1 + k
    if top >= 1:
        counts[1] = sum(f[0] for f in child_fs if f) - (len(child_fs) - k)
    for t in range(2, top + 1):
        counts[t] = sum(f[t - 1] for f in child_fs if len(f) >= t)
    return _trim(counts)


@dataclass(frozen=True)
class GridCountTable:
    """Critical counts for every corner rectangle of a grid spec.

    ``entry(i, j, l)`` is the number of l-dimensional critical simplices of
    the construction on the subgraph spanned by cells (r, s) with r <= i and
    s >= j, defined for 0 <= i <= m-1, 1 <= j <= n, 0 <= l <= min(i, n-j).
    """

    m: int
    n: int
    table: dict[tuple[int, int], tuple[int, ...]]

    def entry(self, i: int, j: int, l: int) -> int:
        return self.table[(i, j)][l]


def grid_count_table(spec: GridSpec) -> GridCountTable:
    """Fill the rectangle table bottom-up.

    Zero-dimensional counts: column sums when i = 0, row sums when j = n,
    and 1 + |V(0,j)| + |V(i,n)| otherwise.  Higher counts combine child
    rectangles, discounting the chosen vertex's own cell and, at l = 1, the
    paired critical 0-simplex of each child.
    """
    m, n, sizes = spec.m, spec.n, spec.sizes
    if m < 1 or n < 1:
        raise ValueError("the rectangle table needs m >= 1 and n >= 1")
    table: dict[tuple[int, int], list[int]] = {}
    for j in range(n, 0, -1):
        for i in range(m):
            d = min(i, n - j)
            row = [0] * (d + 1)
            if i == 0:
                row[0] = sum(sizes[0][s] for s in range(j, n + 1))
            elif j == n:
                row[0] = sum(sizes[r][n] for r in range(i + 1))
            else:
                row[0] = 1 + sizes[0][j] + sizes[i][n]
            for l in range(1, d + 1):
                dl = 1 if l == 1 else 0
                acc = 0
                for r in range(l, i + 1):
                    dr = 1 if r == i else 0
                    acc += (sizes[r][j] - dr) * (table[(r - 1, j + 1)][l - 1] - dl)
                for s in range(j + 1, n - l + 1):
                    acc += sizes[i][s] * (table[(i - 1, s + 1)][l - 1] - dl)
                row[l] = acc
            table[(i, j)] = row
    return GridCountTable(m, n, {k: tuple(v) for k, v in table.items()})


def grid_critical_fvector(spec: GridSpec) -> tuple[int, ...]:
    """Critical f-vector of the full grid graph via the closed recurrences.

    Degenerate grids (m = 0 or n = 0) are complete graphs, contributing a
    single count.  Otherwise f_0 counts the two universal corner cells plus
    one, and each f_t combines the rectangle table along column 0 and the
    top row.
    """
    m, n, sizes = spec.m, spec.n, spec.sizes
    if m == 0:
        return (sum(sizes[0][s] for s in range(n + 1)),)
    if n == 0:
        return (sum(sizes[r][0] for r in range(m + 1)),)
    table = grid_count_table(spec).table
    d = min(m, n)
    counts = [0] * (d + 1)
    counts[0] = 1 + sizes[0][0] + sizes[m][n]
    for t in range(1, d + 1):
        dl = 1 if t == 1 else 0
        acc = 0
        for r in range(t, m + 1):
            dr = 1 if r == m else 0
            acc += (sizes[r][0] - dr) * (table[(r - 1, 1)][t - 1] - dl)
        for s in range(1, n - t + 1):
            acc += sizes[m][s] * (table[(m - 1, s + 1)][t - 1] - dl)
        counts[t] = acc
    return _trim(counts)
