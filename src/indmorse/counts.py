"""Critical f-vectors without materializing any complex.

Two routes.  The recursive one runs the explicit construction's own
recursion, ``morse._recurse`` with the generic driver's selection, and
assembles critical counts instead of pairs at each node.  The grid one
evaluates closed recurrences over the corner-rectangle table c[i][j][l];
the full grid is the rectangle (m, 0).  All arithmetic is plain Python int,
so cell sizes may be arbitrarily large.
"""

from __future__ import annotations

from dataclasses import dataclass

from .generators import GridSpec
from .graph_core import Graph
from .morse import _recurse, _select_auto


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

    It runs on the construction's own recursion, ``morse._recurse``, so its
    depth is not bounded by the interpreter's, and the first subgraph
    without a simplicial vertex is the one build_auto reports.
    """
    if g.n == 0:
        return ()
    return _recurse(g, _select_auto, _assemble_counts)


def _assemble_counts(g: Graph, mask: int, v, children) -> tuple[int, ...]:
    if v is None:
        return (mask.bit_count(),)
    # A universal neighbor u of v leaves G - N[u] empty, so it has no child.
    k = (g.adj[v] & mask).bit_count() - len(children)
    child_fs = list(children.values())
    top = max((len(f) for f in child_fs), default=0)
    counts = [0] * (top + 1)
    counts[0] = 1 + k
    if top >= 1:
        counts[1] = sum(f[0] for f in child_fs) - len(child_fs)
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


def _rectangle_table(spec: GridSpec) -> dict[tuple[int, int], list[int]]:
    """Critical counts of every corner rectangle (i, j), 0 <= i <= m and
    0 <= j <= n, filled bottom-up; (m, 0) is the whole grid.

    Zero-dimensional counts: column sums when i = 0, row sums when j = n,
    and 1 + |V(0,j)| + |V(i,n)| otherwise.  Higher counts combine child
    rectangles, discounting the chosen vertex's own cell and, at l = 1, the
    paired critical 0-simplex of each child.
    """
    m, n, sizes = spec.m, spec.n, spec.sizes
    table: dict[tuple[int, int], list[int]] = {}
    for j in range(n, -1, -1):
        for i in range(m + 1):
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
    return table


def grid_count_table(spec: GridSpec) -> GridCountTable:
    """The rectangle table of a grid with m >= 1 and n >= 1, over the
    rectangles 0 <= i <= m-1, 1 <= j <= n that the full grid's recurrence
    reads."""
    m, n = spec.m, spec.n
    if m < 1 or n < 1:
        raise ValueError("the rectangle table needs m >= 1 and n >= 1")
    table = _rectangle_table(spec)
    return GridCountTable(
        m, n, {(i, j): tuple(table[(i, j)]) for j in range(n, 0, -1) for i in range(m)}
    )


def grid_critical_fvector(spec: GridSpec) -> tuple[int, ...]:
    """Critical f-vector of the full grid graph via the closed recurrences:
    the rectangle table's (m, 0) entry.  Degenerate grids (m = 0 or n = 0)
    are complete graphs, contributing a single count."""
    return _trim(_rectangle_table(spec)[(spec.m, 0)])
