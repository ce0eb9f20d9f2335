"""Critical f-vectors without materializing any complex.

Two routes.  The recursive one runs the explicit construction's own
recursion, ``morse._recurse``, with the construction's own node assembly,
``morse._assemble_counts``, on counts alone: no tree is kept.  It takes a
driver's own selection: the chordal driver's on a chordal graph, the
generic driver's on any other.  The grid one evaluates closed
recurrences over the corner-rectangle table c[i][j][l]; the full grid is
the rectangle (m, 0).  All arithmetic is plain Python int, so cell sizes
may be arbitrarily large.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chordal import _peo
from .generators import GridSpec
from .graph_core import Graph
from .morse import _assemble_counts, _auto_selector, _peo_selector, _recurse, _trim, _twin_table


def critical_fvector_recursive(g: Graph) -> tuple[int, ...]:
    """Critical counts of the simplicial-vertex recursion, by pure recursion
    on counts.

    An empty vertex set gives the empty vector.  Otherwise, with v the
    selected simplicial vertex, k universal neighbors and children G - N[u]
    over the other neighbors u:

      f_0 = 1 + k
      f_1 = sum_u f_0(child_u) - (deg(v) - k)
      f_t = sum_u f_{t-1}(child_u)      for t >= 2.

    An isolated v gives (1,) and a v in a clique on c vertices (c,).  A
    chordal graph takes build_chordal_matching's selection, the first vertex
    of its one perfect elimination ordering left in the subgraph, found by a
    bisection with no scan.  Any other graph takes build_auto's selector,
    the smallest simplicial vertex, so the first subgraph without one is the
    one build_auto reports, and its twin table: true twins u share G - N[u],
    so the sums take each class's child once, times its size.  On a chordal
    graph the construction is perfect, so every simplicial choice gives the
    Betti numbers and both agree.

    It runs on the construction's own recursion, ``morse._recurse``, so its
    depth is not bounded by the interpreter's.
    """
    if g.n == 0:
        return ()
    if _peo(g) is not None:
        return _recurse(g, _peo_selector(g), _assemble_counts)
    closed, twins = _twin_table(g)
    return _recurse(g, _auto_selector(closed, twins), _assemble_counts, twins=twins)


@dataclass(frozen=True)
class GridCountTable:
    """Critical counts for every corner rectangle of a grid spec.

    ``entry(i, j, l)`` is the number of l-dimensional critical simplices of
    the construction on the subgraph spanned by cells (r, s) with r <= i and
    s >= j, defined for 0 <= i <= m-1, 1 <= j <= n, 0 <= l <= min(i, n-j).
    ``critical_f`` is the full grid's critical f-vector, as
    ``grid_critical_fvector`` gives it, read from the same table.
    """

    m: int
    n: int
    table: dict[tuple[int, int], tuple[int, ...]]
    critical_f: tuple[int, ...]

    def entry(self, i: int, j: int, l: int) -> int:
        return self.table[(i, j)][l]


def _rectangle_table(spec: GridSpec) -> list[list[list[int]]]:
    """Critical counts of every corner rectangle (i, j), 0 <= i <= m and
    0 <= j <= n, as table[i][j], filled bottom-up; table[m][0] is the whole
    grid.

    Zero-dimensional counts: column sums when i = 0, row sums when j = n,
    and 1 + |V(0,j)| + |V(i,n)| otherwise.  Higher counts combine child
    rectangles, discounting the chosen vertex's own cell and, at l = 1, the
    paired critical 0-simplex of each child.
    """
    m, n, sizes = spec.m, spec.n, spec.sizes
    table: list[list[list[int]]] = [[[]] * (n + 1) for _ in range(m + 1)]
    for j in range(n, -1, -1):
        for i in range(m + 1):
            d = min(i, n - j)
            row = table[i][j] = [0] * (d + 1)
            if i == 0:
                row[0] = sum(sizes[0][j:])
            elif j == n:
                row[0] = sum(size[n] for size in sizes[: i + 1])
            else:
                row[0] = 1 + sizes[0][j] + sizes[i][n]
            for l in range(1, d + 1):
                dl = 1 if l == 1 else 0
                acc = 0
                for r in range(l, i + 1):
                    dr = 1 if r == i else 0
                    acc += (sizes[r][j] - dr) * (table[r - 1][j + 1][l - 1] - dl)
                below = table[i - 1]
                for s in range(j + 1, n - l + 1):
                    acc += sizes[i][s] * (below[s + 1][l - 1] - dl)
                row[l] = acc
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
        m,
        n,
        {(i, j): tuple(table[i][j]) for j in range(n, 0, -1) for i in range(m)},
        _trim(table[m][0]),
    )


def grid_critical_fvector(spec: GridSpec) -> tuple[int, ...]:
    """Critical f-vector of the full grid graph via the closed recurrences:
    the rectangle table's (m, 0) entry.  Degenerate grids (m = 0 or n = 0)
    are complete graphs, contributing a single count."""
    return _trim(_rectangle_table(spec)[spec.m][0])
