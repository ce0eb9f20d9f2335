"""Critical f-vectors without materializing any complex.

Both routes count in the reduced counts R of ``morse`` and convert to the
f-vector at the root.  The recursive one runs the explicit construction's
own recursion, ``morse._recurse``, with its node assembly,
``morse._assemble_counts``, on counts alone: no tree is kept.  It takes a
driver's own selection: the chordal driver's on a chordal graph, the
generic driver's on any other.  The grid one applies the same rule to the
table of corner rectangles; the full grid is the rectangle (m, 0).  All
arithmetic is plain Python int, so cell sizes may be arbitrarily large.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chordal import _peo
from .generators import GridSpec
from .graph_core import Graph
from .morse import _assemble_counts, _auto_selector, _peo_selector, _recurse, _twin_table
from .morse import _reduced_to_f, _trim


def critical_fvector_recursive(g: Graph) -> tuple[int, ...]:
    """Critical counts of the simplicial-vertex recursion, by pure recursion
    on counts: an empty vertex set gives the empty vector.  A chordal graph
    takes build_chordal_matching's selection, the first vertex of its one
    perfect elimination ordering left in the subgraph, found by a bisection
    with no scan.  Any other graph takes build_auto's selector, the smallest
    simplicial vertex, so the first subgraph without one is the one
    build_auto reports, and its twin table: true twins u share G - N[u], so
    the sums take each class's child once, times its size.  On a chordal
    graph the construction is perfect, so every simplicial choice gives the
    Betti numbers and both agree.

    It runs on the construction's own recursion, ``morse._recurse``, so its
    depth is not bounded by the interpreter's.
    """
    if g.n == 0:
        return ()
    if _peo(g) is not None:
        r = _recurse(g, _peo_selector(g), _assemble_counts)
    else:
        closed, twins = _twin_table(g)
        r = _recurse(g, _auto_selector(closed, twins), _assemble_counts, twins=twins)
    return _reduced_to_f(r)


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
    """R of every corner rectangle (i, j), 0 <= i <= m and 0 <= j <= n, as
    table[i + 1][j], of min(i, n - j) + 2 counts; row 0 and column n + 1
    are the empty rectangle, R = (1,).  By morse's rule with v in the corner
    cell, R(i, j) is t times the sum of R(r - 1, j + 1) per vertex of the
    cells (r, j), r <= i, and of R(i - 1, s + 1) per vertex of the cells
    (i, s), s > j, v excepted: running sums down column j and along row i,
    which R(i - 1, j + 1) enters both."""
    m, n, sizes = spec.m, spec.n, spec.sizes
    width = min(m, n) + 2
    table: list[list[list[int]]] = [[[1]] * (n + 2) for _ in range(m + 2)]
    # rows[i]: the sum of sizes[i][s] * R(i - 1, s + 1) over s > j.
    rows = [[0] * width for _ in range(m + 1)]
    for j in range(n, -1, -1):
        # The sum of sizes[r][j] * R(r - 1, j + 1) over r <= i.
        col = [0] * width
        for i in range(m + 1):
            up = table[i][j + 1]
            size = sizes[i][j]
            along = rows[i]
            row = table[i + 1][j] = [0] * (min(i, n - j) + 2)
            for l, x in enumerate(up):
                col[l] += size * x
                # v is not its own neighbor.
                row[l + 1] = col[l] + along[l] - x
                along[l] += size * x
    return table


def grid_count_table(spec: GridSpec) -> GridCountTable:
    """The rectangle table of a grid with m >= 1 and n >= 1, over the
    rectangles 0 <= i <= m-1, 1 <= j <= n that the full grid's recurrence
    reads."""
    m, n = spec.m, spec.n
    if m < 1 or n < 1:
        raise ValueError("the rectangle table needs m >= 1 and n >= 1")
    table = _rectangle_table(spec)
    entries = {(i, j): _reduced_to_f(table[i + 1][j]) for j in range(n, 0, -1) for i in range(m)}
    return GridCountTable(m, n, entries, _reduced_to_f(_trim(table[m + 1][0])))


def grid_critical_fvector(spec: GridSpec) -> tuple[int, ...]:
    """Critical f-vector of the full grid graph via the closed recurrences:
    the rectangle table's (m, 0) entry.  Degenerate grids (m = 0 or n = 0)
    are complete graphs, contributing a single count."""
    return _reduced_to_f(_trim(_rectangle_table(spec)[spec.m + 1][0]))
