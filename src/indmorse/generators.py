"""Graph families: blown-up grid posets, power graphs of cyclic groups,
seeded random chordal graphs, and the usual small standards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .graph_core import Graph, _graph_of_rows


@dataclass(frozen=True)
class GridSpec:
    """Cell sizes for a blown-up grid-poset graph.

    ``sizes[i][j]`` is the cardinality of the clique placed at poset element
    (i, j), for 0 <= i <= m and 0 <= j <= n.  Every cell must be nonempty.
    """

    m: int
    n: int
    sizes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("grid dimensions must be nonnegative")
        if len(self.sizes) != self.m + 1:
            raise ValueError("sizes must have m+1 rows")
        for row in self.sizes:
            if len(row) != self.n + 1:
                raise ValueError("sizes must have n+1 columns per row")
            for s in row:
                if not (isinstance(s, int) and s >= 1):
                    raise ValueError("every cell size must be a positive integer")

    @staticmethod
    def of(m: int, n: int, sizes) -> "GridSpec":
        return GridSpec(m, n, tuple(tuple(int(s) for s in row) for row in sizes))

    def total_vertices(self) -> int:
        return sum(sum(row) for row in self.sizes)


def _grid_rows(members, labels) -> tuple[int, ...]:
    """Adjacency rows of the grid rule from a full table of cell members.

    ``members[i][j]`` is the bitmask of the vertices in cell (i, j) and
    ``labels[v]`` is the cell of v.  Cells (r, s) and (i, j) are comparable
    iff r <= i and s <= j, or r >= i and s >= j; v's row is every member of
    a cell comparable to its own, itself excepted.  The rows are symmetric
    and loop-free by construction.
    """
    # below[i][j] / above[i][j]: members of the cells (r, s) with r <= i and
    # s <= j, resp. r >= i and s >= j; together, every comparable cell.
    m, n = len(members) - 1, len(members[0]) - 1
    below = [row[:] for row in members]
    for i in range(m + 1):
        for j in range(n + 1):
            if i:
                below[i][j] |= below[i - 1][j]
            if j:
                below[i][j] |= below[i][j - 1]
    above = [row[:] for row in members]
    for i in range(m, -1, -1):
        for j in range(n, -1, -1):
            if i < m:
                above[i][j] |= above[i + 1][j]
            if j < n:
                above[i][j] |= above[i][j + 1]
    return tuple(
        [(below[i][j] | above[i][j]) & ~(1 << v) for v, (i, j) in enumerate(labels)]
    )


def grid_graph(spec: GridSpec) -> Graph:
    """Graph of the blown-up grid poset described by ``spec``.

    Vertex ids are row-major by cell (i, j), then by intra-cell index; each
    vertex carries its cell as a label.  Two vertices are adjacent iff their
    cells are comparable in the product order (which makes each cell a
    clique).
    """
    labels: list[tuple[int, int]] = []
    members = []
    for i, sizes in enumerate(spec.sizes):
        members.append([])
        for j, size in enumerate(sizes):
            members[i].append(((1 << size) - 1) << len(labels))
            labels.extend([(i, j)] * size)
    return _graph_of_rows(len(labels), _grid_rows(members, labels), tuple(labels))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def power_graph_cyclic(p: int, q: int, m: int, n: int) -> Graph:
    """Power graph of the cyclic group of order p^m q^n.

    Vertices are the group elements 0..N-1; x and y are adjacent when one
    generates the other.  The element of order p^i q^j is labeled with cell
    (i, j), which exhibits the graph as a member of the grid family.
    """
    if p == q or not _is_prime(p) or not _is_prime(q):
        raise ValueError("p and q must be distinct primes")
    if m < 0 or n < 0:
        raise ValueError("exponents must be nonnegative")
    big = p**m * q**n
    labels = []
    members = [[0] * (n + 1) for _ in range(m + 1)]
    for x in range(big):
        o = big // gcd(big, x) if x else 1
        i = 0
        while o % p == 0:
            o //= p
            i += 1
        j = 0
        while o % q == 0:
            o //= q
            j += 1
        labels.append((i, j))
        members[i][j] |= 1 << x
    # x is a power of y exactly when ord(x) divides ord(y), that is, when
    # the cell of x lies below the cell of y in the product order.
    return _graph_of_rows(big, _grid_rows(members, labels), tuple(labels))


def random_chordal(n: int, extra_density: float, seed: int) -> Graph:
    """Seeded random chordal graph.

    Vertices arrive one at a time; each new vertex picks a stored maximal
    clique uniformly at random and keeps each of its members independently
    with probability ``extra_density``.  The reverse arrival order is then a
    perfect elimination ordering, so the result is always chordal.  The
    stream is Python's Mersenne Twister (random.Random) seeded with ``seed``.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0.0 <= extra_density <= 1.0:
        raise ValueError("extra_density must lie in [0, 1]")
    rng = random.Random(seed)
    cliques: list[set[int]] = [{0}]
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        base = rng.choice(cliques)
        kept = {w for w in sorted(base) if rng.random() < extra_density}
        edges.extend((w, v) for w in sorted(kept))
        grown = kept | {v}
        if kept == base:
            cliques.remove(base)
        cliques.append(grown)
    return Graph.from_edges(n, edges)


def standard_graph(kind: str, n: int) -> Graph:
    """Path, cycle, complete or empty graph on n vertices."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if kind == "path":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "empty":
        return Graph.from_edges(n, [])
    raise ValueError(f"unknown graph kind {kind!r}")


def grid_spec_from_labels(g: Graph) -> GridSpec:
    """Recover the grid spec from a labeled graph.

    Raises if labels are missing, do not fill every cell of a full
    (m+1) x (n+1) rectangle, or contradict the grid adjacency rule.
    """
    if g.labels is None:
        raise ValueError("graph carries no grid labels")
    if g.n == 0:
        raise ValueError("empty graph has no grid spec")
    labels = g.labels
    # Rows and columns of the labels, read in one pass at C level.
    rows, cols = zip(*labels)
    if min(rows) < 0 or min(cols) < 0:
        raise ValueError("negative cell label")
    m, n = max(rows), max(cols)
    # Checked before allocating the cell table, which the labels size.
    if (m + 1) * (n + 1) > g.n:
        raise ValueError("labels leave a grid cell empty")
    members = [[0] * (n + 1) for _ in range(m + 1)]
    for v, (i, j) in enumerate(labels):
        members[i][j] |= 1 << v
    if not all(map(all, members)):
        raise ValueError("labels leave a grid cell empty")
    if tuple(g.adj) != _grid_rows(members, labels):
        raise ValueError("labels are inconsistent with the adjacency rule")
    return GridSpec(m, n, tuple(tuple(map(int.bit_count, row)) for row in members))
