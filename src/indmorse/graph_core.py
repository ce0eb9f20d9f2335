"""Immutable bitset graphs and the domination number.

Vertices are dense integers 0..n-1.  Every vertex set, including adjacency
rows, is a plain int used as a bitmask, so set algebra is bitwise arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import lshift
from typing import Iterator

# Explicit complexes and pair lists grow exponentially in the vertex count:
# under this cap they can still reach 2^32 faces, so the CLI's face caps keep
# building a complex or reading a result's pairs in memory.  The recursion
# tree itself stays small.  Count-only code paths are not subject to it.
EXPLICIT_VERTEX_CAP = 32
# Domination number is found by exhaustive subset search.
DOMINATION_VERTEX_CAP = 24
# Costs of mirroring rows in characters of _mirrored's text transpose, timed
# on graphs of 10 to 1,500 vertices: an edge of its bit loop, a transposed row.
_EDGE_COST = 100
_ROW_COST = 400


class CapabilityError(Exception):
    """An input exceeds a documented size gate."""


class UnsupportedGraphError(Exception):
    """The simplicial-vertex recursion cannot proceed on this graph.

    ``vertices`` names the offending induced subgraph (original vertex ids).
    """

    def __init__(self, message: str, vertices: tuple[int, ...] = ()):
        super().__init__(message)
        self.vertices = tuple(vertices)


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with bitmask adjacency rows.

    ``labels`` optionally assigns a grid cell (i, j) to every vertex.
    """

    n: int
    adj: tuple[int, ...]
    labels: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        adj = self.adj
        full = (1 << self.n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency row of {v} mentions unknown vertices")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        # Symmetric iff equal to the mirror of its rows above the diagonal.
        if _mirrored([row >> v + 1 for v, row in enumerate(adj)]) != adj:
            for v, row in enumerate(adj):
                for w in bits(row):
                    if not adj[w] >> v & 1:
                        raise ValueError(f"adjacency is not symmetric at ({v}, {w})")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length does not match vertex count")

    @staticmethod
    def from_edges(n: int, edges, labels=None) -> "Graph":
        """The graph on 0..n-1 with the given edges and optional cell labels.

        Every edge is a pair of integers; a bool, float or string end is
        rejected, never converted.  A malformed edge is reported before a
        vertex count too large to allocate, and that before the first
        out-of-range edge or self-loop.
        """
        try:
            adj = [0] * n
        except (OverflowError, MemoryError):
            # Reported after the edges are checked.
            adj = None
        bad = None
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                u = v = None
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"malformed edge {e!r}")
            if adj is not None and 0 <= u < n and 0 <= v < n and u != v:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            elif bad is None:
                bad = (
                    f"self-loop at vertex {u}"
                    if 0 <= u == v < n
                    else f"edge ({u}, {v}) out of range"
                )
        if adj is None:
            raise ValueError(f"vertex count {n} is too large")
        if bad is not None:
            raise ValueError(bad)
        return _graph_of_rows(n, tuple(adj), _checked_labels(labels))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        # Each edge once, from its lower end: only the bits above u are walked.
        return [(u, v) for u, row in enumerate(self.adj) for v in bits(row >> u + 1 << u + 1)]

    def _check_vertex(self, v: int) -> None:
        if not (isinstance(v, int) and 0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range")


def _checked_labels(labels) -> tuple[tuple[int, int], ...] | None:
    """Cell labels as a tuple of (int, int) pairs; None stays None."""
    lab = None if labels is None else tuple(map(tuple, labels))
    for cell in lab or ():
        if not (len(cell) == 2 and type(cell[0]) is int and type(cell[1]) is int):
            raise ValueError(f"malformed label {list(cell)!r}")
    return lab


def _mirrored(ups: list[int]) -> tuple[int, ...]:
    """Symmetric rows from those above the diagonal as a file holds them (bit
    i of ups[v] is vertex v + 1 + i), naming the first row out of range.
    Dense rows are transposed at C level: in binary text of one stride,
    column w, the row of w below the diagonal, is one strided slice read by
    one ``int(..., 2)``: a few calls a row and a character a matrix cell."""
    n = len(ups)
    adj = list(map(lshift, ups, range(1, n + 1)))
    if _EDGE_COST * sum(map(int.bit_count, ups)) > n * (n + _ROW_COST):
        # An in-range row v is "0b1" and its n digits, most significant
        # first; the leading "0" makes column 0 read as empty.
        text = "0" + "".join(map(bin, map((1 << n).__add__, adj)))
        if len(text) == 1 + n * (n + 3):
            return tuple(row | int(text[w * (n + 2) :: -n - 3], 2) for w, row in enumerate(adj))
    # Each row is walked from its top bit, so the first row out of range
    # indexes past adj before any later row is read.
    try:
        for v, up in enumerate(ups):
            low = 1 << v
            while up:
                top = up.bit_length()
                adj[v + top] |= low
                up ^= 1 << top - 1
    except IndexError:
        raise ValueError(f"adjacency row of {v} mentions unknown vertices") from None
    return tuple(adj)


def _graph_of_rows(n: int, adj: tuple[int, ...], labels=None) -> Graph:
    """A Graph on rows in range, loop-free and symmetric by construction (as
    from_edges sets them): only the vertex count and labels are checked."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if labels is not None and len(labels) != n:
        raise ValueError("labels length does not match vertex count")
    g = object.__new__(Graph)
    g.__dict__.update(n=n, adj=adj, labels=labels)
    return g


def domination_number(g: Graph) -> int:
    """Exact domination number by increasing-cardinality exhaustive search."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g.n > DOMINATION_VERTEX_CAP:
        raise CapabilityError(
            f"domination search is limited to {DOMINATION_VERTEX_CAP} vertices"
        )
    full = g.full_mask
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    # Isolated vertices dominate only themselves, so they sit in every
    # dominating set; search over the rest.
    isolated = [v for v in range(g.n) if g.adj[v] == 0]
    base = 0
    for v in isolated:
        base |= 1 << v
    others = [v for v in range(g.n) if g.adj[v] != 0]
    if base == full:
        return len(isolated)
    for extra in range(1, len(others) + 1):
        for subset in combinations(others, extra):
            cover = base
            for v in subset:
                cover |= closed[v]
            if cover == full:
                return len(isolated) + extra
    raise AssertionError("the full vertex set always dominates")


def graph_to_json(g: Graph) -> dict:
    """Graph as a JSON-ready dict {"n", "rows", "labels"?}: entry v of "rows" is
    adj[v] >> v + 1 in lowercase hex, whose bit i stands for vertex v + 1 + i."""
    obj: dict = {"n": g.n, "rows": [format(row >> v + 1, "x") for v, row in enumerate(g.adj)]}
    if g.labels is not None:
        obj["labels"] = [list(lab) for lab in g.labels]
    return obj


def graph_from_json(obj: dict) -> Graph:
    """Parse a graph dict with "n" and exactly one of "rows", as
    :func:`graph_to_json` writes it, and "edges", a list of [u, v] pairs.

    A file holds only the rows above the diagonal, half the size of full
    rows, so their range is checked and their mirror built on load."""
    if not isinstance(obj, dict) or "n" not in obj or not ("edges" in obj or "rows" in obj):
        key = "rows" if isinstance(obj, dict) and "rows" in obj else "edges"
        raise ValueError(f'graph JSON must contain "n" and "{key}"')
    if "edges" in obj and "rows" in obj:
        raise ValueError('graph JSON must not contain both "edges" and "rows"')
    n = obj["n"]
    # JSON integers only: bool is an int subclass, and a float or a string
    # must not be rounded or parsed into a vertex.
    if type(n) is not int or n < 0:
        raise ValueError('"n" must be a nonnegative integer')
    if "edges" in obj:
        return Graph.from_edges(n, obj["edges"], obj.get("labels"))
    rows = obj["rows"]
    # Checked before anything is allocated: a huge "n" costs nothing.
    if type(rows) is not list or len(rows) != n:
        raise ValueError(f'"rows" must be a list of {n} hex strings')
    # int(text, 16) alone would take "0x1", "+1", "1_0", " 1", "A" and
    # non-ASCII digits such as "\u0663".  The list is tested at C level: a
    # type pass, then one pass over the UTF-8 bytes of the joined rows,
    # where any other character leaves a byte that is no hex digit.  The
    # loop names the first malformed row.
    digits = b"0123456789abcdef"
    if (
        list(map(type, rows)).count(str) != n
        or not all(rows)
        or "".join(rows).encode(errors="replace").translate(None, digits)
    ):
        for v, text in enumerate(rows):
            if (
                type(text) is not str
                or not text
                or text.encode(errors="replace").translate(None, digits)
            ):
                raise ValueError(f"malformed row {text!r} of vertex {v}")
    adj = _mirrored([int(text, 16) for text in rows])
    return _graph_of_rows(n, adj, _checked_labels(obj.get("labels")))
