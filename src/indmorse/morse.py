"""Recursive construction of acyclic matchings on independence complexes.

The single-step extension takes a simplicial vertex v and one sub-matching
per neighbor u with G - N[u] nonempty (built on I(G - N[u])), and assembles
a matching on I(G):

  (i)   every sub-pair (alpha, beta) with alpha nonempty lifts to
        (alpha + u, beta + u);
  (ii)  each such u is paired as ({u}, {u, x_u}) for a chosen critical
        0-simplex {x_u} of its sub-matching;
  (iii) every alpha in I(G - N[v]) is paired with alpha + v, including
        (empty, {v}).

The critical simplices are then {v}, the singletons of the u with G - N[u]
empty, and every lifted sub-critical simplex except the chosen {x_u}.  An
isolated vertex and every vertex of a clique are simplicial, so every node
of a recursion is one such step, and a driver is one function select(g,
mask) -> v: the first vertex of the graph's perfect elimination ordering in
the mask (chordal), a vertex of the corner cell (labeled grid-family
graphs), or the smallest simplicial vertex (generic, keeping witnesses).
True twins, vertices with one closed neighborhood, share their child: the
generic driver hands its twin classes to the recursion, which walks N(v)
one class at a time.

A node of the recursion tree stores its critical counts, assembled from its
children's by the same rule the count route uses (``_assemble_counts``), and
its recipe: v, its mask and, per child, (u, child node, x_u).  Its special
0-simplex {v} is read off the recipe, and its critical set and pairs come
from one walk of its recipe tree on first read, which carries the lift of
each node reached instead of lifting a tuple and a frozenset per inner
node; a node reached keeps only its case (iii) enumeration.  So a build
whose caller reads only the counts enumerates no cell, and a node equals
only itself.  The tree is also the certificate: certify_tree walks the
recipes from the root and checks the extension theorem's hypotheses at
each node, which also prove every critical cell but the root's {v}
maximal.  A ``trace`` dict, when a caller passes one, records every node
for counting and tests; no code here reads it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, chain, islice, repeat, zip_longest
from operator import or_
from typing import Mapping

from .chordal import _peo, is_chordal
from .complexes import SimplicialComplex, _independent_sets
from .generators import GridSpec, grid_spec_from_labels
from .graph_core import (
    EXPLICIT_VERTEX_CAP,
    CapabilityError,
    Graph,
    UnsupportedGraphError,
    bits,
)
from .matching import check_field

Pair = tuple[int, int]


@dataclass(frozen=True, eq=False)
class ConstructionResult:
    """An acyclic matching on I(G) together with its critical data: a node
    of the recursion tree.

    A node stores what the build computes, its ``critical_f`` and its
    ``recipe`` (adj, mask, v, ((u, child, x_u), ...)), and derives the rest
    on first read: ``special_zero`` is {v}, the one critical 0-simplex that
    may fail to be maximal, and ``pairs`` and ``critical_set`` come from one
    walk of the recipe tree (``_derive``).  With no recipe they are None, ()
    and the empty set: the 0-vertex graph's node.  A matching given whole
    (``given``) holds all three and has no recipe.  A result equals only
    itself, so no comparison or hash derives anything.
    """

    critical_f: tuple[int, ...]
    driver: str
    recipe: tuple | None = field(default=None, repr=False)

    @classmethod
    def given(cls, pairs, critical_set, critical_f, special_zero, driver):
        """A result with no recipe holding a whole matching and its critical
        data, such as a sub-matching for extend_matching."""
        node = cls(critical_f, driver)
        node.__dict__.update(
            pairs=tuple(pairs),
            critical_set=frozenset(critical_set),
            special_zero=special_zero,
        )
        return node

    @cached_property
    def special_zero(self) -> int | None:
        return None if self.recipe is None else 1 << self.recipe[2]

    @cached_property
    def pairs(self) -> tuple[Pair, ...]:
        return () if self.recipe is None else _derive(self)[0]

    @cached_property
    def critical_set(self) -> frozenset[int]:
        return frozenset() if self.recipe is None else _derive(self)[1]


def _check_cap(g: Graph) -> None:
    if g.n > EXPLICIT_VERTEX_CAP:
        raise CapabilityError(
            f"explicit construction is limited to {EXPLICIT_VERTEX_CAP} vertices"
        )


def _trim(counts: list[int]) -> tuple[int, ...]:
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def _assemble_counts(g: Graph, mask: int, v: int, children, twins=None) -> tuple[int, ...]:
    """The critical counts of the node at v from its children's, {u:
    critical_f of G[mask] - N[u]}: {v} and each {u} with no child are
    0-simplices, each child's d-cells lift to (d+1)-cells, and one lifted
    0-simplex per child, x_u + u, is paired.  Under the generic driver's
    ``twins`` a child is keyed by its class instead, the bitmask of the true
    twins in N(v) & mask that share it, and counts once per member."""
    paired = len(children) if twins is None else sum(map(int.bit_count, children))
    # A universal neighbor u of v leaves G - N[u] empty, so it has no child.
    k = (g.adj[v] & mask).bit_count() - paired
    # A path has one child per node and f-vectors of length up to n/3, so a
    # node is built by sequence operations in C: a shift, or column sums.
    if paired == 1:
        (f,) = children.values()
        # A child with one critical cell, its x_u, leaves none to lift.
        if f == (1,):
            return (1 + k,)
        counts = (1 + k, f[0] - 1) + f[1:]
        return counts if counts[-1] else _trim(list(counts))
    fs = children.values()
    if paired != len(fs):
        # A class's child, once per member.
        fs = chain.from_iterable(map(repeat, fs, map(int.bit_count, children)))
    counts = [1 + k, *map(sum, zip_longest(*fs, fillvalue=0))]
    if paired:
        counts[1] -= paired
    return tuple(counts) if counts[-1] else _trim(counts)


def _choose_xu(child: ConstructionResult) -> int:
    """The 0-simplex paired against {u}: the child's special 0-simplex, the
    {v} of its recipe or the one a given sub-matching holds, or, when it has
    none (a sub-matching given to extend_matching), its smallest-id
    critical 0-simplex."""
    if child.recipe is not None:
        return 1 << child.recipe[2]
    if child.special_zero is not None:
        return child.special_zero
    zeros = [s for s in child.critical_set if s.bit_count() == 1]
    if not zeros:
        raise ValueError("sub-matching has no critical 0-simplex")
    return min(zeros)


def _members(entries) -> list[tuple]:
    """Each entry (class, ...) once per member u of the class, as (u, ...),
    in increasing order of u: twins interleave with the classes after them,
    and no two entries share a u."""
    return sorted((u, *rest) for cls, *rest in entries for u in bits(cls))


def _scoped_node(
    g: Graph,
    mask: int,
    v: int,
    children: Mapping[int, ConstructionResult],
    twins: list[int] | None,
    driver: str,
) -> ConstructionResult:
    """The matching on I(G[mask]): the extension step at v with the given
    children, {u: child node}, or {class: child node} under the generic
    driver's ``twins``.  Only the critical counts are assembled; the
    critical set and the pairs wait in the recipe, which holds one step per
    u, in increasing order."""
    fs = {}
    steps = []
    for u, child in children.items():
        fs[u] = child.critical_f
        steps.append((u, child, _choose_xu(child)))
    if twins is not None:
        steps = _members(steps)
    # One __dict__ update, not the frozen dataclass's setattr per field.
    node = object.__new__(ConstructionResult)
    node.__dict__.update(
        critical_f=_assemble_counts(g, mask, v, fs, twins),
        driver=driver,
        recipe=(g.adj, mask, v, tuple(steps)),
    )
    return node


def _derive(node: ConstructionResult) -> tuple[tuple[Pair, ...], frozenset[int]]:
    """A node's pairs and critical set, from one walk of its recipe tree that
    carries the lift L, the union of the u on the path, and keeps both on
    the node.

    Under L an extension node emits, for each step (u, child, x_u), its
    child's pairs under L + u and then the case (ii) pair ({u}, {u, x_u})
    lifted by L, and last (alpha, alpha + v) lifted by L over I(G[mask -
    N[v]]), less (empty, {v}) below the root: a lifted pair's alpha is
    never empty.  Its critical cells are {v} and each {u} with no step,
    lifted by L, unless the parent pairs that 0-simplex as its x_u, and its
    children's under L + u.  A node given whole, or read before, emits what
    it holds lifted the same way.  Each other node reached keeps its case
    (iii) enumeration, so that runs once however often the node is reached
    or read.
    """
    pairs: list[Pair] = []
    critical: list[int] = []
    _walk(node, 0, 0, pairs, critical)
    # A walk that reaches this node later lifts what it now holds.
    node.__dict__.pop("_free", None)
    derived = tuple(pairs), frozenset(critical)
    node.__dict__.update(pairs=derived[0], critical_set=derived[1])
    return derived


def _walk(node, lift: int, skip: int, pairs: list, critical: list) -> None:
    """_derive's walk from node under lift; skip is the parent's x_u, 0 at the root."""
    held = node.__dict__
    if "pairs" in held:
        pairs.extend([(a | lift, b | lift) for a, b in held["pairs"] if a])
        critical.extend([c | lift for c in held["critical_set"] if c != skip])
        return
    adj, mask, v, steps = node.recipe
    bit_v = 1 << v
    if bit_v != skip:
        critical.append(bit_v | lift)
    alone = adj[v] & mask
    for u, child, xu in steps:
        bit_u = 1 << u
        alone ^= bit_u
        _walk(child, lift | bit_u, xu, pairs, critical)
        pairs.append((bit_u | lift, bit_u | xu | lift))
    while alone:
        low = alone & -alone
        if low != skip:
            critical.append(low | lift)
        alone ^= low
    free = held.get("_free")
    if free is None:
        free = held["_free"] = _independent_sets(adj, mask & ~(adj[v] | bit_v))
    top = bit_v | lift
    if lift:
        pairs += [(a | lift, a | top) for a in islice(free, 1, None)]
    else:
        # The pairs share the enumeration's sets.
        pairs += [(a, a | top) for a in free]


def extend_matching(
    g: Graph, v: int, sub: Mapping[int, ConstructionResult]
) -> ConstructionResult:
    """One extension step on the full graph, validating the sub-matchings.

    ``sub`` must supply, for every u in N(v) with G - N[u] nonempty, an
    acyclic matching on I(G - N[u]) expressed in original vertex ids, whose
    critical data is its own and whose special 0-simplex, if any, is
    critical.
    """
    g._check_vertex(v)
    _check_cap(g)
    nv = g.adj[v]
    for u in bits(nv):
        if nv & ~(g.adj[u] | 1 << u):
            raise ValueError("v must be simplicial")
    full = g.full_mask
    checked: dict[int, ConstructionResult] = {}
    for u in bits(nv):
        mask_u = full & ~(g.adj[u] | 1 << u)
        if mask_u == 0:
            continue
        if u not in sub:
            raise ValueError(f"missing sub-matching for neighbor {u}")
        x_u = SimplicialComplex(g.n, frozenset(_independent_sets(g.adj, mask_u)))
        cert = check_field(x_u, sub[u].pairs)
        sz = sub[u].special_zero
        if (
            not cert.ok
            or sub[u].critical_set != cert.critical
            or sub[u].critical_f != cert.critical_f
            or sz is not None and (sz.bit_count() != 1 or sz not in cert.critical)
        ):
            raise ValueError(f"sub-matching for neighbor {u} is invalid")
        checked[u] = sub[u]
    return _scoped_node(g, full, v, checked, None, "extend")


def _twin_table(g: Graph) -> tuple[list[int], list[int]]:
    """The generic driver's table: each vertex's closed row N[v], and its
    class of true twins, the vertices with that closed row."""
    closed = []
    classes: dict[int, int] = {}
    for v, row in enumerate(g.adj):
        row |= 1 << v
        closed.append(row)
        classes[row] = classes.get(row, 0) | 1 << v
    return closed, list(map(classes.__getitem__, closed))


def _auto_selector(closed: list[int], twins: list[int]):
    """The generic driver's selection over a twin table: the smallest
    simplicial vertex.

    A vertex that fails keeps its witness, two nonadjacent neighbors in the
    mask; while both stay in the mask, one mask test rejects it again.  A
    rejected vertex takes its twin class in the mask with it, since a twin
    sees the same two neighbors, and the test never tries a twin of v or of
    a neighbor already tried: a twin of v is adjacent to all of N(v), and a
    twin of u fails exactly where u does."""
    witness: dict[int, int] = {}

    def select(g: Graph, mask: int) -> int:
        left = mask
        while left:
            bit = left & -left
            v = bit.bit_length() - 1
            pair = witness.get(v)
            if pair is None or mask & pair != pair:
                rest = closed[v] & mask & ~twins[v]
                while rest:
                    low = rest & -rest
                    u = low.bit_length() - 1
                    apart = rest & ~closed[u]
                    if apart:
                        witness[v] = low | (apart & -apart)
                        break
                    rest &= ~twins[u]
                else:
                    return v
            left &= ~twins[v]
        raise UnsupportedGraphError(
            "no simplicial vertex in the induced subgraph on "
            f"{sorted(bits(mask))}",
            tuple(bits(mask)),
        )

    return select


def _peo_selector(g: Graph):
    """The chordal driver's selection: the first vertex of g's perfect
    elimination ordering in the mask, simplicial there because the ordering
    restricted to an induced subgraph is one of it.  A bisection finds the
    first prefix of the ordering that meets the mask."""
    order = _peo(g)
    prefixes = list(accumulate(map((1).__lshift__, order), or_))
    return lambda g, mask: order[bisect_left(prefixes, 1, key=mask.__and__)]


def _grid_selector(g: Graph, spec: GridSpec):
    """Selection over the upper-left rectangles of cells of a labeled grid.

    A rectangle (a, b) holds the cells (r, s) with r <= a and s >= b; its
    corner cell (a, b) contributes v.  Deleting N[u] for a neighbor u of v
    leaves another such rectangle, so every mask the recursion reaches must
    be one: anything else means the labels contradict the grid recursion.
    """
    m, n = spec.m, spec.n
    rows = [0] * (m + 1)
    cols = [0] * (n + 1)
    for vtx, (i, j) in enumerate(g.labels):
        rows[i] |= 1 << vtx
        cols[j] |= 1 << vtx
    rows_upto = rows[:]
    for a in range(1, m + 1):
        rows_upto[a] |= rows_upto[a - 1]
    cols_from = cols[:]
    for b in range(n - 1, -1, -1):
        cols_from[b] |= cols_from[b + 1]

    def select(g: Graph, mask: int):
        a = m
        while not rows[a] & mask:
            a -= 1
        b = 0
        while not cols[b] & mask:
            b += 1
        if mask != rows_upto[a] & cols_from[b]:
            raise ValueError("labels are inconsistent with the grid recursion")
        # Row 0 and column n are cliques: any of their vertices will do.
        corner = mask if a == 0 or b == n else rows[a] & cols[b]
        return (corner & -corner).bit_length() - 1

    return select


def _recurse(g: Graph, select, assemble, trace=None, twins=None):
    """The memoized recursion of every route, on an explicit stack.

    ``select(g, mask)`` gives the vertex v of the node's extension step; the
    children are the nonempty G - N[u] over u in N(v) & mask.  With the
    generic driver's ``twins``, N(v) & mask is walked one class of true
    twins at a time, whose members share one child, computed once and keyed
    by the class's bitmask instead of by u.  ``assemble(g, mask, v,
    children, twins)`` builds the node.  Masks are selected in the pre-order
    of a recursive evaluation, so a rejected subgraph is the one it would
    report, and assembled and traced, with one child entry per u, in its
    post-order.
    """
    adj = g.adj
    memo: dict = {}
    # (mask, -1, None) selects for mask; (mask, v, child masks) assembles it.
    stack: list = [(g.full_mask, -1, None)]
    while stack:
        mask, v, child_masks = stack.pop()
        if child_masks is not None:
            children = {u: memo[c] for u, c in child_masks.items()}
            node = memo[mask] = assemble(g, mask, v, children, twins)
            if trace is not None:
                if twins is not None:
                    child_masks = dict(_members(child_masks.items()))
                # Every node is an extension step; trace readers count rules.
                trace[mask] = {
                    "rule": "extend", "v": v, "children": child_masks, "result": node
                }
            continue
        if mask in memo:
            continue
        v = select(g, mask)
        child_masks = {}
        # N(v) & mask, lowest bit first; a class takes its twins along.
        rest = adj[v] & mask
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            cls = low if twins is None else rest & twins[u]
            rest ^= cls
            if mask_u := mask & ~(adj[u] | low):
                child_masks[u if twins is None else cls] = mask_u
        stack.append((mask, v, child_masks))
        for c in reversed(child_masks.values()):
            if c not in memo:
                stack.append((c, -1, None))
    return memo[g.full_mask]


def _node_fault(g: Graph, mask: int, node: ConstructionResult) -> str | None:
    """The extension theorem's first local hypothesis that fails at one node
    of a tree, reached at ``mask``, or None.  Only the 0-vertex graph's node
    has no recipe, and no critical cell.  A recipe (adj, mask, v, steps) is
    this node's; v is in the mask and simplicial there; the steps are the u
    in N(v) & mask with mask - N[u] nonempty, in order; each x_u is a
    0-simplex of its child's mask and the child's special 0-simplex; and
    critical_f is the assembly of the children's.  The special 0-simplex
    {v} and the critical set are derived from the recipe, so they hold."""
    adj = g.adj
    if node.recipe is None:
        if mask or node.critical_f or node.critical_set:
            return "a node with no recipe is not the 0-vertex graph's"
        return None
    node_adj, node_mask, v, steps = node.recipe
    if node_mask != mask or node_adj != adj:
        return "the recipe is not this node's extension step"
    if not mask >> v & 1:
        return "v is not in the mask"
    nv = adj[v] & mask
    if any(nv & ~(adj[u] | 1 << u) for u in bits(nv)):
        return "v is not simplicial"
    if [u for u, _, _ in steps] != [u for u in bits(nv) if mask & ~(adj[u] | 1 << u)]:
        return "the steps are not the u in N(v) with mask - N[u] nonempty"
    for u, child, xu in steps:
        # Every child is an extension node, whose special 0-simplex {v} is
        # critical.
        if xu.bit_count() != 1 or not xu & mask & ~(adj[u] | 1 << u):
            return f"x_{u} is not a critical 0-simplex of child {u}"
        if child.special_zero != xu:
            return f"x_{u} is not the special 0-simplex of child {u}"
    child_fs = {u: child.critical_f for u, child, _ in steps}
    if node.critical_f != _assemble_counts(g, mask, v, child_fs):
        return "the critical counts are not the extension's"
    return None


def certify_tree(g: Graph, result: ConstructionResult) -> tuple[int, ...]:
    """Certify a build by the extension theorem and return its critical
    f-vector: walking the recipes from the root, its local hypotheses hold
    at every (mask, node) of the tree (O(nodes * n) bit operations), so the
    root's matching is acyclic with the critical set its recipe derives,
    whose counts are the root's critical_f, and every critical cell but its
    special 0-simplex is maximal: a lift c + u is iff c is in mask - N[u], a
    {u} with no child is, and x_u takes the child's one cell that may not
    be, its {v}.  The pairs and critical sets the recipes derive are then
    the theorem's; a result given whole has no recipe and is left to
    check_field.  Raises ValueError naming the first node that fails and
    the hypothesis."""
    seen: set[tuple[int, int]] = set()
    stack = [(g.full_mask, result)]
    while stack:
        mask, node = stack.pop()
        if (mask, id(node)) in seen:
            continue
        seen.add((mask, id(node)))
        fault = _node_fault(g, mask, node)
        if fault is not None:
            where = sorted(bits(mask))
            raise ValueError(f"extension hypothesis fails at node {where}: {fault}")
        if node.recipe is not None:
            stack.extend(
                (mask & ~(g.adj[u] | 1 << u), child) for u, child, _ in node.recipe[3]
            )
    return result.critical_f


def _build(g: Graph, select, driver: str, trace, twins=None) -> ConstructionResult:
    """The recursion tree of a driver's selection; the 0-vertex graph, with
    no vertex to select, gets the one node without a recipe."""
    if g.n == 0:
        return ConstructionResult((), driver)
    return _recurse(g, select, partial(_scoped_node, driver=driver), trace, twins)


def build_chordal_matching(g: Graph, trace: dict | None = None) -> ConstructionResult:
    """Recursive matching for a chordal graph; v is always the first vertex
    of one perfect elimination ordering left in the subgraph."""
    _check_cap(g)
    if not is_chordal(g):
        raise ValueError("graph is not chordal")
    return _build(g, _peo_selector(g), "chordal", trace)


def build_auto(g: Graph, trace: dict | None = None) -> ConstructionResult:
    """Generic driver: recurse on the smallest simplicial vertex at each
    stage, walking neighbors one twin class at a time."""
    _check_cap(g)
    closed, twins = _twin_table(g)
    return _build(g, _auto_selector(closed, twins), "auto", trace, twins)


def build_grid_matching(
    g: Graph, spec: GridSpec, trace: dict | None = None
) -> ConstructionResult:
    """Driver for labeled grid-family graphs.

    A selection policy of the shared recursion: v is the smallest vertex of
    the corner cell (a, b) of the remaining upper-left rectangle of cells,
    or of the rectangle itself when it is one row or column, a clique.
    Deleting N[u] of a neighbor in column b or in row a leaves another such
    rectangle, which is where memoization pays off.
    """
    _check_cap(g)
    if grid_spec_from_labels(g) != spec:
        raise ValueError("labels are inconsistent with the given grid spec")
    return _build(g, _grid_selector(g, spec), "grid", trace)
