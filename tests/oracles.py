"""Independent brute-force oracles used only by the tests.

Each function here deliberately uses a different algorithm from the
library implementation it cross-checks, so agreement between the two is
meaningful evidence rather than a tautology.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from indmorse import (
    CapabilityError,
    Graph,
    SimplicialComplex,
    UnsupportedGraphError,
    bits,
)


def closed_neighborhood(g: Graph, v: int) -> int:
    """N[v] as a bitmask: v together with its neighbors."""
    g._check_vertex(v)
    return g.adj[v] | 1 << v


def is_clique(g: Graph, s: int) -> bool:
    """True iff every unordered pair inside the vertex set ``s`` is an edge."""
    if s & ~g.full_mask:
        raise ValueError("vertex set out of range")
    for v in bits(s):
        if s & ~(g.adj[v] | 1 << v):
            return False
    return True


def is_simplicial(g: Graph, v: int) -> bool:
    """True iff the closed neighborhood of v is a clique."""
    return is_clique(g, closed_neighborhood(g, v))


def universal_vertices(g: Graph) -> int:
    """Bitmask of vertices adjacent to every other vertex."""
    full = g.full_mask
    out = 0
    for v in range(g.n):
        if (g.adj[v] | 1 << v) == full:
            out |= 1 << v
    return out


def induced_delete(g: Graph, u: int) -> tuple[Graph, tuple[int, ...]]:
    """Delete the vertex set ``u``; return the relabeled subgraph and an id map.

    The id map sends each new vertex id to its original id.
    """
    if u & ~g.full_mask:
        raise ValueError("vertex set out of range")
    keep = g.full_mask & ~u
    old_ids = tuple(bits(keep))
    pos = {old: new for new, old in enumerate(old_ids)}
    adj = []
    for old in old_ids:
        row = 0
        for w in bits(g.adj[old] & keep):
            row |= 1 << pos[w]
        adj.append(row)
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[old] for old in old_ids)
    return Graph(len(old_ids), tuple(adj), labels), old_ids


def _grid_adjacent(a: tuple[int, int], b: tuple[int, int]) -> bool:
    (i1, j1), (i2, j2) = a, b
    return (i1 <= i2 and j1 <= j2) or (i1 >= i2 and j1 >= j2)


def grid_graph_pairwise(spec) -> Graph:
    """The blown-up grid graph by testing cell comparability for every
    vertex pair (``spec`` needs only ``m``, ``n`` and ``sizes``)."""
    labels: list[tuple[int, int]] = []
    for i in range(spec.m + 1):
        for j in range(spec.n + 1):
            labels.extend([(i, j)] * spec.sizes[i][j])
    n = len(labels)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if _grid_adjacent(labels[u], labels[v])
    ]
    return Graph(n, _rows_of_edges(n, edges), tuple(labels))


def power_graph_pairwise(p: int, q: int, m: int, n: int) -> Graph:
    """The power graph of the cyclic group of order p^m q^n by testing
    order divisibility for every element pair, labeled as the library
    labels it (the element of order p^i q^j gets cell (i, j))."""
    big = p**m * q**n
    orders = [big // gcd(big, x) if x else 1 for x in range(big)]
    labels = []
    for x in range(big):
        o = orders[x]
        i = 0
        while o % p == 0:
            o //= p
            i += 1
        j = 0
        while o % q == 0:
            o //= q
            j += 1
        labels.append((i, j))
    # x is a power of y exactly when ord(x) divides ord(y).
    edges = [
        (x, y)
        for x in range(big)
        for y in range(x + 1, big)
        if orders[x] % orders[y] == 0 or orders[y] % orders[x] == 0
    ]
    return Graph(big, _rows_of_edges(big, edges), tuple(labels))


def _rows_of_edges(n: int, edges) -> tuple[int, ...]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def independent_set_masks(g: Graph) -> set[int]:
    """All independent sets of g, by filtering every vertex subset."""
    edges = g.edges()
    out = set()
    for mask in range(1 << g.n):
        if all(not (mask >> a & 1 and mask >> b & 1) for a, b in edges):
            out.add(mask)
    return out


def independent_sets_recursive(adj, mask: int):
    """Independent subsets of ``mask`` by branching on the highest vertex:
    exclude it first, then include it with its neighbors excluded.  This
    fixes the order that the library's enumeration must reproduce."""
    if mask == 0:
        yield 0
        return
    v = mask.bit_length() - 1
    rest = mask & ~(1 << v)
    yield from independent_sets_recursive(adj, rest)
    for s in independent_sets_recursive(adj, rest & ~adj[v]):
        yield s | 1 << v


def partition_check(g: Graph, v: int) -> bool:
    """Check the paper's four-block partition of I(G) induced by a vertex v
    whose neighborhood is a clique.

    Blocks: (1) the union over u in N(v) of I(G - N[u]); (2) the rest of
    I(G - N[v]); (3) the u-extensions of each I(G - N[u]); (4) the
    v-extensions of I(G - N[v]).  Returns True iff the blocks are pairwise
    disjoint, the u-extension blocks are mutually disjoint, their union is
    all of I(G), and block 1 sits inside I(G - v).
    """
    g._check_vertex(v)
    nv = g.adj[v]
    if nv == 0:
        raise ValueError("v must not be isolated")
    for u in bits(nv):
        if nv & ~(g.adj[u] | 1 << u):
            raise ValueError("the open neighborhood of v must be a clique")

    def faces(mask: int) -> set[int]:
        return set(independent_sets_recursive(g.adj, mask))

    full = g.full_mask
    sub_v = faces(full & ~(g.adj[v] | 1 << v))
    block1: set[int] = set()
    block3: set[int] = set()
    for u in bits(nv):
        sub_u = faces(full & ~(g.adj[u] | 1 << u))
        block1 |= sub_u
        ext_u = {a | 1 << u for a in sub_u}
        if block3 & ext_u:
            return False
        block3 |= ext_u
    block2 = sub_v - block1
    block4 = {a | 1 << v for a in sub_v}
    blocks = [block1, block2, block3, block4]
    for i in range(4):
        for j in range(i + 1, 4):
            if blocks[i] & blocks[j]:
                return False
    if block1 | block2 | block3 | block4 != faces(full):
        return False
    return block1 <= faces(full & ~(1 << v))


def mcs_quadratic(adj, mask: int) -> list[int]:
    """Maximum cardinality search on the subgraph induced by ``mask`` by a
    full rescan of the unnumbered vertices at every step (highest weight,
    smallest id on ties), numbered from the back.  This fixes the order that
    the library's bit-sliced search must reproduce."""
    order: list[int] = []
    weight = {v: 0 for v in bits(mask)}
    unnumbered = mask
    while unnumbered:
        best = -1
        best_w = -1
        for v in bits(unnumbered):
            if weight[v] > best_w:
                best, best_w = v, weight[v]
        order.append(best)
        unnumbered &= ~(1 << best)
        for w in bits(adj[best] & unnumbered):
            weight[w] += 1
    order.reverse()
    return order


def grid_rectangle_trace(g: Graph, spec) -> dict:
    """The corner-rectangle recursion of the grid driver, from labels alone.

    Rectangle (a, b) holds the cells (r, s) with r <= a and s >= b.  When
    a == 0 or b == spec.n it is a complete graph: v is its smallest vertex,
    and no neighbor leaves a child.  Otherwise v is the smallest vertex of
    cell (a, b), and its neighbors are the other members of column b (rows
    <= a) and of row a (columns >= b).  Deleting N[u] for u in cell (i, b)
    leaves rectangle (i - 1, b + 1); for u in cell (a, j), j > b, it leaves
    (a - 1, j + 1); an out-of-range rectangle is empty and has no child.
    Returns {mask: (rule, v, {u: child mask})}; adjacency is never read.
    """
    cell: dict[tuple[int, int], int] = {}
    for v, lab in enumerate(g.labels):
        cell[lab] = cell.get(lab, 0) | 1 << v

    def rect(a: int, b: int) -> int:
        mask = 0
        for r in range(a + 1):
            for s in range(b, spec.n + 1):
                mask |= cell[r, s]
        return mask

    out: dict[int, tuple] = {}

    def visit(a: int, b: int) -> int:
        mask = rect(a, b)
        if mask in out:
            return mask
        if a == 0 or b == spec.n:
            out[mask] = ("extend", min(bits(mask)), {})
            return mask
        v = min(bits(cell[a, b]))
        children = {}
        for u, (i, j) in enumerate(g.labels):
            if u == v:
                continue
            if j == b and i <= a:
                ca, cb = i - 1, b + 1
            elif i == a and j > b:
                ca, cb = a - 1, j + 1
            else:
                continue
            if ca >= 0 and cb <= spec.n:
                children[u] = visit(ca, cb)
        out[mask] = ("extend", v, children)
        return mask

    visit(spec.m, 0)
    return out


def critical_fvector_recursive_reference(g: Graph) -> tuple[int, ...]:
    """The count recurrence of ``critical_fvector_recursive`` evaluated by
    plain recursion (so limited to shallow graphs).  Its visiting order fixes
    which subgraph without a simplicial vertex gets reported."""
    memo: dict[int, tuple[int, ...]] = {}

    def rec(mask: int) -> tuple[int, ...]:
        if mask in memo:
            return memo[mask]
        out = _node_counts(g, mask, rec)
        memo[mask] = out
        return out

    return rec(g.full_mask)


def _node_counts(g: Graph, mask: int, rec) -> tuple[int, ...]:
    if mask == 0:
        return ()
    for v in bits(mask):
        if g.adj[v] & mask == 0:
            return (1,)
    complete = True
    for v in bits(mask):
        if (g.adj[v] | 1 << v) & mask != mask:
            complete = False
            break
    if complete:
        return (mask.bit_count(),)
    chosen = -1
    for v in bits(mask):
        nv = g.adj[v] & mask
        if all(nv & ~(g.adj[u] | 1 << u) == 0 for u in bits(nv)):
            chosen = v
            break
    if chosen < 0:
        raise UnsupportedGraphError(
            "no simplicial vertex in the induced subgraph on "
            f"{sorted(bits(mask))}",
            tuple(bits(mask)),
        )
    nv = g.adj[chosen] & mask
    k = 0
    child_fs = []
    for u in bits(nv):
        mask_u = mask & ~(g.adj[u] | 1 << u)
        if mask_u == 0:
            k += 1
            child_fs.append(())
        else:
            child_fs.append(rec(mask_u))
    degree = nv.bit_count()
    top = max((len(f) for f in child_fs), default=0)
    counts = [0] * (top + 1)
    counts[0] = 1 + k
    if top >= 1:
        counts[1] = sum(f[0] for f in child_fs if f) - (degree - k)
    for t in range(2, top + 1):
        counts[t] = sum(f[t - 1] for f in child_fs if len(f) >= t)
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def smallest_simplicial_scan(g: Graph, mask: int) -> int:
    """The smallest vertex of ``mask`` simplicial in G[mask], testing every
    vertex in turn and every pair of its neighbors in the mask; the generic
    driver's error when there is none."""
    for v in bits(mask):
        around = list(bits(g.adj[v] & mask))
        if all(g.adj[a] >> b & 1 for a, b in combinations(around, 2)):
            return v
    raise UnsupportedGraphError(
        "no simplicial vertex in the induced subgraph on "
        f"{sorted(bits(mask))}",
        tuple(bits(mask)),
    )


def auto_recursion_reference(g: Graph) -> dict:
    """The generic driver's recursion by plain recursion on the scan:
    {mask: (v, [(u, G[mask] - N[u] or 0), ...])} with one entry per u of
    N(v) & mask in increasing order, the masks visited in pre-order, so the
    first subgraph without a simplicial vertex raises."""
    nodes: dict = {}

    def visit(mask: int) -> None:
        if mask in nodes:
            return
        v = smallest_simplicial_scan(g, mask)
        steps = [(u, mask & ~(g.adj[u] | 1 << u)) for u in bits(g.adj[v] & mask)]
        nodes[mask] = (v, steps)
        for _, child in steps:
            if child:
                visit(child)

    if g.n:
        visit(g.full_mask)
    return nodes


def auto_counts_reference(g: Graph, nodes: dict) -> tuple[int, ...]:
    """The root's critical counts over ``auto_recursion_reference``'s nodes,
    one child per u: {v} and each u with no child count in dimension 0,
    and each child's cells lift a dimension up, less its paired x_u."""
    memo: dict[int, list[int]] = {0: []}

    def counts(mask: int) -> list[int]:
        if mask not in memo:
            out = [1]
            for _, child in nodes[mask][1]:
                lifted = [0] + counts(child) if child else [1]
                if child:
                    lifted[1] -= 1
                out += [0] * (len(lifted) - len(out))
                for d, c in enumerate(lifted):
                    out[d] += c
            while out and out[-1] == 0:
                out.pop()
            memo[mask] = out
        return memo[mask]

    return tuple(counts(g.full_mask)) if g.n else ()


def auto_matching_reference(g: Graph, nodes: dict):
    """(pairs, critical set, special 0-simplex) of the extension steps over
    ``auto_recursion_reference``'s nodes, lifted one node at a time as
    ``lifted_by_node`` states them, each x_u being its child's {v}."""
    memo: dict = {}

    def node(mask: int):
        if mask not in memo:
            v, steps = nodes[mask]
            pairs, critical = [], {1 << v}
            for u, child in steps:
                bit_u = 1 << u
                if not child:
                    critical.add(bit_u)
                    continue
                child_pairs, child_critical = node(child)
                xu = 1 << nodes[child][0]
                pairs += [(a | bit_u, b | bit_u) for a, b in child_pairs if a]
                pairs.append((bit_u, bit_u | xu))
                critical |= {c | bit_u for c in child_critical if c != xu}
            rest = mask & ~(g.adj[v] | 1 << v)
            pairs += [(a, a | 1 << v) for a in independent_sets_recursive(g.adj, rest)]
            memo[mask] = pairs, critical
        return memo[mask]

    if not g.n:
        return (), frozenset(), None
    pairs, critical = node(g.full_mask)
    return tuple(pairs), frozenset(critical), 1 << nodes[g.full_mask][0]


def verify_peo_reference(g: Graph, order) -> bool:
    """The PEO condition through ``is_clique``: the later neighbors of each
    vertex of ``order`` form a clique."""
    later = g.full_mask
    for v in order:
        later &= ~(1 << v)
        if not is_clique(g, g.adj[v] & later):
            return False
    return True


def has_induced_long_cycle(g: Graph) -> bool:
    """True iff some vertex subset induces a cycle of length >= 4.

    A subset induces a cycle iff the induced subgraph is connected and
    2-regular.  Exponential in g.n; callers keep n small.
    """
    for r in range(4, g.n + 1):
        for sub in combinations(range(g.n), r):
            inside = 0
            for v in sub:
                inside |= 1 << v
            degs = [(g.adj[v] & inside).bit_count() for v in sub]
            if any(d != 2 for d in degs):
                continue
            comp = 1 << sub[0]
            frontier = comp
            while frontier:
                grow = 0
                for v in sub:
                    if frontier >> v & 1:
                        grow |= g.adj[v] & inside
                frontier = grow & ~comp
                comp |= grow
            if comp == inside:
                return True
    return False


def domination_number_scan(g: Graph) -> int:
    """Minimum dominating set size by a plain scan over all subsets."""
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    full = g.full_mask
    best = g.n
    for mask in range(1 << g.n):
        if mask.bit_count() >= best:
            continue
        covered = 0
        for v in range(g.n):
            if mask >> v & 1:
                covered |= closed[v]
        if covered == full:
            best = mask.bit_count()
    return best


def acyclic_by_reachability(x: SimplicialComplex, pairs) -> bool:
    """Acyclicity of a matching via reachability closure.

    Directed steps go from a matched-up simplex alpha to every other
    matched-up facet of its partner; the matching is acyclic iff no alpha
    can reach itself.  Steps preserve dimension, so this covers exactly
    the alternating-path cycles.
    """
    up = dict(pairs)
    succ = {}
    for alpha, beta in pairs:
        nxt = []
        for v in range(x.n):
            if beta >> v & 1:
                face = beta & ~(1 << v)
                if face != alpha and face in up:
                    nxt.append(face)
        succ[alpha] = nxt
    for start in succ:
        reach = set(succ[start])
        frontier = list(reach)
        while frontier:
            cur = frontier.pop()
            if cur == start:
                return False
            for nxt in succ[cur]:
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        if start in reach:
            return False
    return True


def first_matching_fault(x: SimplicialComplex, pairs) -> str | None:
    """The first fault of a matching, walking its pairs in order, or None:
    a pair that leaves the complex, one that is no Hasse edge, or a simplex
    in two pairs, in the library's words.  Kept as the ordered check stood
    before valid matchings were accepted by set algebra."""
    seen: set[int] = set()
    for a, b in pairs:
        if a not in x.faces or b not in x.faces:
            return f"pair ({sorted(bits(a))}, {sorted(bits(b))}) leaves the complex"
        extra = b & ~a
        if a & ~b or extra.bit_count() != 1:
            return f"pair ({sorted(bits(a))}, {sorted(bits(b))}) is not a Hasse edge"
        if a in seen:
            return f"simplex {sorted(bits(a))} appears in two pairs"
        if b in seen:
            return f"simplex {sorted(bits(b))} appears in two pairs"
        seen.add(a)
        seen.add(b)
    return None


def lifted_by_node(node, memo: dict | None = None):
    """(pairs, critical set) of a recursion-tree node, each node's lifted
    from its children's as the extension step states them, one node at a
    time: the lifts (alpha + u, beta + u) of child u's pairs with alpha
    nonempty (case i), then ({u}, {u, x_u}) (case ii), and last (alpha,
    alpha + v) over the independent sets of mask - N[v] (case iii); the
    critical cells are {v}, each {u} of N(v) with no step, and the lifts
    c + u of child u's critical cells but x_u.  Reads a node's ``recipe``
    only; a node without one holds its own pairs and critical set."""
    memo = {} if memo is None else memo
    if id(node) in memo:
        return memo[id(node)][0]
    if node.recipe is None:
        out = tuple(node.pairs), frozenset(node.critical_set)
    else:
        adj, mask, v, steps = node.recipe
        pairs = []
        critical = {1 << v}
        alone = adj[v] & mask
        for u, child, xu in steps:
            bit_u = 1 << u
            alone &= ~bit_u
            child_pairs, child_critical = lifted_by_node(child, memo)
            pairs += [(a | bit_u, b | bit_u) for a, b in child_pairs if a]
            pairs.append((bit_u, bit_u | xu))
            critical |= {c | bit_u for c in child_critical if c != xu}
        critical |= {1 << u for u in bits(alone)}
        rest = mask & ~(adj[v] | 1 << v)
        pairs += [(a, a | 1 << v) for a in independent_sets_recursive(adj, rest)]
        out = tuple(pairs), frozenset(critical)
    # The memo keeps the node, so its id is not reused while it serves.
    memo[id(node)] = out, node
    return out


def is_alternating_cycle(cycle, pairs) -> bool:
    """Whether cycle is a closed alternating path (a0, b0, a1, ..., a0) of
    pairs with no repeated a: each (a, b) is one of the pairs, and the next
    a is another matched facet of b."""
    up = dict(pairs)
    if len(cycle) < 5 or len(cycle) % 2 == 0 or cycle[0] != cycle[-1]:
        return False
    if len(set(cycle[:-1:2])) != len(cycle) // 2:
        return False
    for k in range(0, len(cycle) - 1, 2):
        a, b, nxt = cycle[k : k + 3]
        if up.get(a) != b or nxt == a or nxt & ~b or (b ^ nxt).bit_count() != 1:
            return False
    return True


def is_maximal_scan(x: SimplicialComplex, sigma: int) -> bool:
    """Maximality by trying every vertex: sigma is maximal iff no sigma + w
    is a face (downward closure makes any larger coface yield one)."""
    if sigma not in x.faces:
        raise ValueError("simplex does not belong to the complex")
    for w in range(x.n):
        bit = 1 << w
        if not sigma & bit and (sigma | bit) in x.faces:
            return False
    return True


def classify_by_scan(x: SimplicialComplex, critical) -> tuple:
    """The verdict of the one classification rule on an acyclic field of x
    with these critical cells, with maximality read by is_maximal_scan:
    ("unclassified",) when a critical cell other than one 0-simplex has a
    coface, else ("collapsible",) or ("wedge", spheres per dimension from
    0), the base point taken off the 0-simplices."""
    non_maximal = [s for s in critical if not is_maximal_scan(x, s)]
    if len(non_maximal) > 1 or (non_maximal and non_maximal[0].bit_count() != 1):
        return ("unclassified",)
    counts = [0] * max(s.bit_count() for s in critical)
    for s in critical:
        counts[s.bit_count() - 1] += 1
    if sum(counts) == 1:
        return ("collapsible",)
    counts[0] -= 1
    while not counts[-1]:
        counts.pop()
    return ("wedge", tuple(counts))


def closure_complex(n: int, facets) -> SimplicialComplex:
    """Downward closure of the given facet masks, as a complex on n vertices."""
    faces = {0}
    for top in facets:
        vs = [v for v in range(n) if top >> v & 1]
        for r in range(1, len(vs) + 1):
            for combo in combinations(vs, r):
                m = 0
                for v in combo:
                    m |= 1 << v
                faces.add(m)
    return SimplicialComplex(n, frozenset(faces))


def _boundary_dense(x: SimplicialComplex, d: int) -> list[list[Fraction]]:
    rows = sorted(s for s in x.faces if s.bit_count() == d)
    cols = sorted(s for s in x.faces if s.bit_count() == d + 1)
    index = {s: i for i, s in enumerate(rows)}
    mat = [[Fraction(0)] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        sign = 1
        for v in range(x.n):
            if s >> v & 1:
                mat[index[s & ~(1 << v)]][j] = Fraction(sign)
                sign = -sign
    return mat


def _rank_rational(mat: list[list[Fraction]]) -> int:
    if not mat or not mat[0]:
        return 0
    mat = [row[:] for row in mat]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def betti_rational(x: SimplicialComplex) -> tuple[int, ...]:
    """Unreduced Betti numbers over Q by dense Gaussian elimination."""
    top = max(s.bit_count() for s in x.faces) - 1
    if top < 0:
        return ()
    counts = [0] * (top + 1)
    for s in x.faces:
        if s:
            counts[s.bit_count() - 1] += 1
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        ranks[d] = _rank_rational(_boundary_dense(x, d))
    return tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(top + 1))


BRUTEFORCE_SIMPLEX_CAP = 14


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
