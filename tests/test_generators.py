"""Graph family generators: grids, cyclic power graphs, random chordal."""

import itertools
import random
import tracemalloc

import pytest

from indmorse import (
    Graph,
    GridSpec,
    bits,
    grid_graph,
    grid_spec_from_labels,
    is_chordal,
    power_graph_cyclic,
    random_chordal,
    standard_graph,
)
from oracles import (
    closed_neighborhood,
    grid_graph_pairwise,
    induced_delete,
    power_graph_pairwise,
    universal_vertices,
)


def is_complete(g):
    return all((g.adj[v] | 1 << v) == g.full_mask for v in range(g.n))


def small_specs(max_m, max_n, max_size):
    for m in range(max_m + 1):
        for n in range(max_n + 1):
            cells = (m + 1) * (n + 1)
            for combo in itertools.product(range(1, max_size + 1), repeat=cells):
                rows = [list(combo[i * (n + 1):(i + 1) * (n + 1)]) for i in range(m + 1)]
                yield GridSpec.of(m, n, rows)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec.of(0, 0, [[0]])
    with pytest.raises(ValueError):
        GridSpec.of(1, 0, [[1]])
    with pytest.raises(ValueError):
        GridSpec.of(0, 1, [[1, 1], [1, 1]])


def test_grid_graph_single_cell_is_complete():
    g = grid_graph(GridSpec.of(0, 0, [[3]]))
    assert g.n == 3 and is_complete(g)
    assert g.labels == ((0, 0),) * 3


def test_grid_graph_unit_square_is_k4_minus_one_edge():
    g = grid_graph(GridSpec.of(1, 1, [[1, 1], [1, 1]]))
    assert g.n == 4
    assert g.labels == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert set(g.edges()) == {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}


def test_grid_graph_single_column_is_complete():
    g = grid_graph(GridSpec.of(1, 0, [[1], [2]]))
    assert g.n == 3 and is_complete(g)


def test_grid_adjacency_follows_cell_comparability():
    for spec in (
        GridSpec.of(2, 1, [[2, 1], [1, 2], [2, 1]]),
        GridSpec.of(1, 2, [[1, 2, 1], [2, 1, 2]]),
    ):
        g = grid_graph(spec)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                iu, ju = g.labels[u]
                iv, jv = g.labels[v]
                comparable = (iu <= iv and ju <= jv) or (iv <= iu and jv <= ju)
                assert bool(g.adj[u] >> v & 1) == comparable


def test_grid_universal_vertices_are_the_two_corner_cells():
    for spec in small_specs(2, 2, 2):
        if spec.m == 0 or spec.n == 0:
            continue
        g = grid_graph(spec)
        corners = 0
        for v, (i, j) in enumerate(g.labels):
            if (i, j) in ((0, 0), (spec.m, spec.n)):
                corners |= 1 << v
        assert universal_vertices(g) == corners


def test_grid_child_after_deleting_column_zero_neighbor():
    spec = GridSpec.of(2, 2, [[1, 2, 1], [2, 1, 2], [1, 2, 1]])
    g = grid_graph(spec)
    for u, (i, j) in enumerate(g.labels):
        if j != 0 or i == 0:
            continue
        h, ids = induced_delete(g, closed_neighborhood(g, u))
        sub = GridSpec.of(i - 1, spec.n - 1, [row[1:] for row in spec.sizes[:i]])
        want = grid_graph(sub)
        assert h.n == want.n and h.adj == want.adj
        assert tuple((r, s - 1) for r, s in (g.labels[k] for k in ids)) == want.labels


def test_grid_child_after_deleting_bottom_row_neighbor():
    spec = GridSpec.of(2, 2, [[1, 2, 1], [2, 1, 2], [1, 2, 1]])
    g = grid_graph(spec)
    for u, (i, j) in enumerate(g.labels):
        if i != spec.m or j == spec.n:
            continue
        h, ids = induced_delete(g, closed_neighborhood(g, u))
        sub = GridSpec.of(
            spec.m - 1, spec.n - j - 1, [row[j + 1:] for row in spec.sizes[:-1]]
        )
        want = grid_graph(sub)
        assert h.n == want.n and h.adj == want.adj
        assert (
            tuple((r, s - j - 1) for r, s in (g.labels[k] for k in ids))
            == want.labels
        )


def test_power_graph_z6():
    g = power_graph_cyclic(2, 3, 1, 1)
    assert g.n == 6
    non_edges = {
        (u, v)
        for u in range(6)
        for v in range(u + 1, 6)
        if not g.adj[u] >> v & 1
    }
    order2 = {v for v in range(6) if g.labels[v] == (1, 0)}
    order3 = {v for v in range(6) if g.labels[v] == (0, 1)}
    assert len(order2) == 1 and len(order3) == 2
    assert non_edges == {tuple(sorted((a, b))) for a in order2 for b in order3}


def test_power_graph_small_cases():
    assert power_graph_cyclic(2, 3, 0, 0).n == 1
    z4 = power_graph_cyclic(2, 3, 2, 0)
    assert z4.n == 4 and is_complete(z4)


def test_power_graph_rejects_bad_primes():
    with pytest.raises(ValueError):
        power_graph_cyclic(3, 3, 1, 1)
    with pytest.raises(ValueError):
        power_graph_cyclic(4, 3, 1, 1)
    with pytest.raises(ValueError):
        power_graph_cyclic(2, 3, -1, 0)


def euler_phi(k):
    out = 0
    for x in range(1, k + 1):
        a, b = x, k
        while b:
            a, b = b, a % b
        out += a == 1
    return out


def test_power_graph_is_isomorphic_to_its_phi_grid():
    for p, q in ((2, 3), (3, 2), (2, 5)):
        for m in range(3):
            for n in range(3):
                if p**m * q**n > 60:
                    continue
                power = power_graph_cyclic(p, q, m, n)
                sizes = [
                    [euler_phi(p**i * q**j) for j in range(n + 1)]
                    for i in range(m + 1)
                ]
                grid = grid_graph(GridSpec.of(m, n, sizes))
                by_cell = sorted(range(power.n), key=lambda v: power.labels[v])
                to_grid = {v: k for k, v in enumerate(by_cell)}
                assert [power.labels[v] for v in by_cell] == list(grid.labels)
                mapped = {
                    tuple(sorted((to_grid[a], to_grid[b]))) for a, b in power.edges()
                }
                assert mapped == set(grid.edges())


def test_random_chordal_basics():
    assert random_chordal(1, 0.5, 0).n == 1
    assert random_chordal(1, 0.5, 0).edges() == []
    assert is_complete(random_chordal(6, 1.0, 3))
    g1 = random_chordal(9, 0.4, 11)
    g2 = random_chordal(9, 0.4, 11)
    assert g1.adj == g2.adj


def test_random_chordal_is_chordal_across_seeds():
    for seed in range(200):
        n = 1 + seed % 13
        g = random_chordal(n, (seed % 7) / 6, seed)
        assert g.n == n and is_chordal(g)


def test_random_chordal_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_chordal(0, 0.5, 1)
    with pytest.raises(ValueError):
        random_chordal(3, 1.5, 1)


def test_standard_graph_shapes():
    assert standard_graph("path", 3).edges() == [(0, 1), (1, 2)]
    assert set(standard_graph("cycle", 4).edges()) == {
        (0, 1), (1, 2), (2, 3), (0, 3)
    }
    assert standard_graph("complete", 1).n == 1
    assert standard_graph("empty", 4).edges() == []
    with pytest.raises(ValueError):
        standard_graph("cycle", 2)
    with pytest.raises(ValueError):
        standard_graph("torus", 3)


def test_grid_spec_from_labels_round_trip():
    for spec in small_specs(2, 2, 2):
        assert grid_spec_from_labels(grid_graph(spec)) == spec


def test_grid_spec_from_labels_rejects_bad_labels():
    with pytest.raises(ValueError):
        grid_spec_from_labels(standard_graph("path", 3))
    g = grid_graph(GridSpec.of(1, 1, [[1, 1], [1, 1]]))
    holed = Graph(g.n, g.adj, ((0, 0), (0, 2), (1, 0), (1, 1)))
    with pytest.raises(ValueError):
        grid_spec_from_labels(holed)
    relabeled = Graph(g.n, g.adj, ((0, 1), (0, 0), (1, 0), (1, 1)))
    with pytest.raises(ValueError):
        grid_spec_from_labels(relabeled)
    # One edge added or removed anywhere breaks the adjacency rule.
    for spec in (
        GridSpec.of(1, 1, [[1, 2], [2, 1]]),
        GridSpec.of(1, 2, [[1, 2, 1], [2, 1, 1]]),
        GridSpec.of(2, 1, [[1, 1]] * 3),
    ):
        g = grid_graph(spec)
        for u, v in itertools.combinations(range(g.n), 2):
            adj = list(g.adj)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            with pytest.raises(ValueError, match="inconsistent with the adjacency rule"):
                grid_spec_from_labels(Graph(g.n, tuple(adj), g.labels))


def test_grid_spec_from_labels_checks_cell_count_before_allocating():
    # One vertex cannot fill a 2001 x 2001 grid; the table it would size
    # from the labels is never built.
    g = Graph(1, (0,), ((2000, 2000),))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="labels leave a grid cell empty"):
            grid_spec_from_labels(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="negative cell label"):
        grid_spec_from_labels(Graph(2, (0, 0), ((2000, 2000), (-1, 0))))


# ── the cell-mask rows against the pairwise rules ──────────────────────


def random_specs(count, max_side, max_size, seed):
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randrange(max_side), rng.randrange(max_side)
        yield GridSpec.of(
            m, n, [[rng.randint(1, max_size) for _ in range(n + 1)] for _ in range(m + 1)]
        )


LARGE_SPECS = (
    GridSpec.of(0, 0, [[300]]),
    GridSpec.of(2, 4, [[20] * 5] * 3),
    GridSpec.of(9, 9, [[3] * 10] * 10),
)


def test_grid_graph_equals_the_pairwise_rule():
    specs = list(small_specs(2, 2, 2)) + list(random_specs(200, 6, 4, 2024))
    for spec in specs + list(LARGE_SPECS):
        assert grid_graph(spec) == grid_graph_pairwise(spec), spec
    assert all(spec.total_vertices() == 300 for spec in LARGE_SPECS)


def test_power_graph_equals_the_pairwise_rule():
    cases = [(2, 3, m, n) for m in range(5) for n in range(4)]
    cases += [(3, 2, 2, 2), (5, 7, 1, 2)]
    for case in cases:
        assert power_graph_cyclic(*case) == power_graph_pairwise(*case), case


def test_grid_families_make_no_edge_list(monkeypatch):
    calls = []
    from_edges = Graph.from_edges

    def counted(*args, **kwargs):
        calls.append(args)
        return from_edges(*args, **kwargs)

    monkeypatch.setattr(Graph, "from_edges", staticmethod(counted))
    grid_graph(GridSpec.of(2, 1, [[2, 1], [1, 3], [1, 1]]))
    power_graph_cyclic(2, 3, 2, 1)
    assert calls == []
    standard_graph("path", 3)
    assert len(calls) == 1


def test_grid_spec_from_labels_rejects_exactly_the_inconsistent_swaps():
    # A swap of two labels is rejected exactly when the pairwise rule
    # disagrees with the adjacency under the swapped labels.
    spec = GridSpec.of(1, 1, [[1, 2], [2, 1]])
    g = grid_graph(spec)
    rejected = 0
    for u, v in itertools.combinations(range(g.n), 2):
        labels = list(g.labels)
        labels[u], labels[v] = labels[v], labels[u]
        rule = [
            (i1 <= i2 and j1 <= j2) or (i1 >= i2 and j1 >= j2)
            for (i1, j1), (i2, j2) in itertools.combinations(labels, 2)
        ]
        actual = [bool(g.adj[a] >> b & 1) for a, b in itertools.combinations(range(g.n), 2)]
        swapped = Graph(g.n, g.adj, tuple(labels))
        if rule == actual:
            assert grid_spec_from_labels(swapped) == spec
        else:
            rejected += 1
            with pytest.raises(ValueError, match="^labels are inconsistent with the adjacency rule$"):
                grid_spec_from_labels(swapped)
    # Swaps inside a cell or between the two corner cells keep the graph.
    assert rejected == 15 - 2 - 1
