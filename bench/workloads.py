"""The benchmark workloads: seeded inputs, expected answers, and checks.

A workload is a fixed list of instances (one "pass") drawn from the seed.
Every pass runs the same instances in the same order, so per-pass counters
are deterministic and per-pass throughput is comparable across passes.
Instance sizes follow a fixed schedule; the seed only picks which graphs of
about that size appear, which keeps the work per pass close across seeds.

Planning (choosing the graphs, some of it by search) is the benchmark's own
work and is not timed.  Each instance carries a `make` call into the
program's generators; the timed set-up runs those and writes the files.

`corpus` calls the library the way the acceptance fixture does; the other
two run `indmorse analyze` in-process on a graph JSON file written during
set-up.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import indmorse as ind
from indmorse import cli

from reference import (
    expected_report,
    homotopy_from_fvector,
    independent_set_count,
    sphere_counts,
)

# Acceptance-corpus shape (tests/test_acceptance.py): grid specs with
# m, n <= 3 and cell sizes in {1, 2}, plus random chordal graphs.
CORPUS_GRID_MAX_MN = 3
CORPUS_CHORDAL_COUNT = 500
CORPUS_CHORDAL_MAX_N = 14
CORPUS_PASS = 600
# Instances per pass of the CLI workloads: enough for a latency tail well
# apart from the median, and odd, so that the median falls inside one
# instance's executions instead of in the gap between two instances.
CLI_PASS = 41
# The seed's count recursion overflows the default interpreter stack on a
# path of about 1,494 vertices; 1,500 fails in every run mode and 1,000
# passes with room to spare.
PATH_LADDER = (500, 1000, 1500)


@dataclass
class Instance:
    name: str
    make: Callable[[], ind.Graph]  # builds the input with the program
    argv: tuple[str, ...] = ()
    spec: ind.GridSpec | None = None
    graph: ind.Graph | None = None  # set by the set-up
    expect: dict = field(default_factory=dict)

    @property
    def cone(self) -> bool:
        # An isolated vertex makes Ind(G) a cone; the recursion stops at
        # the top node.
        return 0 in self.graph.adj


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    families: str
    plan: Callable[[random.Random], list[Instance]]
    uses_cli: bool = True


# ─────────────────────────────────────────────────────────────
#  Graph families
# ─────────────────────────────────────────────────────────────

def _clique_union(sizes, isolated: int = 0) -> tuple[int, list[tuple[int, int]]]:
    edges, base = [], 0
    for s in sizes:
        edges += [(base + i, base + j) for i in range(s) for j in range(i + 1, s)]
        base += s
    return base + isolated, edges


def _path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _connected_chordal(n: int, rng: random.Random, max_attach: int = 3):
    """Each new vertex joins a nonempty part of a stored clique, so the graph
    is connected and the reverse arrival order is a perfect elimination
    ordering."""
    cliques = [(0,)]
    edges = []
    for v in range(1, n):
        base = rng.choice(cliques)
        kept = rng.sample(base, rng.randint(1, min(max_attach, len(base))))
        edges += [(w, v) for w in sorted(kept)]
        cliques.append(tuple(sorted(kept)) + (v,))
    return edges


def _subdivided_tree(nodes: int, rng: random.Random) -> tuple[int, list]:
    # A random recursive tree with every edge replaced by a 3-edge path.
    n, edges = nodes, []
    for v in range(1, nodes):
        prev = rng.randrange(v)
        for _ in range(2):
            edges.append((prev, n))
            prev, n = n, n + 1
        edges.append((prev, v))
    return n, edges


def _fib_faces(n: int) -> int:
    # Ind(P_n) has F(n + 2) faces, the empty face included.
    a, b = 1, 2
    for _ in range(n):
        a, b = b, a + b
    return a


def _path_near(target: float) -> int:
    return min(range(1, 40), key=lambda n: abs(math.log(_fib_faces(n) / target)))


def _cliques_near(target: float, isolated: int = 0):
    # The union of K_2, K_3 and K_4 whose face count (a product of s + 1 per
    # clique) is nearest the target.  Cost depends on the dimension and on
    # the order of the cliques (up to 1.35x), so both stay fixed and the
    # seed does not touch these instances.
    best = min(
        ((a, b, c) for a in range(14) for b in range(10) for c in range(8) if a + b + c),
        key=lambda t: (abs(math.log(3 ** t[0] * 4 ** t[1] * 5 ** t[2] / target)), t),
    )
    a, b, c = best
    sizes = [2] * a + [3] * b + [4] * c
    return _clique_union(sizes, isolated), f"K2^{a}K3^{b}K4^{c}"


def _chordal_near(target: float, rng: random.Random, candidates: int = 24):
    """A sparse connected chordal graph whose complex has about `target`
    faces.  Cost at a given face count still depends on the dimension, so
    the vertex count is pinned too: among the prefixes of
    `candidates` random vertex sequences within 30% of the target, take the
    most common vertex count, then the prefix of that size nearest the
    target (log scale)."""
    near = []
    for _ in range(candidates):
        edges = _connected_chordal(40, rng)
        for n in range(2, 41):
            sub = [(u, v) for u, v in edges if v < n]
            gap = math.log(independent_set_count(n, sub) / target)
            if abs(gap) < 0.3:
                near.append((n, abs(gap), sub))
            if gap > 0.3:
                break
    sizes = [n for n, _, _ in near]
    size = max(sorted(set(sizes)), key=sizes.count)
    _, _, edges = min((c for c in near if c[0] == size), key=lambda c: c[1])
    return size, edges


def _log_targets(lo: float, hi: float, count: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


# ─────────────────────────────────────────────────────────────
#  Plans
# ─────────────────────────────────────────────────────────────

def _largest_remainder(weights: dict, total: int) -> dict:
    whole = sum(weights.values())
    quota = {k: total * w / whole for k, w in weights.items()}
    alloc = {k: int(q) for k, q in quota.items()}
    left = total - sum(alloc.values())
    for k in sorted(quota, key=lambda k: alloc[k] - quota[k])[:left]:
        alloc[k] += 1
    return alloc


def plan_corpus(rng: random.Random) -> list[Instance]:
    """A stratified sample of the acceptance corpus.

    Strata are (m, n, number of size-2 cells) for grids, weighted by how many
    corpus specs they hold, plus the chordal part; each stratum gets its
    share of the pass by largest remainder, so the size mix is the same for
    every seed and only the specs and chordal indices drawn change.
    """
    weights: dict = {}
    for m in range(CORPUS_GRID_MAX_MN + 1):
        for n in range(CORPUS_GRID_MAX_MN + 1):
            cells = (m + 1) * (n + 1)
            for twos in range(cells + 1):
                weights[(m, n, twos)] = math.comb(cells, twos)
    weights["chordal"] = CORPUS_CHORDAL_COUNT
    alloc = _largest_remainder(weights, CORPUS_PASS)
    out = []
    for key, count in alloc.items():
        if key == "chordal":
            continue
        m, n, twos = key
        cells = (m + 1) * (n + 1)
        for _ in range(count):
            flat = [1] * cells
            for pos in rng.sample(range(cells), twos):
                flat[pos] = 2
            rows = [flat[r * (n + 1) : (r + 1) * (n + 1)] for r in range(m + 1)]
            spec = ind.GridSpec.of(m, n, rows)
            out.append(Instance(f"grid-{m}x{n}-{flat}", partial(ind.grid_graph, spec), spec=spec))
    for i in rng.sample(range(CORPUS_CHORDAL_COUNT), alloc["chordal"]):
        # Same draw as the acceptance fixture's i-th chordal graph.
        n = i % CORPUS_CHORDAL_MAX_N + 1
        densities = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0) if n <= 9 else (0.6, 0.7, 0.8, 0.9, 1.0, 1.0)
        out.append(Instance(f"chordal-{i}", partial(ind.random_chordal, n, densities[i % 6], seed=i)))
    rng.shuffle(out)
    return out


def _cli_instance(name, n, edges, argv=()):
    # Vertex ids stay as generated (path order, clique blocks, arrival
    # order); relabeling would add cost variance between seeds.
    return Instance(name, partial(ind.Graph.from_edges, n, edges), argv)


def plan_explicit_large(rng: random.Random) -> list[Instance]:
    """CLI_PASS complexes with 3e3..6e4 faces (log-spaced), in a repeating
    cycle of five: a path and three unions of cliques, whose recursions are
    deep, and one cone (an isolated vertex next to a union of cliques or,
    in two cycles below the median size, a random chordal graph), which
    stops at the top node.  Unions of cliques come in finely spaced sizes;
    paths only in Fibonacci steps.  The cost of a random chordal graph
    depends on the seed, so none sits at the ranks the median and the tail
    are read from."""
    kinds = ["path", "cliques", "cone", "cliques", "cliques"]
    out = []
    for i, target in enumerate(_log_targets(3_000, 60_000, CLI_PASS)):
        kind = kinds[i % len(kinds)]
        if kind == "path":
            n = _path_near(target)
            out.append(Instance(f"path-{n}", partial(ind.standard_graph, "path", n)))
        elif kind == "cliques":
            (n, edges), label = _cliques_near(target)
            out.append(_cli_instance(label, n, edges))
        elif i // len(kinds) in (1, 3):
            n, edges = _chordal_near(target / 2, rng)
            out.append(_cli_instance(f"cone-chordal-{n}", n + 1, edges))
        else:
            (n, edges), label = _cliques_near(target / 2, isolated=1)
            out.append(_cli_instance(f"cone-{label}", n, edges))
    return out


def _grid_instance(vertices: int, driver: str, rng: random.Random) -> Instance:
    # A square grid poset with about 11 vertices per cell; the cells are
    # as even as `vertices` allows, and the seed picks the larger ones
    # (uneven cells would make the cost depend on the seed).
    side = max(2, round(math.sqrt(vertices / 11)))
    base, extra = divmod(vertices, side * side)
    larger = set(rng.sample(range(side * side), extra))
    flat = [base + (i in larger) for i in range(side * side)]
    rows = [flat[r * side : (r + 1) * side] for r in range(side)]
    spec = ind.GridSpec.of(side - 1, side - 1, rows)
    argv = ("--mode", "counts", "--driver", driver)
    return Instance(f"grid-{side}x{side}-v{vertices}-{driver}", partial(ind.grid_graph, spec), argv, spec=spec)


def _spaced(lo: int, hi: int, count: int) -> list[int]:
    return [round(v) for v in _log_targets(lo, hi, count)]


def plan_counts_large(rng: random.Random) -> list[Instance]:
    """CLI_PASS instances: grid graphs of 100..300 vertices (grid and auto
    drivers alternately), subdivided trees and connected chordal graphs of
    100..600 vertices (chordal driver), and a path ladder past the depth
    where the seed's count recursion overflows."""
    chordal = ("--mode", "counts", "--driver", "chordal")
    out = [_grid_instance(v, ("grid", "auto")[i % 2], rng) for i, v in enumerate(_spaced(100, 300, 16))]
    for nodes in _spaced(34, 200, 11):
        n, edges = _subdivided_tree(nodes, rng)
        out.append(_cli_instance(f"tree-{n}", n, edges, chordal))
    for n in _spaced(100, 400, 11):
        out.append(_cli_instance(f"chordal-{n}", n, _connected_chordal(n, rng), chordal))
    for n in PATH_LADDER:
        out.append(Instance(f"path-{n}", partial(ind.standard_graph, "path", n), chordal))
    assert len(out) == CLI_PASS
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus",
            "Stands in for Tier-1, where the acceptance corpus is ~97% of the time: many tiny instances, so per-call overhead dominates.",
            f"{CORPUS_PASS} instances per pass: grid specs m,n<=3 with cell sizes {{1,2}} (16-32 vertices mostly), "
            f"stratified like the corpus, and the corpus's random chordal graphs (n<={CORPUS_CHORDAL_MAX_N})",
            plan_corpus,
            uses_cli=False,
        ),
        Workload(
            "explicit_large",
            "Pair materialization, the complex and verification dominate and homology is off: the workload for implicit fields and verify-once.",
            f"{CLI_PASS} instances per pass of explicit `analyze`: paths, unions of K2/K3/K4, and cones over cliques or chordal graphs "
            f"(cone share 8/{CLI_PASS}); 3e3..6e4 faces, log-spaced",
            plan_explicit_large,
        ),
        Workload(
            "counts_large",
            "No complex is built: selection, count recursion, label checks, JSON load and CLI overhead only, so explicit-route changes should not move it.",
            f"{CLI_PASS} instances per pass of `analyze --mode counts`: 16 grids of 100-300 vertices (grid, auto drivers), "
            "11 subdivided trees of 100-598 vertices, 11 connected chordal graphs of 100-400 vertices, "
            "and paths of 500, 1000, 1500 vertices (chordal driver; 1500 overflows the stack)",
            plan_counts_large,
        ),
    )
}


# ─────────────────────────────────────────────────────────────
#  Expected answers and checks
# ─────────────────────────────────────────────────────────────

def fill_expected(workload: Workload, instances: list[Instance]) -> None:
    """Expected critical f-vector and homotopy type for every CLI instance.

    Chordal inputs use the independent wedge-formula reference.  Grid
    graphs are not chordal; each takes its answer from the count route its
    driver does not use (the closed grid recurrences for `auto`, the generic
    count recursion for `grid`), as the acceptance gate does.
    """
    if not workload.uses_cli:
        return
    for inst in instances:
        g = inst.graph
        if inst.spec is not None:
            if "grid" in inst.argv:
                fvec = list(ind.critical_fvector_recursive(g))
            else:
                fvec = list(ind.grid_critical_fvector(inst.spec))
            inst.expect = {"critical_f": fvec, "homotopy": homotopy_from_fvector(fvec)}
            # `analyze` reports a homotopy type for the auto driver only
            # when the graph is chordal.
            inst.expect["homotopy_optional"] = "auto" in inst.argv
            continue
        fvec, homotopy = expected_report(sphere_counts(g.n, g.edges()))
        inst.expect = {"critical_f": fvec, "homotopy": homotopy}


def check_cli(inst: Instance, report: dict) -> list[str]:
    exp = inst.expect
    problems = []
    if report.get("critical_f") != exp["critical_f"]:
        problems.append(f"critical_f {report.get('critical_f')} != {exp['critical_f']}")
    homotopy = report.get("homotopy")
    if not (homotopy is None and exp.get("homotopy_optional")) and homotopy != exp["homotopy"]:
        problems.append(f"homotopy {homotopy} != {exp['homotopy']}")
    return problems


def run_cli(inst: Instance, graph_path: Path, out_path: Path) -> int:
    return cli.main(["analyze", str(graph_path), *inst.argv, "--out", str(out_path)])


def read_report(out_path: Path) -> dict:
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_corpus(inst: Instance) -> dict:
    """The acceptance fixture's gate pipeline on one instance."""
    g, spec = inst.graph, inst.spec
    trace: dict = {}
    if spec is None:
        res = ind.build_chordal_matching(g, trace=trace)
    else:
        res = ind.build_grid_matching(g, spec, trace=trace)
    x = ind.independence_complex(g)
    out = {
        "complex": x,
        "result": res,
        "matching": ind.verify_matching(x, res.pairs),
        "acyclic": ind.verify_acyclic(x, res.pairs),
        "maximal": all(s == res.special_zero or ind.is_maximal(x, s) for s in res.critical_set),
        "profile": ind.homology_integer(x),
        "homotopy": ind.classify(x, res),
        "gamma_ok": None,
        "counts": [res.critical_f],
    }
    if out["homotopy"].kind != "unclassified":
        try:
            out["gamma_ok"] = ind.check_domination_bound(g, out["homotopy"])
        except ind.CapabilityError:
            pass
    if spec is not None:
        out["counts"] += [ind.grid_critical_fvector(spec), ind.critical_fvector_recursive(g)]
    return out


def _alternating(seq) -> int:
    return sum((-1) ** d * v for d, v in enumerate(seq))


def check_corpus(out: dict) -> list[str]:
    """The corpus gates: validity, maximality, perfection, torsion, Euler
    characteristic, agreement of the count routes, and the domination bound."""
    res, profile = out["result"], out["profile"]
    problems = [k for k in ("matching", "acyclic", "maximal") if not out[k]]
    if sum(res.critical_f) != sum(profile.betti):
        problems.append("critical total != Betti total")
    if not all(profile.torsion_free):
        problems.append("torsion")
    euler = sum(1 if s.bit_count() % 2 else -1 for s in out["complex"].faces if s)
    if not euler == _alternating(res.critical_f) == _alternating(profile.betti):
        problems.append("Euler characteristic disagrees")
    if any(c != res.critical_f for c in out["counts"]):
        problems.append(f"count routes disagree: {out['counts']}")
    if out["gamma_ok"] is False:
        problems.append("domination bound fails")
    return problems


def corpus_digest(out: dict) -> list:
    h = out["homotopy"]
    return [list(out["result"].critical_f), list(out["profile"].betti), h.kind, list(h.wedge)]
