"""Acceptance suite: every release gate in one file.

Each criterion prints a single `[criterion NN] label: PASS/FAIL` line
straight to the terminal (bypassing pytest capture) and asserts the same
condition, so a red gate is visible in the live log and the test summary.

Criteria 1-4, 8, and 9 share one corpus: every grid spec with m, n <= 3
and cell sizes in {1, 2} (74,954 specs) plus 500 seeded random chordal
graphs on up to 14 vertices.  A module-scoped fixture walks that corpus
once, auditing every recursion node and accumulating violation counters.
"""

import itertools
import json
import random
import time

import pytest

from indmorse import (
    CapabilityError,
    Graph,
    GridSpec,
    bits,
    build_chordal_matching,
    build_grid_matching,
    check_domination_bound,
    classify,
    consistency_with_homology,
    critical_fvector_recursive,
    f_vector,
    grid_critical_fvector,
    grid_graph,
    homology_integer,
    independence_complex,
    is_chordal,
    is_maximal,
    power_graph_cyclic,
    random_chordal,
    standard_graph,
    verify_acyclic,
    verify_matching,
)
from indmorse.complexes import SimplicialComplex
from indmorse.cli import main as cli_main
from oracles import optimal_matching_bruteforce

GRID_MAX_MN = 3
GRID_SIZES = (1, 2)
CHORDAL_COUNT = 500
CHORDAL_MAX_N = 14


def _report(capsys, num, label, ok, detail=""):
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def iter_grid_specs():
    for m in range(GRID_MAX_MN + 1):
        for n in range(GRID_MAX_MN + 1):
            cells = (m + 1) * (n + 1)
            for combo in itertools.product(GRID_SIZES, repeat=cells):
                rows = tuple(
                    tuple(combo[r * (n + 1) : (r + 1) * (n + 1)])
                    for r in range(m + 1)
                )
                yield GridSpec.of(m, n, rows)


def iter_chordal_corpus():
    for i in range(CHORDAL_COUNT):
        n = i % CHORDAL_MAX_N + 1
        if n <= 9:
            densities = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        else:
            # Keep the complexes small enough for exact integer homology.
            densities = (0.6, 0.7, 0.8, 0.9, 1.0, 1.0)
        yield random_chordal(n, densities[i % 6], seed=i)


def node_counts_ok(g, mask, node, trace):
    """Recheck one extension node's critical counts from the definitions:

    f_0 = 1 + k,   f_1 = sum_u f_0(child_u) - (deg(v) - k),
    f_t = sum_u f_{t-1}(child_u)   for t >= 2,

    with k the number of neighbors u of v whose deletion of N[u] empties
    the stage, and children indexed by the remaining neighbors.
    """
    v = node["v"]
    nv = g.adj[v] & mask
    k = 0
    child_f = []
    for u in bits(nv):
        mask_u = mask & ~(g.adj[u] | 1 << u)
        if mask_u == 0:
            k += 1
        else:
            if node["children"].get(u) != mask_u or mask_u not in trace:
                return False
            child_f.append(trace[mask_u]["result"].critical_f)
    expect = [1 + k]
    depth = max((len(f) for f in child_f), default=0)
    for t in range(1, depth + 1):
        total = sum(f[t - 1] if t - 1 < len(f) else 0 for f in child_f)
        if t == 1:
            total -= nv.bit_count() - k
        expect.append(total)
    while expect and expect[-1] == 0:
        expect.pop()
    return node["result"].critical_f == tuple(expect)


def alternating_sum(seq):
    return sum((-1) ** d * v for d, v in enumerate(seq))


@pytest.fixture(scope="module")
def corpus():
    stats = {
        "instances": 0,
        "grid_instances": 0,
        "nodes_audited": 0,
        "node_count_failures": 0,
        "matching_failures": 0,
        "acyclic_failures": 0,
        "maximality_failures": 0,
        "perfect_failures": 0,
        "torsion_failures": 0,
        "euler_failures": 0,
        "grid_agree_failures": 0,
        "unclassified": 0,
        "gamma_checked": 0,
        "gamma_failures": 0,
        "build_audit_s": 0.0,
    }

    instances = itertools.chain(
        ((grid_graph(spec), spec) for spec in iter_grid_specs()),
        ((g, None) for g in iter_chordal_corpus()),
    )
    for g, spec in instances:
        stats["instances"] += 1

        t0 = time.perf_counter()
        trace = {}
        if spec is None:
            res = build_chordal_matching(g, trace=trace)
        else:
            res = build_grid_matching(g, spec, trace=trace)
        for mask, node in trace.items():
            if node["rule"] == "extend":
                stats["nodes_audited"] += 1
                if not node_counts_ok(g, mask, node, trace):
                    stats["node_count_failures"] += 1
        stats["build_audit_s"] += time.perf_counter() - t0

        x = independence_complex(g)
        if not verify_matching(x, res.pairs):
            stats["matching_failures"] += 1
        if not verify_acyclic(x, res.pairs):
            stats["acyclic_failures"] += 1
        if any(
            s != res.special_zero and not is_maximal(x, s)
            for s in res.critical_set
        ):
            stats["maximality_failures"] += 1

        profile = homology_integer(x)
        if sum(res.critical_f) != sum(profile.betti):
            stats["perfect_failures"] += 1
        if not all(profile.torsion_free):
            stats["torsion_failures"] += 1
        euler = alternating_sum(f_vector(x))
        if not (
            euler
            == alternating_sum(res.critical_f)
            == alternating_sum(profile.betti)
        ):
            stats["euler_failures"] += 1

        h = classify(x, res)
        if h.kind == "unclassified":
            stats["unclassified"] += 1
        else:
            try:
                ok = check_domination_bound(g, h)
            except CapabilityError:
                pass
            else:
                stats["gamma_checked"] += 1
                if not ok:
                    stats["gamma_failures"] += 1

        if spec is not None:
            stats["grid_instances"] += 1
            if not (
                grid_critical_fvector(spec)
                == critical_fvector_recursive(g)
                == res.critical_f
            ):
                stats["grid_agree_failures"] += 1

    return stats


def test_criterion_01_local_counts(corpus, capsys):
    ok = (
        corpus["node_count_failures"] == 0
        and corpus["nodes_audited"] > 0
        and corpus["build_audit_s"] <= 300.0
    )
    _report(
        capsys,
        1,
        "per-node critical counts across the corpus",
        ok,
        f"{corpus['instances']} instances, {corpus['nodes_audited']} nodes, "
        f"{corpus['node_count_failures']} failures, "
        f"build+audit {corpus['build_audit_s']:.1f}s (cap 300s)",
    )


def test_criterion_02_validity_acyclicity(corpus, capsys):
    ok = corpus["matching_failures"] == 0 and corpus["acyclic_failures"] == 0
    _report(
        capsys,
        2,
        "all matchings valid and acyclic",
        ok,
        f"{corpus['matching_failures']} invalid, "
        f"{corpus['acyclic_failures']} cyclic of {corpus['instances']}",
    )


def test_criterion_03_maximality(corpus, capsys):
    _report(
        capsys,
        3,
        "critical simplices maximal except the special 0-simplex",
        corpus["maximality_failures"] == 0,
        f"{corpus['maximality_failures']} violations of {corpus['instances']}",
    )


def test_criterion_04_perfect_matching(corpus, capsys):
    ok = corpus["perfect_failures"] == 0 and corpus["torsion_failures"] == 0
    _report(
        capsys,
        4,
        "total critical count equals total Betti number, torsion-free",
        ok,
        f"{corpus['perfect_failures']} count mismatches, "
        f"{corpus['torsion_failures']} torsion hits",
    )


def test_criterion_05_micro_optimality(capsys):
    started = time.perf_counter()
    checked = mismatches = 0
    for n in range(1, 7):
        vpairs = list(itertools.combinations(range(n), 2))
        for sel in range(1 << len(vpairs)):
            edges = [vpairs[i] for i in range(len(vpairs)) if sel >> i & 1]
            g = Graph.from_edges(n, edges)
            if not is_chordal(g):
                continue
            x = independence_complex(g)
            if len(x.faces) - 1 > 14:
                continue
            checked += 1
            best = optimal_matching_bruteforce(x)
            if sum(build_chordal_matching(g).critical_f) != best:
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and checked > 0 and elapsed <= 600.0
    _report(
        capsys,
        5,
        "construction attains the brute-force optimum (n <= 6)",
        ok,
        f"{checked} graphs, {mismatches} mismatches, "
        f"{elapsed:.1f}s (cap 600s)",
    )


def test_criterion_06_count_recurrences(corpus, capsys):
    rng = random.Random(606)
    random_failures = 0
    for _ in range(100):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        rows = tuple(
            tuple(rng.randint(1, 4) for _ in range(n + 1)) for _ in range(m + 1)
        )
        spec = GridSpec.of(m, n, rows)
        if grid_critical_fvector(spec) != critical_fvector_recursive(
            grid_graph(spec)
        ):
            random_failures += 1
    ok = corpus["grid_agree_failures"] == 0 and random_failures == 0
    _report(
        capsys,
        6,
        "closed-form, recursive, and constructed counts agree",
        ok,
        f"{corpus['grid_instances']} exhaustive specs "
        f"({corpus['grid_agree_failures']} disagree), "
        f"100 large specs ({random_failures} disagree)",
    )


def test_criterion_07_named_instances(capsys):
    failures = []

    def expect(name, g, want_f, want_kind, want_wedge=None):
        res = build_chordal_matching(g) if is_chordal(g) else None
        if res is None:
            failures.append(f"{name}: not chordal")
            return
        x = independence_complex(g)
        h = classify(x, res)
        okay = (
            res.critical_f == want_f
            and h.kind == want_kind
            and (want_wedge is None or h.wedge == want_wedge)
            and consistency_with_homology(h, homology_integer(x))
        )
        if not okay:
            failures.append(
                f"{name}: f={res.critical_f} kind={h.kind} "
                f"wedge={getattr(h, 'wedge', None)}"
            )

    expect("path-4", standard_graph("path", 4), (1,), "collapsible")
    expect("path-5", standard_graph("path", 5), (1, 1), "wedge", (0, 1))
    expect(
        "unit-grid",
        grid_graph(GridSpec.of(1, 1, ((1, 1), (1, 1)))),
        (3,),
        "wedge",
        (2,),
    )
    expect("z6-power", power_graph_cyclic(2, 3, 1, 1), (4,), "wedge", (3,))
    expect("complete-1", standard_graph("complete", 1), (1,), "collapsible")
    for n in range(2, 7):
        expect(
            f"complete-{n}",
            standard_graph("complete", n),
            (n,),
            "wedge",
            (n - 1,),
        )
    _report(
        capsys,
        7,
        "named instances match frozen homotopy types",
        not failures,
        "; ".join(failures) if failures else "11 instances",
    )


def test_criterion_08_domination_bound(corpus, capsys):
    ok = (
        corpus["gamma_failures"] == 0
        and corpus["unclassified"] == 0
        and corpus["gamma_checked"] > 0
    )
    _report(
        capsys,
        8,
        "minimum sphere dimension >= domination number - 1",
        ok,
        f"{corpus['gamma_checked']} instances checked, "
        f"{corpus['gamma_failures']} violations, "
        f"{corpus['unclassified']} unclassified",
    )


def test_criterion_09_euler_invariant(corpus, capsys):
    _report(
        capsys,
        9,
        "Euler characteristic agrees across f, f^V, and Betti",
        corpus["euler_failures"] == 0,
        f"{corpus['euler_failures']} mismatches of {corpus['instances']}",
    )


def test_criterion_10_negative_controls(capsys, tmp_path):
    problems = []
    for n in (4, 5):
        path = tmp_path / f"cycle{n}.json"
        if cli_main(["gen", "cycle", "--n", str(n), "--out", str(path)]) != 0:
            problems.append(f"gen cycle-{n} failed")
            continue
        for sub in (["analyze", str(path)], ["match", str(path)]):
            if cli_main(sub) != 3:
                problems.append(f"{sub[0]} cycle-{n} did not exit 3")

    # Cyclic field on the hollow triangle: valid matching, rejected as cyclic.
    rim = SimplicialComplex.from_simplices(
        3, [0b001, 0b010, 0b100, 0b011, 0b101, 0b110]
    )
    field = [(0b001, 0b011), (0b010, 0b110), (0b100, 0b101)]
    if not verify_matching(rim, field):
        problems.append("triangle field is not even a matching")
    if verify_acyclic(rim, field):
        problems.append("cyclic triangle field was accepted")

    graph_path = tmp_path / "e3.json"
    graph_path.write_text(json.dumps({"n": 3, "edges": []}), encoding="utf-8")
    field_path = tmp_path / "field.json"
    field_path.write_text(
        json.dumps([[[0], [0, 1]], [[1], [1, 2]], [[2], [0, 2]]]),
        encoding="utf-8",
    )
    if cli_main(["verify", str(graph_path), str(field_path)]) != 1:
        problems.append("CLI verify did not exit 1 on the cyclic field")

    capsys.readouterr()
    _report(
        capsys,
        10,
        "negative controls rejected",
        not problems,
        "; ".join(problems) if problems else "C4, C5, cyclic triangle field",
    )
