"""Command-line front end.

Subcommands generate graphs, build gradient fields, count critical cells,
classify homotopy types, and cross-check everything against the homology
oracle.  All output is JSON; reports are byte-stable for fixed inputs and
seeds (timings only appear behind --timings).

Exit codes: 0 success, 1 verification or consistency failure, 2 input
error, 3 unsupported graph.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .chordal import is_chordal
from .complexes import SimplicialComplex, hasse_edges, independence_complex
from .counts import (
    critical_fvector_recursive,
    grid_count_table,
    grid_critical_fvector,
)
from .generators import (
    GridSpec,
    grid_graph,
    grid_spec_from_labels,
    power_graph_cyclic,
    random_chordal,
    standard_graph,
)
from .graph_core import (
    CapabilityError,
    Graph,
    UnsupportedGraphError,
    bits,
    domination_number,
    graph_from_json,
    graph_to_json,
)
from .homology import HOMOLOGY_SIMPLEX_CAP, homology_integer
from .homotopy import (
    HomotopyType,
    check_domination_bound,
    classify,
    classify_tree,
    consistency_with_homology,
    homotopy_from_counts,
)
from .matching import check_field
from .morse import (
    ConstructionResult,
    build_auto,
    build_chordal_matching,
    build_grid_matching,
)

DOT_SIMPLEX_CAP = 200
VERIFY_FACE_CAP = 500_000


# ─────────────────────────────────────────────────────────────
#  JSON plumbing
# ─────────────────────────────────────────────────────────────

def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("malformed JSON: nested too deeply") from None


def _load_graph(path: str) -> Graph:
    try:
        return graph_from_json(_read_json(path))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc


def _emit(obj, args) -> None:
    if args.pretty:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    else:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _verts(mask: int) -> list[int]:
    return list(bits(mask))


def _mask(verts, n: int) -> int:
    out = 0
    for v in verts:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        if out >> v & 1:
            raise ValueError(f"repeated vertex {v} in simplex")
        out |= 1 << v
    return out


def _load_pairs(path: str, n: int) -> list[tuple[int, int]]:
    obj = _read_json(path)
    if isinstance(obj, dict):
        obj = obj.get("pairs")
    if not isinstance(obj, list):
        raise ValueError("matching JSON must be a list of [alpha, beta] pairs")
    pairs = []
    for item in obj:
        # Each simplex is a list of JSON integers; bool is an int subclass.
        if not (
            isinstance(item, list)
            and len(item) == 2
            and all(
                isinstance(s, list) and all(type(v) is int for v in s) for s in item
            )
        ):
            raise ValueError(f"malformed pair {item!r}")
        pairs.append((_mask(item[0], n), _mask(item[1], n)))
    return pairs


def _pairs_json(pairs) -> list[list[list[int]]]:
    ordered = sorted(pairs, key=lambda p: (p[0].bit_count(), p[0], p[1]))
    return [[_verts(a), _verts(b)] for a, b in ordered]


def _homotopy_json(h: HomotopyType):
    if h.kind == "collapsible":
        return "collapsible"
    if h.kind == "wedge":
        return {"wedge": list(h.wedge)}
    return {"unclassified": h.reason}


def _graph_summary(g: Graph) -> tuple[dict, GridSpec | None]:
    """The report's graph block, and the grid spec its labels define, if any."""
    summary = {
        "vertices": g.n,
        "edges": sum(map(int.bit_count, g.adj)) // 2,
        "chordal": is_chordal(g),
    }
    spec = None
    if g.labels is not None:
        try:
            spec = grid_spec_from_labels(g)
        except ValueError:
            pass
        else:
            summary["grid"] = {
                "m": spec.m,
                "n": spec.n,
                "sizes": [list(row) for row in spec.sizes],
            }
    return summary, spec


# ─────────────────────────────────────────────────────────────
#  Shared pipeline pieces
# ─────────────────────────────────────────────────────────────

def _capped_complex(g: Graph, limit: int, error: str) -> SimplicialComplex:
    """I(g), refused with ``error`` when it has more than ``limit`` faces,
    the empty one included, before they are all enumerated; the vertex cap
    keeps its own error."""
    x = independence_complex(g, limit)
    if x is None:
        raise CapabilityError(error)
    return x


def _homology_complex(g: Graph) -> SimplicialComplex:
    """I(g) for homology_integer, refused when the oracle would refuse it."""
    return _capped_complex(
        g,
        HOMOLOGY_SIMPLEX_CAP + 1,
        f"integer homology is limited to {HOMOLOGY_SIMPLEX_CAP} simplices",
    )


def _build(g: Graph, driver: str, spec: GridSpec | None = None) -> ConstructionResult:
    if driver == "chordal":
        return build_chordal_matching(g)
    if driver == "grid":
        # No spec means the labels define no grid; deriving it raises why.
        return build_grid_matching(g, spec or grid_spec_from_labels(g))
    return build_auto(g)


# ─────────────────────────────────────────────────────────────
#  Subcommand handlers
# ─────────────────────────────────────────────────────────────

def cmd_gen(args) -> int:
    if args.kind == "grid":
        flat = [int(tok) for tok in args.sizes.split(",")]
        want = (args.m + 1) * (args.n + 1)
        if len(flat) != want:
            raise ValueError(
                f"--sizes needs {want} entries for m={args.m}, n={args.n}, "
                f"got {len(flat)}"
            )
        rows = tuple(
            tuple(flat[r * (args.n + 1) : (r + 1) * (args.n + 1)])
            for r in range(args.m + 1)
        )
        g = grid_graph(GridSpec.of(args.m, args.n, rows))
    elif args.kind == "power":
        g = power_graph_cyclic(args.p, args.q, args.m, args.n)
    elif args.kind == "chordal-random":
        g = random_chordal(args.n, args.density, args.seed)
    else:
        g = standard_graph(args.kind, args.n)
    _emit(graph_to_json(g), args)
    return 0


def cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    started = time.perf_counter()
    timings: dict[str, float] = {}
    summary, spec = _graph_summary(g)
    report: dict = {"graph": summary, "mode": args.mode}
    if args.seed is not None:
        report["seed"] = args.seed
    failed = False

    if args.mode == "explicit":
        result = _build(g, args.driver, spec)
        timings["build_s"] = round(time.perf_counter() - started, 6)
        # Certified by the extension theorem on the recursion tree; verify
        # and compare check the field on the complex instead.
        h = classify_tree(g, result)
        report["driver"] = result.driver
        report["critical_f"] = list(result.critical_f)
        report["special_zero"] = (
            _verts(result.special_zero) if result.special_zero else None
        )
        report["homotopy"] = _homotopy_json(h)
    else:
        if args.driver == "grid":
            spec = spec or grid_spec_from_labels(g)
            if args.table and spec.m >= 1 and spec.n >= 1:
                table = grid_count_table(spec)
                fvec = table.critical_f
                report["table"] = {
                    f"{i},{j}": list(entry)
                    for (i, j), entry in sorted(table.table.items())
                }
            else:
                fvec = grid_critical_fvector(spec)
        else:
            if args.driver == "chordal" and not summary["chordal"]:
                raise ValueError("graph is not chordal")
            fvec = critical_fvector_recursive(g)
        timings["build_s"] = round(time.perf_counter() - started, 6)
        report["driver"] = args.driver
        report["critical_f"] = list(fvec)
        # The count route's selection is a build's, whose certificate proves
        # every critical cell but one 0-simplex maximal.
        h = homotopy_from_counts(fvec)
        report["homotopy"] = _homotopy_json(h)

    if args.oracle:
        t0 = time.perf_counter()
        profile = homology_integer(_homology_complex(g))
        report["betti"] = list(profile.betti)
        report["torsion_free"] = list(profile.torsion_free)
        ok = consistency_with_homology(h, profile)
        report["oracle_consistent"] = ok
        failed = failed or not ok
        timings["oracle_s"] = round(time.perf_counter() - t0, 6)

    if args.gamma:
        try:
            gamma = domination_number(g)
        except CapabilityError:
            report["gamma"] = "skipped"
        else:
            report["gamma"] = gamma
            ok = check_domination_bound(g, h)
            report["gamma_bound_ok"] = ok
            failed = failed or not ok

    if args.timings:
        timings["total_s"] = round(time.perf_counter() - started, 6)
        report["timings"] = timings
    _emit(report, args)
    return 1 if failed else 0


def cmd_match(args) -> int:
    g = _load_graph(args.graph)
    result = _build(g, args.driver)
    out: dict = {
        "critical_f": list(result.critical_f),
        "special_zero": _verts(result.special_zero) if result.special_zero else None,
        "driver": result.driver,
    }
    if args.pairs:
        # Every face but the critical ones is in a pair.
        _capped_complex(
            g, VERIFY_FACE_CAP, f"match --pairs is limited to {VERIFY_FACE_CAP} faces"
        )
        out["pairs"] = _pairs_json(result.pairs)
    if args.dot is not None:
        _write_dot(g, result, args.dot)
    _emit(out, args)
    return 0


def _write_dot(g: Graph, result: ConstructionResult, path: str) -> None:
    x = _capped_complex(
        g, DOT_SIMPLEX_CAP, f"DOT dump is limited to {DOT_SIMPLEX_CAP} simplices"
    )
    matched = set(result.pairs)

    def name(mask: int) -> str:
        return "{" + ",".join(str(v) for v in bits(mask)) + "}"

    lines = ["digraph hasse {", "  rankdir=BT;"]
    for beta, alpha in hasse_edges(x):
        if (alpha, beta) in matched:
            lines.append(f'  "{name(alpha)}" -> "{name(beta)}" [color=red];')
        else:
            lines.append(f'  "{name(beta)}" -> "{name(alpha)}";')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    x = _capped_complex(
        g, VERIFY_FACE_CAP, f"verify is limited to {VERIFY_FACE_CAP} faces"
    )
    pairs = _load_pairs(args.matching, g.n)
    cert = check_field(x, pairs)
    if cert.error is not None:
        _emit({"ok": False, "error": cert.error}, args)
        return 1
    if cert.cycle is not None:
        _emit(
            {
                "ok": False,
                "error": "matching has a directed cycle",
                "cycle": [_verts(s) for s in cert.cycle],
            },
            args,
        )
        return 1
    by_dim: dict[str, list[list[int]]] = {}
    for s in sorted(cert.critical, key=lambda s: (s.bit_count(), s)):
        by_dim.setdefault(str(s.bit_count() - 1), []).append(_verts(s))
    _emit({"ok": True, "critical_f": list(cert.critical_f), "critical": by_dim}, args)
    return 0


def cmd_homology(args) -> int:
    g = _load_graph(args.graph)
    profile = homology_integer(_homology_complex(g))
    _emit(
        {"betti": list(profile.betti), "torsion_free": list(profile.torsion_free)},
        args,
    )
    return 0


def cmd_compare(args) -> int:
    g = _load_graph(args.graph)
    summary, spec = _graph_summary(g)
    report: dict = {"graph": summary}
    driver = "grid" if spec is not None else "chordal" if summary["chordal"] else "auto"
    result = _build(g, driver, spec)
    if spec is not None:
        report["grid_f"] = list(grid_critical_fvector(spec))
    report["driver"] = result.driver
    report["critical_f"] = list(result.critical_f)
    report["counts_f"] = list(critical_fvector_recursive(g))

    x = _homology_complex(g)
    h = classify(x, result)
    report["homotopy"] = _homotopy_json(h)
    profile = homology_integer(x)
    report["betti"] = list(profile.betti)
    report["torsion_free"] = list(profile.torsion_free)

    agree = report["counts_f"] == report["critical_f"]
    if spec is not None:
        agree = agree and report["grid_f"] == report["critical_f"]
    agree = agree and consistency_with_homology(h, profile)
    report["agree"] = agree
    _emit(report, args)
    return 0 if agree else 1


# ─────────────────────────────────────────────────────────────
#  Argument parsing
# ─────────────────────────────────────────────────────────────

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="-", help="output path (default stdout)")
    common.add_argument(
        "--pretty", action="store_true", help="indent JSON output"
    )

    parser = argparse.ArgumentParser(
        prog="indmorse",
        description="Gradient vector fields on independence complexes",
    )
    subparsers = parser.add_subparsers(dest="command")

    gen_p = subparsers.add_parser("gen", help="Generate a graph as JSON")
    gen_sub = gen_p.add_subparsers(dest="kind")
    grid_p = gen_sub.add_parser("grid", parents=[common], help="Grid-family graph")
    grid_p.add_argument("--m", type=int, required=True)
    grid_p.add_argument("--n", type=int, required=True)
    grid_p.add_argument(
        "--sizes",
        required=True,
        help="comma-separated cell sizes, row-major, (m+1)(n+1) entries",
    )
    power_p = gen_sub.add_parser(
        "power", parents=[common], help="Power graph of a cyclic group"
    )
    power_p.add_argument("--p", type=int, required=True)
    power_p.add_argument("--q", type=int, required=True)
    power_p.add_argument("--m", type=int, required=True)
    power_p.add_argument("--n", type=int, required=True)
    rand_p = gen_sub.add_parser(
        "chordal-random", parents=[common], help="Seeded random chordal graph"
    )
    rand_p.add_argument("--n", type=int, required=True)
    rand_p.add_argument("--density", type=float, default=0.3)
    rand_p.add_argument("--seed", type=int, default=0)
    for kind in ("path", "cycle", "complete", "empty"):
        kind_p = gen_sub.add_parser(kind, parents=[common])
        kind_p.add_argument("--n", type=int, required=True)

    analyze_p = subparsers.add_parser(
        "analyze", parents=[common], help="Full analysis report for one graph"
    )
    analyze_p.add_argument("graph", help="graph JSON path, - for stdin")
    analyze_p.add_argument(
        "--mode", choices=("explicit", "counts"), default="explicit"
    )
    analyze_p.add_argument(
        "--driver", choices=("auto", "chordal", "grid"), default="auto"
    )
    analyze_p.add_argument(
        "--oracle", action="store_true", help="run the homology oracle"
    )
    analyze_p.add_argument(
        "--gamma", action="store_true", help="check the domination bound"
    )
    analyze_p.add_argument(
        "--table", action="store_true", help="include grid count table"
    )
    analyze_p.add_argument(
        "--timings", action="store_true", help="include wall-clock timings"
    )
    analyze_p.add_argument("--seed", type=int, default=None)

    match_p = subparsers.add_parser(
        "match", parents=[common], help="Build a gradient field"
    )
    match_p.add_argument("graph")
    match_p.add_argument(
        "--driver", choices=("auto", "chordal", "grid"), default="auto"
    )
    match_p.add_argument(
        "--pairs", action="store_true", help="include the pair list"
    )
    match_p.add_argument(
        "--dot", default=None, help="write a DOT dump of the Hasse diagram"
    )

    verify_p = subparsers.add_parser(
        "verify", parents=[common], help="Check a matching file against a graph"
    )
    verify_p.add_argument("graph")
    verify_p.add_argument("matching")

    homology_p = subparsers.add_parser(
        "homology", parents=[common], help="Integer homology of I(G)"
    )
    homology_p.add_argument("graph")

    compare_p = subparsers.add_parser(
        "compare", parents=[common], help="Cross-check all pipelines on one graph"
    )
    compare_p.add_argument("graph")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "gen" and args.kind is None:
        print("error: gen needs a graph kind (see indmorse gen --help)", file=sys.stderr)
        return 2

    handlers = {
        "gen": cmd_gen,
        "analyze": cmd_analyze,
        "match": cmd_match,
        "verify": cmd_verify,
        "homology": cmd_homology,
        "compare": cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except UnsupportedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, CapabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
