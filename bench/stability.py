"""Run-to-run spread of the benchmark's metrics, and the recorded baseline.

    python3 bench/stability.py --label cross_seed --seeds 1-10
    python3 bench/stability.py --label dev_seed --seeds 1 --repeat 5
    python3 bench/stability.py --label held_out_seed --seeds 4242 --repeat 5
    python3 bench/stability.py --compare cross_seed cross_seed_2

Each label runs `bench/run.py` once per (workload, seed, repeat), one run at
a time, and stores for every metric its values, median, quartiles and
spread (interquartile distance over the median, from
statistics.quantiles(values, n=4)) next to the bound in BENCHMARK.json.
The same summary of the unscaled times that run.py prints on its `raw`
line is stored beside it as `raw_spread`, to show what the host-speed
scaling buys.  Results accumulate under their label in bench/baseline.json,
together with the machine, the `src/` line count and the workload
descriptions.  `--compare A B` checks, per workload and end-to-end metric,
that label B's median is not worse than label A's by more than the bound,
and stores the outcome under `comparisons`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect\n{proc.stdout}")
    raw = [json.loads(line[4:]) for line in lines if line.startswith("raw ")]
    return result, raw[0] if raw else {}


def _summary(values: list[float], bound: float | None) -> dict:
    if len(values) < 2:
        return {"values": values, "median": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else (0.0 if q1 == q3 else None)
    out = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out.update(bound=bound, within_bound=spread <= bound, within_third=spread < bound / 3)
    return out


def _over_cap(graph) -> bool:
    """True when the complex is larger than the homology oracle accepts."""
    from indmorse.homology import HOMOLOGY_SIMPLEX_CAP
    from reference import independent_set_count

    if graph.n > 64:
        return True
    return independent_set_count(graph.n, graph.edges()) - 1 > HOMOLOGY_SIMPLEX_CAP


def _context(spec: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from run import MIN_PASSES, TAIL_BEYOND, tail_percentile
    from workloads import WORKLOADS

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    workloads = {}
    for w in WORKLOADS.values():
        instances = w.plan(random.Random(f"{w.name}-1"))
        for inst in instances:
            inst.graph = inst.make()
        n = len(instances)
        workloads[w.name] = {
            "why": w.why,
            "families": w.families,
            "instances_per_pass": n,
            "tail_percentile": tail_percentile(n),
            "instances_beyond_tail": TAIL_BEYOND,
            "passes_per_instance_median_at_least": MIN_PASSES,
            "cone_share": sum(i.cone for i in instances) / n,
            "over_homology_cap_share": sum(_over_cap(i.graph) for i in instances) / n,
        }
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "src_lines": src_lines,
        "run_seconds": spec["run_seconds"],
        "workloads": workloads,
    }


def _compare(record: dict, spec: dict, first: str, second: str) -> int:
    """Median drift from label `first` to label `second`; 1 if any metric
    got worse by more than its bound."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    outcome, over = {}, 0
    for name, section in record[first]["workloads"].items():
        other = record[second]["workloads"].get(name, {})
        for metric, summary in section.items():
            if metric not in other or metric not in metrics:
                continue
            ratio = other[metric]["median"] / summary["median"]
            worse = ratio - 1 if metrics[metric]["better"] == "lower" else 1 / ratio - 1
            ok = worse <= metrics[metric]["bound"]
            over += not ok
            outcome[f"{name} {metric}"] = {"worse_by": worse, "bound": metrics[metric]["bound"], "ok": ok}
            print(f"  {name} {metric}: worse by {worse:+.3f} (bound {metrics[metric]['bound']}){'' if ok else '  <-- over'}")
    record.setdefault("comparisons", {})[f"{first} vs {second}"] = outcome
    BASELINE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 1 if over else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label")
    parser.add_argument("--seeds", help="a-b or a,b,c")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    record = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    if args.compare:
        return _compare(record, spec, *args.compare)
    if not (args.label and args.seeds):
        parser.error("--label and --seeds are required unless --compare is given")
    record["context"] = _context(spec)
    section, units = {}, {}
    for name in names:
        values: dict[str, list[float]] = {}
        raw_values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            for _ in range(args.repeat):
                result, raw = _run(name, seed, spec["run_seconds"], args.trace)
                for metric, entry in result["metrics"].items():
                    values.setdefault(metric, []).append(entry["value"])
                    units[metric] = entry["unit"]
                for metric, value in raw.items():
                    raw_values.setdefault(metric, []).append(value)
                print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        section[name] = {m: _summary(v, bounds.get(m)) for m, v in values.items()}
        for m, v in raw_values.items():
            section[name][m]["raw_spread"] = _summary(v, None).get("spread")
        for m, s in section[name].items():
            flag = "" if s.get("within_third", True) else "  <-- above a third of its bound"
            raw_spread = f" (raw {s['raw_spread']:.3f})" if "raw_spread" in s else ""
            print(f"  {name} {m} [{units[m]}]: median {s['median']:.6g} spread {s.get('spread')}{raw_spread}{flag}",
                  flush=True)
    previous = record.get(args.label, {}).get("workloads", {})
    record[args.label] = {
        "seeds": args.seeds,
        "repeat": args.repeat,
        "trace": args.trace,
        "workloads": {**previous, **section},
    }
    BASELINE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
