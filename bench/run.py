"""indmorse benchmark: three seeded workloads, checked outputs, traced layers.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's `src/`.  The seed picks the
inputs; the program only sees the generated graphs.  A run sets up its
inputs, then runs whole passes over the workload's instance list until
`--seconds` of wall time have gone, checking every output.

The host's speed drifts: a fixed loop alternates between two speeds about
1.5x apart, for seconds to minutes at a time.  Every timing is therefore
converted to time on a nominal host.  A fixed probe of set and bitmask work
(the kind the program does) runs at least every PROBE_EVERY_S, and each
timed call is scaled by PROBE_NOMINAL_S over the median of the probes
just before and just after it.  The same figures from unscaled times are
printed on the `raw` line, so the two can be compared.

An instance's latency is the median of its scaled executions over the
untraced passes (at least MIN_PASSES).  The latency figures are taken over
instances, not executions: on corpus, executions of a few milliseconds,
the slowest 0.6% are host hiccups spread over as many instances, so an
execution tail measured the host rather than the program.

End-to-end metrics (`--trace 0`):

  items_per_s   completed executions per second of program time
  item_p50_ms   smoothed median instance latency: the mean of the
                instance latencies whose rank is within CENTRAL_BAND (a
                share of the instances) of the middle rank
  item_tail_ms  smoothed instance latency at the workload's tail
                percentile, the highest (in steps of 0.1) with TAIL_BEYOND
                instances beyond it (p98.3 on corpus, p75.6 on the
                41-instance workloads): the mean of the instance latencies
                within TAIL_HALF_BAND ranks of it; the percentile and the
                count beyond it are printed
  peak_rss_mb   peak resident memory of the process
  setup_s       median of the run's timed set-ups (build the inputs
                with the program's generators and write them), spread
                over the run and scaled like the executions; a run makes
                as many as fit in SETUP_BUDGET_S, within SETUP_REPEATS

The smoothing keeps a percentile from jumping by the gap between two
neighbouring instances (10% around the median of explicit_large) when
host noise swaps their order.

A failed execution counts as slower than every other in the instance
latencies and as not completed in items_per_s; its time still counts.

With `--trace 1` passes alternate between untraced and traced, and the last
line carries the per-layer metrics instead: layer self times (mean seconds
per instance over traced passes, scaled as above), work counters per pass,
the tracing overhead, and the share of traced item time the named layers
cover.  Timed traced passes only record spans; they run the same program
code as untraced ones.

After timing, every run makes one counting pass, in which the wrappers
also read work counters off arguments and results (and builds are given a
trace dict to report their recursion).  Its counter block is printed, and
the run asserts that every pass produced the same outputs, that each
traced pass made the same layer calls as the counting pass, and that the
block is byte-identical to the one stored by any earlier run of the same
workload, seed and sources, traced or not.  Exceptions escaping the
program, nonzero exit codes and failed checks count in `failed`; wrong
answers and broken determinism make `correct` false.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_REPEATS = (5, 31)
SETUP_BUDGET_S = 1.0
MIN_PASSES = 3
TAIL_BEYOND = 10
PROBE_EVERY_S = 0.25
PROBE_NOMINAL_S = 0.005
PROBE_WINDOW = 2
CENTRAL_BAND = 0.1
TAIL_HALF_BAND = 2
WORKLOAD_NAMES = ("corpus", "explicit_large", "counts_large")

# Per-layer self-time metric for each layer in spans.LAYERS, plus the root.
TIME_METRICS = {
    "bench": "bench.self_s",
    "cli": "cli.self_s",
    "graph_core.load": "graph_core.load_s",
    "generators.grid_spec_from_labels": "generators.grid_spec_from_labels_s",
    "chordal.is_chordal": "chordal.is_chordal_s",
    "counts.recursive": "counts.recursive_s",
    "counts.grid_closed": "counts.grid_closed_s",
    "morse.build": "morse.build_s",
    "complexes.independence_complex": "complexes.independence_complex_s",
    "complexes.is_maximal": "complexes.is_maximal_s",
    "matching.verify_matching": "matching.verify_matching_s",
    "matching.verify_acyclic": "matching.verify_acyclic_s",
    "matching.critical_simplices": "matching.critical_simplices_s",
    "homotopy.classify": "homotopy.classify_self_s",
    "homotopy.vpath": "homotopy.vpath_s",
    "homotopy.domination": "homotopy.domination_s",
    "homology.integer": "homology.integer_s",
}
COUNTERS = (
    "morse.pairs",
    "morse.nodes",
    "morse.child_refs",
    "morse.rule.isolated",
    "morse.rule.extend",
    "morse.rule.complete",
    "complexes.faces",
    "homology.simplices",
    "homology.boundary_nnz",
    "matching.calls",
    "chordal.is_chordal_calls",
    "homotopy.vpath_calls",
)


def _load_program() -> None:
    src = ROOT / "src"
    if not (src / "indmorse" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'indmorse'}")
    sys.path.insert(0, str(src))
    import indmorse

    if Path(indmorse.__file__).resolve().parent != (src / "indmorse").resolve():
        raise SystemExit(f"error: imported indmorse from {indmorse.__file__}, not {src}")


def _source_digest() -> str:
    """Digest of the program and benchmark sources that shape the counters."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "indmorse").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def tail_percentile(instances: int) -> float:
    """The tail percentile for a pass of `instances` instances."""
    return math.floor(1000 * (1 - TAIL_BEYOND / instances)) / 10


class Clock:
    """Probes of the host's speed through the run, and the conversion of a
    timed call to time on the nominal host."""

    def __init__(self):
        self.mids: list[float] = []
        self.lengths: list[float] = []
        self._due = 0.0

    def probe(self) -> None:
        """Time a fixed piece of set and bitmask work."""
        started = time.perf_counter()
        faces = frozenset(a for a in range(1 << 15) if not a & a >> 1)
        sum((a | 1 << v) in faces for a in faces for v in range(15))
        ended = time.perf_counter()
        self.mids.append((started + ended) / 2)
        self.lengths.append(ended - started)
        self._due = ended + PROBE_EVERY_S

    def probe_if_due(self) -> None:
        if time.perf_counter() >= self._due:
            self.probe()

    def nominal(self, start: float, duration: float) -> float:
        """`duration` seconds timed from `start`, scaled by the median of the
        PROBE_WINDOW probes on either side of it (a single probe that was
        preempted would otherwise rescale its neighbours)."""
        before = bisect.bisect_right(self.mids, start)
        after = bisect.bisect_left(self.mids, start + duration)
        window = self.lengths[max(before - PROBE_WINDOW, 0) : after + PROBE_WINDOW]
        return duration * PROBE_NOMINAL_S / statistics.median(window)


class Run:
    """One workload on one seed: inputs, passes, and their outcomes."""

    def __init__(self, workload, seed: int):
        from workloads import fill_expected

        self.workload = workload
        self.seed = seed
        self.clock = Clock()
        self.dir = WORK / f"{workload.name}-{seed}"
        self.out_path = self.dir / "out.json"
        self.problems: list[str] = []
        self.instances = workload.plan(random.Random(f"{workload.name}-{seed}"))
        self.graph_paths = [self.dir / f"graph-{i}.json" for i in range(len(self.instances))]
        n = len(self.instances)
        self.tail_pct = tail_percentile(n)
        self.setups: list[tuple[float, float]] = []
        self.set_up()
        low, high = SETUP_REPEATS
        self.setup_repeats = min(high, max(low, math.ceil(SETUP_BUDGET_S / self.setups[0][1])))
        fill_expected(workload, self.instances)

    def set_up(self) -> None:
        """Build the inputs with the program's generators and write the
        graph files, timed between two probes.  Earlier files are removed
        first, untimed: ext4 flushes a file truncated by rewriting it on
        close, which made the timing depend on the disk."""
        import indmorse

        for path in self.graph_paths:
            path.unlink(missing_ok=True)
        self.clock.probe()
        started = time.perf_counter()
        for inst in self.instances:
            inst.graph = inst.make()
        if self.workload.uses_cli:
            self.dir.mkdir(parents=True, exist_ok=True)
            for inst, path in zip(self.instances, self.graph_paths):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(indmorse.graph_to_json(inst.graph), fh)
        self.setups.append((started, time.perf_counter() - started))
        self.clock.probe()

    def _item(self, i: int):
        from workloads import run_cli, run_corpus

        if self.workload.uses_cli:
            return run_cli(self.instances[i], self.graph_paths[i], self.out_path)
        return run_corpus(self.instances[i])

    def run_pass(self, rec=None) -> dict:
        """Run every instance once, timing each call into the program.  With
        a recorder, also keep each item's self time per layer."""
        from workloads import check_cli, check_corpus, corpus_digest, read_report

        starts, times, layers, digests, failed = [], [], [], [], []
        for i, inst in enumerate(self.instances):
            self.clock.probe_if_due()
            before = dict(rec.self_s) if rec else None
            error, problems = None, []
            started = time.perf_counter()
            try:
                out = rec.call("bench", self._item, i) if rec else self._item(i)
            except SystemExit as exc:
                error = f"exit {exc.code}"
            except Exception as exc:  # a failed operation; the run goes on
                error = type(exc).__name__
            times.append(time.perf_counter() - started)
            starts.append(started)
            if rec:
                layers.append({k: v - before.get(k, 0.0) for k, v in rec.self_s.items()})
            if error is None and self.workload.uses_cli:
                if out != 0:
                    error = f"exit {out}"
                else:
                    report = read_report(self.out_path)
                    self.out_path.unlink()  # so the next call writes a new file
                    problems = check_cli(inst, report)
                    digest = [report.get(k) for k in ("critical_f", "homotopy", "betti")]
            elif error is None:
                problems = check_corpus(out)
                digest = corpus_digest(out)
            if error is not None:
                digest = ["failed", error]
            if error or problems:
                failed.append(i)
            self.problems += [f"{inst.name}: {p}" for p in problems]
            digests.append(digest)
        return {"starts": starts, "times": times, "layers": layers, "digests": digests, "failed": failed}


def _loop(run: Run, seconds: float, traced: bool):
    """Whole passes for about `seconds` of wall time (a pass is not begun
    when it would end past that, once MIN_PASSES untraced passes are done),
    with the set-up repeats spread evenly over them.  When `traced`, passes
    alternate untraced/traced, each traced pass with its own recorder."""
    from spans import Recorder, instrument

    plain, recorded = [], []
    start = time.perf_counter()
    while True:
        while len(run.setups) < run.setup_repeats:
            if time.perf_counter() < start + seconds * len(run.setups) / run.setup_repeats:
                break
            run.set_up()
        begun = time.perf_counter()
        if traced and len(recorded) < len(plain):
            rec = Recorder()
            with instrument(rec):
                recorded.append((run.run_pass(rec), rec))
        else:
            plain.append(run.run_pass())
        now = time.perf_counter()
        enough = len(plain) >= MIN_PASSES and (recorded or not traced)
        if enough and now + (now - begun) > start + seconds:
            while len(run.setups) < run.setup_repeats:
                run.set_up()
            run.clock.probe()  # closes the bracket of the last call
            return plain, recorded


def _counter_block(run: Run, one_pass: dict, rec) -> dict:
    n = len(run.instances)
    counts = rec.snapshot()
    return {
        "ops_attempted": n,
        "ops_failed": len(one_pass["failed"]),
        "cone_share": f"{sum(i.cone for i in run.instances)}/{n}",
        **{k: counts[k] for k in COUNTERS},
    }


def _check_determinism(run: Run, passes: list[dict], recorded: list, counting, block: dict) -> None:
    if any(p["digests"] != passes[0]["digests"] for p in passes[1:]):
        run.problems.append("outputs differ between passes")
    if any(rec.calls != counting.calls for _, rec in recorded):
        run.problems.append("a traced pass made other layer calls than the counting pass")
    stored = WORK / "counters" / f"{run.workload.name}-{run.seed}-{_source_digest()}.json"
    text = json.dumps(block, sort_keys=True)
    if not stored.exists():
        stored.parent.mkdir(parents=True, exist_ok=True)
        stored.write_text(text, encoding="utf-8")
    elif stored.read_text(encoding="utf-8") != text:
        run.problems.append(f"counter block differs from {stored.name}")


def _percentile(ranked: list[float], pct: float, half: int) -> tuple[float, int]:
    """The mean of the sorted values within `half` ranks of the nearest-rank
    percentile, and the count of values beyond the percentile."""
    index = max(0, math.ceil(pct / 100 * len(ranked)) - 1)
    return statistics.fmean(ranked[max(0, index - half) : index + half + 1]), len(ranked) - 1 - index


def _executions(run: Run, passes: list[dict], raw: bool = False):
    """Every execution's scaled (or raw) time and whether it completed."""
    for p in passes:
        for i, (start, t) in enumerate(zip(p["starts"], p["times"])):
            yield (t if raw else run.clock.nominal(start, t)), i not in p["failed"]


def _figures(run: Run, passes: list[dict], raw: bool) -> dict:
    total, completed, times = 0.0, 0, []
    for t, ok in _executions(run, passes, raw):
        total += t
        completed += ok
        times.append(t if ok else math.inf)
    n = len(run.instances)
    per_instance = sorted(statistics.median(times[i::n]) for i in range(n))
    p50, _ = _percentile(per_instance, 50, round(CENTRAL_BAND * n))
    tail, beyond = _percentile(per_instance, run.tail_pct, TAIL_HALF_BAND)
    setups = [t if raw else run.clock.nominal(start, t) for start, t in run.setups]
    return {
        "items_per_s": completed / total,
        "item_p50_ms": p50 * 1e3,
        "item_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setups),
        "samples": len(times),
        "beyond_tail": beyond,
    }


def _end_to_end(run: Run, plain: list, peak_rss_mb: float, lines: list) -> dict:
    scaled = _figures(run, plain, raw=False)
    raw = _figures(run, plain, raw=True)
    lines += [
        f"instance latencies are medians of {len(plain)} passes ({scaled['samples']} executions); "
        f"item_tail_ms is p{run.tail_pct:g}, with {scaled['beyond_tail']} of {len(run.instances)} instances beyond it",
        f"host probes: {len(run.clock.lengths)}, {min(run.clock.lengths) * 1e3:.3f}.."
        f"{max(run.clock.lengths) * 1e3:.3f} ms (nominal {PROBE_NOMINAL_S * 1e3:g} ms)",
        "raw " + json.dumps({k: raw[k] for k in ("items_per_s", "item_p50_ms", "item_tail_ms", "setup_s")}),
    ]
    return {
        "items_per_s": (scaled["items_per_s"], "1/s"),
        "item_p50_ms": (scaled["item_p50_ms"], "ms"),
        "item_tail_ms": (scaled["item_tail_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (scaled["setup_s"], "s"),
    }


def _per_layer(run: Run, plain: list, recorded: list, counting) -> dict:
    traced = [p for p, _ in recorded]
    items, item_s = 0, 0.0
    self_s = dict.fromkeys(TIME_METRICS, 0.0)
    for p in traced:
        for start, t, layers in zip(p["starts"], p["times"], p["layers"]):
            scale = run.clock.nominal(start, t) / t
            for layer, v in layers.items():
                self_s[layer] += v * scale
            item_s += t * scale
            items += 1
    metrics = {m: (self_s[layer] / items, "s") for layer, m in TIME_METRICS.items()}
    counts = counting.snapshot()
    metrics.update({k: (counts[k], "count") for k in COUNTERS})
    def mean_time(passes):
        times = [t for t, _ in _executions(run, passes)]
        return sum(times) / len(times)

    overhead = mean_time(traced) / mean_time(plain) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    named = sum(v for layer, v in self_s.items() if layer != "bench")
    metrics["trace.accounted_frac"] = (named / item_s, "ratio")
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / f"spans-{run.workload.name}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["layer", "start", "end", "parent"], "spans": recorded[0][1].spans}, fh)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    sys.path.insert(0, str(BENCH))
    from spans import Recorder, instrument
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    walls = [time.perf_counter()]
    run = Run(workload, args.seed)
    walls.append(time.perf_counter())
    plain, recorded = _loop(run, args.seconds, bool(args.trace))
    walls.append(time.perf_counter())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counting = Recorder()
    with instrument(counting, count=True):
        counted = run.run_pass(counting)
    walls.append(time.perf_counter())
    block = _counter_block(run, counted, counting)
    passes = plain + [p for p, _ in recorded] + [counted]
    _check_determinism(run, passes, recorded, counting, block)

    lines = [
        f"workload {workload.name}  seed {args.seed}  instances/pass {len(run.instances)}  "
        f"passes {len(plain)} untraced, {len(recorded)} traced, 1 counting",
        "wall s: plan, set-up and expected answers {:.2f}, timed loop {:.2f}, counting pass {:.2f}".format(
            *(b - a for a, b in zip(walls, walls[1:]))
        ),
        f"families: {workload.families}",
        "counters/pass " + json.dumps(block, sort_keys=True),
    ]
    if args.trace:
        metrics = _per_layer(run, plain, recorded, counting)
    else:
        metrics = _end_to_end(run, plain, peak_rss_mb, lines)
    lines += [f"  {name:36s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"CHECK FAILED {problem}" for problem in run.problems[:20]]
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": sum(len(p["times"]) for p in passes),
                "failed": sum(len(p["failed"]) for p in passes),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
