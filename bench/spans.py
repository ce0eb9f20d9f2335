"""Span recorder for the traced run and the wrappers that feed it.

The program is not edited: `instrument` swaps each public function listed
in LAYERS for a wrapper in every `indmorse` module namespace that holds it
(so `cli` calling its imported `classify` is traced too), and restores the
originals on exit.  A span records its layer, start, end and parent span;
a layer's self time is its spans' durations minus the time their child
spans cover.

Timed passes only record spans.  A counting pass (`count=True`) also reads
work counters off arguments and results, and hands each build a trace dict
when its caller passed none, so the build reports its recursion; the CLI
never passes one, so counting passes are never timed.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, public function) -> layer.  Layers are named after modules.
LAYERS = {
    ("indmorse.cli", "main"): "cli",
    ("indmorse.graph_core", "graph_from_json"): "graph_core.load",
    ("indmorse.generators", "grid_spec_from_labels"): "generators.grid_spec_from_labels",
    ("indmorse.chordal", "is_chordal"): "chordal.is_chordal",
    ("indmorse.counts", "critical_fvector_recursive"): "counts.recursive",
    ("indmorse.counts", "grid_critical_fvector"): "counts.grid_closed",
    ("indmorse.counts", "grid_count_table"): "counts.grid_closed",
    ("indmorse.morse", "build_chordal_matching"): "morse.build",
    ("indmorse.morse", "build_auto"): "morse.build",
    ("indmorse.morse", "build_grid_matching"): "morse.build",
    ("indmorse.complexes", "independence_complex"): "complexes.independence_complex",
    ("indmorse.complexes", "is_maximal"): "complexes.is_maximal",
    ("indmorse.matching", "verify_matching"): "matching.verify_matching",
    ("indmorse.matching", "verify_acyclic"): "matching.verify_acyclic",
    ("indmorse.matching", "critical_simplices"): "matching.critical_simplices",
    ("indmorse.matching", "generalized_vpath_reachable"): "homotopy.vpath",
    ("indmorse.homotopy", "classify"): "homotopy.classify",
    ("indmorse.homotopy", "check_domination_bound"): "homotopy.domination",
    ("indmorse.homology", "homology_integer"): "homology.integer",
}
# The benchmark's own per-item span, parent of everything else.
ROOT = "bench"


class Recorder:
    """Spans kept in memory, with self time and call counts per layer and
    the work counters the wrappers read off arguments and results."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self._open: list[int] = []
        self._covered: list[float] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def call(self, layer: str, fn, *args, **kwargs):
        span = [layer, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        self._covered.append(0.0)
        span[1] = start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = end = perf_counter()
            self._open.pop()
            self.self_s[layer] += end - start - self._covered.pop()
            self.calls[layer] += 1
            if self._covered:
                self._covered[-1] += end - start

    def snapshot(self) -> Counter:
        """Call counts and work counters so far, as one deterministic block."""
        block = Counter(self.counts)
        block["matching.calls"] = sum(
            self.calls[k]
            for k in ("matching.verify_matching", "matching.verify_acyclic", "matching.critical_simplices")
        )
        block["chordal.is_chordal_calls"] = self.calls["chordal.is_chordal"]
        block["homotopy.vpath_calls"] = self.calls["homotopy.vpath"]
        return block


def _count_build(rec: Recorder, trace: dict, result) -> None:
    rec.counts["morse.pairs"] += len(result.pairs)
    rec.counts["morse.nodes"] += len(trace)
    for node in trace.values():
        rec.counts["morse.child_refs"] += len(node["children"])
        rec.counts[f"morse.rule.{node['rule']}"] += 1


def _counting_wrapper(rec: Recorder, layer: str, fn):
    if layer == "morse.build":
        # Builds report their recursion through the optional trace dict;
        # supply one when the caller did not.
        def build(*args, **kwargs):
            if kwargs.get("trace") is None:
                kwargs["trace"] = {}
            result = rec.call(layer, fn, *args, **kwargs)
            _count_build(rec, kwargs["trace"], result)
            return result

        return build
    if layer == "complexes.independence_complex":
        def complex_(*args, **kwargs):
            x = rec.call(layer, fn, *args, **kwargs)
            rec.counts["complexes.faces"] += len(x.faces)
            return x

        return complex_
    if layer == "homology.integer":
        def homology(x, *args, **kwargs):
            profile = rec.call(layer, fn, x, *args, **kwargs)
            rec.counts["homology.simplices"] += len(x.faces) - 1
            # Computed, not observed: a d-simplex has d + 1 boundary entries.
            rec.counts["homology.boundary_nnz"] += sum(
                k for k in map(int.bit_count, x.faces) if k >= 2
            )
            return profile

        return homology
    return _wrapper(rec, layer, fn)


def _wrapper(rec: Recorder, layer: str, fn):
    def traced(*args, **kwargs):
        return rec.call(layer, fn, *args, **kwargs)

    return traced


@contextmanager
def instrument(rec: Recorder, count: bool = False):
    """Route every LAYERS function through `rec` until the block exits;
    with `count`, also gather the work counters."""
    make = _counting_wrapper if count else _wrapper
    wrappers = {}
    for (module, name), layer in LAYERS.items():
        fn = getattr(sys.modules[module], name)
        wrappers[id(fn)] = (fn, make(rec, layer, fn))
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "indmorse" and not module_name.startswith("indmorse."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    try:
        yield rec
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
