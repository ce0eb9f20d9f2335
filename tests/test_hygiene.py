"""Source hygiene: every private top-level function of the package is used,
README states the package's line count and the value of every cap, every
function the benchmark traces exists, and the benchmark's own code runs a
few instances of each workload."""

import ast
import importlib
import inspect
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import indmorse

SRC = Path(indmorse.__file__).resolve().parent


def _references(node: ast.AST):
    """Names read inside node: bare names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_private_function_is_referenced():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    used = Counter(name for tree in trees.values() for name in _references(tree))
    unused = []
    for filename, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            # Recursive calls inside the function's own body do not count.
            own = sum(1 for ref in _references(node) if ref == name)
            if used[name] == own:
                unused.append(f"{filename}:{node.lineno} {name}")
    assert not unused, f"private functions never referenced in src/: {unused}"


def test_every_traced_function_is_in_src():
    # bench/spans.py wraps each (module, name) of its LAYERS by name; one
    # that no longer resolves would fail the benchmark run, not the tests.
    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "bench" / "spans.py").read_text(encoding="utf-8"))
    (layers,) = (
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    keys = [ast.literal_eval(key) for key in layers.keys]
    assert len(keys) >= 10, keys
    missing = []
    for module, name in keys:
        fn = getattr(importlib.import_module(module), name, None)
        if not (
            inspect.isfunction(fn)
            and Path(inspect.getsourcefile(fn)).resolve().parent == SRC
        ):
            missing.append(f"{module}.{name}")
    assert not missing, f"bench/spans.py traces functions missing from src/: {missing}"


def test_readme_states_the_src_line_count():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"`src/` is ([\d,]+) lines of Python", readme)
    assert stated, "README no longer states the src/ line count"
    lines = sum(
        path.read_text(encoding="utf-8").count("\n")
        for path in (root / "src" / "indmorse").glob("*.py")
    )
    assert int(stated.group(1).replace(",", "")) == lines


def test_readme_states_every_cap():
    # Every module-level *_CAP constant in src/ has its value in the README's
    # caps paragraph, written with thousands separators.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    (caps_text,) = [
        para for para in readme.split("\n\n")
        if para.startswith("Deliberate capability caps")
    ]
    caps = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.endswith("_CAP"):
                        caps[target.id] = ast.literal_eval(node.value)
    assert len(caps) >= 5, caps
    missing = [
        name for name, value in sorted(caps.items())
        if not re.search(rf"(?<!\d)(?<!\d,){value:,}(?!,?\d)", caps_text)
    ]
    assert not missing, f"README caps paragraph omits {missing}"


CONSTRUCTION = {"morse", "matching", "counts", "homotopy"}


def _imported_modules(path: Path):
    """The modules a file imports from; a name imported from the package
    itself counts as an import from the module that defines it."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.removeprefix("indmorse.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("indmorse.")
            if module not in ("", "indmorse"):
                yield module
                continue
            for alias in node.names:
                value = getattr(indmorse, alias.name, None)
                owner = getattr(value, "__module__", None) or getattr(value, "__name__", "")
                yield owner.removeprefix("indmorse.")


def test_oracles_import_nothing_from_the_construction():
    # complexes.py holds the faces and the maximality test every gate reads.
    root = Path(__file__).resolve().parents[1]
    for path in (SRC / "homology.py", SRC / "complexes.py", root / "tests" / "oracles.py"):
        shared = set(_imported_modules(path)) & CONSTRUCTION
        assert not shared, f"{path.name} imports from {sorted(shared)}"
    # The pairwise grid and power-graph rules in oracles.py check the
    # generators' cell-mask rows, so they must not reach that kernel.
    assert "generators" not in set(_imported_modules(root / "tests" / "oracles.py"))


def test_acceptance_gates_never_name_the_certificate():
    # A gate that read the construction's own certificate would check the
    # construction against itself.
    path = Path(__file__).resolve().parent / "test_acceptance.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set(_references(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert not names & {"certify_tree", "classify_tree"}


def test_classify_never_names_the_certificate():
    # The gates classify through homotopy.classify, which must verify the
    # field itself rather than lean on the construction's certificate.
    tree = ast.parse((SRC / "homotopy.py").read_text(encoding="utf-8"))
    (classify,) = (
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "classify"
    )
    assert not set(_references(classify)) & {"certify_tree", "classify_tree"}


def test_only_matching_names_the_certificate_slot():
    # check_field keeps its certificate in the complex's instance dict; code
    # elsewhere that named the slot could fill it without the checks.
    root = Path(__file__).resolve().parents[1]
    files = sorted(SRC.glob("*.py")) + sorted((root / "tests").glob("*.py"))
    naming = {
        path.name
        for path in files
        if path.name != Path(__file__).name
        and "_field_certificate" in path.read_text(encoding="utf-8")
    }
    assert naming == {"matching.py"}


def _called_names(tree: ast.AST):
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Call):
            func = sub.func
            yield func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_the_count_rule_lives_once_in_morse():
    # A node's critical counts follow from its children's by one rule,
    # morse._assemble_counts, which the builds, the certificate and the count
    # route share; only check_field histograms a critical set.
    from indmorse import counts, morse

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "matching.py":
            assert "critical_fvector_of" not in set(_called_names(tree)), path.name
        if path.name != "morse.py":
            defined = {
                node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            assert not defined & {"_assemble_counts", "_trim"}, path.name
            assert not [name for name in defined if "assemble" in name], path.name
    assert counts._assemble_counts is morse._assemble_counts


def test_the_homology_oracle_reads_no_gate_cache():
    # Complexes keep the maximality gate's 1-skeleton table and the field
    # check's certificate; an oracle that read either would lean on those
    # checks.
    path = SRC / "homology.py"
    text = path.read_text(encoding="utf-8")
    for name in ("_skeleton", "_non_maximal", "_field_certificate"):
        assert name not in text, name
    called = set(_called_names(ast.parse(text)))
    assert not called & {"is_maximal", "_non_maximal"}


def test_one_maximality_path():
    # Every maximality question is answered by complexes._non_maximal from
    # the 1-skeleton table; no per-size facet set is left.
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "facets_of" not in text and "_facet_sets" not in text, path.name
        readers = {
            fn.name for fn in ast.walk(ast.parse(text))
            if isinstance(fn, ast.FunctionDef)
            and any(isinstance(n, ast.Attribute) and n.attr == "_skeleton" for n in ast.walk(fn))
        }
        assert readers <= {"_non_maximal"}, path.name


def test_one_maximum_cardinality_search_per_graph():
    # chordal._peo runs the search once per graph, checking its order as it
    # goes, and keeps the order; a driver that called the search itself
    # could run it at every node.  maximum_cardinality_search is the same
    # search without the check, and does not run inside the library.
    callers = {"maximum_cardinality_search": set(), "_mcs_masked": set()}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", "<module>")
            for name in set(_called_names(node)) & callers.keys():
                callers[name].add(f"{path.stem}.{owner}")
    assert callers == {
        "maximum_cardinality_search": set(),
        "_mcs_masked": {"chordal.maximum_cardinality_search", "chordal._peo"},
    }


def _functions(tree: ast.Module):
    """A module's top-level functions and class methods by qualified name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub


def test_one_mirror_of_upper_rows():
    # graph_core._mirrored is the one routine that builds the rows below the
    # diagonal from those above it, and the file reader and the checked
    # constructor both call it.  Besides it, only from_edges, which sets
    # both ends of each edge, ORs bits into a row in graph_core.
    callers, setters = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for name, node in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            if "_mirrored" in set(_called_names(node)):
                callers.add(f"{path.stem}.{name}")
            if path.name == "graph_core.py" and any(
                isinstance(sub, ast.AugAssign)
                and isinstance(sub.op, ast.BitOr)
                and isinstance(sub.target, ast.Subscript)
                for sub in ast.walk(node)
            ):
                setters.add(name)
    assert callers == {"graph_core.Graph.__post_init__", "graph_core.graph_from_json"}
    assert setters == {"Graph.from_edges", "_mirrored"}


def test_benchmark_workloads_run_on_a_few_instances(tmp_path, monkeypatch):
    # bench/ reads the results' attributes and the builds' trace= through its
    # own code; a change to either would otherwise fail the benchmark run,
    # not the tests.  The modules are imported as bench/run.py imports them,
    # and nothing is written under bench/.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    for name, workload in workloads.WORKLOADS.items():
        planned = workload.plan(random.Random(f"{name}-12345"))
        instances = planned[:3] + planned[-2:]
        for inst in instances:
            inst.graph = inst.make()
        workloads.fill_expected(workload, instances)
        rec = spans.Recorder()
        with spans.instrument(rec, count=True):
            for i, inst in enumerate(instances):
                if workload.uses_cli:
                    graph_path, out_path = tmp_path / f"{name}-{i}.json", tmp_path / "out.json"
                    graph_path.write_text(json.dumps(indmorse.graph_to_json(inst.graph)))
                    assert workloads.run_cli(inst, graph_path, out_path) == 0, inst.name
                    problems = workloads.check_cli(inst, workloads.read_report(out_path))
                else:
                    problems = workloads.check_corpus(workloads.run_corpus(inst))
                assert problems == [], (name, inst.name, problems)
        if name in ("corpus", "explicit_large"):
            assert rec.snapshot()["morse.nodes"] > 0, name
