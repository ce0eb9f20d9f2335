"""End-to-end tests for the command-line interface.

Every test drives ``main(argv)`` directly and inspects the JSON written to
stdout or to ``--out`` files, plus the process exit code contract:
0 success, 1 verification/consistency failure, 2 input error, 3 unsupported.
"""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from indmorse import (
    CapabilityError,
    chordal,
    cli,
    complexes,
    counts,
    generators,
    graph_from_json,
    graph_to_json,
    grid_graph,
    homology,
    homotopy,
    matching,
    morse,
    random_chordal,
    standard_graph,
)
from indmorse.cli import main
from oracles import is_alternating_cycle
from test_generators import small_specs
from test_graph_core import edge_list_json, graphs
from test_homotopy import random_non_chordal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def write_graph(tmp_path, name, n, edges, labels=None):
    obj = {"n": n, "edges": edges}
    if labels is not None:
        obj["labels"] = labels
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def p5(tmp_path):
    return write_graph(tmp_path, "p5.json", 5, [[0, 1], [1, 2], [2, 3], [3, 4]])


@pytest.fixture
def c4(tmp_path):
    return write_graph(tmp_path, "c4.json", 4, [[0, 1], [1, 2], [2, 3], [0, 3]])


# ── gen ──────────────────────────────────────────────────────

def test_gen_grid_unit(capsys):
    code, data, _ = run_json(
        capsys, "gen", "grid", "--m", "1", "--n", "1", "--sizes", "1,1,1,1"
    )
    assert code == 0
    assert data["n"] == 4
    assert data["labels"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    edges = set(graph_from_json(data).edges())
    assert edges == {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}


def test_gen_grid_wrong_sizes_arity(capsys):
    code, out, err = run(
        capsys, "gen", "grid", "--m", "1", "--n", "1", "--sizes", "1,1,1"
    )
    assert code == 2
    assert out == ""
    assert "--sizes needs 4 entries" in err


def test_gen_power_z6(capsys):
    code, data, _ = run_json(
        capsys, "gen", "power", "--p", "2", "--q", "3", "--m", "1", "--n", "1"
    )
    assert code == 0
    assert data["n"] == 6
    # K6 minus the two pairs joining the order-2 element to the order-3 ones.
    assert len(graph_from_json(data).edges()) == 13


def test_gen_standard_kinds(capsys):
    code, data, _ = run_json(capsys, "gen", "cycle", "--n", "5")
    assert code == 0
    assert data["n"] == 5 and len(graph_from_json(data).edges()) == 5

    code, data, _ = run_json(capsys, "gen", "empty", "--n", "3")
    assert code == 0
    assert graph_from_json(data).edges() == []


def test_gen_chordal_random_seed_determinism(capsys):
    runs = [
        run(capsys, "gen", "chordal-random", "--n", "9", "--density", "0.5",
            "--seed", "42")
        for _ in range(2)
    ]
    assert runs[0] == runs[1] and runs[0][0] == 0

    code, other, _ = run(
        capsys, "gen", "chordal-random", "--n", "9", "--density", "0.5",
        "--seed", "43"
    )
    assert code == 0 and other != runs[0][1]


def test_gen_without_kind(capsys):
    assert run(capsys, "gen")[0] == 2


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage:" in out


# ── analyze ──────────────────────────────────────────────────

def test_analyze_path_explicit(capsys, p5):
    code, data, _ = run_json(capsys, "analyze", p5)
    assert code == 0
    assert data["mode"] == "explicit"
    assert data["driver"] == "auto"
    assert data["critical_f"] == [1, 1]
    assert data["homotopy"] == {"wedge": [0, 1]}
    assert data["special_zero"] is not None
    assert data["graph"]["chordal"] is True
    assert "betti" not in data and "timings" not in data


def test_analyze_oracle_and_gamma(capsys, p5):
    code, data, _ = run_json(
        capsys, "analyze", p5, "--driver", "chordal", "--oracle", "--gamma"
    )
    assert code == 0
    assert data["driver"] == "chordal"
    assert data["betti"] == [1, 1, 0]
    assert data["torsion_free"] == [True, True, True]
    assert data["oracle_consistent"] is True
    assert data["gamma"] == 2
    assert data["gamma_bound_ok"] is True


def test_analyze_auto_rejects_cycle(capsys, c4):
    code, out, err = run(capsys, "analyze", c4)
    assert code == 3
    assert out == ""
    assert "error:" in err


def test_analyze_counts_grid_with_table(capsys, tmp_path):
    gpath = str(tmp_path / "grid.json")
    assert run(
        capsys, "gen", "grid", "--m", "1", "--n", "1", "--sizes", "1,1,1,1",
        "--out", gpath,
    )[0] == 0
    code, data, _ = run_json(
        capsys, "analyze", gpath, "--mode", "counts", "--driver", "grid",
        "--table",
    )
    assert code == 0
    assert data["critical_f"] == [3]
    assert data["homotopy"] == {"wedge": [2]}
    assert data["table"] == {"0,1": [1]}
    assert data["graph"]["grid"] == {"m": 1, "n": 1, "sizes": [[1, 1], [1, 1]]}


def test_analyze_counts_chordal(capsys, p5):
    code, data, _ = run_json(capsys, "analyze", p5, "--mode", "counts")
    assert code == 0
    assert data["critical_f"] == [1, 1]
    assert data["homotopy"] == {"wedge": [0, 1]}
    assert "special_zero" not in data


def test_analyze_counts_chordal_driver_rejects_cycle(capsys, c4):
    code = run(capsys, "analyze", c4, "--mode", "counts", "--driver", "chordal")[0]
    assert code == 2


def test_analyze_counts_auto_rejects_cycle(capsys, c4):
    assert run(capsys, "analyze", c4, "--mode", "counts")[0] == 3


def test_analyze_empty_graph_exits_2_in_both_modes(capsys, tmp_path):
    g = write_graph(tmp_path, "k0.json", 0, [])
    for mode in ("explicit", "counts"):
        for driver in ("auto", "chordal"):
            code, out, err = run(
                capsys, "analyze", g, "--mode", mode, "--driver", driver
            )
            assert code == 2
            assert out == ""
            assert err == (
                "error: a nonempty complex has at least one critical simplex\n"
            )


def _limited_cli(argv, limit: int) -> subprocess.CompletedProcess:
    """``python -m indmorse *argv`` in a child whose address space alone is
    limited to ``limit`` bytes, with this checkout's package on its path."""
    src = os.path.dirname(os.path.dirname(inspect.getsourcefile(main)))
    search = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "indmorse", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": search},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_analyze_out_of_memory_exits_2_with_one_error_line(tmp_path, p5):
    # Mirroring K_6000's hex rows (a 4.5 MB file) needs more than a 60 MB
    # address space, which path-5 answers within.  The limit is set in the
    # child alone.
    limit = 60 << 20
    n = 6000
    big = tmp_path / "k6000.json"
    rows = [format((1 << n - v - 1) - 1, "x") for v in range(n)]
    big.write_text(json.dumps({"n": n, "rows": rows}), encoding="utf-8")

    def analyze_counts(path):
        return _limited_cli(["analyze", "--mode", "counts", path], limit)

    control = analyze_counts(p5)
    assert control.returncode == 0, control.stderr
    over = analyze_counts(str(big))
    assert (over.returncode, over.stdout, over.stderr) == (2, "", "error: out of memory\n")


# Every reader of a graph file, each run on a 32-vertex graph at the
# explicit cap whose complex is far past every face cap: 2^32 faces for
# empty-32, about 5.7M for path-32.
LIMITED_READERS = {
    "analyze": ["analyze"],
    "analyze-oracle": ["analyze", "--oracle"],
    "analyze-gamma": ["analyze", "--gamma"],
    "analyze-counts": ["analyze", "--mode", "counts"],
    "match-pairs": ["match", "--pairs"],
    "match-dot": ["match", "--dot", "{dot}"],
    "compare": ["compare"],
    "homology": ["homology"],
    "verify": ["verify", "{matching}"],
}


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize("kind", ["empty", "path"])
@pytest.mark.parametrize("reader", list(LIMITED_READERS))
def test_readers_answer_within_a_gigabyte(tmp_path, kind, reader):
    # Under a 1 GB address space, set in the child alone, each reader exits
    # 0-3 with a JSON report or with one error line: never a traceback.
    graph = tmp_path / f"{kind}-32.json"
    graph.write_text(json.dumps(graph_to_json(standard_graph(kind, 32))), encoding="utf-8")
    matching = tmp_path / "empty-matching.json"
    matching.write_text("[]", encoding="utf-8")
    command, *rest = LIMITED_READERS[reader]
    rest = [a.format(dot=tmp_path / "hasse.dot", matching=matching) for a in rest]
    done = _limited_cli([command, str(graph), *rest], 1 << 30)
    assert done.returncode in (0, 1, 2, 3), done.stderr
    if done.returncode in (0, 1):
        assert done.stderr == ""
        json.loads(done.stdout)
    else:
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


def test_analyze_seed_and_timings_keys(capsys, p5):
    code, data, _ = run_json(
        capsys, "analyze", p5, "--seed", "7", "--timings"
    )
    assert code == 0
    assert data["seed"] == 7
    assert "build_s" in data["timings"] and "total_s" in data["timings"]


def test_analyze_from_stdin(capsys, monkeypatch):
    payload = json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]})
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, data, _ = run_json(capsys, "analyze", "-")
    assert code == 0
    assert data["critical_f"] == [2]


# ── match / verify round trip ────────────────────────────────

def test_match_then_verify_roundtrip(capsys, p5, tmp_path):
    mpath = str(tmp_path / "match.json")
    code, _, _ = run(capsys, "match", p5, "--pairs", "--out", mpath)
    assert code == 0
    saved = json.loads(open(mpath, encoding="utf-8").read())
    assert saved["critical_f"] == [1, 1]
    assert saved["driver"] == "auto"
    assert all(len(b) == len(a) + 1 for a, b in saved["pairs"])

    # The match output embeds a "pairs" key, so it doubles as verify input.
    code, data, _ = run_json(capsys, "verify", p5, mpath)
    assert code == 0
    assert data["ok"] is True
    assert data["critical_f"] == [1, 1]
    assert len(data["critical"]["0"]) == 1 and len(data["critical"]["1"]) == 1


def test_verify_explicit_field(capsys, tmp_path):
    g = write_graph(tmp_path, "e2.json", 2, [])
    m = tmp_path / "m.json"
    m.write_text(json.dumps([[[], [0]], [[1], [0, 1]]]), encoding="utf-8")
    code, data, _ = run_json(capsys, "verify", g, str(m))
    assert code == 0
    assert data == {"ok": True, "critical_f": [1], "critical": {"0": [[0]]}}


def test_verify_shared_simplex_fails(capsys, tmp_path):
    g = write_graph(tmp_path, "e3.json", 3, [])
    m = tmp_path / "m.json"
    m.write_text(json.dumps([[[], [0]], [[], [1]]]), encoding="utf-8")
    code, data, _ = run_json(capsys, "verify", g, str(m))
    assert code == 1
    assert data["ok"] is False
    assert "error" in data


def test_verify_cyclic_triangle_field_fails(capsys, tmp_path):
    # The triangle's rim carries a cyclic field; the second file adds a
    # tail {0} -> {1} into the rim on {1, 2, 3}.
    rim = [[[0], [0, 1]], [[1], [1, 2]], [[2], [0, 2]]]
    tail = [[[1], [1, 2]], [[2], [2, 3]], [[3], [1, 3]], [[0], [0, 1]]]
    for n, pairs in ((3, rim), (4, tail)):
        g = write_graph(tmp_path, f"e{n}.json", n, [])
        m = tmp_path / "m.json"
        m.write_text(json.dumps(pairs), encoding="utf-8")
        code, data, _ = run_json(capsys, "verify", g, str(m))
        assert code == 1
        assert data["ok"] is False
        assert data["error"] == "matching has a directed cycle"
        cycle = [_mask(vs) for vs in data["cycle"]]
        assert is_alternating_cycle(cycle, [(_mask(a), _mask(b)) for a, b in pairs])


def _mask(vertices):
    return sum(1 << v for v in vertices)


def test_verify_bad_vertex_in_pair(capsys, tmp_path):
    g = write_graph(tmp_path, "e2.json", 2, [])
    m = tmp_path / "m.json"
    m.write_text(json.dumps([[[0], [0, 5]]]), encoding="utf-8")
    assert run(capsys, "verify", g, str(m))[0] == 2
    # A simplex that is not a list, or a null vertex, is an input error too.
    for pairs in ([[5, [0, 1]]], [[[None], [0, 1]]]):
        m.write_text(json.dumps(pairs), encoding="utf-8")
        code, out, err = run(capsys, "verify", g, str(m))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed pair ")


def test_verify_cap_is_checked_before_the_complex(capsys, tmp_path):
    # I(empty-24) has 2^24 faces; only the first 500,001 are counted.
    e24 = write_graph(tmp_path, "e24.json", 24, [])
    m = tmp_path / "m.json"
    m.write_text("[]", encoding="utf-8")
    tracemalloc.start()
    try:
        result = run(capsys, "verify", e24, str(m))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (2, "", "error: verify is limited to 500000 faces\n")
    assert peak < 32 * 2**20, peak
    e4 = write_graph(tmp_path, "e4.json", 4, [])
    code, data, _ = run_json(capsys, "verify", e4, str(m))
    assert code == 0
    assert data["ok"] is True and data["critical_f"] == [4, 6, 4, 1]


def test_match_dot_dump(capsys, tmp_path):
    g = write_graph(tmp_path, "p3.json", 3, [[0, 1], [1, 2]])
    dot = tmp_path / "hasse.dot"
    code, data, _ = run_json(capsys, "match", g, "--dot", str(dot))
    assert code == 0
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph hasse {")
    # I(P3) has five cover relations, two of them matched (drawn in red):
    # five faces including the empty set, two critical, so two pairs.
    assert data["critical_f"] == [2]
    arrows = [ln for ln in text.splitlines() if "->" in ln]
    assert len(arrows) == 5
    assert sum("[color=red]" in ln for ln in arrows) == 2


def test_match_dot_respects_cap(capsys, tmp_path):
    g = write_graph(tmp_path, "e8.json", 8, [])
    code = run(capsys, "match", g, "--dot", str(tmp_path / "x.dot"))[0]
    assert code == 2


def test_match_dot_cap_is_checked_before_the_complex(capsys, tmp_path):
    # I(empty-20) has 2^20 faces; only the first 201 are counted.
    g = write_graph(tmp_path, "e20.json", 20, [])
    dot = tmp_path / "x.dot"
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "match", g, "--dot", str(dot))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: DOT dump is limited to 200 simplices\n"
    assert not dot.exists()
    assert peak < 4 * 2**20, peak


def test_match_pairs_cap_is_checked_before_the_pairs(capsys, tmp_path):
    # K_2 joined to 25 independent vertices: its build is small, but I(G)
    # has 2^25 + 2 faces; only the first 500,001 are counted.
    n = 27
    edges = [[0, 1]] + [[a, v] for a in (0, 1) for v in range(2, n)]
    g = write_graph(tmp_path, "book25.json", n, edges)
    tracemalloc.start()
    try:
        result = run(capsys, "match", g, "--pairs")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (2, "", "error: match --pairs is limited to 500000 faces\n")
    assert peak < 32 * 2**20, peak
    code, data, _ = run_json(capsys, "match", g)
    # I(G) is a 24-simplex and two points.
    assert code == 0 and data["critical_f"] == [3]


# ── homology / compare ───────────────────────────────────────

def test_homology_cycle5(capsys, tmp_path):
    g = write_graph(
        tmp_path, "c5.json", 5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]
    )
    code, data, _ = run_json(capsys, "homology", g)
    assert code == 0
    assert data == {"betti": [1, 1], "torsion_free": [True, True]}


HOMOLOGY_CAP_ERROR = "error: integer homology is limited to 50000 simplices\n"


def test_homology_cap_is_checked_before_the_complex(capsys, tmp_path, monkeypatch):
    # I(path-25) has 196,417 simplices; the count stops past 50,001 faces.
    p25 = write_graph(tmp_path, "p25.json", 25, [[i, i + 1] for i in range(24)])
    c25 = write_graph(tmp_path, "c25.json", 25, [[i, (i + 1) % 25] for i in range(25)])
    # The check follows the vertex cap, whose error stands.
    p33 = write_graph(tmp_path, "p33.json", 33, [[i, i + 1] for i in range(32)])
    assert run(capsys, "homology", p33) == (
        2, "", "error: explicit complexes are limited to 32 vertices\n"
    )

    def refuse(*args):
        raise AssertionError("the complex was built")

    # independence_complex enumerates the faces up to the cap and builds no
    # complex past it.
    monkeypatch.setattr(complexes, "SimplicialComplex", refuse)
    for argv in (("homology", p25), ("analyze", p25, "--oracle"), ("compare", p25)):
        assert run(capsys, *argv) == (2, "", HOMOLOGY_CAP_ERROR), argv
    # The check follows the build, whose verdict on a cycle stands.
    for argv in (("compare", c25), ("analyze", c25, "--oracle")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: no simplicial vertex"), argv


def test_homology_cap_refuses_a_billion_faces_in_a_few_megabytes(capsys, tmp_path):
    e30 = write_graph(tmp_path, "e30.json", 30, [])
    tracemalloc.start()
    try:
        result = run(capsys, "homology", e30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (2, "", HOMOLOGY_CAP_ERROR)
    assert peak < 8 * 2**20, peak


def test_homology_cap_check_agrees_with_the_oracle(capsys, tmp_path, monkeypatch):
    # I(empty-4) has 15 nonempty simplices: a cap of 15 admits it, 14 does not.
    e4 = write_graph(tmp_path, "e4.json", 4, [])
    for cap, want in ((15, 0), (14, 2)):
        monkeypatch.setattr(cli, "HOMOLOGY_SIMPLEX_CAP", cap)
        monkeypatch.setattr(homology, "HOMOLOGY_SIMPLEX_CAP", cap)
        code, out, err = run(capsys, "homology", e4)
        assert code == want
        if want:
            assert out == ""
            assert err == f"error: integer homology is limited to {cap} simplices\n"
        else:
            assert json.loads(out)["betti"] == [1, 0, 0, 0]
    # The oracle itself refuses at the same count.
    x = complexes.independence_complex(standard_graph("empty", 4))
    with pytest.raises(CapabilityError):
        homology.homology_integer(x)


def test_compare_chordal(capsys, p5):
    code, data, _ = run_json(capsys, "compare", p5)
    assert code == 0
    assert data["agree"] is True
    assert data["driver"] == "chordal"
    assert data["critical_f"] == data["counts_f"] == [1, 1]
    assert "grid_f" not in data


def test_compare_grid(capsys, tmp_path):
    gpath = str(tmp_path / "grid.json")
    run(capsys, "gen", "grid", "--m", "2", "--n", "1",
        "--sizes", "1,2,2,1,1,2", "--out", gpath)
    code, data, _ = run_json(capsys, "compare", gpath)
    assert code == 0
    assert data["agree"] is True
    assert data["driver"] == "grid"
    assert data["grid_f"] == data["critical_f"] == data["counts_f"]


def test_grid_spec_derived_once_per_route(capsys, tmp_path, monkeypatch):
    gpath = str(tmp_path / "grid.json")
    run(capsys, "gen", "grid", "--m", "1", "--n", "1",
        "--sizes", "1,2,2,1", "--out", gpath)
    calls = []

    def counted(g):
        calls.append(g.n)
        return generators.grid_spec_from_labels(g)

    monkeypatch.setattr(cli, "grid_spec_from_labels", counted)
    monkeypatch.setattr(morse, "grid_spec_from_labels", counted)
    # The summary derives the spec once; build_grid_matching checks it again.
    for argv, want in (
        (("analyze", gpath, "--mode", "counts", "--driver", "grid"), 1),
        (("analyze", gpath, "--driver", "grid"), 2),
        (("compare", gpath), 2),
    ):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == want, argv


def test_one_peo_search_per_run(capsys, p5, c4, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, kwargs.get("check", False)))
            return fn(*args, **kwargs)

        return wrapper

    for name in ("_mcs_masked", "maximum_cardinality_search"):
        monkeypatch.setattr(chordal, name, counted(getattr(chordal, name)))
    # The summary's chordality check and the count route or the chordal
    # driver share one search, which checks its order as it goes: no
    # second search and no separate check of the order.
    for argv, want in (
        (("analyze", p5, "--mode", "counts", "--driver", "chordal"), 0),
        (("analyze", p5, "--mode", "counts"), 0),
        (("analyze", c4, "--mode", "counts"), 3),
        (("analyze", p5, "--driver", "chordal"), 0),
        (("compare", p5), 0),
    ):
        calls.clear()
        assert run(capsys, *argv)[0] == want, argv
        assert calls == [("_mcs_masked", True)], argv


def test_explicit_analyze_builds_no_complex_without_the_oracle(
    capsys, p5, tmp_path, monkeypatch
):
    gpath = str(tmp_path / "grid.json")
    run(capsys, "gen", "grid", "--m", "2", "--n", "1",
        "--sizes", "1,2,2,1,1,2", "--out", gpath)
    mpath = str(tmp_path / "match.json")
    assert run(capsys, "match", p5, "--pairs", "--out", mpath)[0] == 0
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    wrapped = {
        name: counted(fn)
        for name, fn in (
            ("independence_complex", complexes.independence_complex),
            ("check_field", matching.check_field),
        )
    }
    for module in (cli, homotopy, morse):
        for name, wrapper in wrapped.items():
            monkeypatch.setattr(module, name, wrapper, raising=False)
    # Explicit analyze is certified on the recursion tree; the oracle builds
    # the complex for homology alone, and verify and compare still check the
    # field on it.
    for argv, want in (
        (("analyze", p5), []),
        (("analyze", p5, "--driver", "chordal", "--gamma"), []),
        (("analyze", gpath, "--driver", "grid"), []),
        (("analyze", gpath), []),
        (("analyze", p5, "--oracle"), ["independence_complex"]),
        (("analyze", gpath, "--driver", "grid", "--oracle", "--gamma"),
         ["independence_complex"]),
        (("compare", p5), ["independence_complex", "check_field"]),
        (("compare", gpath), ["independence_complex", "check_field"]),
        (("verify", p5, mpath), ["independence_complex", "check_field"]),
    ):
        calls.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert calls == want, argv


def test_each_complex_is_enumerated_once(capsys, p5, tmp_path, monkeypatch):
    # The face cap is checked on the enumeration the complex is built from.
    mpath = str(tmp_path / "match.json")
    assert run(capsys, "match", p5, "--pairs", "--out", mpath)[0] == 0
    masks = []
    independent_sets = complexes._independent_sets

    def counted(adj, mask, limit=None):
        masks.append(mask)
        return independent_sets(adj, mask, limit)

    for module in (complexes, cli):
        monkeypatch.setattr(module, "_independent_sets", counted, raising=False)
    for argv in (
        ("analyze", p5, "--oracle"),
        ("compare", p5),
        ("verify", p5, mpath),
        ("match", p5, "--dot", str(tmp_path / "p5.dot")),
    ):
        masks.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert masks == [0b11111], argv


def test_explicit_analyze_tests_no_cell_for_maximality(capsys, tmp_path):
    # Six K3 and two K4 side by side: I(G) is a wedge of 576 7-spheres, and
    # the build has 577 critical cells.  The certificate proves all but {v}
    # maximal, so the type is read off the counts, with no complex, no
    # per-cell test and no second classifier.
    cliques = [3] * 6 + [4] * 2
    edges, first = [], 0
    for size in cliques:
        pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
        edges += [[first + a, first + b] for a, b in pairs]
        first += size
    path = write_graph(tmp_path, "cliques.json", first, edges)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        code, report, _ = run_json(capsys, "analyze", path)
    finally:
        sys.setprofile(None)
    assert code == 0 and report["critical_f"] == [1] + [0] * 6 + [576]
    assert called & {"classify_tree", "certify_tree"}
    assert not {name for name in called if "maximal" in name}
    assert not called & {"independence_complex", "classify"}


def test_counts_and_explicit_analyze_agree_on_non_chordal_graphs(capsys, tmp_path):
    answered = 0
    for seed in range(60):
        g = random_non_chordal(seed)
        path = tmp_path / f"g{seed}.json"
        path.write_text(json.dumps(graph_to_json(g)), encoding="utf-8")
        explicit = run(capsys, "analyze", str(path), "--gamma")
        counts = run(capsys, "analyze", str(path), "--mode", "counts", "--gamma")
        assert explicit[0] == counts[0], seed
        if explicit[0] == 3:
            continue
        explicit, counts = json.loads(explicit[1]), json.loads(counts[1])
        assert explicit["graph"]["chordal"] is False
        assert counts["homotopy"] == explicit["homotopy"], seed
        assert counts["gamma_bound_ok"] is explicit["gamma_bound_ok"] is True, seed
        answered += 1
    assert answered > 30


def test_explicit_analyze_passes_no_trace_to_the_build(
    capsys, p5, tmp_path, monkeypatch
):
    gpath = str(tmp_path / "grid.json")
    run(capsys, "gen", "grid", "--m", "2", "--n", "1",
        "--sizes", "1,2,2,1,1,2", "--out", gpath)
    traces = []
    for name in ("build_auto", "build_chordal_matching", "build_grid_matching"):
        build = getattr(cli, name)

        def wrapper(*args, _build=build, **kwargs):
            bound = inspect.signature(_build).bind(*args, **kwargs)
            traces.append(bound.arguments.get("trace"))
            return _build(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)
    # The recursion tree certifies itself; no second record of it is kept.
    for argv in (
        ("analyze", p5),
        ("analyze", p5, "--driver", "chordal", "--gamma"),
        ("analyze", gpath, "--driver", "grid", "--oracle"),
    ):
        assert run(capsys, *argv)[0] == 0, argv
    assert traces == [None, None, None]


def test_explicit_analyze_enumerates_no_pairs(capsys, p5, tmp_path, monkeypatch):
    gpath = str(tmp_path / "grid.json")
    run(capsys, "gen", "grid", "--m", "2", "--n", "1",
        "--sizes", "1,2,2,1,1,2", "--out", gpath)
    enumerations = []
    independent_sets = morse._independent_sets

    def counted(adj, mask):
        enumerations.append(mask)
        return independent_sets(adj, mask)

    monkeypatch.setattr(morse, "_independent_sets", counted)
    # Pairs are derived from the recursion tree on first read, and explicit
    # analyze reads only the critical data.
    for argv in (
        ("analyze", p5),
        ("analyze", p5, "--driver", "chordal", "--gamma"),
        ("analyze", gpath, "--driver", "grid"),
        ("analyze", gpath),
    ):
        assert run(capsys, *argv)[0] == 0, argv
    assert enumerations == []
    assert run(capsys, "match", p5, "--pairs")[0] == 0
    assert enumerations


def test_explicit_analyze_memory_is_the_tree(capsys, tmp_path):
    # A cone with 2.35M faces and path-32 at the vertex cap (5.7M faces):
    # the recursion tree is a few kB.
    for name, g, homotopy in (
        ("cone", random_chordal(24, 0.35, 3), "collapsible"),
        ("path", standard_graph("path", 32), {"wedge": [0] * 10 + [1]}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(graph_to_json(g)), encoding="utf-8")
        tracemalloc.start()
        try:
            code, report, _ = run_json(capsys, "analyze", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and report["homotopy"] == homotopy, name
        assert peak < 4 * 2**20, (name, peak)


def test_count_table_filled_once(capsys, tmp_path, monkeypatch):
    gpath = str(tmp_path / "grid.json")
    run(capsys, "gen", "grid", "--m", "2", "--n", "1",
        "--sizes", "1,2,2,1,1,2", "--out", gpath)
    calls = []

    def counted(spec):
        calls.append(spec)
        return fill(spec)

    fill = counts._rectangle_table
    monkeypatch.setattr(counts, "_rectangle_table", counted)
    argv = ("analyze", gpath, "--mode", "counts", "--driver", "grid")
    code, plain, _ = run_json(capsys, *argv)
    assert code == 0 and len(calls) == 1
    calls.clear()
    code, tabled, _ = run_json(capsys, *argv, "--table")
    assert code == 0 and len(calls) == 1
    assert tabled["critical_f"] == plain["critical_f"]
    assert tabled["table"]


# ── output plumbing and errors ───────────────────────────────

def test_reports_are_byte_stable(capsys, p5, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        assert run(capsys, "analyze", p5, "--oracle", "--out", path)[0] == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_pretty_matches_compact(capsys, p5):
    _, compact, _ = run(capsys, "analyze", p5)
    _, pretty, _ = run(capsys, "analyze", p5, "--pretty")
    assert pretty.count("\n") > compact.count("\n")
    assert json.loads(pretty) == json.loads(compact)


def test_malformed_json_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(capsys, "analyze", str(bad))[0] == 2


def test_missing_file(capsys, tmp_path):
    assert run(capsys, "analyze", str(tmp_path / "nope.json"))[0] == 2


def test_malformed_graph_object(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2}), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "malformed graph JSON" in err or '"n" and "edges"' in err


@pytest.mark.parametrize("n", [2**62, 2**64])
def test_vertex_count_too_large_to_allocate_exits_2(capsys, tmp_path, n):
    # Both counts are refused before any row is allocated.
    path = write_graph(tmp_path, "huge.json", n, [])
    for argv in (("analyze", path), ("analyze", "--mode", "counts", path)):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: vertex count {n} is too large\n"


def test_row_count_too_large_to_allocate_exits_2(capsys, tmp_path):
    # The list's length is checked before any row is allocated.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 2**62, "rows": []}), encoding="utf-8")
    tracemalloc.start()
    try:
        result = run(capsys, "analyze", "--mode", "counts", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (2, "", f'error: "rows" must be a list of {2**62} hex strings\n')
    assert peak < 2**20, peak


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "rows": "10"},
        {"n": 2, "rows": {"0": "1"}},
        {"n": 2, "rows": ["1"]},
        {"n": 2, "rows": ["1", "0", "0"]},
        {"n": 2, "rows": ["1", 0]},
        {"n": 2, "rows": [1, "0"]},
        {"n": 2, "rows": ["1", None]},
        {"n": 2, "rows": ["", "0"]},
        {"n": 2, "rows": ["0x1", "0"]},
        {"n": 2, "rows": ["+1", "0"]},
        {"n": 3, "rows": ["1_0", "0", "0"]},
        {"n": 2, "rows": [" 1", "0"]},
        {"n": 2, "rows": ["A", "0"]},
        {"n": 2, "rows": ["2", "0"]},
        {"n": 2, "rows": ["1", "1"]},
        {"n": 3, "rows": ["4", "0", "0"]},
        {"n": 2, "rows": ["1", "0"], "edges": [[0, 1]]},
    ],
)
def test_malformed_rows_exit_2_with_one_error_line(capsys, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (("analyze", str(bad)), ("analyze", "--mode", "counts", str(bad))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "doc",
    [
        {"n": True, "edges": []},
        {"n": 2, "edges": [[0, 1.9]]},
        {"n": 2, "edges": [["0", "1"]]},
        {"n": 2, "edges": [[0, 1]], "labels": [[0, 0], [True, 1]]},
    ],
)
def test_graph_values_must_be_json_integers(capsys, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_pair_vertices_must_be_json_integers(capsys, tmp_path):
    g = write_graph(tmp_path, "p3.json", 3, [[0, 1], [1, 2]])
    m = tmp_path / "m.json"
    m.write_text(json.dumps([[[0], [0, 2]]]), encoding="utf-8")
    code, data, _ = run_json(capsys, "verify", g, str(m))
    assert code == 0 and data["ok"] is True
    for pairs in ([["0", "02"]], [[[0], [0, 2.0]]], [[[False], [0, 2]]]):
        m.write_text(json.dumps(pairs), encoding="utf-8")
        code, out, err = run(capsys, "verify", g, str(m))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed pair ")


@pytest.mark.parametrize(
    "text",
    ["[" * 200_000, '{"n": 2, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=["open-brackets", "nested-edges"],
)
def test_deeply_nested_json_exits_2_with_one_error_line(capsys, tmp_path, monkeypatch, text):
    g = write_graph(tmp_path, "p3.json", 3, [[0, 1], [1, 2]])
    deep = tmp_path / "deep.json"
    deep.write_text(text, encoding="utf-8")
    expected = (2, "", "error: malformed JSON: nested too deeply\n")
    # A graph file, a matching file, and each read from stdin.
    for argv in (("analyze", str(deep)), ("verify", g, str(deep)), ("analyze", "-"),
                 ("verify", g, "-")):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(capsys, *argv) == expected


# ── fuzz ─────────────────────────────────────────────────────

# Malformed or extreme values.  No value is an integer from 8 to 10**19, so
# a spoiled "n" never builds a graph with more than 7 vertices and every
# command finishes in milliseconds.  "1" and "ff" are rows, in range or not.
JUNK = st.sampled_from(
    [None, True, -1, 5, 10**20, 1.5, float("inf"), "x", "1", "ff", [], [2000, 2000]]
)
GRID_GRAPHS = [
    grid_graph(spec) for spec in small_specs(2, 2, 2) if spec.total_vertices() <= 7
]


def _spoil(draw, value):
    """Replace value, or one entry at some depth inside it, by a junk value."""
    if isinstance(value, list) and value and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        value[i] = _spoil(draw, value[i])
        return value
    return draw(JUNK)


@st.composite
def graph_docs(draw):
    """A graph document, in either form, labeled or not, with at most one
    spoiled entry: spoiling the other form's key adds it."""
    g = draw(st.one_of(graphs(7), st.sampled_from(GRID_GRAPHS)))
    doc = draw(st.sampled_from([graph_to_json, edge_list_json]))(g)
    if draw(st.booleans()):
        key = draw(st.sampled_from(["n", "edges", "rows", "labels"]))
        doc[key] = _spoil(draw, doc.get(key, []))
    return doc


@st.composite
def matching_docs(draw):
    """A list of [alpha, beta] pairs, bare or under "pairs", maybe spoiled."""
    simplex = st.lists(st.integers(0, 6), max_size=3, unique=True)
    pairs = draw(st.lists(st.lists(simplex, min_size=2, max_size=2), max_size=4))
    if draw(st.booleans()):
        pairs = _spoil(draw, pairs)
    return {"pairs": pairs} if draw(st.booleans()) else pairs


COMMANDS = [
    ["analyze", "--mode", mode, "--driver", driver, *extra]
    for mode in ("explicit", "counts")
    for driver in ("auto", "chordal", "grid")
    for extra in ([], ["--oracle", "--gamma", "--table"])
] + [
    [cmd, *extra]
    for cmd, extra in (
        ("match", ["--pairs"]),
        ("match", ["--pairs", "--driver", "chordal"]),
        ("match", ["--pairs", "--driver", "grid"]),
        ("compare", []),
        ("homology", []),
    )
]


FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _main_on_docs(command, docs, flags):
    """Run ``main`` on the documents written to files and check its exit
    code, and that stdout is JSON on 0 and 1 and stderr an error otherwise."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, doc in enumerate(docs):
            paths.append(os.path.join(tmp, f"{k}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *paths, *flags])
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


@FUZZ
@given(graph=st.one_of(graph_docs(), JUNK), command=st.sampled_from(COMMANDS))
def test_cli_fuzz_exits_with_a_documented_code(graph, command):
    _main_on_docs(command[0], [graph], command[1:])


@FUZZ
@given(graph=graph_docs(), matching=matching_docs())
def test_cli_fuzz_verify_exits_with_a_documented_code(graph, matching):
    _main_on_docs("verify", [graph, matching], [])
