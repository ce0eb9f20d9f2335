"""Compare two checkouts of indmorse on fixed seeded families, in-process.

    python tests/sweep.py --against OTHER_CHECKOUT [--families a,b]

Each side runs in its own interpreter with its checkout's ``src/`` on the
path (``--record SRC --family NAME`` prints one JSON line per case), so the
two never share a module.  The families are fixed and seeded, and no run
enumerates more than FACE_BUDGET faces:

  builds   critical_f, special_zero, driver, critical set and pairs in order
           of every driver that accepts each graph, or its error, also on
           graphs rich in true twins (vertices with one closed
           neighborhood);
  fields   check_field's certificate (error, cycle, critical set, f-vector)
           of valid fields, of fields with one fault, and of random
           matchings on the Hasse diagram, cyclic ones among them; classify's
           verdict, or its error, on each valid field and each random
           acyclic one; and, on complexes of at most 200 faces, the faces
           that is_maximal finds non-maximal;
  cli      stdout, stderr and exit code of analyze (both modes), match
           --pairs --dot (with the DOT file), verify (valid and tampered
           matchings), compare and homology, on graph files in both forms
           (hex rows and edge lists), of analyze in both modes on the
           generic driver on the twin-rich graphs, and of analyze and
           compare on a few malformed documents.

The script prints one digest per family and side, and the first case that
differs; it exits 1 when any family differs.  It uses the standard library
only, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

FACE_BUDGET = 20_000
FAMILIES = ("builds", "fields", "cli")


def _graphs(ind):
    """(name, graph, grid spec or None): paths, cycles, cliques and empty
    graphs (the 0-vertex graph among them), book graphs, random chordal
    graphs as in the acceptance corpus, random k-trees, intersection graphs
    of random subtrees, labelled grids with cells of size 1 or 2, and
    G(n, p) graphs, chordal or not."""
    for kind in ("path", "cycle", "complete", "empty"):
        for n in range(3 if kind == "cycle" else 0, 15):
            yield f"{kind}-{n}", ind.standard_graph(kind, n), None
    for pages in range(1, 13):
        # K_2 joined to independent pages: a large cone of small depth.
        edges = [(0, 1)] + [(s, p) for s in (0, 1) for p in range(2, pages + 2)]
        yield f"book-{pages}", ind.Graph.from_edges(pages + 2, edges), None
    for i in range(240):
        n = i % 14 + 1
        densities = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0) if n <= 9 else (0.6, 0.7, 0.8, 0.9, 1.0, 1.0)
        yield f"chordal-{i}", ind.random_chordal(n, densities[i % 6], seed=i), None
    for i in range(60):
        k = i % 4 + 1
        yield f"ktree-{i}", _k_tree(ind, k + 1 + i % 13, k, random.Random(i)), None
    for i in range(40):
        yield f"subtree-{i}", _subtree_intersection(ind, 4 + i % 12, random.Random(i)), None
    rng = random.Random(2028)
    for i in range(160):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        rows = [[rng.choice((1, 2)) for _ in range(n + 1)] for _ in range(m + 1)]
        spec = ind.GridSpec.of(m, n, rows)
        yield f"grid-{i}", ind.grid_graph(spec), spec
    for i in range(160):
        n = rng.randint(1, 12)
        p = rng.choice((0.15, 0.3, 0.5, 0.7))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        yield f"gnp-{i}", ind.Graph.from_edges(n, edges), None


def _twin_graphs(ind):
    """(name, graph, grid spec): labelled grids of 3x3 to 4x4 cells, which
    are not chordal, each cell a class of true twins (cells of 3 to 12
    vertices alternating with 3x3 cells of 1 to 5, most of these in reach
    of the explicit route), and G(n, p) graphs with true twins added, each
    a new vertex with an earlier vertex's closed neighborhood."""
    rng = random.Random(3012)
    for i in range(60):
        m, n = (2, 2) if i % 2 else (rng.randint(2, 3), rng.randint(2, 3))
        low, high = (1, 5) if i % 2 else (3, 12)
        rows = [[rng.randint(low, high) for _ in range(n + 1)] for _ in range(m + 1)]
        spec = ind.GridSpec.of(m, n, rows)
        yield f"twin-grid-{i}", ind.grid_graph(spec), spec
    for i in range(80):
        n = rng.randint(1, 9)
        p = rng.choice((0.15, 0.3, 0.5, 0.7))
        adj = [{v for v in range(n) if v != u and rng.random() < p} for u in range(n)]
        for u in range(n):
            for v in adj[u]:
                adj[v].add(u)
        for t in range(n, n + rng.randint(1, 8)):
            w = rng.randrange(t)
            adj.append(adj[w] | {w})
            for v in adj[t]:
                adj[v].add(t)
        edges = [(u, v) for u, row in enumerate(adj) for v in row if u < v]
        yield f"twin-gnp-{i}", ind.Graph.from_edges(len(adj), edges), None


def _k_tree(ind, n: int, k: int, rng):
    """A random k-tree: K_{k+1}, then each new vertex joins a random earlier
    (k+1)-clique less one random member."""
    cliques = [list(range(k + 1))]
    edges = [(a, b) for a in range(k + 1) for b in range(a + 1, k + 1)]
    for v in range(k + 1, n):
        base = list(rng.choice(cliques))
        base.remove(rng.choice(base))
        edges += [(u, v) for u in base]
        cliques.append(base + [v])
    return ind.Graph.from_edges(max(n, k + 1), edges)


def _subtree_intersection(ind, n: int, rng):
    """The intersection graph of n small random subtrees of a random tree,
    drawn as in tests/test_homotopy.py's subtree_intersection_graph."""
    size = 3 * n
    tree: list[list[int]] = [[] for _ in range(size)]
    for i in range(1, size):
        p = rng.randrange(i)
        tree[i].append(p)
        tree[p].append(i)
    subtrees: list[set[int]] = []
    for _ in range(n):
        start = rng.choice(sorted(rng.choice(subtrees))) if subtrees else 0
        nodes = {start}
        frontier = list(tree[start])
        want = rng.randint(1, 3)
        while len(nodes) < want and frontier:
            w = frontier.pop(rng.randrange(len(frontier)))
            if w not in nodes:
                nodes.add(w)
                frontier += [y for y in tree[w] if y not in nodes]
        subtrees.append(nodes)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if subtrees[a] & subtrees[b]]
    return ind.Graph.from_edges(n, edges)


def _small(ind, g) -> bool:
    return g.n <= 32 and ind.independence_complex(g, FACE_BUDGET) is not None


def _result(res) -> dict:
    return {
        "critical_f": list(res.critical_f),
        "special_zero": res.special_zero,
        "driver": res.driver,
        "critical_set": sorted(res.critical_set),
        "pairs": [list(p) for p in res.pairs],
    }


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the record holds the error, whatever it is
        return {"error": f"{type(exc).__name__}: {exc}"}


def _builds(ind):
    for name, g, spec in itertools.chain(_graphs(ind), _twin_graphs(ind)):
        if not _small(ind, g):
            continue
        drivers = {"auto": ind.build_auto, "chordal": ind.build_chordal_matching}
        if spec is not None:
            drivers["grid"] = lambda g, spec=spec: ind.build_grid_matching(g, spec)
        for driver, build in drivers.items():
            yield f"{name}/{driver}", _attempt(lambda: _result(build(g)))


def _certificate(ind, x, pairs) -> dict:
    cert = ind.check_field(ind.SimplicialComplex(x.n, x.faces), pairs)
    return {
        "error": cert.error,
        "cycle": None if cert.cycle is None else list(cert.cycle),
        "critical": sorted(cert.critical),
        "critical_f": list(cert.critical_f),
    }


def _verdict(ind, x, res) -> dict:
    h = ind.classify(ind.SimplicialComplex(x.n, x.faces), res)
    return {"kind": h.kind, "wedge": list(h.wedge), "reason": h.reason}


def _tampered(x, pairs, rng):
    """One fault per kind, each at a seeded position."""
    pairs = list(pairs)
    i = rng.randrange(len(pairs))
    a, b = pairs[i]
    out = {"dropped": pairs[:i] + pairs[i + 1:]}
    out["repeated"] = pairs[:i] + [pairs[i]] + pairs[i:]
    out["reversed"] = pairs[:i] + [(b, a)] + pairs[i + 1:]
    w = next(w for w in range(x.n + 1) if not a >> w & 1 and a | 1 << w not in x.faces)
    out["non-face"] = pairs[:i] + [(a, a | 1 << w)] + pairs[i + 1:]
    out["two-apart"] = pairs[:i] + [(a, b | 1 << x.n)] + pairs[i + 1:]
    if a:
        low = a & -a
        out["shared-cell"] = pairs + [(b ^ low, b)]
    out["empty-twice"] = [(0, 1 << rng.randrange(x.n))] + pairs
    same = [k for k, p in enumerate(pairs) if k != i and p[0].bit_count() == a.bit_count()]
    if same:
        k = rng.choice(same)
        crossed = pairs[:]
        crossed[i], crossed[k] = (a, pairs[k][1]), (pairs[k][0], b)
        out["crossed"] = crossed
    return out


def _random_matchings(x, rng, tries):
    edges = [(beta & ~(1 << v), beta) for beta in sorted(x.faces) for v in range(x.n) if beta >> v & 1]
    for _ in range(tries):
        rng.shuffle(edges)
        used: set[int] = set()
        pairs = []
        for a, b in edges:
            if a in used or b in used or rng.random() < 0.3:
                continue
            pairs.append((a, b))
            used.update((a, b))
        yield pairs


def _fields(ind):
    rng = random.Random(4242)
    for name, g, spec in _graphs(ind):
        if g.n == 0 or not _small(ind, g):
            continue
        x = ind.independence_complex(g)
        try:
            res = ind.build_grid_matching(g, spec) if spec else ind.build_auto(g)
        except ind.UnsupportedGraphError:
            res = None
        if res is not None:
            yield f"{name}/valid", _certificate(ind, x, res.pairs)
            yield f"{name}/valid-verdict", _attempt(_verdict, ind, x, res)
            for kind, pairs in _tampered(x, res.pairs, rng).items():
                yield f"{name}/{kind}", _certificate(ind, x, pairs)
        if len(x.faces) <= 200:
            fresh = ind.SimplicialComplex(x.n, x.faces)
            yield f"{name}/non-maximal", sorted(s for s in x.faces if not ind.is_maximal(fresh, s))
            for k, pairs in enumerate(_random_matchings(x, rng, 3)):
                cert = _certificate(ind, x, pairs)
                yield f"{name}/random-{k}", cert
                if cert["error"] is None and cert["cycle"] is None:
                    field = ind.ConstructionResult.given(
                        pairs, cert["critical"], tuple(cert["critical_f"]), None, "auto"
                    )
                    yield f"{name}/random-{k}-verdict", _attempt(_verdict, ind, x, field)


def _run_cli(ind, argv, tmp: str) -> dict:
    from indmorse import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {
        "code": code,
        "stdout": out.getvalue().replace(tmp, "<tmp>"),
        "stderr": err.getvalue().replace(tmp, "<tmp>"),
    }


def _verts(s: int) -> list[int]:
    return [v for v in range(s.bit_length()) if s >> v & 1]


def _cli(ind):
    rng = random.Random(777)
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, g, spec) in enumerate(_graphs(ind)):
            if k % 4 or g.n > 16:
                continue
            path = f"{tmp}/{name}.json"
            doc = ind.graph_to_json(g)
            if k % 8:
                # The other form graph_from_json reads.
                doc = {**doc, "edges": g.edges()}
                del doc["rows"]
            Path(path).write_text(json.dumps(doc), encoding="utf-8")
            driver = "grid" if spec else "auto"
            runs = {
                "analyze": ["analyze", path, "--driver", driver, "--oracle", "--gamma"],
                "analyze-counts": ["analyze", path, "--mode", "counts", "--driver", driver],
                "compare": ["compare", path],
                "homology": ["homology", path],
            }
            dot = f"{tmp}/{name}.dot"
            runs["match"] = ["match", path, "--driver", driver, "--pairs", "--dot", dot]
            for run, argv in runs.items():
                record = _run_cli(ind, argv, tmp)
                if run == "match":
                    record["dot"] = Path(dot).read_text(encoding="utf-8") if Path(dot).exists() else None
                yield f"{name}/{run}", record
            try:
                pairs = ind.build_auto(g).pairs if g.n else ()
            except ind.UnsupportedGraphError:
                continue
            if not pairs or not _small(ind, g):
                continue
            x = ind.independence_complex(g)
            fields = {"valid": list(pairs), **_tampered(x, pairs, rng)}
            fields.update((f"random-{j}", p) for j, p in enumerate(_random_matchings(x, rng, 2)))
            for kind, field in fields.items():
                matching = f"{tmp}/{name}-{kind}.json"
                Path(matching).write_text(
                    json.dumps([[_verts(a), _verts(b)] for a, b in field]), encoding="utf-8"
                )
                yield f"{name}/verify-{kind}", _run_cli(ind, ["verify", path, matching], tmp)
        for name, g, _ in _twin_graphs(ind):
            path = f"{tmp}/{name}.json"
            Path(path).write_text(json.dumps(ind.graph_to_json(g)), encoding="utf-8")
            for mode in ("explicit", "counts"):
                argv = ["analyze", path, "--mode", mode, "--driver", "auto"]
                yield f"{name}/analyze-{mode}", _run_cli(ind, argv, tmp)
        bad = {
            "not-json": "{",
            "nested": "[" * 100_000,
            "no-n": '{"rows": []}',
            "bad-row": '{"n": 2, "rows": ["zz"]}',
            "asymmetric-edges": '{"n": 2, "edges": [[0, 0]]}',
        }
        for name, text in bad.items():
            path = f"{tmp}/{name}.json"
            Path(path).write_text(text, encoding="utf-8")
            runs = {"analyze": ["analyze", path], "compare": ["compare", path]}
            runs["analyze-counts"] = ["analyze", path, "--mode", "counts"]
            for run, argv in runs.items():
                yield f"{name}/{run}", _run_cli(ind, argv, tmp)


def record(src: str, family: str) -> None:
    sys.path.insert(0, src)
    import indmorse as ind

    for case, rec in {"builds": _builds, "fields": _fields, "cli": _cli}[family](ind):
        print(json.dumps([case, rec], sort_keys=True))


def _side(src: Path, family: str) -> list[str]:
    run = subprocess.run(
        [sys.executable, __file__, "--record", str(src), "--family", family],
        capture_output=True, text=True, check=True,
    )
    return run.stdout.splitlines()


def digest(lines: list[str]) -> str:
    """A family's digest: the first 16 hex digits of the sha256 of its lines."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="the other checkout's root directory")
    parser.add_argument("--families", default=",".join(FAMILIES))
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--family", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.record:
        record(args.record, args.family)
        return 0
    if not args.against:
        parser.error("--against is required")
    here = Path(__file__).resolve().parents[1] / "src"
    there = Path(args.against).resolve() / "src"
    differs = False
    for family in args.families.split(","):
        mine, theirs = _side(here, family), _side(there, family)
        digests = [digest(mine), digest(theirs)]
        same = mine == theirs
        print(f"{family}: {len(mine)} cases, this {digests[0]}, other {digests[1]} "
              f"({len(theirs)} cases): {'identical' if same else 'DIFFERENT'}")
        if not same:
            differs = True
            for a, b in zip(mine + [""] * len(theirs), theirs + [""] * len(mine)):
                if a != b:
                    print(f"  first difference:\n    this:  {a[:600]}\n    other: {b[:600]}")
                    break
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
