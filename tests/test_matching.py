"""Matching validity, acyclicity, critical simplices, generalized paths."""

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indmorse import matching
from indmorse import (
    ConstructionResult,
    GridSpec,
    HomotopyType,
    SimplicialComplex,
    classify,
    extend_matching,
    build_auto,
    build_chordal_matching,
    build_grid_matching,
    check_field,
    check_matching,
    critical_fvector_of,
    critical_simplices,
    f_vector,
    generalized_vpath_reachable,
    grid_graph,
    hasse_edges,
    independence_complex,
    is_maximal,
    random_chordal,
    standard_graph,
    verify_acyclic,
    verify_matching,
    Graph,
)
from oracles import (
    acyclic_by_reachability,
    closure_complex,
    first_matching_fault,
    is_alternating_cycle,
)
from test_chordal import _python_lines
from test_homotopy import subtree_intersection_graph

P3 = standard_graph("path", 3)
XP3 = independence_complex(P3)
TRIANGLE_RIM = closure_complex(3, [0b011, 0b101, 0b110])
CYCLIC_FIELD = [(0b001, 0b011), (0b010, 0b110), (0b100, 0b101)]


def test_verify_matching_examples():
    assert verify_matching(XP3, [])
    assert verify_matching(XP3, [(0, 0b010), (0b001, 0b101)])
    assert not verify_matching(XP3, [(0b001, 0b101), (0b100, 0b101)])
    assert not verify_matching(XP3, [(0b001, 0b001)])
    assert not verify_matching(XP3, [(0b010, 0b101)])
    assert not verify_matching(XP3, [(0b001, 0b011)])


def test_a_pair_of_another_length_is_met_in_order():
    # The ordered walk meets it, after any fault of an earlier pair.
    for pairs in ([(0b001, 0b101), (0, 0b010, 0b100)], [(0, 0b010, 0b100)] * 2):
        with pytest.raises(ValueError, match="too many values to unpack"):
            check_matching(XP3, pairs)
    assert check_matching(XP3, [(0b001, 0b001), (0, 0b010, 0b100)])[0] is False


def test_check_matching_diagnoses_shared_simplex():
    ok, message = check_matching(XP3, [(0b001, 0b101), (0b100, 0b101)])
    assert not ok and "[0, 2]" in message


def test_verify_acyclic_trivial_matchings():
    assert verify_acyclic(XP3, [])
    for edge in hasse_edges(XP3):
        beta, alpha = edge
        assert verify_acyclic(XP3, [(alpha, beta)])


def test_triangle_rim_cyclic_field_is_rejected():
    assert verify_matching(TRIANGLE_RIM, CYCLIC_FIELD)
    assert not verify_acyclic(TRIANGLE_RIM, CYCLIC_FIELD)


def test_check_field_reports_a_genuine_alternating_cycle():
    cert = check_field(TRIANGLE_RIM, CYCLIC_FIELD)
    assert not cert.ok and cert.error is None
    assert is_alternating_cycle(cert.cycle, CYCLIC_FIELD)


def test_the_witness_drops_a_tail_into_the_cycle():
    # The rim on {1, 2, 3} carries the cyclic field; {0} steps into it
    # through {0, 1} and is the smallest matched simplex, so a walk from it
    # enters the cycle from outside.
    x = closure_complex(4, [0b0011, 0b0110, 0b1100, 0b1010])
    pairs = [(0b0001, 0b0011), (0b0010, 0b0110), (0b0100, 0b1100), (0b1000, 0b1010)]
    assert not acyclic_by_reachability(x, pairs)
    assert is_alternating_cycle(check_field(x, pairs).cycle, pairs)


def test_the_peel_stays_linear_on_a_long_chain():
    # Counted, not timed.  The chain's steps go {i} -> {i + 1}, so a peel
    # that rescans every cell until nothing drops drops one cell a round:
    # quadratic.  Closing the chain into a cycle leaves every cell to the
    # walk, which a scan of the walk at each step would make quadratic.
    k = 2000
    for closed in (False, True):
        n = k if closed else k + 1
        pairs = [(1 << i, 1 << i | 1 << (i + 1) % n) for i in range(k)]
        faces = [0] + [1 << v for v in range(n)] + [b for _, b in pairs]
        x = SimplicialComplex(n, frozenset(faces))
        assert verify_acyclic(x, pairs) != closed
        # k matched cells and k - 1 or k steps.
        budget = 20 * (k + k)
        lines = _python_lines(partial(matching._alternating_cycle, dict(pairs)), budget)
        assert 0 < lines <= budget, closed


def test_verify_acyclic_rejects_invalid_matchings():
    with pytest.raises(ValueError):
        verify_acyclic(XP3, [(0b001, 0b001)])
    cert = check_field(XP3, [(0b001, 0b001)])
    assert not cert.ok and cert.error == check_matching(XP3, [(0b001, 0b001)])[1]


def test_critical_simplices_examples():
    xk3 = independence_complex(standard_graph("complete", 3))
    crit, fvec = critical_simplices(xk3, [])
    assert crit == frozenset({1, 2, 4}) and fvec == (3,)

    # The cone on the isolated vertex 3 collapses onto {v} at the end 0 of
    # the path, the smallest simplicial vertex.
    res = build_auto(res_graph())
    crit, fvec = critical_simplices(independence_complex(res_graph()), res.pairs)
    assert crit == frozenset({0b0001}) and fvec == (1,)

    res = extend_matching(P3, 0, {})
    crit, fvec = critical_simplices(XP3, res.pairs)
    assert crit == frozenset({0b001, 0b010}) and fvec == (2,)

    res = build_chordal_matching(P3)
    crit, fvec = critical_simplices(XP3, res.pairs)
    assert crit == res.critical_set and fvec == (2,)


def res_graph():
    return Graph.from_edges(4, [(0, 1), (1, 2)])


def test_empty_pair_keeps_its_simplex_critical():
    crit, fvec = critical_simplices(XP3, [(0, 0b001)])
    assert 0b001 in crit and fvec == (3, 1)


def test_critical_fvector_of_trims_trailing_zeros():
    assert critical_fvector_of([]) == ()
    assert critical_fvector_of([0b1, 0b10]) == (2,)
    assert critical_fvector_of([0b11]) == (0, 1)
    assert critical_fvector_of([0b1, 0b111]) == (1, 0, 1)


def test_generalized_vpath_examples():
    assert generalized_vpath_reachable(XP3, [], 0b101) == frozenset({1, 4})
    p5 = standard_graph("path", 5)
    res = build_chordal_matching(p5)
    x5 = independence_complex(p5)
    zeros = [s for s in res.critical_set if s.bit_count() == 1]
    ones = [s for s in res.critical_set if s.bit_count() == 2]
    assert len(zeros) == 1 and len(ones) == 1
    reach = generalized_vpath_reachable(x5, res.pairs, ones[0])
    assert reach <= {ones[0], zeros[0]}
    with pytest.raises(ValueError):
        generalized_vpath_reachable(x5, res.pairs, next(iter(dict(res.pairs))))


def random_matchings(x, tries, seed):
    rng = random.Random(seed)
    edges = hasse_edges(x)
    for _ in range(tries):
        rng.shuffle(edges)
        used = set()
        pairs = []
        for beta, alpha in edges:
            if beta in used or alpha in used or rng.random() < 0.3:
                continue
            pairs.append((alpha, beta))
            used.update((alpha, beta))
        yield pairs


def test_acyclicity_agrees_with_reachability_oracle():
    graphs = [
        standard_graph("path", 5),
        standard_graph("cycle", 5),
        standard_graph("empty", 3),
        random_chordal(6, 0.4, 2),
    ]
    seen_cyclic = seen_acyclic = 0
    for g in graphs:
        x = independence_complex(g)
        for pairs in random_matchings(x, 40, g.n):
            assert verify_matching(x, pairs)
            got = verify_acyclic(x, pairs)
            assert got == acyclic_by_reachability(x, pairs)
            cert = check_field(x, pairs)
            assert cert.ok == got and cert.error is None
            if got:
                assert (cert.critical, cert.critical_f) == critical_simplices(x, pairs)
            else:
                assert is_alternating_cycle(cert.cycle, pairs)
            seen_cyclic += not got
            seen_acyclic += got
    assert seen_cyclic and seen_acyclic
    assert not acyclic_by_reachability(TRIANGLE_RIM, CYCLIC_FIELD)


def test_construction_satisfies_euler_and_pointwise_bounds():
    for seed in range(30):
        g = random_chordal(1 + seed % 9, (seed % 4) / 3, seed)
        x = independence_complex(g)
        res = build_chordal_matching(g)
        fv = f_vector(x)
        fcrit = res.critical_f
        assert len(fcrit) <= len(fv)
        assert all(c <= f for c, f in zip(fcrit, fv))
        pad = list(fcrit) + [0] * (len(fv) - len(fcrit))
        euler = sum((-1) ** d * c for d, c in enumerate(fv))
        euler_crit = sum((-1) ** d * c for d, c in enumerate(pad))
        assert euler == euler_crit


def count_passes(monkeypatch):
    """Count the raw matching passes and cycle searches from now on."""
    calls = {"_unmatched_faces": 0, "_alternating_cycle": 0}
    for name in calls:
        raw = getattr(matching, name)

        def counted(*args, _name=name, _raw=raw):
            calls[_name] += 1
            return _raw(*args)

        monkeypatch.setattr(matching, name, counted)
    return calls


def answers(x, pairs):
    """What each check says about pairs on x, errors included."""
    out = [verify_matching(x, pairs)]
    for check in (verify_acyclic, critical_simplices):
        try:
            out.append(check(x, pairs))
        except ValueError as err:
            out.append(str(err))
    return out


def test_gate_sequence_checks_one_field_once(monkeypatch):
    g = subtree_intersection_graph(12, 9)
    res = build_chordal_matching(g)
    x = independence_complex(g)
    calls = count_passes(monkeypatch)
    assert verify_matching(x, res.pairs) and verify_acyclic(x, res.pairs)
    assert all(s == res.special_zero or is_maximal(x, s) for s in res.critical_set)
    assert classify(x, res) == HomotopyType("wedge", (2, 15))
    assert critical_simplices(x, res.pairs) == (res.critical_set, res.critical_f)
    assert calls == {"_unmatched_faces": 1, "_alternating_cycle": 1}


def test_kept_certificate_answers_only_its_own_tuple(monkeypatch):
    g = subtree_intersection_graph(12, 9)
    res = build_chordal_matching(g)
    x = independence_complex(g)
    assert verify_matching(x, res.pairs)
    a, b = next(p for p in res.pairs if p[0])
    variants = [
        tuple(list(res.pairs)),
        list(res.pairs),
        tuple(list(p) for p in res.pairs),
        tuple(p for p in res.pairs if p != (a, b)),
        res.pairs + ((a, b),),
    ]
    assert variants[0] == res.pairs and variants[0] is not res.pairs
    calls = count_passes(monkeypatch)
    for pairs in variants:
        fresh = SimplicialComplex(x.n, x.faces)
        assert answers(x, pairs) == answers(fresh, pairs)
    # Each variant is checked on x and on its fresh copy: one pass for each
    # tuple of tuples, and one per call for the list and the tuple of lists.
    assert calls["_unmatched_faces"] == 2 * (1 + 3 + 3 + 1 + 1)
    crit, _ = critical_simplices(x, variants[3])
    assert crit == res.critical_set | {a, b}
    dropped = ConstructionResult.given(
        pairs=variants[3],
        critical_set=crit,
        critical_f=critical_fvector_of(crit),
        special_zero=None,
        driver="chordal",
    )
    assert classify(x, dropped) == classify(SimplicialComplex(x.n, x.faces), dropped)
    assert not verify_matching(x, variants[4])
    assert verify_acyclic(x, res.pairs)
    # A list or a tuple of lists changed in place gets a new answer.
    listed, tuple_of_lists = variants[1], variants[2]
    assert verify_matching(x, listed) and verify_matching(x, tuple_of_lists)
    listed.append((a, b))
    tuple_of_lists[0][1] = tuple_of_lists[0][0]
    assert not verify_matching(x, listed) and not verify_matching(x, tuple_of_lists)


def test_kept_certificate_does_not_hide_a_cycle():
    rim = closure_complex(3, [0b011, 0b101, 0b110])
    assert verify_acyclic(rim, ((0b001, 0b011),))
    for pairs in (tuple(CYCLIC_FIELD), CYCLIC_FIELD):
        assert verify_matching(rim, pairs) and not verify_acyclic(rim, pairs)
        cycle = check_field(rim, pairs).cycle
        assert cycle is not None and cycle == check_field(TRIANGLE_RIM, CYCLIC_FIELD).cycle
    assert verify_acyclic(rim, ((0b001, 0b011),))


def test_held_caches_leave_equality_and_hash_alone():
    g = random_chordal(10, 0.3, 2)
    x, y = independence_complex(g), independence_complex(g)
    before = hash(x)
    res = build_chordal_matching(g)
    assert verify_acyclic(x, res.pairs) and x.dim() == y.dim()
    assert all(is_maximal(x, s) for s in res.critical_set if s != res.special_zero)
    assert x == y and hash(x) == hash(y) == before and {x} == {y}
    assert x == SimplicialComplex(g.n, y.faces) and x != SimplicialComplex(g.n + 1, y.faces)


TAMPERS = (
    "none", "drop", "repeat", "reverse", "non-face", "two-apart", "shared-cell",
    "empty-twice", "crossed",
)


@st.composite
def built_fields(draw):
    """(complex, pairs) of a build on a random chordal graph or a labelled
    grid, up to 12 vertices either way."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        density = draw(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)))
        g = random_chordal(n, density, draw(st.integers(0, 10**6)))
        res = build_chordal_matching(g)
    else:
        m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        flat = draw(st.lists(st.integers(1, 2), min_size=(m + 1) * (n + 1),
                             max_size=(m + 1) * (n + 1)).filter(lambda f: sum(f) <= 12))
        spec = GridSpec.of(m, n, [flat[r * (n + 1):(r + 1) * (n + 1)] for r in range(m + 1)])
        g = grid_graph(spec)
        res = build_grid_matching(g, spec)
    return independence_complex(g), res.pairs


def _tamper(draw, x, pairs, kind):
    """pairs with one fault of the given kind, or unchanged for "none"."""
    pairs = list(pairs)
    i = draw(st.integers(0, len(pairs) - 1))
    j = draw(st.integers(0, len(pairs)))
    a, b = pairs[i]
    beyond = x.n  # a vertex of no face
    if kind == "drop":
        del pairs[i]
    elif kind == "repeat":
        pairs.insert(j, pairs[i])
    elif kind == "reverse":
        pairs[i] = (b, a)
    elif kind == "non-face":
        # Still a Hasse edge, so only the face test sees it.
        w = draw(st.sampled_from([w for w in range(beyond + 1)
                                  if not a >> w & 1 and a | 1 << w not in x.faces]))
        pairs[i] = (a, a | 1 << w)
    elif kind == "two-apart":
        options = [(a, b | 1 << w) for w in range(beyond + 1)
                   if not b >> w & 1 and b | 1 << w in x.faces]
        options += [(a ^ 1 << w, b) for w in range(beyond) if a >> w & 1]
        if not options:
            options = [(a, b | 1 << beyond)]
        pairs[i] = draw(st.sampled_from(options))
    elif kind == "shared-cell":
        options = [(a, a | 1 << w) for w in range(beyond)
                   if not b >> w & 1 and a | 1 << w in x.faces]
        options += [(b ^ 1 << w, b) for w in range(beyond) if a >> w & 1]
        pairs.insert(j, draw(st.sampled_from(options or [(b, b)])))
    elif kind == "empty-twice":
        pairs.insert(j, (0, draw(st.sampled_from([1 << w for w in range(x.n)]))))
    elif kind == "crossed":
        # Two pairs of one dimension trade partners: sizes and cells stay.
        same = [k for k, p in enumerate(pairs) if k != i and p[0].bit_count() == a.bit_count()]
        if same:
            k = draw(st.sampled_from(same))
            pairs[i], pairs[k] = (a, pairs[k][1]), (pairs[k][0], b)
    return pairs


@settings(max_examples=300, deadline=None)
@given(built_fields(), st.sampled_from(TAMPERS), st.data())
def test_field_check_names_the_first_fault_in_order(field, kind, data):
    x, pairs = field
    tampered = _tamper(data.draw, x, pairs, kind)
    want = first_matching_fault(x, tampered)
    if kind == "none":
        assert want is None
    cert = check_field(SimplicialComplex(x.n, x.faces), tampered)
    assert cert.error == want, kind
    assert check_matching(x, tampered) == (want is None, want)
    if kind == "none":
        assert cert.ok
