import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import polyhom
from polyhom.structures import (canonical_structure, power, FiniteStructure,
                                Relation, StructureError)
from polyhom.search import (ExtensionProblem, SearchLimits, solve,
                            enumerate_solutions, check_is_homomorphism,
                            default_limits, InconsistentPinsError)

from oracles import oracle_homomorphisms


def chain2():
    return canonical_structure("poset", 2, [(0, 0), (0, 1), (1, 1)],
                               name="chain2")


def chain3():
    le = [(i, j) for i in range(3) for j in range(3) if i <= j]
    return canonical_structure("poset", 3, le, name="chain3")


def k2():
    return canonical_structure("graph", 2, [(0, 1)], name="k2")


def path3():
    return canonical_structure("graph", 3, [(0, 1), (1, 2)], name="p3")


def _rename(structure, names):
    rels = tuple(Relation(names[r.name], r.arity, r.tuples)
                 for r in structure.relations)
    return FiniteStructure(structure.size, rels, name=structure.name)


def _problem_catalog():
    """Deterministic source <= 6, target <= 3 problem set, mixing Sat and
    Unsat instances and pins."""
    cases = []
    c5_le = [(i, j) for i in range(5) for j in range(5) if i <= j]
    chain5 = canonical_structure("poset", 5, c5_le, name="chain5")
    cyc5 = canonical_structure("graph", 5,
                               [(i, (i + 1) % 5) for i in range(5)])
    cyc6 = canonical_structure("graph", 6,
                               [(i, (i + 1) % 6) for i in range(6)])
    p3t = canonical_structure("graph", 3, [(0, 1), (1, 2)])
    tri = canonical_structure("graph", 3, [(0, 1), (1, 2), (0, 2)])
    bow = canonical_structure(
        "poset", 4,
        [(i, i) for i in range(4)] + [(0, 2), (0, 3), (1, 2), (1, 3)])
    cases.append(ExtensionProblem(chain5, chain3()))
    cases.append(ExtensionProblem(chain5, chain3(), pins={0: 1, 4: 1}))
    cases.append(ExtensionProblem(chain5, chain2(), pins={2: 1}))
    cases.append(ExtensionProblem(cyc5, _rename(tri, {"edge": "edge"})))
    cases.append(ExtensionProblem(cyc5, p3t))
    cases.append(ExtensionProblem(cyc6, p3t))
    cases.append(ExtensionProblem(cyc6, p3t, pins={0: 0}))
    cases.append(ExtensionProblem(bow, _rename(chain3(), {"le": "le"})))
    cases.append(ExtensionProblem(bow, chain2()))
    strict4 = canonical_structure(
        "strict_poset", 4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    strict3 = canonical_structure("strict_poset", 3,
                                  [(0, 1), (1, 2), (0, 2)])
    cases.append(ExtensionProblem(strict4, strict3))
    cases.append(ExtensionProblem(strict4, strict3, pins={1: 0}))
    return cases


def test_solve_agrees_with_exhaustive_enumeration():
    limits = default_limits()
    for prob in _problem_catalog():
        brute = oracle_homomorphisms(prob.source, prob.target, prob.pins)
        out = solve(prob, limits)
        if brute:
            assert out.found, (prob, out.status)
            image = tuple(out.assignment[i] for i in range(prob.source.size))
            assert image in brute
        else:
            assert out.unsat, (prob, out.status)


def test_enumerate_matches_oracle_exactly():
    limits = default_limits()
    for prob in _problem_catalog():
        brute = sorted(oracle_homomorphisms(prob.source, prob.target,
                                            prob.pins))
        sols, complete = enumerate_solutions(prob, cap=10_000, limits=limits)
        assert complete
        got = sorted(tuple(s[i] for i in range(prob.source.size))
                     for s in sols)
        assert got == brute


def test_found_maps_are_verified_homomorphisms():
    limits = default_limits()
    for prob in _problem_catalog():
        out = solve(prob, limits)
        if out.found:
            ok, violations = check_is_homomorphism(
                prob.source, prob.target, out.assignment)
            assert ok, violations


def test_power_source_solves():
    A = chain2()
    h = power(A, 3)
    out = solve(ExtensionProblem(h, A), default_limits())
    assert out.found
    ok, _ = check_is_homomorphism(h, A, out.assignment)
    assert ok
    # brute force on the materialized power agrees
    brute = oracle_homomorphisms(h.materialize(), A)
    image = tuple(out.assignment[i] for i in range(h.size))
    assert image in brute
    # relations of arity 3, alone or beside a unary or binary one, are
    # propagated on power(A, k) without listing R^k: the solutions, with
    # and without pins, are exactly the oracle's on the materialized power
    # (the oracle lists every map, so n^k stays at most 9)
    rng = random.Random(11)
    for arities in ([3], [3], [1, 3], [2, 3], [3, 3]):
        for n, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
            A = _random_structure(rng, n, arities)
            T = A if rng.random() < 0.5 else _random_structure(
                rng, rng.randint(2, 3), arities)
            h = power(A, k)
            P = h.materialize()
            for npins in (0, 1, 2):
                pins = {rng.randrange(h.size): rng.randrange(T.size)
                        for _ in range(npins)}
                brute = sorted(oracle_homomorphisms(P, T, pins))
                prob = ExtensionProblem(h, T, pins)
                try:
                    sols, complete = enumerate_solutions(prob, cap=100_000)
                except InconsistentPinsError:
                    assert not brute
                    continue
                assert complete
                assert sorted(tuple(s[i] for i in range(h.size))
                              for s in sols) == brute
                out = solve(prob)
                assert out.found == bool(brute) and out.unsat == (not brute)


def test_determinism_identical_outcomes():
    limits = default_limits()
    for prob in _problem_catalog():
        a = solve(prob, limits)
        b = solve(prob, limits)
        assert a.status == b.status and a.assignment == b.assignment
        assert a.nodes == b.nodes
        s1, _ = enumerate_solutions(prob, cap=1000, limits=limits)
        s2, _ = enumerate_solutions(prob, cap=1000, limits=limits)
        assert s1 == s2


def test_unsat_monotone_under_added_pins():
    limits = default_limits()
    for prob in _problem_catalog():
        out = solve(prob, limits)
        if not out.unsat:
            continue
        for var in range(prob.source.size):
            if any(p[0] == var for p in prob.pins):
                continue
            for val in range(prob.target.size):
                stronger = ExtensionProblem(
                    prob.source, prob.target,
                    prob.pins + ((var, val),))
                try:
                    out2 = solve(stronger, limits)
                except InconsistentPinsError:
                    continue
                assert out2.unsat
            break


def test_budget_exhaustion_is_distinct_status():
    cyc6 = canonical_structure("graph", 6,
                               [(i, (i + 1) % 6) for i in range(6)])
    p3t = canonical_structure("graph", 3, [(0, 1), (1, 2)])
    out = solve(ExtensionProblem(cyc6, p3t),
                SearchLimits(node_budget=1))
    assert out.exhausted and out.reason == "node_budget"
    out = solve(ExtensionProblem(cyc6, p3t),
                SearchLimits(node_budget=10_000, wall_budget=1e-9))
    assert out.exhausted and out.reason == "wall_budget"


def test_budgets_must_be_positive():
    # a zero wall budget used to mean "unbounded" and a negative one "stop
    # at once"; both are rejected now, like a node budget below 1
    for bad in (0, -1):
        with pytest.raises(ValueError, match="wall_budget"):
            SearchLimits(wall_budget=bad)
        with pytest.raises(ValueError, match="node_budget"):
            SearchLimits(node_budget=bad)


def test_inconsistent_pins_rejected():
    A = chain2()
    with pytest.raises(InconsistentPinsError):
        ExtensionProblem(A, A, pins=((0, 0), (0, 1)))
    with pytest.raises(InconsistentPinsError):
        solve(ExtensionProblem(A, A, pins=((0, 5),)))


def test_signature_mismatch_rejected():
    A = chain2()
    B = k2()
    with pytest.raises(StructureError):
        ExtensionProblem(A, B)


def test_check_is_homomorphism_flags_violations():
    A = k2()
    ok, violations = check_is_homomorphism(A, A, {0: 0, 1: 0})
    assert not ok and violations
    ok, violations = check_is_homomorphism(A, A, {0: 1, 1: 0})
    assert ok and not violations


def test_pins_on_related_power_codes_name_the_edge():
    A = chain2()
    h = power(A, 2)
    u, v = h.encode((0, 0)), h.encode((1, 1))  # related digit by digit
    with pytest.raises(InconsistentPinsError) as e:
        solve(ExtensionProblem(h, A, {u: 1, v: 0}))
    assert str(e.value) == "pins map source le-edge (0,3) to non-edge (1,0)"


def _random_structure(rng, n, arities):
    return FiniteStructure(n, tuple(
        Relation("r%d" % i, r, {t for t in itertools.product(range(n),
                                                             repeat=r)
                                if rng.random() < 0.6})
        for i, r in enumerate(arities)))


def test_power_verifier_agrees_with_the_oracle():
    """check_is_homomorphism on power(A, k) accepts exactly the maps the
    oracle accepts on the materialized power, and each violation it reports
    is a power tuple whose image lies outside the target relation. The
    oracle enumerates every map, so n^k stays at most 9."""
    rng = random.Random(5)
    for arities in ([1], [2], [3], [1, 2], [2, 3]):
        for n, k in ((1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
            A = _random_structure(rng, n, arities)
            T = _random_structure(rng, rng.randint(2, 3), arities)
            h = power(A, k)
            P = h.materialize()
            homs = set(oracle_homomorphisms(P, T))
            maps = [list(m) for m in sorted(homs)[:3]]
            for m in maps[:]:  # one changed value, mostly a violation
                m = list(m)
                m[rng.randrange(P.size)] = rng.randrange(T.size)
                maps.append(m)
            maps += [[rng.randrange(T.size) for _ in range(P.size)]
                     for _ in range(6)]
            for m in maps:
                ok, violations = check_is_homomorphism(h, T, dict(enumerate(m)))
                assert ok == (tuple(m) in homs) == (not violations)
                for name, src, image in violations:
                    assert src in P.relation_map[name].tuples
                    assert image == tuple(m[c] for c in src)
                    assert image not in T.relation_map[name].tuples


def test_deep_power_search_keeps_memory_small():
    # 16,382 nodes on 2^14 variables; the trail keeps only removed bits
    A = chain2()
    h = power(A, 14)
    pins = {h.encode((a,) * 14): a for a in range(2)}
    tracemalloc.start()
    try:
        out = solve(ExtensionProblem(h, A, pins))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.found and out.nodes == 16382
    assert peak < 16 << 20


def test_import_loads_no_numpy():
    src = Path(polyhom.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-c",
         "import polyhom, sys; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=60)
