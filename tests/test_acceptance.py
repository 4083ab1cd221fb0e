"""Release gates. Each test is one headline guarantee with its wall
budget asserted inline; every claimed value is recomputed here against a
brute oracle or re-verified independently rather than trusted."""

import itertools
import time

from polyhom import (FiniteStructure, InconsistentPinsError, PartialOpMap,
                     Relation, ExtensionProblem, canonical_partial_nu,
                     canonical_structure, check_finite_polylocal,
                     classify_graph, classify_strict_poset,
                     cross_check_inv_pol, decide_ph, default_limits,
                     enumerate_polymorphisms, enumerate_solutions,
                     extendable, gamma_closure,
                     graph_property_star, graph_star_witness,
                     is_arithmetical, is_hom_homogeneous, is_k_ph,
                     is_partial_polymorphism, is_pp_definable,
                     kaarli_cross_check, poset_pair_witness, power,
                     qf_type_closure, solve)
from polyhom.generate import (all_graphs, all_n2_binary, all_posets,
                              all_strict_posets)

from oracles import (oracle_gamma, oracle_homomorphisms,
                     oracle_invariant_relations,
                     oracle_is_partial_polymorphism, oracle_polymorphisms,
                     oracle_pp_definable)


def chain2():
    return FiniteStructure(2, [Relation("le", 2, {(0, 0), (0, 1), (1, 1)})],
                           name="chain2")


def k2():
    return FiniteStructure(2, [Relation("edge", 2, {(0, 1), (1, 0)})],
                           name="k2")


def bowtie():
    le = {(i, i) for i in range(4)} | {(0, 2), (0, 3), (1, 2), (1, 3)}
    return FiniteStructure(4, [Relation("le", 2, le)], name="bowtie")


def diamond():
    le = {(i, i) for i in range(4)} | {(0, 1), (0, 2), (0, 3), (1, 3),
                                       (2, 3)}
    return FiniteStructure(4, [Relation("le", 2, le)], name="diamond")


def m3_partitions():
    return [[[0], [1], [2], [3]],
            [[0, 1], [2, 3]],
            [[0, 2], [1, 3]],
            [[0, 3], [1, 2]],
            [[0, 1, 2, 3]]]


def table_values(ft):
    return tuple(ft.apply(args) for args in
                 itertools.product(range(ft.size), repeat=ft.arity))


def op_pairs(tables):
    return [(ft.arity, table_values(ft)) for ft in tables]


def assert_refutation(structure, f, ext=None):
    ok, _ = is_partial_polymorphism(structure, f)
    assert ok
    if ext is None:
        ext = extendable(structure, f)
    assert ext.not_extendable


# ------------------------------------------------------- two-element universe

def test_two_element_structures_get_definite_verdicts_matching_all_levels():
    t0 = time.monotonic()
    for structure in all_n2_binary():
        verdict = decide_ph(structure)
        assert verdict.status in ("PH", "NotPH")
        levels = {k: is_k_ph(structure, k).status for k in (1, 2, 3, 4)}
        assert set(levels.values()) <= {"holds", "fails"}
        if verdict.status == "PH":
            assert all(s == "holds" for s in levels.values())
        else:
            # 4 = |A|^2 points suffice on two elements, and a failure at
            # some level persists at every higher level
            assert levels[4] == "fails"
    assert time.monotonic() - t0 < 120


def test_level_k_decision_equals_plain_homogeneity_of_the_kth_power():
    t0 = time.monotonic()
    for structure in all_n2_binary():
        for k in (2, 3):
            direct = is_k_ph(structure, k)
            via_power = is_hom_homogeneous(power(structure, k))
            assert direct.status == via_power.status
    assert time.monotonic() - t0 < 600


# ------------------------------------------------------------ graph families

def _common_neighbor_gap(structure):
    # size of the smallest vertex set whose members share no neighbor
    n = structure.size
    adj = {v: set() for v in range(n)}
    for a, b in structure.relations[0].tuples:
        adj[a].add(b)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            common = set(range(n))
            for v in combo:
                common &= adj[v]
            if not common:
                return size
    return n + 1


def _graph_refutation(structure, limits):
    # star-shaped failures: some vertex is isolated while an edge exists,
    # and an edge endpoint sent to the isolated vertex never extends
    if graph_property_star(structure):
        deg = {v: 0 for v in range(structure.size)}
        edge = None
        for a, b in structure.relations[0].tuples:
            deg[a] += 1
            if edge is None:
                edge = (a, b)
        iso = min(v for v in range(structure.size) if deg[v] == 0)
        f = PartialOpMap(1, structure.size, (((edge[0],), iso),))
        return f, extendable(structure, f, limits)
    # a small blocked vertex set keeps the targeted witness search cheap
    if _common_neighbor_gap(structure) <= 2:
        _, f = graph_star_witness(structure, limits)
        return f, extendable(structure, f, limits)
    # otherwise the arity-3 near-unanimity pattern refutes in practice
    f = canonical_partial_nu(structure, 3)
    ext = extendable(structure, f, limits)
    if ext.not_extendable:
        return f, ext
    _, f = graph_star_witness(structure, limits)
    return f, extendable(structure, f, limits)


def test_graph_verdicts_and_refutations_up_to_six_vertices():
    t0 = time.monotonic()
    limits = default_limits()
    for structure in all_graphs(3):
        report = classify_graph(structure, with_witness=False)
        assert decide_ph(structure).status == report.verdict
    for n in (4, 5, 6):
        for structure in all_graphs(n):
            report = classify_graph(structure, with_witness=False)
            if report.is_ph:
                for k in (1, 2):
                    assert is_k_ph(structure, k).holds
                continue
            f, ext = _graph_refutation(structure, limits)
            assert_refutation(structure, f, ext)
    assert time.monotonic() - t0 < 1800


# ------------------------------------------------------------ order families

def _is_lattice_brute(structure):
    le = structure.relations[0].tuples
    n = structure.size
    for a, b in itertools.combinations(range(n), 2):
        ups = [c for c in range(n) if (a, c) in le and (b, c) in le]
        downs = [c for c in range(n) if (c, a) in le and (c, b) in le]
        if not any(all((c, d) in le for d in ups) for c in ups):
            return False
        if not any(all((d, c) in le for d in downs) for c in downs):
            return False
    return True


def test_poset_verdicts_match_the_antichain_or_lattice_rule():
    t0 = time.monotonic()
    for structure in all_posets(3):
        le = structure.relations[0].tuples
        antichain = all(a == b for a, b in le)
        expected = "PH" if antichain or _is_lattice_brute(structure) \
            else "NotPH"
        assert decide_ph(structure).status == expected
    arity, f = poset_pair_witness(bowtie())
    assert arity == 1
    assert dict(f.entries) == {(0,): 2, (1,): 3}
    assert_refutation(bowtie(), f)
    for k in (1, 2):
        assert is_k_ph(diamond(), k).holds
    assert time.monotonic() - t0 < 1800


def test_strict_orders_fail_unless_empty():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        for structure in all_strict_posets(n):
            verdict = decide_ph(structure)
            expected = "NotPH" if structure.relations[0].tuples else "PH"
            assert verdict.status == expected
            assert classify_strict_poset(structure).verdict == verdict.status
    assert time.monotonic() - t0 < 600


def test_higher_level_success_implies_lower_level_success():
    for structure in list(all_n2_binary()) + list(all_posets(3)):
        levels = {k: is_k_ph(structure, k).holds for k in (1, 2, 3)}
        for k in (1, 2):
            if levels[k + 1]:
                assert levels[k]


# ------------------------------------------------- operation-relation bridge

def test_operation_relation_bridge_matches_brute_oracles():
    t0 = time.monotonic()
    c2, g2 = chain2(), k2()
    pol1, complete1 = enumerate_polymorphisms(c2, 1)
    pol2, complete2 = enumerate_polymorphisms(c2, 2)
    assert complete1 and complete2
    assert len(pol1) == 3 == len(oracle_polymorphisms(c2, 1))
    assert len(pol2) == 6 == len(oracle_polymorphisms(c2, 2))
    assert set(gamma_closure(c2, {(0, 1)})) == {(0, 0), (0, 1), (1, 1)} \
        == oracle_gamma(c2, [(0, 1)])
    assert set(gamma_closure(g2, {(0, 1)})) == {(0, 1), (1, 0)} \
        == oracle_gamma(g2, [(0, 1)])
    pp = is_pp_definable(c2, {(1, 0)})
    assert not pp.definable
    assert frozenset({(1, 0)}) not in oracle_pp_definable(c2, 2, 3)
    for structure in (c2, g2):
        report = cross_check_inv_pol(structure, 2, 2)
        assert report.containment_ok
        assert report.equal_at_max
        ops = op_pairs(enumerate_polymorphisms(structure, 2)[0])
        assert set(report.by_arity[2].members) == oracle_invariant_relations(
            structure, ops, 2)
    assert check_finite_polylocal(c2, 1).holds
    assert check_finite_polylocal(c2, 2).holds
    res = check_finite_polylocal(bowtie(), 2)
    assert not res.holds
    tau, b = res.separation
    tau = set(map(tuple, tau))
    assert tuple(b) in qf_type_closure(bowtie(), tau)
    assert tuple(b) not in oracle_gamma(bowtie(), sorted(tau))
    assert time.monotonic() - t0 < 300


# ----------------------------------------------------- partition sublattices

def test_partition_sublattice_table_matches_decision_pipeline():
    t0 = time.monotonic()
    for n, expected in [(1, 1), (2, 3), (3, 19)]:
        report = kaarli_cross_check(n)
        assert report["families"] == expected
        assert report["agreements"] == expected
        assert report["inconclusive"] == []
        for row in report["rows"]:
            assert row["agrees"]
            assert row["arithmetical"] == (row["verdict"] == "PH")
    ok, witness = is_arithmetical(
        [tuple(map(tuple, p)) for p in m3_partitions()], 4)
    assert not ok
    assert witness["kind"] == "distributivity"
    m3 = canonical_structure("eq_lattice", 4, m3_partitions(), name="m3")
    t1 = time.monotonic()
    verdict = decide_ph(m3)
    assert verdict.status == "NotPH"
    f = PartialOpMap.from_json(verdict.certificate["map"])
    assert f.arity == 3
    assert oracle_is_partial_polymorphism(m3, dict(f.entries), 3)
    assert_refutation(m3, f)
    assert time.monotonic() - t1 < 600


# ------------------------------------------------------------ engine honesty

def _hom_ok(source, target, assignment, pins):
    for var, val in pins:
        if assignment[var] != val:
            return False
    by_name = {rel.name: rel for rel in target.relations}
    for rel in source.relations:
        timage = by_name[rel.name].tuples
        for t in rel.tuples:
            if tuple(assignment[x] for x in t) not in timage:
                return False
    return True


def _engine_catalog():
    graph_targets = [
        canonical_structure("graph", 2, [(0, 1)]),
        canonical_structure("graph", 2, []),
        canonical_structure("graph", 3, [(0, 1), (1, 2)]),
        canonical_structure("graph", 3, [(0, 1), (1, 2), (0, 2)]),
        canonical_structure("graph", 3, []),
    ]
    graph_sources = list(all_graphs(4)) + [
        canonical_structure("graph", 5, [(i, (i + 1) % 5) for i in range(5)]),
        canonical_structure("graph", 6, [(i, (i + 1) % 6) for i in range(6)]),
        canonical_structure("graph", 6, [(i, i + 1) for i in range(5)]),
        canonical_structure("graph", 6, [(0, i) for i in range(1, 6)]),
        canonical_structure("graph", 6, [(0, 1), (1, 2), (0, 2), (3, 4),
                                         (4, 5), (3, 5)]),
    ]
    poset_targets = [
        canonical_structure("poset", 2, [(0, 0), (1, 1), (0, 1)]),
        canonical_structure("poset", 3, [(0, 0), (1, 1), (2, 2), (0, 1),
                                         (1, 2), (0, 2)]),
        canonical_structure("poset", 3, [(0, 0), (1, 1), (2, 2), (0, 1),
                                         (0, 2)]),
        canonical_structure("poset", 3, [(0, 0), (1, 1), (2, 2)]),
    ]
    poset_sources = list(all_posets(3)) + [
        bowtie(), diamond(),
        canonical_structure("poset", 6, [(i, j) for i in range(6)
                                         for j in range(6) if i <= j]),
    ]
    strict_targets = [
        canonical_structure("strict_poset", 2, [(0, 1)]),
        canonical_structure("strict_poset", 3, [(0, 1), (1, 2), (0, 2)]),
        canonical_structure("strict_poset", 3, []),
    ]
    strict_sources = list(all_strict_posets(3))
    for sources, targets in [(graph_sources, graph_targets),
                             (poset_sources, poset_targets),
                             (strict_sources, strict_targets)]:
        for i, src in enumerate(sources):
            for j, tgt in enumerate(targets):
                yield src, tgt, ()
                if (i + j) % 3 == 0:
                    yield src, tgt, ((0, 0),)
                if (i + j) % 5 == 0:
                    yield src, tgt, ((0, 0), (src.size - 1, tgt.size - 1))


def test_engine_agrees_with_exhaustive_enumeration_and_certs_reverify():
    found_checked = 0
    for src, tgt, pins in _engine_catalog():
        brute = set(oracle_homomorphisms(src, tgt, pins))
        try:
            problem = ExtensionProblem(src, tgt, pins=pins)
            out = solve(problem)
        except InconsistentPinsError:
            assert not brute
            continue
        if out.found:
            values = tuple(out.assignment[i] for i in range(src.size))
            assert values in brute
            assert _hom_ok(src, tgt, values, pins)
            found_checked += 1
        else:
            assert out.unsat
            assert not brute
        cap = 3 ** src.size + 1
        sols, complete = enumerate_solutions(problem, cap)
        assert complete
        got = {tuple(s[i] for i in range(src.size)) for s in sols}
        assert got == brute
    assert found_checked > 200
    refuted = 0
    pool = (list(all_n2_binary()) + list(all_graphs(3))
            + list(all_posets(3)) + list(all_strict_posets(3)))
    for structure in pool:
        verdict = decide_ph(structure)
        if verdict.status != "NotPH":
            continue
        cert = verdict.certificate
        assert cert["kind"] in ("no_near_unanimity", "non_extendable_map")
        f = PartialOpMap.from_json(cert["map"])
        ok, _ = is_partial_polymorphism(structure, f)
        assert ok
        assert oracle_is_partial_polymorphism(structure, dict(f.entries),
                                              f.arity)
        assert extendable(structure, f).not_extendable
        refuted += 1
    assert refuted > 30
