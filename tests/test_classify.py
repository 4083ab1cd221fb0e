"""Family classifiers against the generic decision procedure and brute math."""

import itertools

import pytest

from polyhom import (EnvelopeError, FiniteStructure, PartialOpMap, Relation,
                     SearchLimits, StructureError, canonical_structure,
                     classify_eq_lattice, classify_graph, classify_poset,
                     classify_strict_poset, classify_structure, decide_ph,
                     enumerate_meet_complete_sublattices, extendable,
                     graph_property_star, graph_star_witness, is_arithmetical,
                     is_partial_polymorphism, kaarli_cross_check,
                     pairs_to_partition, partition_join, partition_meet,
                     partition_pairs, partitions_of, poset_is_lattice,
                     poset_pair_witness, recognize_family,
                     strict_poset_witness)
from polyhom import classify, homogeneity, search
from polyhom.generate import (all_graphs, all_posets, all_strict_posets)

from oracles import oracle_families, oracle_is_partial_polymorphism


def relabel(structure, perm):
    rels = [Relation(r.name, r.arity,
                     {tuple(perm[x] for x in t) for t in r.tuples})
            for r in structure.relations]
    return FiniteStructure(structure.size, rels, name=structure.name)


def bowtie():
    le = {(i, i) for i in range(4)} | {(0, 2), (0, 3), (1, 2), (1, 3)}
    return FiniteStructure(4, [Relation("le", 2, le)], name="bowtie")


def diamond():
    le = {(i, i) for i in range(4)} | {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    return FiniteStructure(4, [Relation("le", 2, le)], name="diamond")


def m3_partitions():
    return [[[0], [1], [2], [3]],
            [[0, 1], [2, 3]],
            [[0, 2], [1, 3]],
            [[0, 3], [1, 2]],
            [[0, 1, 2, 3]]]


def m3_structure():
    return canonical_structure("eq_lattice", 4, m3_partitions(), name="m3")


def assert_verified_witness(structure, arity, f):
    assert f.arity == arity
    ok, _ = is_partial_polymorphism(structure, f)
    assert ok
    assert oracle_is_partial_polymorphism(structure, dict(f.entries), arity)
    assert extendable(structure, f).not_extendable


# ---------------------------------------------------------------- graphs

def test_graph_classification_matches_generic_decision_on_three_vertices():
    for g in all_graphs(3):
        verdict = decide_ph(g)
        report = classify_graph(g)
        assert verdict.status == report.verdict, g.name


def test_graph_ph_exactly_for_edgeless_and_perfect_matchings():
    for n in (2, 3, 4):
        for g in all_graphs(n):
            report = classify_graph(g, with_witness=False)
            edges = {t for t in g.relations[0].tuples}
            degree = [sum(1 for a, b in edges if a == v) for v in range(n)]
            edgeless = not edges
            matching = bool(edges) and all(d == 1 for d in degree)
            assert report.is_ph == (edgeless or matching), g.name


def test_graph_property_star_counts_neighbors():
    for n in (2, 3, 4):
        for g in all_graphs(n):
            edges = g.relations[0].tuples
            # a path a - b - c with distinct endpoints falsifies it
            has_path = any((a, b) in edges and (b, c) in edges
                           for a in range(n) for b in range(n)
                           for c in range(n) if a != c)
            assert graph_property_star(g) == (not has_path), g.name


def test_graph_star_witness_is_verified():
    for g in all_graphs(3):
        report = classify_graph(g, with_witness=False)
        got = graph_star_witness(g)
        if graph_property_star(g):
            assert got is None
        else:
            assert not report.is_ph
            arity, f = got
            assert_verified_witness(g, arity, f)


def test_star_witness_on_the_two_edge_path():
    g = canonical_structure("graph", 3, [(0, 1), (1, 2)], name="path3")
    arity, f = graph_star_witness(g)
    assert arity == 3
    assert_verified_witness(g, 3, f)


def test_complete_graphs_k6_by_its_star_witness_and_k7_by_majority():
    # K6's star witness has arity 7: its extension CSP has 6^7 variables
    # and is refuted at the root. K7's would need 7^8, past the CSP cap,
    # so K7 is refuted by the majority map: it has no majority polymorphism
    for n, arity in ((6, 7), (7, 3)):
        kn = canonical_structure("graph", n, list(itertools.combinations(
            range(n), 2)), name="k%d" % n)
        report = classify_graph(kn)
        assert report.verdict == "NotPH"
        assert report.witness_arity == arity
        assert_verified_witness(kn, arity, report.witness)


def test_isolated_vertex_witness_used_when_star_holds():
    g = canonical_structure("graph", 3, [(0, 1)], name="edge_plus_point")
    report = classify_graph(g)
    assert not report.is_ph
    assert graph_star_witness(g) is None
    assert report.witness is not None
    assert report.witness_arity == 1
    assert dict(report.witness.entries) == {(0,): 2}
    assert_verified_witness(g, 1, report.witness)


def test_classify_graph_not_ph_reports_come_with_witnesses():
    for g in all_graphs(4):
        report = classify_graph(g)
        if not report.is_ph:
            assert report.witness is not None
            assert_verified_witness(g, report.witness_arity, report.witness)


def test_classify_graph_is_relabeling_invariant():
    for g in all_graphs(4):
        base = classify_graph(g, with_witness=False).verdict
        for perm in itertools.permutations(range(4)):
            assert classify_graph(relabel(g, perm),
                                  with_witness=False).verdict == base


def test_classify_graph_rejects_malformed_input():
    with pytest.raises(StructureError):
        classify_graph(FiniteStructure(
            2, [Relation("edge", 2, {(0, 0)})]))
    with pytest.raises(StructureError):
        classify_graph(FiniteStructure(
            2, [Relation("edge", 2, {(0, 1)})]))
    with pytest.raises(StructureError):
        classify_graph(FiniteStructure(
            2, [Relation("a", 2, set()), Relation("b", 2, set())]))


# ---------------------------------------------------------------- posets

def test_poset_classification_matches_generic_decision_on_three_points():
    for p in all_posets(3):
        verdict = decide_ph(p)
        report = classify_poset(p)
        assert verdict.status == report.verdict, p.name


def test_poset_ph_exactly_for_antichains_and_lattices():
    for n in (2, 3, 4):
        for p in all_posets(n):
            report = classify_poset(p, with_witness=False)
            le = p.relations[0].tuples
            antichain = all(a == b for a, b in le)
            assert report.is_ph == (antichain or poset_is_lattice(p)), p.name


def test_poset_is_lattice_brute():
    # recompute pairwise bounds directly
    for p in all_posets(3) + [bowtie(), diamond()]:
        le = p.relations[0].tuples
        n = p.size

        def lub_exists(x, y):
            ub = [u for u in range(n) if (x, u) in le and (y, u) in le]
            return any(all((u, w) in le for w in ub) for u in ub)

        def glb_exists(x, y):
            lb = [u for u in range(n) if (u, x) in le and (u, y) in le]
            return any(all((w, u) in le for w in lb) for u in lb)

        expected = all(lub_exists(x, y) and glb_exists(x, y)
                       for x in range(n) for y in range(n))
        assert poset_is_lattice(p) == expected, p.name


def test_poset_pair_witness_on_the_bowtie():
    arity, f = poset_pair_witness(bowtie())
    assert arity == 1
    assert dict(f.entries) == {(0,): 2, (1,): 3}
    assert_verified_witness(bowtie(), 1, f)


def test_poset_reports_on_named_orders():
    report = classify_poset(diamond())
    assert report.is_ph
    assert report.reasons["is_lattice"]
    assert report.reasons["is_x5_dense"]
    assert report.reasons["locally_bounded"]
    report = classify_poset(bowtie())
    assert not report.is_ph
    assert not report.reasons["is_lattice"]
    assert not report.reasons["is_x5_dense"]
    assert not report.reasons["locally_bounded"]
    assert report.witness is not None
    assert_verified_witness(bowtie(), report.witness_arity, report.witness)


def test_classify_poset_is_relabeling_invariant():
    for p in all_posets(3):
        base = classify_poset(p, with_witness=False).verdict
        for perm in itertools.permutations(range(3)):
            assert classify_poset(relabel(p, perm),
                                  with_witness=False).verdict == base


def test_classify_poset_rejects_malformed_input():
    with pytest.raises(StructureError):
        classify_poset(FiniteStructure(
            2, [Relation("le", 2, {(0, 1)})]))  # not reflexive
    with pytest.raises(StructureError):
        classify_poset(FiniteStructure(
            2, [Relation("le", 2, {(0, 0), (1, 1), (0, 1), (1, 0)})]))
    with pytest.raises(StructureError):
        classify_poset(FiniteStructure(
            3, [Relation("le", 2, {(0, 0), (1, 1), (2, 2), (0, 1),
                                   (1, 2)})]))  # not transitive


# ------------------------------------------------------------ strict posets

def test_strict_poset_ph_exactly_when_empty():
    for n in (1, 2, 3):
        for p in all_strict_posets(n):
            report = classify_strict_poset(p)
            assert report.is_ph == (not p.relations[0].tuples), p.name
            if not report.is_ph:
                assert report.witness is not None
                assert_verified_witness(p, report.witness_arity,
                                        report.witness)


def test_strict_poset_agrees_with_generic_decision_on_two_points():
    for p in all_strict_posets(2):
        assert decide_ph(p).status == classify_strict_poset(p).verdict


def test_generic_decision_matches_every_classifier_on_four_points():
    for classify, family in ((classify_graph, all_graphs),
                             (classify_poset, all_posets),
                             (classify_strict_poset, all_strict_posets)):
        for A in family(4):
            verdict = decide_ph(A)
            assert verdict.status == classify(A, with_witness=False).verdict, \
                A.name
    # and every NotPH poset comes with a verified witness: the pair
    # witness, or the map of decide_ph's certificate
    for A in all_posets(4):
        report = classify_poset(A)
        if not report.is_ph:
            assert report.witness is not None, A.name
            assert_verified_witness(A, report.witness_arity, report.witness)


def test_poset_classifiers_spend_one_node_allowance(monkeypatch):
    # every CSP of one classify_poset or classify_strict_poset call, its
    # witnesses and decide_ph among them, spends from one node count
    seen = []

    def watched(problem, limits, real=homogeneity.solve):
        seen.append(limits)
        return real(problem, limits)

    monkeypatch.setattr(homogeneity, "solve", watched)
    # a chain beside two points: no pair witness, so decide_ph is asked
    poset = canonical_structure(
        "poset", 4, [(i, i) for i in range(4)] + [(2, 3)], name="poset4_0256")
    chain = canonical_structure("strict_poset", 3, [(0, 1), (1, 2), (0, 2)],
                                name="strict_chain3")
    for classify_, A in ((classify_poset, poset),
                         (classify_strict_poset, chain)):
        seen.clear()
        report = classify_(A, SearchLimits(node_budget=5))
        assert report.verdict == "NotPH"
        assert seen
        assert len({id(b) for b in seen}) == 1
        budget = seen[0]
        assert isinstance(budget, search._Budget)
        assert budget.node_budget == 5
        # nodes also counts the one spend the allowance refused
        assert budget.nodes - (budget.reason == "node_budget") <= 5
        if report.witness is not None:
            assert_verified_witness(A, report.witness_arity, report.witness)


def test_strict_poset_witness_maps_into_a_minimal_element():
    chain = canonical_structure("strict_poset", 3, [(0, 1), (1, 2), (0, 2)],
                                name="strict_chain3")
    arity, f = strict_poset_witness(chain)
    assert arity == 1
    assert dict(f.entries) == {(1,): 0}
    assert_verified_witness(chain, 1, f)
    empty = canonical_structure("strict_poset", 2, [], name="strict_empty")
    assert strict_poset_witness(empty) is None


def test_classify_strict_poset_rejects_malformed_input():
    with pytest.raises(StructureError):
        classify_strict_poset(FiniteStructure(
            2, [Relation("lt", 2, {(0, 0)})]))
    with pytest.raises(StructureError):
        classify_strict_poset(FiniteStructure(
            3, [Relation("lt", 2, {(0, 1), (1, 2)})]))  # not transitive


# ------------------------------------------- equivalence-relation lattices

def test_partition_counts_are_bell_numbers():
    assert [len(partitions_of(n)) for n in (0, 1, 2, 3, 4)] == [1, 1, 2, 5,
                                                                15]


def test_partition_pairs_roundtrip():
    for n in (1, 2, 3, 4):
        for p in partitions_of(n):
            assert pairs_to_partition(partition_pairs(p), n) == p


def test_partition_meet_join_lattice_laws():
    parts = partitions_of(4)
    n = 4
    for p, q in itertools.product(parts, repeat=2):
        m = partition_meet(p, q)
        j = partition_join(p, q, n)
        assert m == partition_meet(q, p)
        assert j == partition_join(q, p, n)
        # absorption ties the two operations together
        assert partition_join(p, m, n) == p
        assert partition_meet(p, j) == p
        # refinement order agreement
        assert (m == p) == (j == q)
    for p in parts:
        assert partition_meet(p, p) == p
        assert partition_join(p, p, n) == p


def test_partition_meet_join_known_values():
    p = ((0, 1), (2, 3))
    q = ((0, 2), (1, 3))
    assert partition_meet(p, q) == ((0,), (1,), (2,), (3,))
    assert partition_join(p, q, 4) == ((0, 1, 2, 3),)


def _sublattices_by_subset_loop(n):
    # every nonempty subset of the partitions, by size and then
    # lexicographically, kept when it is closed under meet and join
    parts = partitions_of(n)
    index = {p: i for i, p in enumerate(parts)}
    meets = {(i, j): index[partition_meet(p, q)]
             for i, p in enumerate(parts) for j, q in enumerate(parts)}
    joins = {(i, j): index[partition_join(p, q, n)]
             for i, p in enumerate(parts) for j, q in enumerate(parts)}
    out = []
    for size in range(1, len(parts) + 1):
        for combo in itertools.combinations(range(len(parts)), size):
            chosen = set(combo)
            if all(meets[i, j] in chosen and joins[i, j] in chosen
                   for i in combo for j in combo):
                out.append(tuple(parts[i] for i in combo))
    return out


def test_meet_complete_sublattice_counts():
    assert len(enumerate_meet_complete_sublattices(1)) == 1
    assert len(enumerate_meet_complete_sublattices(2)) == 3
    families = enumerate_meet_complete_sublattices(3)
    assert len(families) == 19
    for fam in families:
        fam_set = set(fam)
        for p, q in itertools.product(fam, repeat=2):
            assert partition_meet(p, q) in fam_set
            assert partition_join(p, q, 3) in fam_set
    for n in (1, 2, 3, 4):
        assert (enumerate_meet_complete_sublattices(n)
                == _sublattices_by_subset_loop(n))
    assert len(enumerate_meet_complete_sublattices(4)) == 469
    # Bell(5) = 52 partitions, past galois.MAX_INV_POINTS
    with pytest.raises(EnvelopeError):
        enumerate_meet_complete_sublattices(5)


def test_sublattice_cap_is_checked_before_the_tables(monkeypatch):
    # Bell(6) = 203 partitions: the cap must raise before the 203^2 meet
    # and join tables are built
    def refuse(p, q):
        raise AssertionError("partition_meet called past the cap")

    monkeypatch.setattr(classify, "partition_meet", refuse)
    with pytest.raises(EnvelopeError, match="203 points"):
        enumerate_meet_complete_sublattices(6)


def test_is_arithmetical_known_families():
    delta = ((0,), (1,), (2,))
    full = ((0, 1, 2),)
    ok, witness = is_arithmetical([delta, full], 3)
    assert ok and witness is None
    ok, witness = is_arithmetical(
        [tuple(map(tuple, p)) for p in m3_partitions()], 4)
    assert not ok
    assert witness["kind"] == "distributivity"


def test_classify_eq_lattice_reports():
    chain = canonical_structure(
        "eq_lattice", 3, [[[0], [1], [2]], [[0, 1, 2]]], name="eq_chain")
    report = classify_eq_lattice(chain)
    assert report.is_ph
    assert report.reasons["is_arithmetical"]
    report = classify_eq_lattice(m3_structure())
    assert not report.is_ph
    assert report.reasons["arithmetical_witness"]["kind"] == "distributivity"


def test_classify_eq_lattice_requires_meet_join_closure():
    bad = canonical_structure(
        "eq_lattice", 3, [[[0, 1], [2]], [[0, 2], [1]]], name="open_family")
    with pytest.raises(StructureError):
        classify_eq_lattice(bad)


def test_decide_ph_refutes_the_m3_lattice_by_its_partial_majority_map():
    # M3 has no majority polymorphism: the canonical partial majority
    # map, a 3-ary partial polymorphism, does not extend
    m3 = m3_structure()
    verdict = decide_ph(m3)
    assert verdict.status == "NotPH"
    assert verdict.certificate["kind"] == "no_near_unanimity"
    f = PartialOpMap.from_json(verdict.certificate["map"])
    assert_verified_witness(m3, 3, f)


def test_kaarli_cross_check_is_exact_up_to_three_points():
    for n in (1, 2, 3):
        report = kaarli_cross_check(n)
        assert report["families"] == {1: 1, 2: 3, 3: 19}[n]
        assert report["agreements"] == report["families"]
        assert report["inconclusive"] == []
        for row in report["rows"]:
            assert row["agrees"]
            assert (row["verdict"] == "PH") == row["arithmetical"]


def test_kaarli_cross_check_is_exact_on_four_points():
    # every family gets a certified decide_ph verdict matching the
    # arithmetical test; none is left inconclusive
    report = kaarli_cross_check(4)
    assert report["families"] == 469
    assert report["agreements"] == 469
    assert report["inconclusive"] == []
    assert sum(row["verdict"] == "PH" for row in report["rows"]) == 136


# ---------------------------------------------------------------- dispatch

def test_recognize_family_on_generated_structures():
    for g in all_graphs(3):
        assert recognize_family(g) == "graph"
    for p in all_posets(3):
        assert recognize_family(p) == "poset"
    for p in all_strict_posets(3):
        if p.relations[0].tuples:
            assert recognize_family(p) == "strict_poset"
        else:
            # the empty order is also an edgeless graph; either reading
            # classifies it PH
            assert recognize_family(p) == "graph"
    assert recognize_family(m3_structure()) == "eq_lattice"
    full = FiniteStructure(2, [Relation("r", 2, {(0, 0), (0, 1), (1, 0),
                                                 (1, 1)})])
    assert recognize_family(full) == "eq_lattice"
    assert recognize_family(FiniteStructure(
        2, [Relation("r", 2, {(0, 0)})])) is None
    assert recognize_family(FiniteStructure(
        2, [Relation("r", 3, {(0, 0, 1)})])) is None


def test_family_checks_follow_the_axioms_on_every_small_relation():
    # every binary relation on 1 to 3 points: recognition picks the first
    # family, in the order graph, poset, strict_poset, eq_lattice, whose
    # axioms hold; canonical_structure and the classifiers accept exactly
    # the relations satisfying their family's axioms
    symbols = {"graph": "edge", "poset": "le", "strict_poset": "lt"}
    classifiers = {"graph": classify_graph, "poset": classify_poset,
                   "strict_poset": classify_strict_poset}
    for n in (1, 2, 3):
        points = list(itertools.product(range(n), repeat=2))
        for mask in range(1 << len(points)):
            pairs = {points[i] for i in range(len(points)) if mask >> i & 1}
            holds = oracle_families(pairs, n)
            A = FiniteStructure(n, [Relation("r", 2, pairs)])
            assert recognize_family(A) == next(
                (f for f in ("graph", "poset", "strict_poset", "eq_lattice")
                 if holds[f]), None), (n, pairs)
            for family, symbol in symbols.items():
                # graph data are edges, closed under symmetry
                want = pairs | {(b, a) for a, b in pairs} \
                    if family == "graph" else pairs
                if oracle_families(want, n)[family]:
                    B = canonical_structure(family, n, pairs)
                    assert B.relations[0].name == symbol
                    assert B.relations[0].tuples == want
                else:
                    with pytest.raises(StructureError) as e:
                        canonical_structure(family, n, pairs)
                    assert e.value.violations
                    assert all(v[0] == symbol for v in e.value.violations)
            for family, classify in classifiers.items():
                if holds[family]:
                    assert classify(A, with_witness=False).family == family
                else:
                    with pytest.raises(StructureError) as e:
                        classify(A, with_witness=False)
                    assert [v[0] for v in e.value.violations] == ["r"]


def test_classify_structure_dispatch():
    assert classify_structure(
        canonical_structure("graph", 3, [(0, 1)])).family == "graph"
    assert classify_structure(bowtie()).family == "poset"
    assert classify_structure(m3_structure()).family == "eq_lattice"
    assert classify_structure(FiniteStructure(
        2, [Relation("r", 3, {(0, 0, 1)})])) is None
