"""The polymorphism / invariant-relation connection against brute oracles."""

import itertools
from types import SimpleNamespace

import pytest

from polyhom import (EnvelopeError, FiniteStructure, Relation, SearchLimits,
                     StructureError, check_finite_polylocal,
                     cross_check_inv_pol, enumerate_polymorphisms, extendable,
                     gamma_closure, invariant_relations, is_pp_definable,
                     qf_type_closure, tau_extension_map)
from polyhom import galois, homogeneity, search
from polyhom.galois import QfAtoms, RelationFamily
from polyhom.generate import all_graphs, all_n2_binary, all_posets

from oracles import (oracle_gamma, oracle_invariant_relations,
                     oracle_is_partial_polymorphism, oracle_polymorphisms,
                     oracle_pp_definable)


def chain2():
    return FiniteStructure(2, [Relation("le", 2, {(0, 0), (0, 1), (1, 1)})],
                           name="chain2")


def k2():
    return FiniteStructure(2, [Relation("edge", 2, {(0, 1), (1, 0)})],
                           name="k2")


def edgeless2():
    return FiniteStructure(2, [Relation("edge", 2, set())], name="edgeless2")


def path3():
    return FiniteStructure(
        3, [Relation("edge", 2, {(0, 1), (1, 0), (1, 2), (2, 1)})],
        name="path3")


def bowtie():
    le = {(i, i) for i in range(4)} | {(0, 2), (0, 3), (1, 2), (1, 3)}
    return FiniteStructure(4, [Relation("le", 2, le)], name="bowtie")


def ternary2():
    return FiniteStructure(
        2, [Relation("r", 3, {(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 0)}),
            Relation("u", 1, {(1,)})], name="ternary2")


def table_values(ft):
    return tuple(ft.apply(args) for args in
                 itertools.product(range(ft.size), repeat=ft.arity))


def op_pairs(tables):
    # oracle format for operation sets
    return [(ft.arity, table_values(ft)) for ft in tables]


def nonempty_subsets(points, max_size=None):
    top = len(points) if max_size is None else max_size
    for size in range(1, top + 1):
        for tau in itertools.combinations(points, size):
            yield tau


# ---------------------------------------------------------------- enumeration

def test_enumerate_polymorphisms_counts_on_order_and_edge():
    for structure, expected in [(chain2(), {1: 3, 2: 6}),
                                (k2(), {1: 2, 2: 4}),
                                (edgeless2(), {1: 4, 2: 16})]:
        for k, count in expected.items():
            tables, complete = enumerate_polymorphisms(structure, k)
            assert complete
            assert len(tables) == count


def test_enumerate_polymorphisms_matches_oracle_on_two_point_structures():
    for structure in all_n2_binary():
        for k in (1, 2):
            tables, complete = enumerate_polymorphisms(structure, k)
            assert complete
            got = {table_values(ft) for ft in tables}
            assert got == set(oracle_polymorphisms(structure, k))


def test_enumerate_polymorphisms_matches_oracle_on_three_points():
    structure = path3()
    tables, complete = enumerate_polymorphisms(structure, 2)
    assert complete
    got = {table_values(ft) for ft in tables}
    assert got == set(oracle_polymorphisms(structure, 2))


def test_enumerate_polymorphisms_cap_reports_incomplete(monkeypatch):
    monkeypatch.setattr(galois, "MAX_ENUMERATED_POLYMORPHISMS", 3)
    tables, complete = enumerate_polymorphisms(chain2(), 2)
    assert not complete
    assert 0 < len(tables) <= 3


def test_enumerate_polymorphisms_envelope():
    with pytest.raises(EnvelopeError):
        enumerate_polymorphisms(chain2(), 21)


# ---------------------------------------------------------------- qf closure

def test_qf_type_closure_known_values():
    assert set(qf_type_closure(chain2(), [(0, 1)])) == {(0, 0), (0, 1),
                                                        (1, 1)}
    assert set(qf_type_closure(k2(), [(0, 1)])) == {(0, 1), (1, 0)}


def test_qf_type_closure_of_everything_is_everything():
    for structure in (chain2(), k2(), path3()):
        n = structure.size
        full = list(itertools.product(range(n), repeat=2))
        assert set(qf_type_closure(structure, full)) == set(full)


def test_qf_type_closure_equals_partial_polymorphism_test():
    # b qualifies exactly when the row-to-b map is a well defined partial
    # polymorphism of arity |tau|; the three-point inputs exercise
    # coordinate equalities, and the ternary one arity-3 selections
    cases = ([(A, 2) for A in all_n2_binary()]
             + [(A, 2) for A in all_graphs(3) + all_posets(3)]
             + [(ternary2(), 3)])
    for structure, m in cases:
        points = sorted(itertools.product(range(structure.size), repeat=m))
        for tau in nonempty_subsets(points, max_size=3):
            got = set(qf_type_closure(structure, tau))
            expected = set()
            for b in points:
                rows = [tuple(t[i] for t in tau) for i in range(m)]
                entries = {}
                functional = True
                for row, val in zip(rows, b):
                    if entries.get(row, val) != val:
                        functional = False
                        break
                    entries[row] = val
                if functional and oracle_is_partial_polymorphism(
                        structure, entries, len(tau)):
                    expected.add(b)
            assert got == expected, (structure.name, tau)


def test_qf_atoms_covers_are_the_minimal_tuple_sets():
    # brute force: group the nonempty tuple sets by qf-type closure, and
    # keep each one whose one-smaller subsets all have larger closures
    cases = ([(A, m) for A in all_n2_binary() for m in (1, 2, 3)]
             + [(A, m) for A in all_graphs(3) + all_posets(3)
                for m in (1, 2)]
             + [(ternary2(), 3)])
    for structure, m in cases:
        points = sorted(itertools.product(range(structure.size), repeat=m))
        qf = {frozenset(tau): frozenset(qf_type_closure(structure, tau))
              for tau in nonempty_subsets(points)}
        expected = {}
        for tau, q in qf.items():
            if len(tau) == 1 or all(qf[tau - {t}] != q for t in tau):
                expected.setdefault(q, set()).add(tau)
        atoms = QfAtoms(structure, m)
        got = {}
        for q, mask in atoms.qf_sets():
            covers = atoms.covers(q, mask)
            assert covers == sorted(covers,
                                    key=lambda c: (c.bit_count(), c))
            got[frozenset(atoms.decode(q))] = {
                frozenset(atoms.decode(c)) for c in covers}
        assert got == expected, (structure.name, m)


def test_qf_type_closure_input_errors():
    with pytest.raises(ValueError):
        qf_type_closure(chain2(), [])
    with pytest.raises(StructureError):
        qf_type_closure(chain2(), [(0, 1), (0, 1, 1)])
    with pytest.raises(EnvelopeError):
        qf_type_closure(chain2(), [tuple([0] * 21)])


# ------------------------------------------------------------- image closure

def test_gamma_closure_known_values():
    assert set(gamma_closure(chain2(), [(0, 1)])) == {(0, 0), (0, 1), (1, 1)}
    assert set(gamma_closure(chain2(), [(1, 0)])) == {(0, 0), (1, 0), (1, 1)}
    assert set(gamma_closure(chain2(), [(0, 0)])) == {(0, 0), (1, 1)}
    assert set(gamma_closure(k2(), [(0, 1)])) == {(0, 1), (1, 0)}


def test_gamma_closure_matches_polymorphism_image_oracle():
    points = sorted(itertools.product(range(2), repeat=2))
    for structure in all_n2_binary():
        for tau in nonempty_subsets(points, max_size=3):
            got = set(gamma_closure(structure, tau))
            assert got == oracle_gamma(structure, tau)


def test_gamma_closure_matches_oracle_on_three_points():
    structure = path3()
    for tau in nonempty_subsets([(0,), (1,), (2,)], max_size=2):
        assert set(gamma_closure(structure, tau)) == oracle_gamma(structure,
                                                                  tau)
    for tau in [[(0, 1)], [(0, 1), (1, 2)], [(0, 0), (2, 2)]]:
        assert set(gamma_closure(structure, tau)) == oracle_gamma(structure,
                                                                  tau)


def test_gamma_closure_sandwich_idempotent_monotone():
    points = sorted(itertools.product(range(2), repeat=2))
    for structure in (chain2(), k2(), all_n2_binary()[6]):
        for tau in nonempty_subsets(points, max_size=2):
            tau_set = set(tau)
            gamma = set(gamma_closure(structure, tau))
            assert tau_set <= gamma
            assert gamma <= set(qf_type_closure(structure, tau))
            assert set(gamma_closure(structure, gamma)) == gamma
            for extra in points:
                bigger = set(gamma_closure(structure, tau_set | {extra}))
                assert gamma <= bigger


def test_tau_extension_map_rows():
    f = tau_extension_map([(0, 1), (1, 1)], (0, 1), 2)
    assert f.arity == 2
    assert dict(f.entries) == {(0, 1): 0, (1, 1): 1}


# ------------------------------------------------------------ pp definability

def test_pp_definability_agrees_with_formula_oracle_on_two_points():
    # oracle: solution sets of conjunctions of relation and equality atoms
    # with at most 3 bound variables, projected to the 2 free ones
    points = sorted(itertools.product(range(2), repeat=2))
    for structure in all_n2_binary():
        by_formula = oracle_pp_definable(structure, 2, 3)
        for size in range(1, 5):
            for sigma in itertools.combinations(points, size):
                res = is_pp_definable(structure, sigma)
                assert res.definable == (frozenset(sigma) in by_formula)
                if not res.definable:
                    assert res.witness in set(
                        gamma_closure(structure, sigma))
                    assert res.witness not in set(sigma)


def test_pp_definability_known_answers():
    res = is_pp_definable(chain2(), [(1, 0)])
    assert not res.definable
    assert res.witness is not None
    assert is_pp_definable(chain2(), [(0, 0), (0, 1), (1, 1)]).definable
    for structure in (chain2(), k2(), path3()):
        diag = [(a, a) for a in range(structure.size)]
        assert is_pp_definable(structure, diag).definable


def test_pp_definability_empty_relation_convention():
    assert is_pp_definable(chain2(), []).definable


# --------------------------------------------------------- invariant families

def test_invariant_relations_matches_subset_oracle():
    for structure in (chain2(), k2()):
        tables = []
        for k in (1, 2):
            got, complete = enumerate_polymorphisms(structure, k)
            assert complete
            tables.extend(got)
        for m in (1, 2):
            family = invariant_relations(tables, m, size=2)
            assert set(family.members) == oracle_invariant_relations(
                structure, op_pairs(tables), m)


def test_invariant_relations_match_oracle_on_every_two_point_structure():
    # closed_sets seeds the closure with sets that are not closed, which a
    # semi-naive closure must take as new in its first pass
    for structure in all_n2_binary():
        unary, complete = enumerate_polymorphisms(structure, 1)
        assert complete
        binary, complete = enumerate_polymorphisms(structure, 2)
        assert complete
        for tables in (unary, unary + binary):
            for m in (1, 2):
                family = invariant_relations(tables, m, size=2)
                assert set(family.members) == oracle_invariant_relations(
                    structure, op_pairs(tables), m), (structure.name, m)


def test_invariant_relations_unary_oracle_on_three_points():
    structure = path3()
    tables, complete = enumerate_polymorphisms(structure, 1)
    assert complete
    family = invariant_relations(tables, 1, size=3)
    assert set(family.members) == oracle_invariant_relations(
        structure, op_pairs(tables), 1)


def test_invariant_relations_under_all_unary_maps():
    tables, complete = enumerate_polymorphisms(edgeless2(), 1)
    assert complete
    assert len(tables) == 4
    family = invariant_relations(tables, 1, size=2)
    assert set(family.members) == {frozenset(), frozenset({(0,), (1,)})}


def test_invariant_relations_with_no_operations():
    family = invariant_relations([], 1, size=2)
    assert len(family) == 4


def test_invariant_relations_always_contain_diagonal_and_full():
    for structure in (chain2(), k2(), path3()):
        tables, complete = enumerate_polymorphisms(structure, 2)
        assert complete
        family = invariant_relations(tables, 2, size=structure.size)
        n = structure.size
        assert [(a, a) for a in range(n)] in family
        assert list(itertools.product(range(n), repeat=2)) in family
        assert [] in family


def test_invariant_relations_errors(monkeypatch):
    tables, _ = enumerate_polymorphisms(chain2(), 1)
    with pytest.raises(ValueError):
        invariant_relations([], 1)
    with pytest.raises(EnvelopeError):
        invariant_relations(tables, 5, size=2)
    monkeypatch.setattr(galois, "MAX_INV_MEMBERS", 10)
    with pytest.raises(EnvelopeError):
        invariant_relations([], 2, size=2)
    other, _ = enumerate_polymorphisms(path3(), 1)
    with pytest.raises(StructureError):
        invariant_relations(tables + other, 1, size=2)


def test_relation_family_behavior():
    fam = RelationFamily(2, 2, (frozenset({(0, 1)}), frozenset()))
    same = RelationFamily(2, 2, (frozenset(), frozenset({(0, 1)})))
    assert fam == same
    assert [(0, 1)] in fam
    assert [(1, 0)] not in fam
    assert fam.to_json()["members"] == [[], [[0, 1]]]


# ----------------------------------------------------------- the cross checks

def test_cross_check_inv_pol_on_chain2():
    report = cross_check_inv_pol(chain2(), 2, 2)
    assert report.containment_ok
    assert report.equal_at_max
    assert report.stabilization_arity == 1
    assert report.pol_counts == {1: 3, 2: 6}
    members = set(report.gamma_family.members)
    assert members == {
        frozenset(),
        frozenset({(0, 0), (1, 1)}),
        frozenset({(0, 0), (0, 1), (1, 1)}),
        frozenset({(0, 0), (1, 0), (1, 1)}),
        frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
    }


def test_cross_check_inv_pol_on_k2():
    report = cross_check_inv_pol(k2(), 2, 2)
    assert report.containment_ok
    assert report.equal_at_max
    assert report.pol_counts == {1: 2, 2: 4}
    members = set(report.gamma_family.members)
    assert frozenset({(0, 1), (1, 0)}) in members
    assert frozenset({(0, 0), (1, 1)}) in members
    # the invariant family at the top arity is reproduced by the subset oracle
    tables = []
    for k in (1, 2):
        got, _ = enumerate_polymorphisms(k2(), k)
        tables.extend(got)
    assert set(report.by_arity[2].members) == oracle_invariant_relations(
        k2(), op_pairs(tables), 2)


def test_cross_check_inv_pol_on_edgeless_graph():
    report = cross_check_inv_pol(edgeless2(), 1, 1)
    assert report.equal_at_max
    assert set(report.gamma_family.members) == {frozenset(),
                                                frozenset({(0,), (1,)})}


def test_gamma_family_is_every_gamma_closed_set_of_the_oracle():
    for A in all_n2_binary():
        for m in (1, 2):
            points = sorted(itertools.product(range(2), repeat=m))
            # A^m is gamma-closed outright; the oracle would list all
            # 2^16 four-ary tables to confirm it at m = 2
            want = {frozenset(), frozenset(points)} | {
                frozenset(sigma)
                for sigma in nonempty_subsets(points, len(points) - 1)
                if oracle_gamma(A, sigma) == set(sigma)}
            family = cross_check_inv_pol(A, m, 1).gamma_family
            assert len(family) == len(want), (A.name, m)
            assert set(family.members) == want, (A.name, m)


def test_cross_check_inv_pol_envelope():
    # 2^5 = 32 points, past galois.MAX_INV_POINTS
    with pytest.raises(EnvelopeError, match="32 points"):
        cross_check_inv_pol(chain2(), 5, 1)


def test_cross_check_inv_pol_charges_its_enumerations():
    # listing Pol^1 and Pol^2 of the 3-chain takes 15 + 308 nodes: each
    # fits in 310, both together do not
    le = {(i, j) for i in range(3) for j in range(3) if i <= j}
    chain3 = FiniteStructure(3, [Relation("le", 2, le)], name="chain3")
    with pytest.raises(EnvelopeError, match="arity 2 was cut off"):
        cross_check_inv_pol(chain3, 1, 2, SearchLimits(node_budget=310))
    assert cross_check_inv_pol(chain3, 1, 2, SearchLimits(node_budget=400))
    with pytest.raises(EnvelopeError, match="spent before the arity-2"):
        cross_check_inv_pol(chain3, 1, 2, SearchLimits(node_budget=15))


def _polylocality_by_full_walk(structure, m):
    # every qf candidate of every tuple set, in sweep order, settled
    # through extendable: the walk the skips must agree with
    points = sorted(itertools.product(range(structure.size), repeat=m))
    checked = 0
    settled = 0
    for tau in nonempty_subsets(points):
        checked += 1
        for b in qf_type_closure(structure, tau):
            settled += 1
            res = extendable(structure,
                             tau_extension_map(tau, b, structure.size))
            assert not res.exhausted
            if res.not_extendable:
                return (False, (list(tau), b), checked), settled
    return (True, None, checked), settled


def test_polylocality_matches_the_full_walk():
    cases = [(A, m) for A in all_n2_binary() for m in (1, 2)]
    cases += [(bowtie(), 1), (bowtie(), 2)]
    # an order and a point: the first separation at m = 2 is a pair
    cases += [(FiniteStructure(3, [Relation("le", 2, {(0, 0), (0, 1), (1, 1),
                                                      (2, 2)})]), 2)]
    cases += [(A, 1) for A in list(all_graphs(3)) + list(all_posets(3))]
    for A, m in cases:
        res = check_finite_polylocal(A, m)
        want, _ = _polylocality_by_full_walk(A, m)
        assert (res.holds, res.separation, res.checked) == want, (A.name, m)


def test_polylocality_skips_images_known_to_be_in_gamma(monkeypatch):
    calls = []
    real = galois.extendable

    def counted(structure, f, limits):
        calls.append(f)
        return real(structure, f, limits)

    monkeypatch.setattr(galois, "extendable", counted)
    assert check_finite_polylocal(chain2(), 2).holds
    _, settled = _polylocality_by_full_walk(chain2(), 2)
    assert len(calls) < settled


def _entry_point_calls(structure, limits):
    # the four Galois entry points; the one arc leaves 12 gamma candidates
    # to extendable once Pol^<=2 is listed
    arc = FiniteStructure(2, [Relation("r", 2, {(0, 1)})], name="arc2")
    return (lambda: gamma_closure(structure, [(0, 1), (1, 0)], limits),
            lambda: is_pp_definable(structure, [(0, 1), (1, 0)], limits),
            lambda: check_finite_polylocal(structure, 1, limits),
            lambda: cross_check_inv_pol(arc, 2, 2, limits))


def _watch_csps(monkeypatch, before, after=None):
    # call before(limits) and after(limits, result) around every
    # extendable CSP and every polymorphism enumeration of galois
    for name in ("extendable", "enumerate_polymorphisms"):
        def watched(structure, arg, limits, real=getattr(galois, name)):
            before(limits)
            out = real(structure, arg, limits)
            if after:
                after(limits, out)
            return out
        monkeypatch.setattr(galois, name, watched)


def test_galois_entry_points_spend_one_deadline(monkeypatch):
    # a clock that moves one second per CSP: every CSP of a call, the
    # enumerations among them, sees the one deadline 100 s after its start
    now = [0.0]
    monkeypatch.setattr(search, "time",
                        SimpleNamespace(monotonic=lambda: now[0]))
    deadlines = []

    def tick(limits):
        deadlines.append(limits.deadline)
        now[0] += 1

    _watch_csps(monkeypatch, tick)
    for call in _entry_point_calls(chain2(), SearchLimits(wall_budget=100)):
        deadlines.clear()
        now[0] = 0.0
        call()
        assert len(deadlines) >= 2
        assert deadlines == [100] * len(deadlines)


def test_galois_entry_points_spend_one_node_allowance(monkeypatch):
    # every CSP of a call, the polymorphism enumerations among them,
    # spends from one node count, and an extension CSP reports its own
    # share of it
    seen = []  # (allowance, nodes spent before, nodes spent after)

    def before(limits):
        seen.append((limits, limits.nodes))

    def after(limits, out):
        budget, start = seen[-1]
        seen[-1] = (budget, start, limits.nodes)
        if isinstance(out, homogeneity.ExtendResult):
            assert out.detail.get("nodes", 0) == limits.nodes - start

    _watch_csps(monkeypatch, before, after)
    for call in _entry_point_calls(bowtie(), SearchLimits(node_budget=10_000)):
        seen.clear()
        call()
        assert len(seen) >= 2
        assert len({id(b) for b, _, _ in seen}) == 1
        assert isinstance(seen[0][0], search._Budget)
        assert seen[0][0].node_budget == 10_000
        spent = [0] + [end for _, _, end in seen]
        assert [start for _, start, _ in seen] == spent[:-1]
    # Pol^1 and Pol^2 were listed first, and spent nodes of their own
    assert seen[1][2] > 0
    # 16 solves of at most 12 nodes each, 60 in all
    monkeypatch.undo()
    assert gamma_closure(bowtie(), [(0, 1), (1, 0)],
                         SearchLimits(node_budget=60)) == gamma_closure(
                             bowtie(), [(0, 1), (1, 0)])
    with pytest.raises(EnvelopeError):
        gamma_closure(bowtie(), [(0, 1), (1, 0)],
                      SearchLimits(node_budget=30))


def test_polylocality_holds_on_the_two_point_chain():
    for m, count in [(1, 3), (2, 15)]:
        res = check_finite_polylocal(chain2(), m)
        assert res.holds
        assert res.separation is None
        assert res.checked == count


def test_polylocality_holds_on_the_edge():
    for m in (1, 2):
        assert check_finite_polylocal(k2(), m).holds


def test_polylocality_fails_on_the_bowtie_order():
    res = check_finite_polylocal(bowtie(), 2)
    assert not res.holds
    tau, b = res.separation
    assert tau == [(0, 1)]
    assert b == (2, 3)
    assert res.checked == 2
    # the separation is genuine: b passes the atomic test yet no
    # order-preserving map sends 0, 1 to 2, 3
    assert b in set(qf_type_closure(bowtie(), tau))
    assert b not in oracle_gamma(bowtie(), tau)


def test_polylocality_holds_at_arity_one_on_the_bowtie_order():
    res = check_finite_polylocal(bowtie(), 1)
    assert res.holds
    assert res.checked == 15


def test_polylocality_subset_cap():
    # 2^5 points give 2^32 - 1 tuple sets, past MAX_POLYLOCAL_SETS
    with pytest.raises(EnvelopeError):
        check_finite_polylocal(chain2(), 5)
