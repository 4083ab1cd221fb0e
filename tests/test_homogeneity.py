import itertools
import json
import random
import time

import pytest

from polyhom.structures import (EnvelopeError, FiniteStructure, Relation,
                                PartialOpMap, canonical_structure, power)
from polyhom.search import SearchLimits, _Budget, default_limits
from polyhom.homogeneity import (FunctionTable, is_partial_polymorphism,
                                 extendable, canonical_partial_nu,
                                 find_nu_polymorphism, is_k_ph,
                                 is_hom_homogeneous, decide_ph,
                                 _blocking_patterns_all_values,
                                 _merge_patterns)
from polyhom.galois import gamma_closure, qf_type_closure, tau_extension_map
from polyhom.crosscheck import _table_from_json
from polyhom.generate import all_n2_binary, all_graphs, all_posets

from oracles import (table_apply, oracle_polymorphisms,
                     oracle_is_polymorphism, oracle_is_partial_polymorphism,
                     oracle_extends, oracle_all_partial_maps, oracle_is_k_ph)


def chain2():
    return canonical_structure("poset", 2, [(0, 0), (0, 1), (1, 1)],
                               name="chain2")


def k2():
    return canonical_structure("graph", 2, [(0, 1)], name="k2")


def path3():
    return canonical_structure("graph", 3, [(0, 1), (1, 2)], name="p3")


def bowtie():
    return canonical_structure(
        "poset", 4,
        [(i, i) for i in range(4)] + [(0, 2), (0, 3), (1, 2), (1, 3)],
        name="bowtie")


def diamond():
    return canonical_structure(
        "poset", 4,
        [(i, i) for i in range(4)] + [(0, 1), (0, 2), (0, 3), (1, 3),
                                      (2, 3)],
        name="diamond")


def tern3():
    # one ternary relation on three points
    return FiniteStructure(3, [Relation("t", 3, {(0, 1, 2), (1, 2, 0),
                                                 (2, 0, 1), (0, 0, 0)})],
                           name="tern3")


def _total_as_partial(ft):
    return PartialOpMap(ft.arity, ft.size, tuple(ft.graph_entries()))


# ------------------------------------------------- partial polymorphism

def test_is_partial_polymorphism_matches_oracle_n2():
    for A in all_n2_binary():
        for k in (1, 2):
            for entries in oracle_all_partial_maps(2, k):
                f = PartialOpMap(k, 2, tuple(entries.items()))
                ok, violation = is_partial_polymorphism(A, f)
                assert ok == oracle_is_partial_polymorphism(A, entries, k)
                if not ok:
                    rel = A.relation(violation[0])
                    image = violation[2]
                    assert tuple(image) not in rel.tuples


def test_is_partial_polymorphism_matches_oracle_ternary():
    # with and without a unary relation next to the ternary one
    unary = Relation("u", 1, {(0,), (1,)})
    with_unary = FiniteStructure(3, [unary, *tern3().relations],
                                 name="tern3u")
    maps = [
        {(0,): 0, (1,): 2},
        {(0,): 0, (1,): 1, (2,): 2},
        {(0,): 1, (1,): 2, (2,): 0},
        {(0,): 1, (1,): 0, (2,): 2},
        {(0, 1): 0, (1, 2): 1},
        {(0, 1): 1, (1, 2): 2, (2, 0): 0},
        {(0, 1): 2, (2, 2): 0},
        {(0, 0): 1, (1, 0): 0, (2, 1): 2},
    ]
    for A in (tern3(), with_unary):
        for entries in maps:
            k = len(next(iter(entries)))
            f = PartialOpMap(k, 3, tuple(entries.items()))
            ok, violation = is_partial_polymorphism(A, f)
            assert ok == oracle_is_partial_polymorphism(A, entries, k)
            if violation is not None and violation[0] == "u":
                # the first domain row in u whose image leaves u
                row = next(r for r in sorted(entries)
                           if set(r) <= {0, 1} and entries[r] == 2)
                assert violation[1:] == ((row,), (2,))


# ------------------------------------------------------------ extendable

def test_extendable_agrees_with_brute_force_n2():
    limits = default_limits()
    for A in all_n2_binary():
        for k in (1, 2):
            pols = oracle_polymorphisms(A, k)
            for entries in oracle_all_partial_maps(2, k):
                f = PartialOpMap(k, 2, tuple(entries.items()))
                res = extendable(A, f, limits)
                want = (oracle_is_partial_polymorphism(A, entries, k)
                        and oracle_extends(A, entries, k, pols))
                assert res.extendable == want, (A.name, entries, res.status)
                if res.extendable:
                    assert res.witness.extends(f)
                    table = tuple(res.witness.apply(args) for args in
                                  itertools.product(range(2), repeat=k))
                    assert oracle_is_polymorphism(A, table, k)


def test_extendable_agrees_with_brute_force_n3_samples():
    limits = default_limits()
    A = path3()
    pols2 = oracle_polymorphisms(A, 2)
    count = 0
    for entries in oracle_all_partial_maps(3, 2):
        if len(entries) > 2:
            continue
        count += 1
        f = PartialOpMap(2, 3, tuple(entries.items()))
        res = extendable(A, f, limits)
        want = (oracle_is_partial_polymorphism(A, entries, 2)
                and oracle_extends(A, entries, 2, pols2))
        assert res.extendable == want, (entries, res.status)
    assert count > 100


def test_extendable_empty_map():
    res = extendable(chain2(), PartialOpMap(2, 2, ()), default_limits())
    assert res.extendable and res.detail["route"] == "projection"


def test_extendable_rejects_non_partial_polymorphism():
    A = k2()
    f = PartialOpMap(1, 2, (((0,), 0), ((1,), 0)))
    res = extendable(A, f, default_limits())
    assert res.not_extendable and res.detail["route"] == "rejected"


def test_extendable_merged_columns_give_a_table_on_the_kept_columns():
    # domain columns 0 and 2 agree, so the CSP runs on the binary map they
    # reduce to (the meet on the kept columns), and the ternary witness
    # reads that binary table at argument positions 0 and 1
    A = chain2()
    f = PartialOpMap(3, 2, {(0, 1, 0): 0, (1, 0, 1): 0})
    res = extendable(A, f, default_limits())
    assert res.extendable and res.detail["route"] == "csp"
    w = res.witness
    assert (w.kind, w.arity, w.columns, len(w.payload)) == (
        "table", 3, (0, 1), 4)
    assert w.extends(f)
    table = tuple(w.apply(args)
                  for args in itertools.product(range(2), repeat=3))
    assert oracle_is_polymorphism(A, table, 3)
    obj = json.loads(json.dumps(w.to_json()))
    assert obj["columns"] == [0, 1] and len(obj["values"]) == 4
    back = _table_from_json(obj)
    for args in itertools.product(range(2), repeat=3):
        assert back.apply(args) == w.apply(args) == w.payload[
            2 * args[0] + args[1]]
    # without merged columns the table reads every position
    g = PartialOpMap(2, 2, {(0, 1): 0, (1, 0): 0})
    plain = extendable(A, g, default_limits()).witness
    assert plain.columns is None and "columns" not in plain.to_json()


def test_extendable_out_of_csp_envelope_raises():
    # thirteen distinct columns on three points need an extension CSP of
    # 3^13 > 2^20 variables (search.MAX_CSP_VARS), so a candidate outside
    # tau that is neither rejected nor a projection must raise EnvelopeError
    A = FiniteStructure(3, [Relation("cyc", 3, {(0, 1, 2), (1, 2, 0),
                                                (2, 0, 1)})])
    tau = sorted(itertools.product(range(3), repeat=3))[:13]
    extra = [b for b in qf_type_closure(A, tau) if b not in tau]
    assert extra
    f = tau_extension_map(tau, extra[0], 3)
    assert is_partial_polymorphism(A, f)[0]
    reason = r"extension CSP has 1594323 variables \(cap 1048576\)"
    with pytest.raises(EnvelopeError, match=reason):
        extendable(A, f, default_limits())
    with pytest.raises(EnvelopeError, match=reason):
        gamma_closure(A, tau)


# --------------------------------------------------------- near-unanimity

def test_canonical_partial_nu_shape():
    g = canonical_partial_nu(chain2(), 3)
    assert g.arity == 3 and len(g) == 2 + 2 * 1 * 3
    assert g((0, 0, 0)) == 0 and g((0, 1, 0)) == 0 and g((1, 0, 1)) == 1
    with pytest.raises(ValueError):
        canonical_partial_nu(chain2(), 2)


def test_canonical_partial_nu_is_always_partial_polymorphism():
    # arity max(2, max relation arity) + 1 leaves one undisturbed column,
    # so the image tuple appears among the columns of any selection
    for A in [chain2(), k2(), path3(), bowtie(), tern3()]:
        r = max(2, A.max_arity) + 1
        g = canonical_partial_nu(A, r)
        ok, violation = is_partial_polymorphism(A, g)
        assert ok, (A.name, violation)


def test_total_op_is_nu_iff_it_extends_canonical_map():
    A = chain2()
    g = canonical_partial_nu(A, 3)

    def is_nu(table):
        for a in range(2):
            for t in itertools.product(range(2), repeat=3):
                if sum(1 for e in t if e != a) <= 1 and \
                        table_apply(table, 2, t) != a:
                    return False
        return True

    for table in itertools.product(range(2), repeat=8):
        ext = all(table_apply(table, 2, args) == v for args, v in g.entries)
        assert ext == is_nu(table)


def test_find_nu_agrees_with_brute_existence_n2():
    limits = default_limits()
    for A in all_n2_binary():
        res = find_nu_polymorphism(A, 3, limits)
        brute = any(
            oracle_is_polymorphism(A, t, 3)
            and all(table_apply(t, 2, args) == v
                    for args, v in canonical_partial_nu(A, 3).entries)
            for t in itertools.product(range(2), repeat=8))
        assert res.extendable == brute
        if res.extendable:
            table = tuple(res.witness.apply(args) for args in
                          itertools.product(range(2), repeat=3))
            assert oracle_is_polymorphism(A, table, 3)


def test_bowtie_has_no_ternary_nu():
    res = find_nu_polymorphism(bowtie(), 3, default_limits())
    assert res.not_extendable


# ------------------------------------------------------------ k-homogeneity

def test_one_point_reduction_matches_full_brute_force_n2():
    # the one-point-extension reduction must agree with literal
    # every-partial-map-extends brute force before it is trusted
    limits = default_limits()
    for A in all_n2_binary():
        for k in (1, 2, 3):
            got = is_k_ph(A, k, limits)
            assert got.status in ("holds", "fails")
            assert (got.status == "holds") == oracle_is_k_ph(A, k), \
                (A.name, k)


def test_k_ph_counterexample_is_genuinely_stuck():
    limits = default_limits()
    for A in all_n2_binary():
        res = is_k_ph(A, 2, limits)
        if not res.fails:
            continue
        f = res.counterexample["map"]
        x = res.counterexample["point"]
        entries = dict(f.entries)
        assert oracle_is_partial_polymorphism(A, entries, 2)
        for v in range(A.size):
            extended = dict(entries)
            extended[x] = v
            assert not oracle_is_partial_polymorphism(A, extended, 2)


def test_phhh_equivalence_n2():
    # k-homogeneity of A equals unary homogeneity of the k-th power
    limits = default_limits()
    for A in all_n2_binary():
        for k in (1, 2, 3):
            direct = is_k_ph(A, k, limits).status
            via = is_hom_homogeneous(power(A, k)).status
            assert direct == via, (A.name, k)


def test_hierarchy_monotone_n2():
    limits = default_limits()
    for A in all_n2_binary():
        status = {k: is_k_ph(A, k, limits).status for k in (1, 2, 3)}
        for k in (1, 2):
            if status[k + 1] == "holds":
                assert status[k] == "holds", (A.name, status)


def _scan_every_point(A, k):
    """The one-point search over every point of A^k in lexicographic
    order: (point, map, blocked_values, steps) for the first point where a
    stuck partial polymorphism is found, else (None, None, None, steps)."""
    n = A.size
    budget = _Budget(default_limits())
    for x in itertools.product(range(n), repeat=k):
        by_value = _blocking_patterns_all_values(A, x, k, budget)
        if any(not pats for pats in by_value):
            continue
        per_value = sorted(((v, by_value[v]) for v in range(n)),
                           key=lambda pv: (len(pv[1]), pv[0]))
        found = _merge_patterns(A, k, x, per_value, 0, {}, budget)
        if found is None:
            continue
        f = PartialOpMap(k, n, found)
        blocked = []
        for v in range(n):
            ok, viol = is_partial_polymorphism(A, f.with_entry(x, v))
            assert not ok
            blocked.append({"value": v, "relation": viol[0],
                            "rows": [list(r) for r in viol[1]],
                            "image": list(viol[2])})
        return x, f, blocked, budget.nodes
    return None, None, None, budget.nodes


def _mixed_arity_structure(rng, index):
    n = rng.choice((2, 3))
    rels = [Relation(name, r, {t for t in itertools.product(range(n),
                                                            repeat=r)
                               if rng.random() < 0.5})
            for name, r in (("u", 1), ("b", 2), ("t", 3))]
    return FiniteStructure(n, rels, name="mixed%d" % index)


def test_orbit_search_answers_as_the_scan_of_every_point():
    # is_k_ph visits one point per coordinate-permutation orbit; it must
    # stop at the point, with the map, that a scan of all n^k points gives
    rng = random.Random(12)
    cases = [(A, k) for A in all_n2_binary() for k in (1, 2, 3)]
    cases += [(A, k) for A in all_graphs(3) + all_posets(3)
              for k in (1, 2)]
    cases += [(_mixed_arity_structure(rng, i), k) for i in range(12)
              for k in (1, 2)]
    fails = 0
    saved = False
    for A, k in cases:
        x, f, blocked, steps = _scan_every_point(A, k)
        res = is_k_ph(A, k)
        assert res.status == ("holds" if x is None else "fails"), (A.name, k)
        assert res.detail["steps"] <= steps, (A.name, k)
        saved = saved or res.detail["steps"] < steps
        if x is None:
            continue
        fails += 1
        ce = res.counterexample
        assert (ce["map"], ce["point"], ce["blocked_values"]) == (
            f, x, blocked), (A.name, k)
        assert list(ce["point"]) == sorted(ce["point"])
    assert 0 < fails < len(cases) and saved


def test_is_k_ph_rejects_bad_k():
    with pytest.raises(ValueError):
        is_k_ph(chain2(), 0)


def test_is_k_ph_stops_on_either_budget():
    # one allowance per call: the pattern steps of every point spend it
    m6 = canonical_structure("graph", 6, [(0, 1), (2, 3), (4, 5)], name="3K2")
    full = is_k_ph(m6, 2)
    assert full.holds
    for limits, reason in ((SearchLimits(wall_budget=1e-9), "wall_budget"),
                           (SearchLimits(node_budget=1), "node_budget")):
        res = is_k_ph(m6, 2, limits)
        assert (res.status, res.detail["reason"]) == ("exhausted", reason)
        assert res.detail["steps"] < full.detail["steps"]


# --------------------------------------------------------------- decide_ph

def test_decide_ph_singleton():
    A = FiniteStructure(1, [Relation("r", 1, {(0,)})], name="pt")
    v = decide_ph(A)
    assert v.status == "PH" and v.certificate["kind"] == "singleton"


def chain(n):
    return canonical_structure(
        "poset", n, [(i, j) for i in range(n) for j in range(i, n)],
        name="chain%d" % n)


def m3_lattice():
    le = [(i, i) for i in range(5)] + [(0, j) for j in range(1, 5)]
    return canonical_structure("poset", 5, le + [(j, 4) for j in range(1, 4)],
                               name="m3")


def n5_lattice():
    le = [(i, i) for i in range(5)] + [(0, j) for j in range(1, 5)]
    le += [(j, 4) for j in range(1, 4)] + [(1, 3)]
    return canonical_structure("poset", 5, le, name="n5")


def ternary(n, rule, name):
    return FiniteStructure(n, [Relation("r", 3, {
        t for t in itertools.product(range(n), repeat=3) if rule(*t)})],
        name=name)


def test_decide_ph_known_verdicts():
    from polyhom.crosscheck import verify_certificate
    limits = default_limits()
    three_chains2 = canonical_structure(
        "poset", 6, [(i, i) for i in range(6)] + [(0, 1), (2, 3), (4, 5)],
        name="3chain2")
    mono3 = ternary(3, lambda a, b, c: a <= b <= c, "mono3")
    # its near-unanimity probe is a 256-variable CSP whose relation has
    # 50^4 tuples on the power, none of them listed
    minle4 = ternary(4, lambda a, b, c: min(a, b) <= c, "minle4")
    cases = [(chain2(), "PH"), (k2(), "PH"), (path3(), "NotPH"),
             (bowtie(), "NotPH"),
             # PH, and past the reach of a sweep over all tuple sets
             (chain(5), "PH"),
             (canonical_structure("graph", 5, [], name="empty5"), "PH"),
             (canonical_structure("graph", 6, [(0, 1), (2, 3), (4, 5)],
                                  name="3k2"), "PH"),
             (m3_lattice(), "PH"), (n5_lattice(), "PH"),
             (three_chains2, "NotPH"), (mono3, "PH"), (minle4, "NotPH")]
    for A, expected in cases:
        v = decide_ph(A, limits)
        assert v.status == expected, A.name
        if expected == "PH":
            assert v.certificate["kind"] == "sweep_complete", A.name
        assert verify_certificate(A, v.to_json(), limits)["ok"], A.name
    assert decide_ph(bowtie(), limits).certificate["kind"] == \
        "no_near_unanimity"


# statuses of decide_ph on the 256 structures on {0,1} with one ternary
# relation, relation mask i over the itertools.product order of {0,1}^3
TERNARY_N2_STATUSES = (
    "PPNPNPNNNPNNNNNPNPNNNNNNPPNNNNNPNPNNPPNNNNNNNNNNNNNPNNNPNNNNPNNP"
    "NPPPNNNNNNNNNNNNNNNNNPNPNNPNNNNPNNNNNNPNNNNNNNNNNNNNNNNPNNNNNNNP"
    "PPPPPPNNPPNPNPNPPPNNNNNNPPNNNNNNPPNPPPNNNNPPNNNPNPNPNNNNNNNPNNNN"
    "PPPPNPNNNNNNPPNPNPNNNPNNNNNNNPNNNNNNNNNNNNPNPNPNPPNPNPNNPNPNPNPP")


def test_decide_ph_two_element_ternary_statuses():
    points = list(itertools.product(range(2), repeat=3))
    got = ""
    for mask in range(256):
        rel = {t for i, t in enumerate(points) if mask >> i & 1}
        got += decide_ph(FiniteStructure(2, [Relation("r", 3, rel)])).status[0]
    assert got == TERNARY_N2_STATUSES


def test_decide_ph_nu_necessity():
    # a PH verdict implies the near-unanimity stage found a witness
    limits = default_limits()
    for A in all_n2_binary() + all_graphs(3):
        v = decide_ph(A, limits)
        if v.status != "PH":
            continue
        res = find_nu_polymorphism(A, max(2, A.max_arity) + 1, limits)
        assert res.extendable, A.name


def test_decide_ph_certificates_reverify():
    from polyhom.crosscheck import verify_certificate
    limits = default_limits()
    for A in all_n2_binary() + all_graphs(3):
        v = decide_ph(A, limits)
        assert v.status in ("PH", "NotPH")
        check = verify_certificate(A, v.to_json(), limits)
        assert check["ok"], (A.name, check)


def test_decide_ph_full_diamond_sweep():
    # 1 qf-closed set at m = 1 and 4 at m = 2; a cover after the first
    # verified one of its set only checks that cover's images
    v = decide_ph(diamond())
    assert v.status == "PH"
    assert v.certificate["kind"] == "sweep_complete"
    assert v.certificate["stats"] == {"qf_sets": 5, "covers": 45,
                                      "extendable_calls": 77}
    assert not v.blocked


def test_decide_ph_wall_budget_is_one_deadline():
    # the budget covers the whole call, not each extension CSP, so the
    # diamond's sweep stops early with an honest Inconclusive
    t0 = time.monotonic()
    v = decide_ph(diamond(), SearchLimits(wall_budget=0.01))
    assert time.monotonic() - t0 < 1
    assert v.status == "Inconclusive"
    assert v.certificate is None
    assert any(b["step"] == "sweep" and b["reason"] == "wall_budget"
               for b in v.blocked)


def test_decide_ph_inconclusive_when_sweep_is_capped():
    # the diamond is a lattice (so actually PH), but a one-node budget
    # blocks the sweep's extension CSPs; that yields no verdict
    v = decide_ph(diamond(), SearchLimits(node_budget=1))
    assert v.status == "Inconclusive"
    assert v.certificate is None
    assert v.blocked
    assert all(b["step"] == "sweep" and b["reason"] == "node_budget"
               for b in v.blocked)
    assert "POLYHOM_NODE_BUDGET" in v.guidance


def test_decide_ph_spends_one_node_allowance():
    # the diamond's sweep solves 78 CSPs of at most 12 nodes each, 320 in
    # all: each one fits in 100 nodes, all of them together do not
    v = decide_ph(diamond(), SearchLimits(node_budget=100))
    assert v.status == "Inconclusive"
    assert v.certificate is None
    # one candidate ran out of nodes, and the sweep stopped there: the
    # stop is not counted as a second blocked candidate
    [block] = v.blocked
    assert block["step"] == "sweep" and block["reason"] == "node_budget"
    assert block["count"] == 1 and "tau" in block
    assert decide_ph(diamond()).status == "PH"


def test_decide_ph_reports_each_csps_own_nodes():
    # every CSP of a call spends one allowance, but its detail["nodes"] is
    # its own share: a larger allowance changes none of them, and a sweep
    # refutation after a 6-node near-unanimity probe reports 0, the nodes
    # of its own CSP run alone
    v = decide_ph(diamond())
    assert decide_ph(diamond(), SearchLimits(node_budget=10 ** 6)).to_json() \
        == v.to_json()
    g = all_graphs(3)[1]  # one edge and an isolated vertex
    v = decide_ph(g)
    assert v.trace[0]["detail"]["nodes"] == 6
    assert v.certificate["kind"] == "non_extendable_map"
    f = PartialOpMap.from_json(v.certificate["map"])
    assert v.certificate["evidence"]["nodes"] == \
        extendable(g, f).detail["nodes"] == 0


def test_decide_ph_envelope_guidance_on_large_poset():
    # N5 is PH (see the known verdicts), but with a one-node budget no
    # certificate can be built; the guidance names the budgets and points
    # to family classification instead of giving an uncertified verdict
    v = decide_ph(n5_lattice(), SearchLimits(node_budget=1))
    assert v.status == "Inconclusive"
    assert v.certificate is None
    assert {b["step"] for b in v.blocked} == {"nu", "sweep"}
    assert all(b["reason"] == "node_budget" for b in v.blocked)
    assert "POLYHOM_NODE_BUDGET" in v.guidance
    assert "family classification" in v.guidance


def test_decide_ph_budget_one_can_still_refute_soundly():
    # refutations proven by root propagation alone consume no nodes, so a
    # starved budget may still produce a (valid) negative certificate
    from polyhom.crosscheck import verify_certificate
    v = decide_ph(bowtie(), SearchLimits(node_budget=1))
    assert v.status == "NotPH"
    assert verify_certificate(bowtie(), v.to_json())["ok"]


def test_decide_ph_blocked_candidates_stay_inconclusive(monkeypatch):
    # with every extendability check knocked out nothing can be certified,
    # and the verdict stays Inconclusive
    import polyhom.homogeneity as hm

    def refuse(*args, **kwargs):
        raise EnvelopeError("verification disabled for this test")

    monkeypatch.setattr(hm, "extendable", refuse)
    v = decide_ph(bowtie(), default_limits())
    assert v.status == "Inconclusive"
    assert v.certificate is None
    # one entry per (step, m, reason), each counting its blocked candidates
    assert [(b["step"], b.get("m"), b["reason"]) for b in v.blocked] == [
        ("nu", None, "envelope"), ("sweep", 1, "envelope"),
        ("sweep", 2, "envelope")]
    assert v.blocked[2]["count"] == 352
