"""Batch cross-validation harness.

Each suite pits the generic decision procedure against an independent
authority (direct k-extendability checks, power-structure reduction,
family classification, the arithmetical-lattice test, or hand-computed
closure values) over a canonical instance list, in one process and in
canonical order.
"""

from __future__ import annotations

from .structures import PartialOpMap, canonical_structure, power
from .classify import (classify_structure, is_arithmetical,
                       kaarli_cross_check)
from .homogeneity import (FunctionTable, canonical_partial_nu, decide_ph,
                          extendable, is_k_ph, is_partial_polymorphism)
from .search import default_limits
from . import generate as gen
from . import galois


SUITE_NAMES = ("n2", "phhh", "graphs3", "posets3", "strict3",
               "galois", "kaarli")


# ---------------------------------------------------------- named fixtures

def chain2():
    return canonical_structure("poset", 2, [(0, 0), (0, 1), (1, 1)],
                               name="chain2")


def edge2():
    return canonical_structure("graph", 2, [(0, 1)], name="edge2")


def bowtie_poset():
    # two minimal points both below two maximal points, no midpoint
    le = [(i, i) for i in range(4)] + [(0, 2), (0, 3), (1, 2), (1, 3)]
    return canonical_structure("poset", 4, le, name="bowtie")


def m3_partitions():
    """The three perfect matchings of 4 points plus bounds: a modular,
    non-distributive sublattice of the partition lattice."""
    return [
        ((0,), (1,), (2,), (3,)),
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
        ((0, 1, 2, 3),),
    ]


def m3_structure():
    return canonical_structure(
        "eq_lattice", 4, [list(map(list, p)) for p in m3_partitions()],
        name="m3")


# ---------------------------------------------------------------- verifier

def _table_from_json(obj):
    if "values" in obj:
        return FunctionTable(obj["arity"], obj["size"], "table",
                             list(obj["values"]), columns=obj.get("columns"))
    if obj.get("kind") == "projection":
        return FunctionTable(obj["arity"], obj["size"], "projection",
                             obj["coordinate"])
    return None


def verify_certificate(structure, verdict_json, limits=None):
    """Re-check an embedded certificate independently of the pipeline that
    produced it. Returns {ok, kind, checks}; a NotPH map must re-verify as
    a partial polymorphism with an unsatisfiable extension problem, and a
    PH near-unanimity witness must re-verify as one."""
    status = verdict_json.get("status")
    cert = verdict_json.get("certificate")
    checks = []
    if status == "Inconclusive":
        ok = cert is None
        checks.append({"check": "no_certificate_on_inconclusive", "ok": ok})
        return {"ok": ok, "kind": None, "checks": checks}
    if cert is None:
        return {"ok": False, "kind": None,
                "checks": [{"check": "certificate_present", "ok": False}]}
    kind = cert.get("kind")
    if kind == "singleton":
        ok = structure.size == 1
        checks.append({"check": "one_element_carrier", "ok": ok})
    elif kind in ("no_near_unanimity", "non_extendable_map"):
        f = PartialOpMap.from_json(cert["map"])
        ok1, _ = is_partial_polymorphism(structure, f)
        checks.append({"check": "is_partial_polymorphism", "ok": ok1})
        res = extendable(structure, f, limits)
        ok2 = res.not_extendable
        checks.append({"check": "extension_unsat", "ok": ok2,
                       "status": res.status})
        ok = ok1 and ok2 and status == "NotPH"
    elif kind == "sweep_complete":
        ok = status == "PH"
        checks.append({"check": "status_is_ph", "ok": ok})
        wit = cert.get("nu_witness")
        if wit is not None:
            ft = _table_from_json(wit)
            if ft is None:
                checks.append({"check": "nu_witness_materializable",
                               "ok": False})
                ok = False
            else:
                # a total operation is near-unanimity iff it extends the
                # canonical partial near-unanimity map
                same_size = ft.size == structure.size
                good = (same_size and ft.arity >= 3
                        and ft.extends(canonical_partial_nu(structure,
                                                            ft.arity)))
                checks.append({"check": "nu_witness_is_nu", "ok": good})
                total = PartialOpMap(ft.arity, ft.size,
                                     tuple(ft.graph_entries()))
                good2 = (same_size
                         and is_partial_polymorphism(structure, total)[0])
                checks.append({"check": "nu_witness_is_polymorphism",
                               "ok": good2})
                ok = ok and good and good2
    else:
        checks.append({"check": "known_kind", "ok": False, "kind": kind})
        ok = False
    return {"ok": ok, "kind": kind, "checks": checks}


# ------------------------------------------------------------------ suites

def _row_n2(A, limits):
    verdict = decide_ph(A, limits)
    kph = {}
    for k in range(1, 5):
        kph[k] = is_k_ph(A, k, limits).status
    # PH means every level holds; NotPH is conclusively visible at k = 4
    # (= |A|^d here), lower levels may legitimately still hold
    if verdict.status == "PH":
        agree = all(kph[k] == "holds" for k in kph)
    elif verdict.status == "NotPH":
        agree = kph[4] == "fails"
    else:
        agree = False
    return {"name": A.name, "status": verdict.status,
            "k_ph": {str(k): v for k, v in kph.items()},
            "agree": agree, "verdict": verdict.to_json()}


def _row_phhh(A, k, limits):
    direct = is_k_ph(A, k, limits).status
    via_power = is_k_ph(power(A, k).materialize(), 1, limits).status
    agree = (direct == via_power and direct in ("holds", "fails"))
    return {"name": A.name, "k": k, "direct": direct,
            "via_power": via_power, "agree": agree}


def _row_family(A, limits):
    verdict = decide_ph(A, limits)
    report = classify_structure(A, limits)
    agree = (verdict.status == report.verdict
             and verdict.status in ("PH", "NotPH"))
    return {"name": A.name, "decide_ph": verdict.status,
            "classify": report.verdict, "agree": agree,
            "verdict": verdict.to_json()}


def _galois_checks(limits):
    c2 = chain2()
    k2 = edge2()
    bt = bowtie_poset()
    rows = []

    def add(check, got, want):
        rows.append({"check": check, "got": got, "want": want,
                     "agree": got == want})

    pol1, comp1 = galois.enumerate_polymorphisms(c2, 1)
    add("unary_polymorphism_count_chain2", len(pol1), 3)
    pol2, comp2 = galois.enumerate_polymorphisms(c2, 2)
    add("binary_polymorphism_count_chain2", len(pol2), 6)
    add("enumeration_complete", comp1 and comp2, True)
    add("gamma_chain2_01",
        sorted(galois.gamma_closure(c2, [(0, 1)], limits)),
        [(0, 0), (0, 1), (1, 1)])
    add("gamma_edge2_01",
        sorted(galois.gamma_closure(k2, [(0, 1)], limits)),
        [(0, 1), (1, 0)])
    add("pp_definable_chain2_10",
        galois.is_pp_definable(c2, [(1, 0)], limits).definable, False)
    cc_c2 = galois.cross_check_inv_pol(c2, 2, 2, limits)
    add("inv_pol_equal_chain2", cc_c2.equal_at_max, True)
    cc_k2 = galois.cross_check_inv_pol(k2, 2, 2, limits)
    add("inv_pol_equal_edge2", cc_k2.equal_at_max, True)
    add("polylocal_chain2_m2",
        galois.check_finite_polylocal(c2, 2, limits).holds, True)
    add("polylocal_bowtie_m2",
        galois.check_finite_polylocal(bt, 2, limits).holds, False)
    return rows


def _kaarli_rows(limits):
    rows = []
    for n in (1, 2, 3):
        table = kaarli_cross_check(n, limits)
        rows.append({"check": "arithmetical_iff_ph_n%d" % n,
                     "families": table["families"],
                     "agreements": table["agreements"],
                     "inconclusive": table["inconclusive"],
                     "agree": (table["agreements"] == table["families"]
                               and not table["inconclusive"])})
    fam = m3_partitions()
    arith, wit = is_arithmetical(fam, 4)
    rows.append({"check": "m3_non_arithmetical", "got": arith,
                 "witness": wit, "agree": arith is False
                 and wit is not None and wit["kind"] == "distributivity"})
    A = m3_structure()
    verdict = decide_ph(A, limits)
    if verdict.status != "NotPH":
        rows.append({"check": "m3_counterexample", "agree": False})
    else:
        f = PartialOpMap.from_json(verdict.certificate["map"])
        ok1, _ = is_partial_polymorphism(A, f)
        res = extendable(A, f, limits)
        rows.append({"check": "m3_counterexample", "arity": f.arity,
                     "map": f.to_json(),
                     "agree": ok1 and res.not_extendable})
    return rows


# the family suites: every instance on three points
_FAMILY_SUITES = {"graphs3": gen.all_graphs, "posets3": gen.all_posets,
                  "strict3": gen.all_strict_posets}


def _suite_rows(suite, limits):
    """The suite's rows in canonical order, each paired with the structure
    whose certificate a row with a verdict carries (else None)."""
    if suite == "n2":
        return [(A, _row_n2(A, limits)) for A in gen.all_n2_binary()]
    if suite == "phhh":
        return [(A, _row_phhh(A, k, limits))
                for A in gen.all_n2_binary() for k in (2, 3)]
    if suite in _FAMILY_SUITES:
        return [(A, _row_family(A, limits))
                for A in _FAMILY_SUITES[suite](3)]
    if suite == "galois":
        return [(None, row) for row in _galois_checks(limits)]
    if suite == "kaarli":
        return [(None, row) for row in _kaarli_rows(limits)]
    raise ValueError("unknown suite %r" % (suite,))


def run_suite(suite, verify_certificates=False):
    """Run one suite (or 'all') and return the canonical report dict."""
    if suite == "all":
        reports = [run_suite(s, verify_certificates) for s in SUITE_NAMES]
        return {"suite": "all", "suites": reports,
                "ok": all(r["ok"] for r in reports),
                "rows": sum(r["rows"] for r in reports),
                "disagreements": sum(r["disagreements"] for r in reports)}
    limits = default_limits()
    pairs = _suite_rows(suite, limits)
    rows = [row for _, row in pairs]
    if verify_certificates:
        for A, row in pairs:
            if "verdict" in row:
                row["certificate_check"] = verify_certificate(
                    A, row["verdict"], limits)
    bad = [r for r in rows if not r.get("agree", True)]
    if verify_certificates:
        bad += [r for r in rows
                if not r.get("certificate_check", {"ok": True})["ok"]]
    return {"suite": suite, "rows": len(rows), "instances": rows,
            "disagreements": len(bad), "ok": not bad}
