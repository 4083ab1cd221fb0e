"""Batch validation suites and independent certificate re-verification."""

import copy
import itertools

import pytest

from polyhom import FiniteStructure, Relation, decide_ph
from polyhom.crosscheck import SUITE_NAMES, run_suite, verify_certificate


def chain2():
    return FiniteStructure(2, [Relation("le", 2, {(0, 0), (0, 1), (1, 1)})],
                           name="chain2")


def path3():
    return FiniteStructure(
        3, [Relation("edge", 2, {(0, 1), (1, 0), (1, 2), (2, 1)})],
        name="path3")


def test_suite_names_are_stable():
    assert SUITE_NAMES == ("n2", "phhh", "graphs3", "posets3", "strict3",
                           "galois", "kaarli")


def test_single_suite_report_shape():
    report = run_suite("galois")
    assert report["suite"] == "galois"
    assert report["ok"]
    assert report["disagreements"] == 0
    assert report["rows"] > 0
    assert len(report["instances"]) == report["rows"]


def test_aggregate_suite_rolls_up_members():
    report = run_suite("all")
    assert report["ok"]
    assert {s["suite"] for s in report["suites"]} == set(SUITE_NAMES)
    assert report["rows"] == sum(s["rows"] for s in report["suites"])


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        run_suite("made-up")


def test_certificates_verify_for_definite_verdicts():
    for A in (chain2(), path3()):
        verdict = decide_ph(A)
        res = verify_certificate(A, verdict.to_json())
        assert res["ok"], res


def test_tampered_refutation_map_is_rejected():
    verdict = decide_ph(path3()).to_json()
    assert verdict["status"] == "NotPH"
    # a damaged entry must break one of the two independent checks
    tampered = copy.deepcopy(verdict)
    raw2 = tampered["certificate"]["map"]
    args, val = raw2["entries"][0]
    raw2["entries"][0] = [args, (val + 1) % path3().size]
    res = verify_certificate(path3(), tampered)
    assert not res["ok"], res
    assert verify_certificate(path3(), verdict)["ok"]


def test_tampered_nu_witness_is_rejected():
    verdict = decide_ph(chain2()).to_json()
    assert verdict["status"] == "PH"
    wit = verdict["certificate"].get("nu_witness")
    assert wit is not None
    tampered = copy.deepcopy(verdict)
    values = tampered["certificate"]["nu_witness"]["values"]
    values[0] = (values[0] + 1) % 2
    res = verify_certificate(chain2(), tampered)
    assert not res["ok"], res
    # a projection is a polymorphism but not near-unanimity
    projection = copy.deepcopy(verdict)
    projection["certificate"]["nu_witness"] = {
        "arity": 3, "size": 2, "kind": "table",
        "values": [a for a, _, _ in itertools.product(range(2), repeat=3)]}
    res = verify_certificate(chain2(), projection)
    checks = {c["check"]: c["ok"] for c in res["checks"]}
    assert not res["ok"]
    assert checks["nu_witness_is_nu"] is False
    assert checks["nu_witness_is_polymorphism"] is True


def test_status_certificate_mismatches_are_rejected():
    verdict = decide_ph(path3()).to_json()
    lying = copy.deepcopy(verdict)
    lying["status"] = "PH"
    assert not verify_certificate(path3(), lying)["ok"]
    inconclusive_with_cert = copy.deepcopy(verdict)
    inconclusive_with_cert["status"] = "Inconclusive"
    assert not verify_certificate(path3(), inconclusive_with_cert)["ok"]
    missing = {"status": "NotPH", "certificate": None}
    assert not verify_certificate(path3(), missing)["ok"]
    unknown = {"status": "NotPH", "certificate": {"kind": "sideways"}}
    assert not verify_certificate(path3(), unknown)["ok"]


def test_clean_inconclusive_is_accepted():
    res = verify_certificate(path3(), {"status": "Inconclusive",
                                       "certificate": None})
    assert res["ok"]
