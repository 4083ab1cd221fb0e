"""Tests of the benchmark itself: tiny runs finish clean, corrupted answers
are caught, and the printed metrics match BENCHMARK.json.

    python3 -m pytest bench
"""

import json

import pytest

import run
import workloads
from tracing import Tracer

BENCHMARK = json.loads((workloads.REPO_DIR / "BENCHMARK.json").read_text())


def tiny(name, pick):
    ops = workloads.WORKLOADS[name](1, 0)
    return lambda seed, round_index: pick(ops)


def run_and_check(build):
    rounds = run.run_rounds(build, seed=1, seconds=0)
    assert len(rounds) == 1
    return run.check_rounds(rounds)


CHEAP = {"n2_02", "n2_06", "graph3_0003", "poset3_0011", "strict3_0014",
         "eq3_18"}


def cheap(ops):
    return [op for op in ops if op.label.split(":")[0] in CHEAP]


@pytest.mark.parametrize("name, pick", [
    ("canonical", cheap),
    ("graphs6", lambda ops: ops[:6]),
    ("bridge", lambda ops: cheap(ops) + ops[-4:]),
])
def test_tiny_run_of_each_workload_is_clean(name, pick):
    attempted, failed, wrong = run_and_check(tiny(name, pick))
    assert attempted >= 6
    assert (failed, wrong) == (0, 0)


def corrupt(op, change):
    call = op.call
    return workloads.Op(op.label, lambda: change(call()), op.check)


def test_a_flipped_verdict_is_a_failed_operation():
    def flip(verdict):
        verdict.status = "NotPH" if verdict.status == "PH" else "PH"
        return verdict

    ops = cheap(workloads.build_canonical(1, 0))
    ops[1] = corrupt(ops[1], flip)
    assert run_and_check(lambda s, r: ops) == (6, 1, 1)


def test_a_tuple_dropped_from_a_gamma_closure_is_a_failed_operation():
    ops = [op for op in cheap(workloads.build_bridge(1, 0))
           if ":gamma" in op.label][:3]
    ops[2] = corrupt(ops[2], lambda closure: closure[1:])
    assert run_and_check(lambda s, r: ops) == (3, 1, 1)


def test_a_refutation_map_that_extends_is_a_failed_operation():
    ops = [op for op in workloads.build_graphs6(1, 0)
           if op.label.endswith(":classify")][:2]

    def widen(report):
        # a fixed point extends to the identity
        report.witness = workloads.polyhom.PartialOpMap(1, 6, {(0,): 0})
        return report

    ops[0] = corrupt(ops[0], widen)
    assert run_and_check(lambda s, r: ops) == (2, 1, 1)


def test_an_exception_is_a_failed_operation_but_not_a_wrong_answer():
    def boom():
        raise RuntimeError("boom")

    ops = workloads.build_graphs6(1, 0)[:2]
    ops[0] = workloads.Op("boom", boom, ops[0].check)
    assert run_and_check(lambda s, r: ops) == (2, 1, 0)


def test_family_rules_give_39_ph_and_43_notph():
    statuses = [e for _, e in workloads.canonical_structures()]
    assert len(statuses) == 82
    assert statuses.count("PH") == 39


def test_sixteen_ph_graphs_on_six_vertices():
    masks = workloads.ph_masks6()
    assert len(set(masks)) == 16
    assert all(workloads.graph_is_ph(6, workloads._pairs(workloads.graph6(m)))
               for m in masks)


def last_json_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_cli_prints_every_end_to_end_metric(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "GRAPHS6_PER_EDGE_COUNT", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    run.main(["--workload", "graphs6", "--seed", "3", "--seconds", "0"])
    out = last_json_line(capsys)
    assert (out["correct"], out["attempted"], out["failed"]) == (True, 30, 0)
    assert set(out["metrics"]) == {m["name"]
                                   for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


def test_traced_cli_prints_every_per_layer_metric(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "GRAPHS6_PER_EDGE_COUNT", 1)
    originals = dict(vars(workloads.polyhom))
    run.main(["--workload", "graphs6", "--seed", "3", "--seconds", "0",
              "--trace", "1"])
    out = last_json_line(capsys)
    assert out["failed"] == 0
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, value["unit"]) for name, value in out["metrics"].items()]
    assert out["metrics"]["classify.classify_graph.calls"]["value"] == 14
    assert vars(workloads.polyhom) == originals


def test_tracer_attributes_child_time_to_the_parent():
    tracer = Tracer()
    tracer.install()
    try:
        A = workloads.graph6(0b11)
        workloads.polyhom.classify_graph(A)
    finally:
        tracer.uninstall()
    tracer.end_op("op", 0.0)
    m = tracer.metrics(1)
    total = m["classify.classify_graph.total_s"]["value"]
    self_s = m["classify.classify_graph.self_s"]["value"]
    witness = m["classify.graph_star_witness.total_s"]["value"]
    assert witness > 0
    assert self_s == pytest.approx(total - witness, abs=1e-6)
    assert m["homogeneity.extendable.calls"]["value"] >= 1
