"""Command-line behavior: exit codes, JSON envelopes, determinism."""

import itertools
import json

import pytest

from polyhom import (FiniteStructure, Relation, parse_structure,
                     parse_structures, save_structure, serialize_structure)
from polyhom.cli import main
from polyhom.relfile import serialize_tuples
from polyhom.search import default_limits


def chain2():
    return FiniteStructure(2, [Relation("le", 2, {(0, 0), (0, 1), (1, 1)})],
                           name="chain2")


def bowtie():
    le = {(i, i) for i in range(4)} | {(0, 2), (0, 3), (1, 2), (1, 3)}
    return FiniteStructure(4, [Relation("le", 2, le)], name="bowtie")


def n5_fan():
    # bottom 0 under 1,2,3 with 1 < 3, all under top 4: a PH lattice
    le = {(i, i) for i in range(5)}
    le |= {(0, i) for i in range(1, 5)}
    le |= {(i, 4) for i in range(1, 4)}
    le.add((1, 3))
    return FiniteStructure(5, [Relation("le", 2, le)], name="bigposet")


def path3():
    return FiniteStructure(
        3, [Relation("edge", 2, {(0, 1), (1, 0), (1, 2), (2, 1)})],
        name="path3")


@pytest.fixture
def rel(tmp_path):
    def write(structure):
        path = tmp_path / ("%s.rel" % structure.name)
        save_structure(structure, path)
        return str(path)
    return write


@pytest.fixture
def tuplefile(tmp_path):
    def write(name, arity, tuples):
        path = tmp_path / name
        path.write_text(serialize_tuples(arity, tuples), encoding="utf-8")
        return str(path)
    return write


def run_json(capsys, argv):
    code = main(argv + ["--json", "--no-timing"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ----------------------------------------------------------------- verdicts

def test_decide_ph_definite_exits_zero(rel, capsys):
    code, env = run_json(capsys, ["decide-ph", rel(chain2())])
    assert code == 0
    assert env["schema_version"] == 1
    assert env["command"] == "decide-ph"
    assert env["exit_code"] == 0
    assert env["result"]["status"] == "PH"
    code, env = run_json(capsys, ["decide-ph", rel(path3())])
    assert code == 0
    assert env["result"]["status"] == "NotPH"
    assert env["result"]["certificate"]["kind"] in (
        "no_near_unanimity", "non_extendable_map")


def test_decide_ph_inconclusive_exits_one_without_a_verdict(rel, capsys):
    code, env = run_json(capsys, ["decide-ph", rel(n5_fan()),
                                  "--node-budget", "1"])
    assert code == 1
    assert env["exit_code"] == 1
    assert env["result"]["status"] == "Inconclusive"
    assert env["result"].get("certificate") is None
    assert "POLYHOM_NODE_BUDGET" in env["result"]["guidance"]


def test_missing_and_malformed_files_exit_two(tmp_path, capsys):
    assert main(["decide-ph", str(tmp_path / "absent.rel")]) == 2
    bad = tmp_path / "bad.rel"
    bad.write_text("structure x 2\nrel le 2\n0 zero\n", encoding="utf-8")
    assert main(["decide-ph", str(bad)]) == 2
    capsys.readouterr()


def test_text_mode_prints_the_verdict(rel, capsys):
    assert main(["decide-ph", rel(chain2())]) == 0
    out = capsys.readouterr().out
    assert "chain2: PH" in out


def test_check_hh_and_kph(rel, capsys):
    code, env = run_json(capsys, ["check-hh", rel(chain2())])
    assert code == 0
    assert env["result"]["status"] == "holds"
    code, env = run_json(capsys, ["check-kph", "--k", "2", rel(chain2())])
    assert code == 0
    assert env["result"]["status"] == "holds"
    code, env = run_json(capsys, ["check-kph", "--k", "1", rel(bowtie())])
    assert code == 0
    assert env["result"]["status"] == "fails"
    assert main(["check-kph", "--k", "0", rel(chain2())]) == 2
    capsys.readouterr()


def test_nu_search(rel, capsys):
    code, env = run_json(capsys, ["nu", "--arity", "3", rel(chain2())])
    assert code == 0
    assert env["result"]["status"] == "found"
    assert env["result"]["witness"]["values"] == [0, 0, 0, 1, 0, 1, 1, 1]
    code, env = run_json(capsys, ["nu", "--arity", "3", rel(bowtie())])
    assert code == 0
    assert env["result"]["status"] == "none"
    assert main(["nu", "--arity", "2", rel(chain2())]) == 2
    capsys.readouterr()


# ------------------------------------------------------------ galois layer

def test_pol_counts(rel, capsys):
    code, env = run_json(capsys, ["pol", "--k", "1", rel(chain2())])
    assert code == 0
    assert env["result"]["count"] == 3
    assert env["result"]["complete"]
    assert len(env["result"]["tables"]) == 3
    code, env = run_json(capsys, ["pol", "--k", "2", rel(chain2())])
    assert env["result"]["count"] == 6


def test_inv_families(rel, capsys):
    code, env = run_json(capsys, ["inv", "--m", "2", rel(chain2())])
    assert code == 0
    assert env["result"]["count"] == 5
    members = [set(map(tuple, rel_)) for rel_ in env["result"]["members"]]
    assert {(0, 0), (0, 1), (1, 1)} in members
    assert {(0, 0), (1, 1)} in members
    assert set() in members


def test_gamma_command(rel, tuplefile, capsys):
    tau = tuplefile("tau01.tuples", 2, [(0, 1)])
    code, env = run_json(capsys, ["gamma", "--tuples", tau, rel(chain2())])
    assert code == 0
    assert env["result"]["members"] == [[0, 0], [0, 1], [1, 1]]
    code, env = run_json(capsys, ["gamma", "--tuples", tau, rel(
        FiniteStructure(2, [Relation("edge", 2, {(0, 1), (1, 0)})],
                        name="k2"))])
    assert env["result"]["members"] == [[0, 1], [1, 0]]


def test_pp_command(rel, tuplefile, capsys):
    sigma = tuplefile("sigma10.tuples", 2, [(1, 0)])
    code, env = run_json(capsys, ["pp", "--relation", sigma, rel(chain2())])
    assert code == 0
    assert env["result"]["definable"] is False
    assert env["result"]["witness"] is not None
    le = tuplefile("le.tuples", 2, [(0, 0), (0, 1), (1, 1)])
    code, env = run_json(capsys, ["pp", "--relation", le, rel(chain2())])
    assert env["result"]["definable"] is True
    empty_no_header = tuplefile("empty.tuples", 2, [])
    code, env = run_json(capsys, ["pp", "--relation", empty_no_header,
                                  rel(chain2())])
    assert code == 0
    assert env["result"]["definable"] is True


def test_envelope_errors_report_exhausted(rel, tuplefile, capsys):
    # gamma: thirteen distinct columns over a ternary relation on three
    # points need a 3^13-variable extension CSP, past search.MAX_CSP_VARS
    cyc = FiniteStructure(3, [Relation("cyc", 3, {(0, 1, 2), (1, 2, 0),
                                                  (2, 0, 1)})], name="cyc")
    tau = tuplefile("tau13.tuples", 3,
                    sorted(itertools.product(range(3), repeat=3))[:13])
    code, env = run_json(capsys, ["gamma", "--tuples", tau, rel(cyc)])
    assert code == 1 and env["exit_code"] == 1
    assert env["command"] == "gamma"
    assert env["result"] == {
        "status": "exhausted",
        "reason": "extension CSP has 1594323 variables (cap 1048576)"}
    # inv: 2^5 = 32 points exceed the exhaustive enumeration cap
    code, env = run_json(capsys, ["inv", "--m", "5", rel(chain2())])
    assert code == 1 and env["exit_code"] == 1
    assert env["command"] == "inv"
    assert env["result"] == {
        "status": "exhausted",
        "reason": "exhaustive invariant enumeration over 32 points (cap 24)"}
    assert main(["inv", "--m", "5", rel(chain2())]) == 1
    assert capsys.readouterr().out == (
        "chain2: inconclusive (exhaustive invariant enumeration over 32 "
        "points (cap 24))\n")


def test_classify_command(rel, capsys):
    code, env = run_json(capsys, ["classify", "--family", "graph",
                                  rel(path3())])
    assert code == 0
    assert env["result"]["verdict"] == "NotPH"
    code, env = run_json(capsys, ["classify", "--family", "auto",
                                  rel(chain2())])
    assert env["result"]["family"] == "poset"
    assert env["result"]["verdict"] == "PH"
    # family mismatch is an input error
    assert main(["classify", "--family", "poset", rel(path3())]) == 2
    tern = FiniteStructure(2, [Relation("t", 3, {(0, 0, 1)})], name="tern")
    assert main(["classify", "--family", "auto", rel(tern)]) == 2
    capsys.readouterr()


def test_crosscheck_command(capsys):
    code, env = run_json(capsys, ["crosscheck", "--suite", "galois"])
    assert code == 0
    assert env["result"]["ok"]
    assert env["result"]["disagreements"] == 0
    assert main(["crosscheck", "--suite", "made-up"]) == 2
    capsys.readouterr()


# -------------------------------------------------------------- generators

def test_gen_text_stream_roundtrips(capsys):
    assert main(["gen", "--family", "graph", "--size", "3"]) == 0
    out = capsys.readouterr().out
    batch = parse_structures(out)
    assert len(batch) == 8
    assert batch[0].name == "graph3_0000"


def test_gen_json_mode(capsys):
    code, env = run_json(capsys, ["gen", "--family", "n2"])
    assert code == 0
    assert env["result"]["count"] == 16
    parsed = [parse_structure(s) for s in env["result"]["structures"]]
    assert all(p.size == 2 for p in parsed)


def test_gen_random_mode_is_seeded(capsys):
    argv = ["gen", "--family", "poset", "--size", "4", "--count", "3",
            "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert len(parse_structures(first)) == 3


def test_gen_bounds_and_flag_conflicts(capsys):
    assert main(["gen", "--family", "graph", "--size", "6"]) == 2
    assert main(["gen", "--family", "poset", "--size", "5"]) == 2
    assert main(["gen", "--family", "widgets", "--size", "3"]) == 2
    assert main(["gen", "--family", "graph", "--size", "3", "--all",
                 "--count", "2"]) == 2
    capsys.readouterr()


# ----------------------------------------------------- budgets, determinism

def test_budget_flags_keep_sound_refutations(rel, capsys):
    code, env = run_json(capsys, ["decide-ph", "--node-budget", "1",
                                  rel(bowtie())])
    assert code == 0
    assert env["result"]["status"] == "NotPH"


def test_budget_environment_overrides(monkeypatch):
    monkeypatch.setenv("POLYHOM_NODE_BUDGET", "12345")
    monkeypatch.setenv("POLYHOM_WALL_BUDGET", "3.5")
    limits = default_limits()
    assert limits.node_budget == 12345
    assert limits.wall_budget == 3.5


def test_zero_or_negative_budgets_are_input_errors(rel, monkeypatch, capsys):
    path = rel(chain2())
    for bad in ("0", "-1"):
        for flag in ("--node-budget", "--wall-budget"):
            assert main(["decide-ph", flag, bad, path]) == 2, (flag, bad)
            assert "must be" in capsys.readouterr().err
        for var in ("POLYHOM_NODE_BUDGET", "POLYHOM_WALL_BUDGET"):
            monkeypatch.setenv(var, bad)
            with pytest.raises(ValueError, match="must be"):
                default_limits()
            assert main(["decide-ph", path]) == 2, (var, bad)
            assert "must be" in capsys.readouterr().err
            monkeypatch.delenv(var)


def test_json_output_is_byte_stable(rel, capsys):
    path = rel(chain2())
    argv = ["decide-ph", path, "--json", "--no-timing"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert '"timing"' not in first
    assert '"wall"' not in first


def test_timing_present_by_default(rel, capsys):
    assert main(["decide-ph", rel(chain2()), "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    assert "wall" in env["timing"]


def test_unknown_command_and_missing_args_exit_two(capsys):
    assert main(["sideways"]) == 2
    assert main(["check-kph"]) == 2
    assert main(["nu", "nowhere.rel"]) == 2
    capsys.readouterr()
