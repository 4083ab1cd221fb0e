"""Command-line front end.

Exit codes: 0 = a definite verdict or complete result was computed,
1 = inconclusive under the configured budgets (no verdict emitted),
2 = input error (bad flags, malformed files, bounds exceeded).

JSON envelopes are versioned and deterministic for a fixed input and
configuration; the timing block is the only nondeterministic field and
--no-timing removes it (including nested wall-clock fields).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .structures import (EnvelopeError, StructureError, PartialOpMap)
from .search import SearchLimits, default_limits
from .relfile import (RelParseError, load_structure, load_tuples,
                      serialize_structure)
from .homogeneity import (decide_ph, find_nu_polymorphism,
                          is_hom_homogeneous, is_k_ph)
from . import galois
from . import generate as gen
from .crosscheck import SUITE_NAMES, run_suite

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_INPUT = 2

TIMING_KEYS = ("wall", "timing", "elapsed")
# commands that report an EnvelopeError as an "exhausted" result; the
# others print it on standard error
EXHAUSTED_RESULT_COMMANDS = ("nu", "pol", "inv", "gamma", "pp")


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _limits_from(args):
    base = default_limits()
    node = base.node_budget if args.node_budget is None else args.node_budget
    wall = base.wall_budget if args.wall_budget is None else args.wall_budget
    return SearchLimits(node_budget=node, wall_budget=wall)


class _Reporter:
    def __init__(self, args):
        self.json_mode = args.json
        self.no_timing = args.no_timing
        self.command = args.command
        self.input = getattr(args, "structure", None)
        self.subject = None  # name of the loaded structure
        self.start = time.perf_counter()

    def load(self, path):
        try:
            A = load_structure(path)
        except OSError as e:
            raise RelParseError("cannot read %s: %s" % (path, e.strerror or e),
                                0)
        self.subject = A.name
        return A

    def emit(self, result, text_lines, exit_code):
        if self.json_mode:
            envelope = {
                "schema_version": SCHEMA_VERSION,
                "command": self.command,
                "result": result,
                "exit_code": exit_code,
            }
            if self.input is not None:
                envelope["input"] = self.input
            if not self.no_timing:
                envelope["timing"] = {
                    "wall": round(time.perf_counter() - self.start, 6)}
            else:
                envelope = _strip_timing(envelope)
            print(json.dumps(envelope, sort_keys=True, indent=2))
        else:
            for line in text_lines:
                print(line)
        return exit_code


# ------------------------------------------------------------- subcommands

def _cmd_decide_ph(args, rep):
    A = rep.load(args.structure)
    verdict = decide_ph(A, _limits_from(args))
    code = EXIT_OK if verdict.status in ("PH", "NotPH") else EXIT_INCONCLUSIVE
    lines = ["%s: %s" % (A.name, verdict.status)]
    if verdict.certificate:
        lines.append("certificate: %s" % verdict.certificate.get("kind"))
    if verdict.guidance:
        lines.append("guidance: %s" % verdict.guidance)
    return rep.emit(verdict.to_json(), lines, code)


def _cmd_check_hh(args, rep):
    A = rep.load(args.structure)
    res = is_hom_homogeneous(A, _limits_from(args))
    code = EXIT_OK if res.status in ("holds", "fails") else EXIT_INCONCLUSIVE
    return rep.emit(res.to_json(),
                    ["%s: hom-homogeneous %s" % (A.name, res.status)], code)


def _cmd_check_kph(args, rep):
    A = rep.load(args.structure)
    res = is_k_ph(A, args.k, _limits_from(args))
    code = EXIT_OK if res.status in ("holds", "fails") else EXIT_INCONCLUSIVE
    return rep.emit(res.to_json(),
                    ["%s: %d-polymorphism-homogeneous %s"
                     % (A.name, args.k, res.status)], code)


def _cmd_nu(args, rep):
    A = rep.load(args.structure)
    if args.arity < 3:
        raise StructureError("near-unanimity arity must be >= 3")
    res = find_nu_polymorphism(A, args.arity, _limits_from(args))
    status = {"extendable": "found", "not_extendable": "none"}.get(
        res.status, res.status)
    code = (EXIT_OK if res.status in ("extendable", "not_extendable")
            else EXIT_INCONCLUSIVE)
    out = {"status": status, "arity": args.arity, "detail": res.detail}
    if res.witness is not None:
        out["witness"] = res.witness.to_json()
    return rep.emit(out, ["%s: near-unanimity arity %d: %s"
                          % (A.name, args.arity, status)], code)


def _cmd_pol(args, rep):
    A = rep.load(args.structure)
    tables, complete = galois.enumerate_polymorphisms(
        A, args.k, limits=_limits_from(args))
    out = {"k": args.k, "count": len(tables), "complete": complete}
    if len(tables) <= args.list_cap:
        out["tables"] = [list(t.payload) for t in tables]
    code = EXIT_OK if complete else EXIT_INCONCLUSIVE
    return rep.emit(out, ["%s: %d polymorphisms of arity %d%s"
                          % (A.name, len(tables), args.k,
                             "" if complete else " (incomplete)")], code)


def _cmd_inv(args, rep):
    A = rep.load(args.structure)
    limits = _limits_from(args)
    ops = []
    complete = True
    for k in range(1, args.k + 1):
        tables, comp = galois.enumerate_polymorphisms(A, k, limits=limits)
        ops.extend(tables)
        complete = complete and comp
    family = galois.invariant_relations(ops, args.m, size=A.size)
    out = {"m": args.m, "ops_max_arity": args.k, "count": len(family),
           "complete": complete}
    if len(family) <= args.list_cap:
        out["members"] = [[list(t) for t in sorted(rel)]
                          for rel in family.members]
    code = EXIT_OK if complete else EXIT_INCONCLUSIVE
    return rep.emit(out, ["%s: %d invariant relations of arity %d "
                          "under polymorphisms of arity <= %d"
                          % (A.name, len(family), args.m, args.k)], code)


def _cmd_gamma(args, rep):
    A = rep.load(args.structure)
    arity, tuples = load_tuples(args.tuples)
    if arity is None:
        raise RelParseError("tuple file carries no arity", 1)
    members = galois.gamma_closure(A, tuples, _limits_from(args))
    out = {"arity": arity, "generators": sorted(map(list, set(tuples))),
           "members": sorted(map(list, members))}
    return rep.emit(out, ["%s: closure has %d tuples"
                          % (A.name, len(members))] +
                    ["  " + " ".join(map(str, t))
                     for t in sorted(members)], EXIT_OK)


def _cmd_pp(args, rep):
    A = rep.load(args.structure)
    arity, tuples = load_tuples(args.relation)
    if arity is None:
        raise RelParseError("tuple file carries no arity", 1)
    res = galois.is_pp_definable(A, tuples, _limits_from(args))
    verdict = "pp-definable" if res.definable else "not pp-definable"
    return rep.emit(res.to_json(), ["%s: %s" % (A.name, verdict)], EXIT_OK)


def _cmd_classify(args, rep):
    from . import classify as cls
    A = rep.load(args.structure)
    limits = _limits_from(args)
    family = {"eqlattice": "eq_lattice", "strict": "strict_poset"}.get(
        args.family, args.family)
    if family == "auto":
        report = cls.classify_structure(A, limits)
        if report is None:
            raise StructureError("structure fits no classified family")
    else:
        report = cls.CLASSIFIERS[family](A, limits)
    lines = ["%s: %s (%s)" % (A.name, report.verdict, report.family)]
    for key, val in sorted(report.reasons.items()):
        if isinstance(val, bool):
            lines.append("  %s: %s" % (key, val))
    return rep.emit(report.to_json(), lines, EXIT_OK)


def _cmd_crosscheck(args, rep):
    if args.suite != "all" and args.suite not in SUITE_NAMES:
        raise StructureError("unknown suite %r; choose from %s"
                             % (args.suite, ", ".join(SUITE_NAMES + ("all",))))
    report = run_suite(args.suite,
                       verify_certificates=args.verify_certificates)
    code = EXIT_OK if report["ok"] else EXIT_INCONCLUSIVE
    lines = ["suite %s: %s (%d rows, %d disagreements)"
             % (args.suite, "ok" if report["ok"] else "FAILED",
                report["rows"], report["disagreements"])]
    if args.suite == "all":
        for sub in report["suites"]:
            lines.append("  %s: %s (%d rows)"
                         % (sub["suite"], "ok" if sub["ok"] else "FAILED",
                            sub["rows"]))
    return rep.emit(report, lines, code)


def _cmd_gen(args, rep):
    mode = "random" if args.count is not None else "all"
    structures = gen.generate(
        args.family, size=args.size, mode=mode,
        count=args.count if args.count is not None else 10,
        seed=args.seed, enforce_cli_bounds=True)
    if args.json:
        out = {"family": gen.normalize_family(args.family),
               "mode": mode, "count": len(structures),
               "structures": [serialize_structure(A) for A in structures]}
        return rep.emit(out, [], EXIT_OK)
    for A in structures:
        sys.stdout.write(serialize_structure(A))
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report envelope")
    common.add_argument("--no-timing", action="store_true",
                        help="omit wall-clock fields for byte-stable output")
    common.add_argument("--node-budget", type=int, default=None,
                        metavar="N", help="search node budget override")
    common.add_argument("--wall-budget", type=float, default=None,
                        metavar="SECONDS", help="search wall budget override")

    p = argparse.ArgumentParser(
        prog="polyhom",
        description="Decide polymorphism-homogeneity of finite relational "
                    "structures, with certificates.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("decide-ph", parents=[common],
                        help="full decision pipeline with certificate")
    sp.add_argument("structure", help=".rel file")
    sp.set_defaults(func=_cmd_decide_ph)

    sp = sub.add_parser("check-hh", parents=[common],
                        help="does every unary partial homomorphism extend")
    sp.add_argument("structure")
    sp.set_defaults(func=_cmd_check_hh)

    sp = sub.add_parser("check-kph", parents=[common],
                        help="does every k-ary partial polymorphism extend")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("structure")
    sp.set_defaults(func=_cmd_check_kph)

    sp = sub.add_parser("nu", parents=[common],
                        help="search a near-unanimity polymorphism")
    sp.add_argument("--arity", type=int, required=True)
    sp.add_argument("structure")
    sp.set_defaults(func=_cmd_nu)

    sp = sub.add_parser("pol", parents=[common],
                        help="enumerate polymorphisms of one arity")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--list-cap", type=int, default=64,
                    help="embed tables when count is at most this")
    sp.add_argument("structure")
    sp.set_defaults(func=_cmd_pol)

    sp = sub.add_parser("inv", parents=[common],
                        help="invariant relations of bounded-arity "
                             "polymorphisms")
    sp.add_argument("--m", type=int, required=True,
                    help="relation arity")
    sp.add_argument("--k", type=int, default=2,
                    help="close under polymorphisms of arity <= k")
    sp.add_argument("--list-cap", type=int, default=256)
    sp.add_argument("structure")
    sp.set_defaults(func=_cmd_inv)

    sp = sub.add_parser("gamma", parents=[common],
                        help="least invariant relation containing the tuples")
    sp.add_argument("--tuples", required=True, metavar="FILE")
    sp.add_argument("structure")
    sp.set_defaults(func=_cmd_gamma)

    sp = sub.add_parser("pp", parents=[common],
                        help="decide pp-definability of a relation")
    sp.add_argument("--relation", required=True, metavar="FILE")
    sp.add_argument("structure")
    sp.set_defaults(func=_cmd_pp)

    sp = sub.add_parser("classify", parents=[common],
                        help="family classification verdict")
    sp.add_argument("--family", required=True,
                    choices=["graph", "poset", "strict", "eqlattice", "auto"])
    sp.add_argument("structure")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("crosscheck", parents=[common],
                        help="batch validation suites")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--verify-certificates", action="store_true")
    sp.set_defaults(func=_cmd_crosscheck)

    sp = sub.add_parser("gen", parents=[common],
                        help="emit structure instances")
    sp.add_argument("--family", required=True)
    sp.add_argument("--size", type=int, default=None)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true",
                       help="every labeled instance, canonical order "
                            "(default)")
    group.add_argument("--count", type=int, default=None,
                       help="random mode: number of instances")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_gen)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    rep = _Reporter(args)
    try:
        return args.func(args, rep)
    except (RelParseError, StructureError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except EnvelopeError as e:
        if args.command not in EXHAUSTED_RESULT_COMMANDS:
            print("inconclusive: %s" % e, file=sys.stderr)
            return EXIT_INCONCLUSIVE
        return rep.emit({"status": "exhausted", "reason": str(e)},
                        ["%s: inconclusive (%s)" % (rep.subject, e)],
                        EXIT_INCONCLUSIVE)


if __name__ == "__main__":
    sys.exit(main())
