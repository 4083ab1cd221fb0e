"""The benchmark's three workloads: their inputs, calls and output checks.

Each workload is a function ``build(seed, round_index)`` that returns the
operations of one round. An operation is one closed-loop call into the
public API plus a check of its answer. Every check is computed apart from
the engine: the closed-form family rules are re-implemented here, and maps,
operations and closures are compared with the brute-force oracles of
``tests/oracles.py``.

The package is always called through the ``polyhom`` module attribute at
call time, so that a traced run, which patches those attributes, sees every
call the workloads make.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

for _p in (REPO_DIR / "tests", REPO_DIR / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import polyhom  # noqa: E402
from polyhom.generate import (all_graphs, all_n2_binary, all_posets,  # noqa: E402
                              all_strict_posets)
import oracles  # noqa: E402

# bridge: gamma_closure / is_pp_definable queries per structure
BRIDGE_QUERIES = 3
# graphs6: NotPH graphs per edge count and round, next to the 16 PH ones.
# All 15 graphs with one edge, the slowest class, are then in every round,
# and the tail of a round (its 11th slowest operation) lies among them.
GRAPHS6_PER_EDGE_COUNT = 15


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` is not.

    ``check`` returns None when the answer is right, else a message.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


# ------------------------------------------------------------ family rules

def _pairs(structure):
    return set(structure.relations[0].tuples)


def graph_is_ph(n, edges):
    """Edgeless, or every component is a single edge."""
    if not edges:
        return True
    degree = [0] * n
    for a, b in edges:
        if a < b:
            degree[a] += 1
            degree[b] += 1
    return all(d == 1 for d in degree)


def poset_is_ph(n, le):
    """An antichain, or a lattice."""
    if all(a == b for a, b in le):
        return True
    for a, b in itertools.combinations(range(n), 2):
        for above in (True, False):
            bounds = [c for c in range(n)
                      if ((a, c) in le and (b, c) in le if above
                          else (c, a) in le and (c, b) in le)]
            best = [c for c in bounds
                    if all(((c, d) in le if above else (d, c) in le)
                           for d in bounds)]
            if not best:
                return False
    return True


def strict_is_ph(lt):
    """Only the empty strict order."""
    return not lt


def _compose(p, q):
    after = {}
    for a, b in q:
        after.setdefault(a, set()).add(b)
    return {(a, c) for a, b in p for c in after.get(b, ())}


def _join(p, q):
    closure = set(p) | set(q)
    while True:
        more = closure | _compose(closure, closure)
        if more == closure:
            return frozenset(closure)
        closure = more


def eq_lattice_is_ph(relations):
    """Pairwise permuting and distributive."""
    rels = [frozenset(r) for r in relations]
    for p, q in itertools.combinations(rels, 2):
        if _compose(p, q) != _compose(q, p):
            return False
    for x, y, z in itertools.product(rels, repeat=3):
        if x & _join(y, z) != _join(x & y, x & z):
            return False
    return True


# -------------------------------------------------------- map and op checks

def check_partial_polymorphism(structure, map_json):
    entries = {tuple(args): value for args, value in map_json["entries"]}
    if not oracles.oracle_is_partial_polymorphism(structure, entries,
                                                  map_json["arity"]):
        return "map is not a partial polymorphism"
    return None


def check_nu_witness(structure, witness):
    """The witness table is a near-unanimity operation and a polymorphism."""
    if witness is None or "values" not in witness:
        return "PH verdict has no materialized near-unanimity witness"
    n, r = structure.size, witness["arity"]
    table = tuple(witness["values"])
    for a in range(n):
        for b in range(n):
            for i in range(r):
                args = [a] * r
                args[i] = b
                if oracles.table_apply(table, n, args) != a:
                    return "witness is not near-unanimity at %r" % (args,)
    if not oracles.oracle_is_polymorphism(structure, table, r):
        return "witness is not a polymorphism"
    return None


def refutes_at_one_point(n, edges, entries, k):
    """A point p of the k-th power adjacent to every domain row whose
    images share no neighbour: any total extension g would need g(p) to be
    such a neighbour, so the map does not extend."""
    nbrs = [set() for _ in range(n)]
    for a, b in edges:
        nbrs[a].add(b)
    common = set(range(n))
    for value in entries.values():
        common &= nbrs[value]
    if common:
        return False
    per_coordinate = []
    for j in range(k):
        allowed = set(range(n))
        for row in entries:
            allowed &= nbrs[row[j]]
        per_coordinate.append(allowed)
    return all(per_coordinate)


# ------------------------------------------------------- polymorphism oracle

class PolymorphismOracle:
    """``oracles.oracle_polymorphisms`` with a memo and a disk cache.

    The tables depend only on the structure and the arity, so they are kept
    between runs under ``bench/out``; the cache key includes a digest of
    ``tests/oracles.py``, so a changed oracle never reads stale tables.
    """

    def __init__(self):
        source = (REPO_DIR / "tests" / "oracles.py").read_bytes()
        tag = hashlib.sha1(source).hexdigest()[:12]
        self.cache_dir = OUT_DIR / "oracle-cache" / tag
        self.memo = {}

    def tables(self, structure, k):
        key = self._key(structure, k)
        if key in self.memo:
            return self.memo[key]
        path = self.cache_dir / (key + ".json")
        try:
            tables = [tuple(t) for t in json.loads(path.read_text())]
        except (OSError, ValueError):
            # every operation preserves a full relation, and the oracle
            # would spend most of its time confirming that
            n = structure.size
            kept = [r for r in structure.relations
                    if len(r.tuples) < n ** r.arity]
            tables = oracles.oracle_polymorphisms(
                polyhom.FiniteStructure(n, kept), k)
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp%d" % os.getpid())
            tmp.write_text(json.dumps(tables))
            os.replace(tmp, path)
        self.memo[key] = tables
        return tables

    @staticmethod
    def _key(structure, k):
        rels = sorted((r.name, r.arity, sorted(r.tuples))
                      for r in structure.relations)
        return hashlib.sha1(json.dumps([structure.size, rels, k])
                            .encode()).hexdigest()

    def gamma(self, structure, tau):
        """``oracles.oracle_gamma`` over the cached tables."""
        tau = tuple(sorted(set(map(tuple, tau))))
        m, n = len(tau[0]), structure.size
        if len(tau) == n ** m:
            return set(tau)  # the whole space is closed
        key = (self._key(structure, len(tau)), tau)
        if key not in self.memo:
            self.memo[key] = {
                tuple(oracles.table_apply(t, n, tuple(x[i] for x in tau))
                      for i in range(m))
                for t in self.tables(structure, len(tau))}
        return set(self.memo[key])


def qf_closure(structure, tau):
    """Quantifier-free type closure straight from its definition, in
    product order."""
    tau = sorted(set(map(tuple, tau)))
    m, n = len(tau[0]), structure.size
    equal = [(i, j) for i, j in itertools.combinations(range(m), 2)
             if all(t[i] == t[j] for t in tau)]
    constraints = [(sel, rel.tuples) for rel in structure.relations
                   for sel in itertools.product(range(m), repeat=rel.arity)
                   if all(tuple(t[i] for i in sel) in rel.tuples
                          for t in tau)]
    return [b for b in itertools.product(range(n), repeat=m)
            if all(b[i] == b[j] for i, j in equal)
            and all(tuple(b[i] for i in sel) in tuples
                    for sel, tuples in constraints)]


# --------------------------------------------------------------- canonical

def eq_lattices3():
    return [polyhom.canonical_structure(
                "eq_lattice", 3, [list(map(list, p)) for p in family],
                name="eq3_%d" % i)
            for i, family in enumerate(
                polyhom.enumerate_meet_complete_sublattices(3))]


def diamond():
    le = [(i, i) for i in range(4)] + [(0, 1), (0, 2), (0, 3), (1, 3),
                                       (2, 3)]
    return polyhom.canonical_structure("poset", 4, le, name="diamond")


def _status(is_ph):
    return "PH" if is_ph else "NotPH"


def canonical_structures():
    """The 82-structure regression set in the ROADMAP's order, each with
    its expected status."""
    n2 = json.loads((BENCH_DIR / "expected_n2.json").read_text())["statuses"]
    out = [(A, n2[A.name]) for A in all_n2_binary()]
    out += [(A, _status(graph_is_ph(3, _pairs(A)))) for A in all_graphs(3)]
    out += [(A, _status(poset_is_ph(3, _pairs(A)))) for A in all_posets(3)]
    out += [(A, _status(strict_is_ph(_pairs(A))))
            for A in all_strict_posets(3)]
    out += [(A, _status(eq_lattice_is_ph([r.tuples for r in A.relations])))
            for A in eq_lattices3()]
    D = diamond()
    out.append((D, _status(poset_is_ph(4, _pairs(D)))))
    return out


def check_verdict(structure, expected, verdict):
    if verdict.status != expected:
        return "%s: %s, expected %s" % (structure.name, verdict.status,
                                        expected)
    cert = verdict.certificate or {}
    if verdict.status == "PH":
        return check_nu_witness(structure, cert.get("nu_witness"))
    map_json = cert.get("map") or cert.get("partial_map")
    if map_json is None:
        return "NotPH verdict carries no map"
    return check_partial_polymorphism(structure, map_json)


def interleaved(items):
    """A fixed order that spreads each run of neighbours over the list.

    The operations near the median or the tail of a workload come from a
    few families, which its inputs list back to back. Run in that order,
    one burst of load on the machine falls on all of them. A fixed order
    also keeps the peak memory the same from seed to seed. The stride, 29,
    is prime to the lengths used here (82 and 81)."""
    n = len(items)
    return [items[i * 29 % n] for i in range(n)]


def build_canonical(seed, round_index):
    """The fixed regression set, interleaved; the seed does not change it.
    Each verdict is checked against its own structure."""
    return interleaved([
        Op(A.name, lambda A=A: polyhom.decide_ph(A),
           lambda v, A=A, e=expected: check_verdict(A, e, v))
        for A, expected in canonical_structures()])


# ----------------------------------------------------------------- graphs6

GRAPH6_PAIRS = [(a, b) for a in range(6) for b in range(a + 1, 6)]


def perfect_matchings(vertices):
    if not vertices:
        return [[]]
    first, rest = vertices[0], vertices[1:]
    return [[(first, v)] + m for i, v in enumerate(rest)
            for m in perfect_matchings(rest[:i] + rest[i + 1:])]


def ph_masks6():
    """The 16 PH graphs on 6 labeled vertices: edgeless and the 15
    perfect matchings, as edge masks over GRAPH6_PAIRS."""
    index = {p: i for i, p in enumerate(GRAPH6_PAIRS)}
    return [0] + [sum(1 << index[e] for e in m)
                  for m in perfect_matchings(list(range(6)))]


def graph6(mask):
    edges = [GRAPH6_PAIRS[i] for i in range(15) if mask >> i & 1]
    return polyhom.canonical_structure("graph", 6, edges,
                                       name="g6_%05d" % mask)


def check_graph_report(A, report):
    edges = _pairs(A)
    expected = _status(graph_is_ph(A.size, edges))
    if report.verdict != expected:
        return "%s: %s, expected %s" % (A.name, report.verdict, expected)
    if expected == "PH":
        return None
    if report.witness is None:
        return "%s: NotPH without a refutation map" % A.name
    entries = dict(report.witness.entries)
    k = report.witness.arity
    if not oracles.oracle_is_partial_polymorphism(A, entries, k):
        return "%s: refutation map is not a partial polymorphism" % A.name
    if not refutes_at_one_point(A.size, edges, entries, k):
        return "%s: refutation map is not refuted at one point" % A.name
    return None


def check_kph(A, results):
    if not graph_is_ph(A.size, _pairs(A)):
        return "%s: k-PH probe on a NotPH graph" % A.name
    bad = [k for k, r in zip((1, 2), results) if not r.holds]
    if bad:
        return "%s: %s-PH does not hold" % (A.name, bad)
    return None


@functools.cache
def masks_by_edge_count():
    ph = set(ph_masks6())
    strata = {}
    for mask in range(1 << 15):
        if mask not in ph:
            strata.setdefault(mask.bit_count(), []).append(mask)
    return strata


def build_graphs6(seed, round_index):
    """The 16 PH graphs, then the same number of seeded NotPH graphs for
    each edge count from 1 to 14, taken in turn: one of each edge count,
    then the next of each.

    Drawing per edge count fixes the mix of sparse and dense graphs, which
    sets the cost of a round. Taking them in turn spreads the slowest class
    over the round, so that a burst of load on the machine does not fall on
    all of it. The complete graph is left out: its star witness has arity
    7, and classify_graph raises EnvelopeError on it."""
    rng = random.Random(seed * 1000 + round_index)
    strata = masks_by_edge_count()
    ph = ph_masks6()
    drawn = [rng.sample(strata[edges], GRAPHS6_PER_EDGE_COUNT)
             for edges in range(1, 15)]
    masks = ph + [m for turn in zip(*drawn) for m in turn]
    ops = []
    for mask in masks:
        A = graph6(mask)
        if mask in ph:
            ops.append(Op(A.name + ":kph",
                          lambda A=A: (polyhom.is_k_ph(A, 1),
                                       polyhom.is_k_ph(A, 2)),
                          lambda out, A=A: check_kph(A, out)))
        else:
            ops.append(Op(A.name + ":classify",
                          lambda A=A: polyhom.classify_graph(
                              A, with_witness=True),
                          lambda out, A=A: check_graph_report(A, out)))
    return ops


# ------------------------------------------------------------------ bridge

@functools.cache
def oracle():
    return PolymorphismOracle()


def check_gamma(A, tau, closure):
    if set(closure) != oracle().gamma(A, tau):
        return "%s: gamma closure of %r differs from the oracle" % (A.name,
                                                                     tau)
    return None


def check_pp(A, sigma, res):
    gamma = oracle().gamma(A, sigma)
    if set(res.closure) != gamma or res.definable != (gamma == set(sigma)):
        return "%s: pp-definability of %r differs from the oracle" % (
            A.name, sigma)
    if not res.definable and res.witness not in gamma - set(sigma):
        return "%s: pp witness %r is not in the closure" % (A.name,
                                                            res.witness)
    return None


def check_cross(A, res):
    n = A.size
    points = sorted(itertools.product(range(n), repeat=2))
    gamma_family = {frozenset()} | {
        frozenset(s) for size in range(1, len(points) + 1)
        for s in itertools.combinations(points, size)
        if oracle().gamma(A, s) == set(s)}
    if set(res.gamma_family.members) != gamma_family:
        return "%s: gamma-closed family differs from the oracle" % A.name
    ops = []
    for k in (1, 2):
        tables = oracle().tables(A, k)
        if res.pol_counts.get(k) != len(tables):
            return "%s: %d-ary polymorphism count differs" % (A.name, k)
        ops.extend((k, t) for t in tables)
        inv = oracles.oracle_invariant_relations(A, ops, 2)
        if set(res.by_arity[k].members) != inv:
            return "%s: Pol^<=%d invariants differ from the oracle" % (
                A.name, k)
    stable = next((k for k in (1, 2)
                   if set(res.by_arity[k].members) == gamma_family), None)
    if res.stabilization_arity != stable or not res.containment_ok:
        return "%s: stabilization arity differs" % A.name
    return None


def check_polylocal(A, res):
    points = sorted(itertools.product(range(A.size), repeat=2))
    checked, separation = 0, None
    for size in range(1, len(points) + 1):
        for tau in itertools.combinations(points, size):
            checked += 1
            gamma = oracle().gamma(A, tau)
            miss = [b for b in qf_closure(A, tau) if b not in gamma]
            if miss:
                separation = (list(tau), miss[0])
                break
        if separation:
            break
    if (res.holds, res.separation, res.checked) != (separation is None,
                                                    separation, checked):
        return "%s: polylocality differs from the oracle" % A.name
    return None


def _gamma_op(A, tau):
    return Op("%s:gamma%r" % (A.name, tau),
              lambda: polyhom.gamma_closure(A, tau),
              lambda out: check_gamma(A, tau, out))


def bridge_structures():
    return [A for A, _ in canonical_structures() if A.size <= 3]


def build_bridge(seed, round_index):
    """Queries on each n <= 3 canonical structure, one structure at a
    time in interleaved order, then the two cross checks on the 16
    two-element ones.

    The first query on a structure is always the closure of the pair
    (0, 1): it usually pays for filling the caches, and a fixed question
    keeps that cost from varying with the seed. The others ask about
    seeded tuple sets."""
    rng = random.Random(seed * 1000 + round_index)
    ops = []
    for A in interleaved(bridge_structures()):
        n = A.size
        ops.append(_gamma_op(A, [(0, 1)]))
        for q in range(1, BRIDGE_QUERIES):
            m = rng.choice((1, 2))
            points = sorted(itertools.product(range(n), repeat=m))
            # the oracle enumerates all |tau|-ary operations
            size = rng.randint(1, min(3 if n == 2 else 2, len(points)))
            tau = sorted(rng.sample(points, size))
            if q % 2:
                ops.append(Op("%s:pp%r" % (A.name, tau),
                              lambda A=A, t=tau: polyhom.is_pp_definable(A, t),
                              lambda out, A=A, t=tau: check_pp(A, t, out)))
            else:
                ops.append(_gamma_op(A, tau))
    for A in all_n2_binary():
        ops.append(Op(A.name + ":cross",
                      lambda A=A: polyhom.cross_check_inv_pol(A, 2, 2),
                      lambda out, A=A: check_cross(A, out)))
        ops.append(Op(A.name + ":polylocal",
                      lambda A=A: polyhom.check_finite_polylocal(A, 2),
                      lambda out, A=A: check_polylocal(A, out)))
    return ops


WORKLOADS = {
    "canonical": build_canonical,
    "graphs6": build_graphs6,
    "bridge": build_bridge,
}
