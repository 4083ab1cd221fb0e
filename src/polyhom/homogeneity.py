"""Partial polymorphisms, extendability, and polymorphism-homogeneity.

A finite-domain k-ary partial map f is a partial polymorphism when every
selection of rows from its domain whose columns all lie in a relation has
its image in that relation. A structure is k-PH when every such map extends
to a total polymorphism, and PH when that holds for every arity.

The decision pipeline certifies its answers: a negative verdict always
carries a concrete partial polymorphism together with machine-recheckable
evidence that no total extension exists, and positive verdicts summarize a
sweep over the qf-closed tuple sets and their minimal covers in which every
required candidate was extended with a witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .structures import (EnvelopeError, PartialOpMap, PowerHandle,
                         StructureError, power, reduce_columns,
                         MAX_MATERIALIZED_POWER)
from .search import ExtensionProblem, _allowance, _bits, _lowest, solve

# row-selection cap for the partial polymorphism check
PP_COMBO_CAP = 2_000_000
# pattern search caps for the one-point counterexample search
PATTERN_COMBO_CAP = 5_000_000


class FunctionTable:
    """A total finitary operation with an evaluator and a provenance kind.

    kinds: 'projection' (payload: coordinate) and 'table' (payload: value
    list indexed by the base-n code of the arguments). A table may read
    only some argument positions: columns lists them, most significant
    digit first, when extendable merged duplicate domain columns; without
    columns it reads every position in order.
    """

    def __init__(self, arity, size, kind, payload, note="", columns=None):
        self.arity = arity
        self.size = size
        self.kind = kind
        self.payload = payload
        self.note = note
        self.columns = columns

    def apply(self, args):
        args = tuple(args)
        if len(args) != self.arity:
            raise ValueError("expected %d arguments" % self.arity)
        if self.kind == "projection":
            return args[self.payload]
        if self.columns is not None:
            args = [args[j] for j in self.columns]
        code = 0
        for a in args:
            code = code * self.size + a
        return self.payload[code]

    def extends(self, partial):
        return all(self.apply(k) == v for k, v in partial.entries)

    def graph_entries(self):
        total = self.size ** self.arity
        if total > MAX_MATERIALIZED_POWER:
            raise EnvelopeError("table with %d entries exceeds cap %d"
                                % (total, MAX_MATERIALIZED_POWER))
        out = []
        for args in itertools.product(range(self.size), repeat=self.arity):
            out.append((args, self.apply(args)))
        return out

    def to_json(self):
        out = {"arity": self.arity, "size": self.size, "kind": self.kind}
        if self.note:
            out["note"] = self.note
        if self.kind == "projection":
            out["coordinate"] = self.payload
        else:
            out["values"] = list(self.payload)
            if self.columns is not None:
                out["columns"] = list(self.columns)
        return out


def is_partial_polymorphism(structure, f):
    """Whether f preserves every relation on its domain rows: returns (ok,
    violation) where violation names the relation, the selected domain
    rows, and the offending image tuple: for a binary relation, the first
    violating pair of rows in row-major order; for any other arity r, the
    first violating selection of r rows in itertools.product order."""
    if f.size != structure.size:
        raise StructureError("map carrier size %d differs from structure %d"
                             % (f.size, structure.size))
    dom = f.domain
    if not dom:
        return True, None
    k = f.arity
    vals = [v for _, v in f.entries]
    p = len(dom)
    for rel in structure.relations:
        r = rel.arity
        if not rel.tuples:
            continue
        if r == 2:
            # row bitsets: rows_to(column)[x] holds the rows whose entry in
            # column is a successor of x, so the rows related to row u are
            # the AND over coordinates j of rows_to(column j)[u_j]
            succ = [[] for _ in range(structure.size)]
            for a, b in rel.tuples:
                succ[a].append(b)

            def rows_to(column):
                where = [0] * structure.size
                for i, y in enumerate(column):
                    where[y] |= 1 << i
                out = []
                for ys in succ:
                    m = 0
                    for y in ys:
                        m |= where[y]
                    out.append(m)
                return out

            coords = [rows_to(col) for col in zip(*dom)]
            images = rows_to(vals)
            for u, row in enumerate(dom):
                bad = ~images[vals[u]]
                for j, x in enumerate(row):
                    bad &= coords[j][x]
                if bad:
                    v = _lowest(bad)
                    return False, (rel.name, (row, dom[v]), (vals[u], vals[v]))
        else:
            if p ** r > PP_COMBO_CAP:
                raise EnvelopeError(
                    "partial polymorphism check needs %d row selections "
                    "(cap %d)" % (p ** r, PP_COMBO_CAP))
            for sel in itertools.product(range(p), repeat=r):
                ok = True
                for j in range(k):
                    if tuple(dom[i][j] for i in sel) not in rel.tuples:
                        ok = False
                        break
                if ok:
                    image = tuple(vals[i] for i in sel)
                    if image not in rel.tuples:
                        return False, (rel.name,
                                       tuple(dom[i] for i in sel), image)
    return True, None


@dataclass
class ExtendResult:
    """Outcome of one extendability question."""

    status: str  # extendable | not_extendable | exhausted
    witness: FunctionTable = None
    detail: dict = field(default_factory=dict)

    @property
    def extendable(self):
        return self.status == "extendable"

    @property
    def not_extendable(self):
        return self.status == "not_extendable"

    @property
    def exhausted(self):
        return self.status == "exhausted"

    def to_json(self):
        out = {"status": self.status, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def extendable(structure, f, limits=None):
    """Does the partial map f extend to a total polymorphism?

    Route: reject non-partial-polymorphisms (with the violated relation);
    answer maps that agree with a projection; otherwise solve the extension
    CSP from the l-th power to the structure, where l is the number of
    distinct domain columns, pinned to f's entries. The CSP's witness is a
    'table' on the kept columns; relations of every arity constrain it on
    the implicit power. Raises EnvelopeError when that CSP has more than
    search.MAX_CSP_VARS variables. A returned witness is always re-verified
    against f before it is reported. limits is as for search.solve: the
    CSP spends a caller's allowance, or one of its own.
    """
    ok, violation = is_partial_polymorphism(structure, f)
    if not ok:
        return ExtendResult(
            "not_extendable", None,
            {"route": "rejected",
             "violation": {"relation": violation[0],
                           "rows": [list(map(int, r)) for r in violation[1]],
                           "image": [int(x) for x in violation[2]]}})
    if not f.entries:
        witness = FunctionTable(f.arity, f.size, "projection", 0,
                                note="empty map; any projection extends it")
        return ExtendResult("extendable", witness, {"route": "projection"})
    g, column_map = reduce_columns(f)
    rows = g.domain
    vals = tuple(v for _, v in g.entries)
    kept_first = [column_map.index(j) for j in range(g.arity)]
    for j in range(g.arity):
        if all(r[j] == v for r, v in zip(rows, vals)):
            witness = FunctionTable(f.arity, f.size, "projection",
                                    kept_first[j])
            if not witness.extends(f):
                raise RuntimeError("internal error: projection witness "
                                   "fails to extend the map")
            return ExtendResult("extendable", witness, {"route": "projection"})
    handle = power(structure, g.arity)
    pins = {handle.encode(r): v for r, v in g.entries}
    out = solve(ExtensionProblem(handle, structure, pins), limits)
    detail = {"route": "csp", "csp_vars": handle.size, "nodes": out.nodes}
    if out.found:
        table = [out.assignment[c] for c in range(handle.size)]
        columns = None if g.arity == f.arity else tuple(kept_first)
        witness = FunctionTable(f.arity, f.size, "table", table,
                                columns=columns)
        if not witness.extends(f):
            raise RuntimeError("internal error: CSP witness fails to "
                               "extend the map")
        return ExtendResult("extendable", witness, detail)
    if out.unsat:
        return ExtendResult("not_extendable", None, detail)
    detail["reason"] = out.reason
    return ExtendResult("exhausted", None, detail)


def canonical_partial_nu(structure, r):
    """The partial map every arity-r near-unanimity operation contains:
    constant tuples map to their value, one-deviant tuples to the majority
    value. A total operation is near-unanimity iff it extends this map."""
    if r < 3:
        raise ValueError("near-unanimity arity must be >= 3")
    n = structure.size
    entries = []
    for a in range(n):
        entries.append(((a,) * r, a))
        for b in range(n):
            if b == a:
                continue
            for i in range(r):
                t = [a] * r
                t[i] = b
                entries.append((tuple(t), a))
    return PartialOpMap(r, n, tuple(entries))


def find_nu_polymorphism(structure, r, limits=None):
    """Search for an arity-r near-unanimity polymorphism via extendability
    of the canonical partial map: extendable re-verifies that a witness
    extends that map, so a witness is near-unanimity. Reports the
    partial-polymorphism check in the detail either way."""
    return _probe_nu(structure, canonical_partial_nu(structure, r), limits)


def _probe_nu(structure, f, limits):
    """find_nu_polymorphism on the canonical partial map f."""
    res = extendable(structure, f, limits)
    res.detail["partial_map_entries"] = len(f.entries)
    res.detail["nu_arity"] = f.arity
    return res


@dataclass(slots=True)
class KphResult:
    status: str  # holds | fails | exhausted
    counterexample: dict = None
    detail: dict = field(default_factory=dict)

    @property
    def holds(self):
        return self.status == "holds"

    @property
    def fails(self):
        return self.status == "fails"

    def to_json(self):
        out = {"status": self.status, "detail": self.detail}
        if self.counterexample:
            ce = dict(self.counterexample)
            ce["map"] = ce["map"].to_json()
            out["counterexample"] = ce
        return out


class _SearchBudget(Exception):
    pass


def _blocking_patterns_all_values(structure, x, k, budget):
    """For each value v, the inclusion-minimal partial assignments q on
    rows other than x such that q together with x -> v violates some
    relation immediately.

    A violation selects rows w_1..w_r (x among them) whose k columns all
    lie in the relation while the image tuple does not. Enumerated by
    choosing the k columns independently from the relation, in set order:
    the patterns are sorted before they are returned.
    """
    n = structure.size
    patterns = [[] for _ in range(n)]
    for rel in structure.relations:
        r = rel.arity
        tuples = rel.tuples
        if not tuples:
            continue
        combos = len(tuples) ** k
        if combos > PATTERN_COMBO_CAP:
            raise EnvelopeError(
                "pattern enumeration needs %d column choices (cap %d)"
                % (combos, PATTERN_COMBO_CAP))
        for cols in itertools.product(tuples, repeat=k):
            if not budget.spend():
                raise _SearchBudget()
            rows = [tuple(cols[j][i] for j in range(k)) for i in range(r)]
            if x not in rows:
                continue
            others = sorted(set(w for w in rows if w != x))
            # assign values to non-x rows; the image must leave the relation
            for assign in itertools.product(range(n), repeat=len(others)):
                q = dict(zip(others, assign))
                for v in range(n):
                    image = tuple(v if w == x else q[w] for w in rows)
                    if image not in rel.tuples:
                        patterns[v].append(frozenset(q.items()))
    out = []
    for v in range(n):
        pats = sorted(set(patterns[v]), key=lambda s: (len(s), sorted(s)))
        minimal = []
        for q in pats:
            if not any(m <= q for m in minimal):
                minimal.append(q)
        out.append(minimal)
    return out


def _one_point_counterexample(structure, k, budget):
    """Search for a partial polymorphism f and a point x such that every
    value extension at x breaks the partial polymorphism property.

    Any k-ary witness of non-k-PH restricts to one of this bounded shape:
    for each blocked value keep the rows of one immediate violation, which
    is at most (max arity - 1) rows per value, and a restriction of a
    partial polymorphism stays one.

    Only non-decreasing points x are visited, one per orbit of the
    coordinate permutations, in lexicographic order. Permuting coordinates
    by pi permutes the columns of every row selection and keeps its
    entries, so it sends a partial polymorphism stuck at x to one stuck at
    pi(x). The search at each point is complete, so the points where it
    succeeds are closed under pi, and the lexicographically first of them
    is non-decreasing: the answer is the one a scan of all n^k points
    gives, with fewer steps. Each pattern step spends a node of budget,
    and detail["steps"] counts those of this search.
    """
    n = structure.size
    start = budget.nodes
    exhausted = False
    try:
        for x in itertools.combinations_with_replacement(range(n), k):
            try:
                by_value = _blocking_patterns_all_values(structure, x, k,
                                                         budget)
            except EnvelopeError:
                exhausted = True
                continue
            if any(not pats for pats in by_value):
                continue
            per_value = [(v, by_value[v]) for v in range(n)]
            per_value.sort(key=lambda pv: (len(pv[1]), pv[0]))
            found = _merge_patterns(structure, k, x, per_value, 0, {}, budget)
            if found is None:
                continue
            f = PartialOpMap(k, n, tuple(found.items()))
            blocked = []
            for v in range(n):
                ok, viol = is_partial_polymorphism(structure,
                                                   f.with_entry(x, v))
                if ok:
                    raise RuntimeError(
                        "internal error: claimed blocked value %d extends"
                        % v)
                blocked.append({"value": v, "relation": viol[0],
                                "rows": [list(map(int, r)) for r in viol[1]],
                                "image": [int(a) for a in viol[2]]})
            return KphResult(
                "fails",
                {"map": f, "point": tuple(int(a) for a in x),
                 "blocked_values": blocked},
                {"steps": budget.nodes - start})
    except _SearchBudget:
        return KphResult("exhausted", None, {"reason": budget.reason,
                                             "steps": budget.nodes - start})
    if exhausted:
        return KphResult("exhausted", None, {"reason": "pattern_envelope",
                                             "steps": budget.nodes - start})
    return KphResult("holds", None, {"steps": budget.nodes - start})


def _merge_patterns(structure, k, x, per_value, idx, acc, budget):
    """DFS over one blocking pattern per value; the merged assignment must
    be functional and a partial polymorphism."""
    if not budget.spend():
        raise _SearchBudget()
    if idx == len(per_value):
        f = PartialOpMap(k, structure.size, tuple(acc.items()))
        ok, _ = is_partial_polymorphism(structure, f)
        return dict(acc) if ok else None
    _, pats = per_value[idx]
    for q in pats:
        add = []
        conflict = False
        for row, val in sorted(q):
            if acc.get(row, val) != val:
                conflict = True
                break
            if row not in acc:
                add.append(row)
                acc[row] = val
        if not conflict:
            # violations are monotone in the entry set, so a prefix that is
            # not a partial polymorphism can never complete to one
            g = PartialOpMap(k, structure.size, tuple(acc.items()))
            ok, _ = is_partial_polymorphism(structure, g)
            if ok:
                res = _merge_patterns(structure, k, x, per_value, idx + 1,
                                      acc, budget)
                if res is not None:
                    for row in add:
                        del acc[row]
                    return res
        for row in add:
            del acc[row]
    return None


def is_k_ph(structure, k, limits=None):
    """Does every k-ary partial polymorphism extend to a total one?

    Searches for a bounded stuck pair directly, at one point per orbit of
    the coordinate permutations of A^k: the non-decreasing points, in
    lexicographic order (see _one_point_counterexample). The call builds
    one node and wall allowance (search._Budget) from limits; each pattern
    step spends one node of it, and detail["steps"] counts the steps of the
    visited points only. A is k-PH iff A^k is hom-homogeneous, so
    is_hom_homogeneous on the materialized power gives the same status.
    """
    if isinstance(structure, PowerHandle):
        structure = structure.materialize()
    if k < 1:
        raise ValueError("k must be >= 1")
    return _one_point_counterexample(structure, k, _allowance(limits))


def is_hom_homogeneous(structure, limits=None):
    """Every unary partial homomorphism into the structure extends to a
    total endomorphism. Accepts an explicit structure or a power handle."""
    return is_k_ph(structure, 1, limits)


@dataclass
class Verdict:
    status: str  # PH | NotPH | Inconclusive
    certificate: dict = None
    trace: list = field(default_factory=list)
    blocked: list = field(default_factory=list)
    guidance: str = None

    def to_json(self):
        out = {"status": self.status}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        out["trace"] = self.trace
        if self.blocked:
            out["blocked"] = self.blocked
        if self.guidance:
            out["guidance"] = self.guidance
        return out


def _record_block(blocked, entry):
    """Add a blocked step, keeping one entry per (step, m, reason): the
    first occurrence keeps its details, with its tau and image tuples
    stored as lists, and later ones only raise its count."""
    key = (entry["step"], entry.get("m"), entry["reason"])
    for seen in blocked:
        if (seen["step"], seen.get("m"), seen["reason"]) == key:
            seen["count"] += 1
            return
    if "tau" in entry:
        entry["tau"] = [list(t) for t in entry["tau"]]
        entry["image"] = list(entry["image"])
    entry["count"] = 1
    blocked.append(entry)


def _sweep_level(structure, m, budget, blocked, stats):
    """Check every qf-closed set Q over A^m against its minimal covers.

    qf(tau) depends only on the atoms all of tau satisfies, and gamma is
    monotone, so qf(tau) is within gamma(tau) for every tuple set tau iff
    Q is within gamma(tau0) for every qf-closed Q and minimal cover tau0
    (see galois.QfAtoms). The first cover of Q checks the images in Q; once
    a cover G is verified, a later cover only needs G, since gamma is
    idempotent. An image in qf(tau0 minus one tuple) is skipped when that
    smaller set is settled: every cover of it was checked, none blocked.
    Every CSP spends the call's one allowance, budget; the deadline is
    checked before each cover and the nodes before each candidate.
    Returns ("complete", None), ("blocked", None) when some candidate or
    the level itself was out of reach, ("wall_budget", None) once the
    deadline has passed, ("node_budget", None) once the nodes are spent,
    or ("not_extendable", (tau, b, f, result)) for the first refuted
    image. Blocked candidates are recorded in blocked.
    """
    from .galois import QfAtoms, tau_extension_map

    try:
        atoms = QfAtoms(structure, m)
    except EnvelopeError as e:
        _record_block(blocked, {"step": "sweep", "m": m,
                                "reason": "envelope", "detail": str(e)})
        return "blocked", None
    qf_sets = atoms.qf_sets()
    settled = set()

    def stop(reason):
        # a candidate blocked for the same reason already marks the stop
        if not any((b["step"], b.get("m"), b["reason"]) == ("sweep", m, reason)
                   for b in blocked):
            _record_block(blocked, {"step": "sweep", "m": m,
                                    "reason": reason})
        return reason, None

    for q, atom_mask in qf_sets:
        stats["qf_sets"] += 1
        verified = None
        complete = True
        for cover in atoms.covers(q, atom_mask):
            if budget.late():
                return stop("wall_budget")
            stats["covers"] += 1
            todo = (q if verified is None else verified) & ~cover
            if cover & (cover - 1):
                for j in _bits(cover):
                    smaller = atoms.qf(cover ^ 1 << j)
                    if smaller in settled:
                        todo &= ~smaller
            tau = atoms.decode(cover)
            ok = True
            for i in _bits(todo):
                if budget.spent():
                    return stop("node_budget")
                b = atoms.point(i)
                f = tau_extension_map(tau, b, structure.size)
                stats["extendable_calls"] += 1
                try:
                    res = extendable(structure, f, budget)
                except EnvelopeError as e:
                    why = {"reason": "envelope", "detail": str(e)}
                else:
                    if res.not_extendable:
                        return "not_extendable", (tau, b, f, res)
                    if res.extendable:
                        continue
                    why = {"reason": res.detail.get("reason", "budget")}
                ok = False
                _record_block(blocked, {"step": "sweep", "m": m, "tau": tau,
                                        "image": b, **why})
            if ok and verified is None:
                verified = cover
            complete = complete and ok
        if complete:
            settled.add(q)
    return ("complete" if len(settled) == len(qf_sets) else "blocked"), None


def decide_ph(structure, limits=None):
    """Decide polymorphism-homogeneity with certificates.

    Pipeline: a one-element structure is PH; otherwise search for a
    near-unanimity polymorphism of arity d+1 where d = max(2, max arity),
    whose absence is already a certified negative; then, for m = 1..d,
    sweep the qf-closed sets over A^m through their minimal covers and
    require every quantifier-free-type-closed image to be extendable (see
    _sweep_level). The call builds one node and wall allowance
    (search._Budget) from limits, and the NU probe and every sweep CSP
    spend from it; each CSP's detail["nodes"] is its own share. A budget
    or envelope block never produces a verdict by itself: if nothing
    failed outright the result is Inconclusive.
    """
    budget = _allowance(limits)
    n = structure.size
    trace = []
    blocked = []
    if n == 1:
        return Verdict("PH", certificate={"kind": "singleton",
                       "note": "all operations on one element are total"},
                       trace=[{"step": "singleton"}])
    d = max(2, structure.max_arity)
    nu_arity = d + 1
    nu_partial = canonical_partial_nu(structure, nu_arity)
    try:
        nu = _probe_nu(structure, nu_partial, budget)
    except EnvelopeError as e:
        nu = None
        _record_block(blocked, {"step": "nu", "arity": nu_arity,
                                "reason": "envelope", "detail": str(e)})
        trace.append({"step": "nu", "arity": nu_arity, "outcome": "blocked"})
    if nu is not None:
        trace.append({"step": "nu", "arity": nu_arity, "outcome": nu.status,
                      "detail": {k: v for k, v in nu.detail.items()
                                 if k != "violation"}})
        if nu.not_extendable:
            cert = {"kind": "no_near_unanimity", "arity": nu_arity,
                    "map": nu_partial.to_json(),
                    "evidence": nu.detail}
            return Verdict("NotPH", certificate=cert, trace=trace)
        if nu.exhausted:
            _record_block(blocked, {"step": "nu", "arity": nu_arity,
                                    "reason": nu.detail.get("reason",
                                                            "budget")})

    guidance = ("the certified pipeline hit its envelope or budget; "
                "raise POLYHOM_NODE_BUDGET / POLYHOM_WALL_BUDGET or reduce "
                "the structure, or use family classification for an "
                "uncertified answer")
    sweep_stats = {"qf_sets": 0, "covers": 0, "extendable_calls": 0}
    for m in range(1, d + 1):
        outcome, refutation = _sweep_level(structure, m, budget, blocked,
                                           sweep_stats)
        if outcome == "not_extendable":
            tau, b, f, res = refutation
            ok, _ = is_partial_polymorphism(structure, f)
            if not ok:
                raise RuntimeError("internal error: sweep produced a "
                                   "non-partial-polymorphism candidate")
            tau, b = [list(t) for t in tau], list(b)
            cert = {
                "kind": "non_extendable_map",
                "m": m,
                "tau": tau,
                "image": b,
                "map": f.to_json(),
                "evidence": res.detail,
            }
            trace.append({"step": "sweep", "m": m, "tau": tau, "image": b,
                          "outcome": "not_extendable"})
            note = None
            if blocked:
                note = ("earlier steps were blocked; the negative "
                        "certificate stands on its own")
            return Verdict("NotPH", certificate=cert, trace=trace,
                           blocked=blocked, guidance=note)
        trace.append({"step": "sweep", "m": m, "outcome": outcome,
                      **sweep_stats})
        if outcome in ("wall_budget", "node_budget"):
            break

    if not blocked:
        cert = {"kind": "sweep_complete", "max_arity_swept": d,
                "nu_arity": nu_arity, "stats": sweep_stats}
        if nu is not None and nu.extendable:
            cert["nu_witness"] = nu.witness.to_json()
        return Verdict("PH", certificate=cert, trace=trace)

    return Verdict("Inconclusive", trace=trace, blocked=blocked,
                   guidance=guidance)
