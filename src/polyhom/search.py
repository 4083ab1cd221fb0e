"""Homomorphism-extension search over explicit structures and lazy powers.

An ExtensionProblem asks for a homomorphism source -> target agreeing with
a set of pinned values. Power sources are handled digitwise: (u, v) is
related iff every digit pair is related in the base, so the neighbours of
u are an AND of one precomputed bitset per digit.

Domains are bit-sliced: plane b is a Python int whose bit v says variable
v may still take value b, so a revision removes a value from a whole
neighbour set with a few big-int ANDs (Lecoutre and Vion, CP Letters
2008). The trail stores diffs (b, lowest bit, removed bits shifted down).
Search is depth-first, smallest domain first, values ascending; binary
constraints are kept arc consistent, and relations of arity >= 3 are
checked on their tuples each time a variable becomes a singleton. The
queues are bitsets; the fixpoint does not depend on their order.

Found maps are re-verified by code that shares no tables with the search:
on a power, each value's preimage is pushed through the base relation one
digit at a time and must not reach a value the target relation forbids.
A verification mismatch is a hard error, never a silent answer.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache

from .structures import (EnvelopeError, FiniteStructure, PowerHandle,
                         StructureError, cylinder)

# Envelope caps: variable count of one extension CSP, and the largest power
# source materialized because it carries a relation of arity >= 3.
MAX_CSP_VARS = 1 << 20
MAX_MATERIALIZE_VARS = 4096

DEFAULT_NODE_BUDGET = 10_000_000


class InconsistentPinsError(ValueError):
    """Pins are malformed or directly violate a fully pinned constraint."""


@dataclass(frozen=True)
class SearchLimits:
    node_budget: int = DEFAULT_NODE_BUDGET
    wall_budget: float = None  # seconds; None = unbounded

    def __post_init__(self):
        if self.node_budget < 1:
            raise ValueError("node_budget must be >= 1")


def default_limits():
    """Package defaults, with budget environment overrides applied."""
    node = os.environ.get("POLYHOM_NODE_BUDGET")
    wall = os.environ.get("POLYHOM_WALL_BUDGET")
    return SearchLimits(
        node_budget=int(node) if node else DEFAULT_NODE_BUDGET,
        wall_budget=float(wall) if wall else None)


@dataclass(frozen=True)
class ExtensionProblem:
    """Find h: source -> target with h(var) = val for every pin."""

    source: object  # FiniteStructure or PowerHandle
    target: FiniteStructure
    pins: tuple = ()

    def __post_init__(self):
        nvars = self.source.size
        nt = self.target.size
        seen = {}
        norm = []
        for pin in (self.pins.items() if isinstance(self.pins, dict)
                    else self.pins):
            try:
                var, val = pin
                var = int(var)
                val = int(val)
            except (TypeError, ValueError):
                raise InconsistentPinsError("malformed pin %r" % (pin,))
            if not 0 <= var < nvars:
                raise InconsistentPinsError(
                    "pin variable %d outside source carrier 0..%d"
                    % (var, nvars - 1))
            if not 0 <= val < nt:
                raise InconsistentPinsError(
                    "pin value %d outside target carrier 0..%d" % (val, nt - 1))
            if seen.get(var, val) != val:
                raise InconsistentPinsError(
                    "variable %d pinned to both %d and %d"
                    % (var, seen[var], val))
            seen[var] = val
            norm.append((var, val))
        object.__setattr__(self, "pins", tuple(sorted(set(norm))))
        if tuple(self.source.signature) != tuple(self.target.signature):
            raise StructureError(
                "source and target signatures differ: %r vs %r"
                % (self.source.signature, self.target.signature))

    @property
    def nvars(self):
        return self.source.size


@dataclass
class Outcome:
    """Result of one search: found / unsat / exhausted."""

    status: str
    assignment: dict = None
    nodes: int = 0
    wall: float = 0.0
    reason: str = None  # for exhausted: node_budget | wall_budget
    nvars: int = 0

    @property
    def found(self):
        return self.status == "found"

    @property
    def unsat(self):
        return self.status == "unsat"

    @property
    def exhausted(self):
        return self.status == "exhausted"


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lowest(mask):
    return (mask & -mask).bit_length() - 1


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


def _cylinders(n, k):
    """cyl[j][a]: the codes of n^k whose digit j is a."""
    return [[cylinder(n, k, j, a) for a in range(n)] for j in range(k)]


def _within(cyl, everything, elements):
    """The codes all of whose digits lie in elements."""
    out = everything
    for row in cyl:
        out &= _union(row[a] for a in elements)
    return out


def _value_planes(mapping, nvars, nt):
    """Bitsets of the preimages of each target value, and the value list."""
    try:
        vals = [int(mapping[v]) for v in range(nvars)]
    except (KeyError, IndexError):
        vals = [-1]
    if min(vals) < 0 or (not isinstance(mapping, dict)
                         and len(mapping) != nvars):
        raise ValueError("mapping must cover all %d source elements" % nvars)
    if max(vals) >= nt:
        raise ValueError("mapping has values outside the target carrier")
    # one character per element, highest element first: a value's preimage
    # reads as a binary numeral once its character becomes "1"
    text = "".join(map(chr, reversed(vals)))
    present = set(vals)
    return [int(text.translate({x: 48 + (x == a) for x in present}), 2)
            if a in present else 0 for a in range(nt)], vals


class _BinaryConstraint:
    """One binary relation: base adjacency and target support masks."""

    __slots__ = ("name", "succ", "pred", "row_allow", "col_allow")

    def __init__(self, name, base_rel, target_rel, n_base, n_target):
        self.name = name
        self.succ = [[] for _ in range(n_base)]
        self.pred = [[] for _ in range(n_base)]
        for a, b in sorted(base_rel.tuples):
            self.succ[a].append(b)
            self.pred[b].append(a)
        # row_allow[a] = bitmask of target successors of a
        self.row_allow = [0] * n_target
        self.col_allow = [0] * n_target
        for a, b in target_rel.tuples:
            self.row_allow[a] |= 1 << b
            self.col_allow[b] |= 1 << a

    def succ_allowed(self, mask):
        out = 0
        for a in _bits(mask):
            out |= self.row_allow[a]
        return out

    def pred_allowed(self, mask):
        out = 0
        for b in _bits(mask):
            out |= self.col_allow[b]
        return out


class _HighArityConstraint:
    """One relation of arity >= 3 on an explicit source."""

    __slots__ = ("name", "tuples", "members", "target", "incident")

    def __init__(self, name, src_tuples, target_tuples):
        self.name = name
        self.tuples = [tuple(t) for t in sorted(src_tuples)]
        self.members = [sorted(set(t)) for t in self.tuples]
        self.target = frozenset(target_tuples)
        self.incident = {}
        for i, t in enumerate(self.tuples):
            for v in set(t):
                self.incident.setdefault(v, []).append(i)


class _Context:
    """Immutable per-(source, target) search tables shared across solves."""

    def __init__(self, base, exponent, target):
        self.base = base
        self.exponent = exponent
        self.target = target
        self.nvars = base.size ** exponent
        self.nt = target.size
        self.full_mask = (1 << self.nt) - 1
        nvars = self.nvars
        if nvars > MAX_CSP_VARS:
            raise EnvelopeError(
                "extension CSP has %d variables (cap %d)" % (nvars, MAX_CSP_VARS))

        n = base.size
        everything = self.all_vars = (1 << nvars) - 1
        cyl = _cylinders(n, exponent)
        self.static_unsat = None
        self.binary = []
        self.unary = []  # (name, member vars, allowed target values)
        self.high = []
        # per-binary-constraint neighbour sets: out_ind[ci][j][a] holds the
        # codes whose digit j is a base-successor of a, so the successors
        # of u are the AND over j of out_ind[ci][j][u_j]; in_ind dually
        self.out_ind = []
        self.in_ind = []
        planes = [everything] * self.nt

        def prune(vars_, allowed):
            for b in range(self.nt):
                if not allowed >> b & 1:
                    planes[b] &= ~vars_

        for rel in base.relations:
            trel = target.relation_map[rel.name]
            if not rel.tuples:
                continue  # no source constraints
            if len(trel.tuples) == self.nt ** rel.arity:
                continue  # target relation is full: vacuous
            if rel.arity == 1:
                tmask = 0
                for (b,) in trel.tuples:
                    tmask |= 1 << b
                member = _within(cyl, everything, [a for (a,) in rel.tuples])
                self.unary.append((rel.name, member, tmask))
            if not trel.tuples:
                self.static_unsat = ("relation %s is empty in the target but "
                                     "nonempty in the source" % rel.name)
                continue
            if rel.arity == 1:
                prune(member, tmask)
            elif rel.arity == 2:
                con = _BinaryConstraint(rel.name, rel, trel, n, self.nt)
                self.binary.append(con)
                self.out_ind.append(
                    [[_within([row], everything, con.succ[a]) for a in range(n)]
                     for row in cyl])
                self.in_ind.append(
                    [[_within([row], everything, con.pred[b]) for b in range(n)]
                     for row in cyl])
                # static prunes: a var with an in-neighbor maps into the
                # union of target rows, dually for out-neighbors, and a var
                # related to itself maps to a target loop
                loops = _union(1 << b for b in range(self.nt)
                               if con.row_allow[b] >> b & 1)
                for elements, allowed in (
                        ([a for a in range(n) if con.pred[a]],
                         con.succ_allowed(self.full_mask)),
                        ([a for a in range(n) if con.succ[a]],
                         con.pred_allowed(self.full_mask)),
                        ([a for a in range(n) if a in con.succ[a]], loops)):
                    if allowed != self.full_mask:
                        prune(_within(cyl, everything, elements), allowed)
            else:
                if exponent != 1:
                    raise EnvelopeError(
                        "arity-%d relation on a non-materialized power source"
                        % rel.arity)
                self.high.append(_HighArityConstraint(
                    rel.name, rel.tuples, trel.tuples))

        self.initial_planes = tuple(planes)
        empty = everything & ~_union(planes)
        if self.static_unsat is None and empty:
            self.static_unsat = ("variable %d has no admissible value"
                                 % _lowest(empty))

    def decode(self, code):
        n = self.base.size
        out = [0] * self.exponent
        for j in range(self.exponent - 1, -1, -1):
            out[j] = code % n
            code //= n
        return tuple(out)

    def neighbours(self, u, ci, outgoing):
        """Bitset of the digitwise relation neighbours of u."""
        rows = (self.out_ind if outgoing else self.in_ind)[ci]
        digits = self.decode(u)
        nb = rows[0][digits[0]]
        for j in range(1, self.exponent):
            nb &= rows[j][digits[j]]
        return nb


# a context holds two neighbour sets of n^k bits per digit, base element
# and binary relation; the callers reuse only a few (base, exponent,
# target) triples at a time
@lru_cache(maxsize=8)
def _context(base, exponent, target):
    return _Context(base, exponent, target)


def _normalize_problem(problem):
    """Resolve power sources with high-arity relations by materializing."""
    source = problem.source
    if isinstance(source, PowerHandle) and source.base.max_arity >= 3:
        if source.size > MAX_MATERIALIZE_VARS:
            raise EnvelopeError(
                "power source with arity >= 3 relations has %d elements "
                "(materialization cap %d)" % (source.size, MAX_MATERIALIZE_VARS))
        source = source.materialize()
    if isinstance(source, PowerHandle):
        return source.base, source.exponent, problem.target, source
    return source, 1, problem.target, source


def _pin_planes(pins, nt):
    """by_value[b]: the variables pinned to b."""
    by_value = [0] * nt
    for var, val in pins:
        by_value[val] |= 1 << var
    return by_value


def _check_pins_direct(ctx, pins):
    """Reject pins that violate a constraint all of whose variables are
    pinned; raised before any search is attempted."""
    pinned = dict(pins)
    by_value = _pin_planes(pins, ctx.nt)

    def pinned_outside(allowed):
        return _union(by_value[b] for b in _bits(ctx.full_mask & ~allowed))

    for ci, con in enumerate(ctx.binary):
        for u, a in pins:
            off = pinned_outside(con.row_allow[a])
            if off:
                hit = ctx.neighbours(u, ci, True) & off
                if hit:
                    v = _lowest(hit)
                    raise InconsistentPinsError(
                        "pins map source %s-edge (%d,%d) to non-edge (%d,%d)"
                        % (con.name, u, v, a, pinned[v]))
    for name, member, tmask in ctx.unary:
        hit = member & pinned_outside(tmask)
        if hit:
            u = _lowest(hit)
            raise InconsistentPinsError(
                "pin %d->%d violates unary relation %s" % (u, pinned[u], name))
    for con in ctx.high:
        for t in con.tuples:
            if all(v in pinned for v in t):
                image = tuple(pinned[v] for v in t)
                if image not in con.target:
                    raise InconsistentPinsError(
                        "pins map source %s-tuple %r to %r outside the target "
                        "relation" % (con.name, t, image))


class _Budget:
    __slots__ = ("node_budget", "deadline", "nodes", "start", "reason")

    def __init__(self, limits):
        self.node_budget = limits.node_budget
        self.start = time.monotonic()
        self.deadline = (self.start + limits.wall_budget
                         if limits.wall_budget else None)
        self.nodes = 0
        self.reason = None

    def spend(self):
        self.nodes += 1
        if self.nodes > self.node_budget:
            self.reason = "node_budget"
            return False
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.reason = "wall_budget"
            return False
        return True

    @property
    def wall(self):
        return time.monotonic() - self.start


class _Search:
    def __init__(self, ctx, pins):
        self.ctx = ctx
        self.planes = list(ctx.initial_planes)
        self.trail = []
        self.queue = 0  # variables whose domain shrank since last revised
        self.singles = 0  # variables that became singletons
        by_value = _pin_planes(pins, ctx.nt)
        pinned = _union(by_value)
        for b in range(ctx.nt):
            self.planes[b] &= ~(pinned ^ by_value[b])

    def domain(self, bit):
        """The values of the variable with bitset bit, as a mask."""
        d = 0
        for b, p in enumerate(self.planes):
            if p & bit:
                d |= 1 << b
        return d

    def undo_to(self, marker):
        trail = self.trail
        planes = self.planes
        while len(trail) > marker:
            b, low, bits = trail.pop()
            planes[b] |= bits << low

    def _remove(self, b, hit):
        self.planes[b] ^= hit
        low = _lowest(hit)
        self.trail.append((b, low, hit >> low))

    def _settle(self, changed):
        """Fail if a changed variable has no value left; queue the rest."""
        one = two = 0
        for p in self.planes:
            q = p & changed
            two |= one & q
            one |= q
        if one != changed:
            return False
        self.singles |= changed ^ two
        self.queue |= changed
        return True

    def _prune_var(self, var, allowed):
        bit = 1 << var
        gone = self.domain(bit) & ~allowed
        for b in _bits(gone):
            self._remove(b, bit)
        return not gone or self._settle(bit)

    def _revise(self, nb, allowed):
        changed = 0
        planes = self.planes
        for b in _bits(self.ctx.full_mask & ~allowed):
            hit = planes[b] & nb
            if hit:
                self._remove(b, hit)
                changed |= hit
        return not changed or self._settle(changed)

    def _revise_from(self, u, du):
        ctx = self.ctx
        if du == ctx.full_mask:
            return True  # full-domain revisions were applied statically
        for ci, con in enumerate(ctx.binary):
            for outgoing, allowed in ((True, con.succ_allowed(du)),
                                      (False, con.pred_allowed(du))):
                if allowed != ctx.full_mask and not self._revise(
                        ctx.neighbours(u, ci, outgoing), allowed):
                    return False
        return True

    def _check_singleton(self, v):
        """Incident arity >= 3 tuples of a freshly singleton variable."""
        doms = {}  # domains read so far, kept current through prunes
        for con in self.ctx.high:
            for ti in con.incident.get(v, ()):
                t = con.tuples[ti]
                for x in con.members[ti]:
                    if x not in doms:
                        doms[x] = self.domain(1 << x)
                unassigned = [w for w in con.members[ti]
                              if doms[w] & (doms[w] - 1)]
                if len(unassigned) > 1:
                    continue
                if not unassigned:
                    image = tuple(doms[x].bit_length() - 1 for x in t)
                    if image not in con.target:
                        return False
                    continue
                w = unassigned[0]
                allowed = 0
                fixed = {x: doms[x].bit_length() - 1 for x in con.members[ti]}
                for b in _bits(doms[w]):
                    fixed[w] = b
                    if tuple(fixed[x] for x in t) in con.target:
                        allowed |= 1 << b
                if not self._prune_var(w, allowed):
                    return False
                doms[w] &= allowed
        return True

    def propagate(self, queue, singles):
        """Revise from the queued variables to arc consistency."""
        self.queue = queue
        self.singles = singles
        while self.queue or self.singles:
            while self.singles:
                low = self.singles & -self.singles
                self.singles ^= low
                v = low.bit_length() - 1
                if not self._check_singleton(v):
                    return False
                if not self._revise_from(v, self.domain(low)):
                    return False
            if self.queue:
                low = self.queue & -self.queue
                self.queue ^= low
                du = self.domain(low)
                if du & (du - 1) == 0:
                    continue  # singletons already revised above
                if not self._revise_from(low.bit_length() - 1, du):
                    return False
        return True

    def _at_least_two(self):
        one = two = 0
        for p in self.planes:
            two |= one & p
            one |= p
        return one, two

    def root_propagate(self):
        one, two = self._at_least_two()
        if one != self.ctx.all_vars:
            return False
        common = self.ctx.all_vars
        for p in self.planes:
            common &= p
        changed = self.ctx.all_vars ^ common
        return self.propagate(changed, changed & ~two)

    def select_dynamic(self):
        # at[s]: the variables with at least s values
        nt = self.ctx.nt
        at = [self.ctx.all_vars] + [0] * (nt + 1)
        for i, p in enumerate(self.planes):
            for s in range(i + 1, 0, -1):
                at[s] |= at[s - 1] & p
        for s in range(2, nt + 1):
            exact = at[s] & ~at[s + 1]
            if exact:
                return _lowest(exact)
        return None

    def select_static(self):
        two = self._at_least_two()[1]
        return _lowest(two) if two else None

    def extract(self):
        vals = [0] * self.ctx.nvars
        for b, p in enumerate(self.planes):
            bits = bin(p)[:1:-1]  # bit v is character v
            v = bits.find("1")
            while v >= 0:
                vals[v] = b
                v = bits.find("1", v + 1)
        return dict(enumerate(vals))

    def run(self, budget, static_order=False, on_solution=None):
        """DFS to first solution, or all solutions via on_solution callback.

        on_solution returning False stops the search early (cap reached).
        Returns 'found' | 'unsat' | 'exhausted' | 'stopped'.
        """
        select = self.select_static if static_order else self.select_dynamic
        var = select()
        if var is None:
            if on_solution is None:
                return "found"
            return "stopped" if on_solution() is False else "unsat"
        frames = [[var, list(_bits(self.domain(1 << var))), 0, len(self.trail)]]
        while frames:
            frame = frames[-1]
            var, vals, idx, marker = frame
            self.undo_to(marker)
            if idx == len(vals):
                frames.pop()
                continue
            frame[2] += 1
            if not budget.spend():
                return "exhausted"
            bit = 1 << var
            for b in vals:
                if b != vals[idx]:
                    self._remove(b, bit)
            if not self.propagate(bit, bit):
                continue
            nxt = select()
            if nxt is None:
                if on_solution is None:
                    return "found"
                if on_solution() is False:
                    return "stopped"
                continue
            frames.append([nxt, list(_bits(self.domain(1 << nxt))), 0,
                           len(self.trail)])
        return "unsat"


def solve(problem, limits=None):
    """Decide the extension problem. Unsat is reported only on a fully
    exhausted search; budget exits report exhausted with the reason."""
    limits = limits or default_limits()
    base, exponent, target, source = _normalize_problem(problem)
    ctx = _context(base, exponent, target)
    _check_pins_direct(ctx, problem.pins)
    budget = _Budget(limits)
    if ctx.static_unsat is not None:
        return Outcome("unsat", nodes=0, wall=budget.wall, nvars=ctx.nvars)
    search = _Search(ctx, problem.pins)
    if not search.root_propagate():
        return Outcome("unsat", nodes=0, wall=budget.wall, nvars=ctx.nvars)
    status = search.run(budget)
    if status == "found":
        assignment = search.extract()
        ok, violations = check_is_homomorphism(source, target, assignment)
        if not ok:
            raise RuntimeError(
                "internal error: found map fails re-verification: %r"
                % (violations[:4],))
        for var, val in problem.pins:
            if assignment[var] != val:
                raise RuntimeError(
                    "internal error: found map breaks pin %d->%d" % (var, val))
        return Outcome("found", assignment=assignment, nodes=budget.nodes,
                       wall=budget.wall, nvars=ctx.nvars)
    if status == "unsat":
        return Outcome("unsat", nodes=budget.nodes, wall=budget.wall,
                       nvars=ctx.nvars)
    return Outcome("exhausted", nodes=budget.nodes, wall=budget.wall,
                   reason=budget.reason, nvars=ctx.nvars)


def enumerate_solutions(problem, cap, limits=None):
    """All homomorphisms extending the pins, lexicographic by variable
    index, at most cap. Returns (assignments, complete)."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    limits = limits or default_limits()
    base, exponent, target, source = _normalize_problem(problem)
    ctx = _context(base, exponent, target)
    _check_pins_direct(ctx, problem.pins)
    budget = _Budget(limits)
    if ctx.static_unsat is not None:
        return [], True
    search = _Search(ctx, problem.pins)
    if not search.root_propagate():
        return [], True
    out = []

    def record():
        assignment = search.extract()
        ok, violations = check_is_homomorphism(source, target, assignment)
        if not ok:
            raise RuntimeError(
                "internal error: enumerated map fails re-verification: %r"
                % (violations[:4],))
        out.append(assignment)
        return len(out) < cap

    status = search.run(budget, static_order=True, on_solution=record)
    return out, status == "unsat"


def _power_violation(handle, rel, trel, planes, vals, cyl):
    """The first violation of one unary or binary relation by a map on a
    power, or None.

    For each value a, the preimage of a is pushed through the base
    relation one digit at a time: moving the members whose digit j is x
    by (y - x) * n^(k-1-j) sets digit j to y, for each base pair (x, y).
    The image must avoid every value b with (a, b) outside the target.
    """
    n = handle.base.size
    k = handle.exponent
    everything = (1 << handle.size) - 1
    if rel.arity == 1:
        bad = _within(cyl, everything, [a for (a,) in rel.tuples]) & _union(
            p for b, p in enumerate(planes) if (b,) not in trel.tuples)
        v = _lowest(bad)
        return (rel.name, (v,), (vals[v],)) if bad else None
    succ = {}
    for x, y in rel.tuples:
        succ.setdefault(x, []).append(y)
    for a, pre in enumerate(planes):
        off = _union(p for b, p in enumerate(planes)
                     if (a, b) not in trel.tuples)
        if not pre or not off:
            continue
        image = pre
        for j in range(k):
            w = n ** (k - 1 - j)
            moved = 0
            for x, ys in succ.items():
                part = image & cyl[j][x]
                if part:
                    for y in ys:
                        moved |= (part << (y - x) * w if y >= x
                                  else part >> (x - y) * w)
            image = moved
        bad = image & off
        if bad:
            v = _lowest(bad)
            dv = handle.decode(v)
            from_ = pre
            for j in range(k):
                from_ &= _within([cyl[j]], everything,
                                 [x for x, ys in succ.items() if dv[j] in ys])
            u = _lowest(from_)
            return (rel.name, (u, v), (a, vals[v]))
    return None


def check_is_homomorphism(source, target, mapping):
    """Independent verification that mapping is a homomorphism.

    Returns (ok, violations); each violation is (relation, source tuple,
    image tuple). Unary and binary relations of a power source are checked
    on value bitsets without materializing the power, at most one
    violation per relation; a power whose arity >= 3 relations constrain
    anything is materialized and checked tuple by tuple.
    """
    if isinstance(source, PowerHandle) and any(
            rel.arity >= 3 and rel.tuples and len(
                target.relation_map[rel.name].tuples) < target.size ** rel.arity
            for rel in source.base.relations):
        source = source.materialize()
    violations = []
    if isinstance(source, PowerHandle):
        planes, vals = _value_planes(mapping, source.size, target.size)
        cyl = _cylinders(source.base.size, source.exponent)
        for rel in source.base.relations:
            trel = target.relation_map[rel.name]
            if not rel.tuples or len(trel.tuples) == target.size ** rel.arity:
                continue
            found = _power_violation(source, rel, trel, planes, vals, cyl)
            if found:
                violations.append(found)
        return (not violations), violations
    if isinstance(mapping, dict):
        missing = [v for v in range(source.size) if v not in mapping]
        if missing:
            raise ValueError("mapping misses source elements %r" % (missing[:8],))
    get = lambda v: mapping[v]
    for v in range(source.size):
        val = get(v)
        if not 0 <= val < target.size:
            raise ValueError("mapping value %r outside the target carrier" % (val,))
    for rel in source.relations:
        trel = target.relation_map[rel.name]
        for t in rel.sorted_tuples:
            image = tuple(get(v) for v in t)
            if image not in trel.tuples:
                violations.append((rel.name, t, image))
                if len(violations) >= 64:
                    return False, violations
    return (not violations), violations
