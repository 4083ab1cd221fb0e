"""Homomorphism-extension search over explicit structures and lazy powers.

An ExtensionProblem asks for a homomorphism source -> target agreeing with
a set of pinned values. Every source is handled as a power A^k, an
explicit structure being A^1: a tuple of codes is related iff every digit
column is related in the base, so the neighbours of u under a binary
relation are an AND of one precomputed bitset per digit.

Domains are bit-sliced: plane b is a Python int whose bit v says variable
v may still take value b, so a revision removes a value from a whole
neighbour set with a few big-int ANDs (Lecoutre and Vion, CP Letters
2008). The trail stores diffs (b, lowest bit, removed bits shifted down).
Search is depth-first, smallest domain first, values ascending; binary
constraints are kept arc consistent. Relations of arity r >= 3 are
forward checked, without listing R^k: once every member of a tuple but
one variable x is a singleton, x keeps the values the target allows. The
singletons of one position are pushed at once, digit by digit, through
the slice of R that the other fixed digits leave, giving every such x
(per-digit supports, cf. Compact-Table, Demeulenaere et al., CP 2016).
The queues are bitsets; the fixpoint does not depend on their order.

A top-level call (decide_ph, is_k_ph, the Galois entry points,
classify_graph) builds one _Budget from its SearchLimits and passes it on
as the limits of every CSP it runs: each search node, enumeration node and
k-PH pattern step spends from the one node count against the one absolute
deadline, and each CSP reports only its own share. A bare solve or
enumerate_solutions given SearchLimits, or None, gets an allowance of its
own.

Pins are applied to the domains before root propagation, so pins that
contradict a constraint are refuted like any other dead end: solve
answers unsat after 0 nodes, and enumerate_solutions returns ([], True).
InconsistentPinsError means malformed pins only.

Found maps are re-verified by code that shares no tables with the search:
each value's preimage is pushed through the base relation one digit at a
time and must not reach a value the target relation forbids; for arity
r >= 3 the first r - 2 positions are fixed one code at a time and the
binary slice they leave is pushed the same way. A verification mismatch
is a hard error, never a silent answer.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from functools import lru_cache

from .structures import (EnvelopeError, FiniteStructure, PowerHandle,
                         StructureError, cylinder)

# Envelope cap: variable count of one extension CSP.
MAX_CSP_VARS = 1 << 20

DEFAULT_NODE_BUDGET = 10_000_000


class InconsistentPinsError(ValueError):
    """Pins are malformed: not a (variable, value) pair, outside a carrier,
    or one variable pinned to two values. Pins that merely contradict a
    constraint are not an error: the search answers unsat."""


@dataclass(frozen=True)
class SearchLimits:
    node_budget: int = DEFAULT_NODE_BUDGET
    wall_budget: float = None  # seconds; None = unbounded

    def __post_init__(self):
        if self.node_budget < 1:
            raise ValueError("node_budget must be >= 1")
        if self.wall_budget is not None and not self.wall_budget > 0:
            raise ValueError("wall_budget must be > 0")


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

    __slots__ = ("succ", "pred", "row_allow", "col_allow")

    def __init__(self, base_rel, target_rel, n_base, n_target):
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


@lru_cache(maxsize=1 << 12)
def _slice(tuples, fixed, s, free):
    """Of the tuples with value v at each (position, v) of fixed: value y
    at s -> the values c they hold at every free position."""
    out = {}
    for t in tuples:
        c = t[free[0]]
        if all(t[q] == c for q in free) and all(t[p] == v for p, v in fixed):
            out.setdefault(t[s], []).append(c)
    return out


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
        self.static_unsat = False
        self.binary = []
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
            if not trel.tuples:
                self.static_unsat = True  # a source tuple has no image
                continue
            if rel.arity == 1:
                prune(_within(cyl, everything, [a for (a,) in rel.tuples]),
                      _union(1 << b for (b,) in trel.tuples))
            elif rel.arity == 2:
                con = _BinaryConstraint(rel, trel, n, self.nt)
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
                self.high.append((rel.arity, rel.tuples, trel.tuples))

        self.cyl = cyl if self.high else None
        self.initial_planes = tuple(planes)

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

    def leaves(self, rel, trel, rest, free, pools, fixed=()):
        """Walk the tuples of R^k. Each position of rest but the last is
        fixed in turn to a code of its pool (pools[i][b]: the codes of
        value b); the last one's codes of each value are pushed, digit by
        digit, through the slice of R the fixed codes leave. Yields
        (allowed, x): the codes x reached at the free positions and the
        target values allowed there, when that is not every value. fixed
        holds (position, code, digits, value) entries."""
        k, n = self.exponent, self.base.size

        def succs(fixed, s, free):
            return [_slice(rel, tuple((p, d[j]) for p, _, d, _ in fixed), s,
                           free) for j in range(k)]

        s = rest[0]
        if len(rest) > 1:
            # only the codes that some tuple through fixed holds at s
            near = (_push(1 << fixed[-1][1], succs(fixed[:-1], fixed[-1][0],
                                                   (s,)), self.cyl, n, k)
                    if fixed else self.all_vars)
            for b, pool in enumerate(pools[0]):
                for w in _bits(pool & near):
                    yield from self.leaves(
                        rel, trel, rest[1:], free, pools[1:],
                        fixed + ((s, w, self.decode(w), b),))
            return
        through = succs(fixed, s, free)
        target = _slice(trel, tuple((p, b) for p, _, _, b in fixed), s, free)
        for b, pool in enumerate(pools[0]):
            allowed = _union(1 << c for c in target.get(b, ()))
            if pool and allowed != self.full_mask:
                yield allowed, _push(pool, through, self.cyl, n, k)


# a context holds two neighbour sets of n^k bits per digit, base element
# and binary relation, and the k * n cylinders when a relation has arity
# >= 3; the callers reuse only a few (base, exponent, target) at a time
@lru_cache(maxsize=8)
def _context(base, exponent, target):
    return _Context(base, exponent, target)


def _as_power(source):
    """The source as a power; an explicit structure is its own first power."""
    return source if isinstance(source, PowerHandle) else PowerHandle(source, 1)


class _Budget:
    """The one node and wall allowance of a top-level call: every node its
    searches expand spends one, against one absolute deadline."""

    __slots__ = ("node_budget", "deadline", "nodes", "reason")

    def __init__(self, limits):
        self.node_budget = limits.node_budget
        self.deadline = (None if limits.wall_budget is None
                         else time.monotonic() + limits.wall_budget)
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

    def spent(self):
        """Whether no node is left."""
        return self.nodes >= self.node_budget

    def late(self):
        """Whether the deadline has passed."""
        return self.deadline is not None and time.monotonic() > self.deadline


def _allowance(limits):
    """The allowance to spend: a caller's _Budget itself, else a new one
    from the SearchLimits, or from default_limits() for None."""
    if isinstance(limits, _Budget):
        return limits
    return _Budget(limits or default_limits())


class _Search:
    def __init__(self, ctx, pins):
        self.ctx = ctx
        self.planes = list(ctx.initial_planes)
        self.trail = []
        self.queue = 0  # variables whose domain shrank since last revised
        self.singles = 0  # variables that became singletons
        # a pinned variable keeps only its value: if the static prunes
        # removed it, the domain is empty and root_propagate fails
        by_value = [0] * ctx.nt
        for var, val in pins:
            by_value[val] |= 1 << var
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

    def _forward_check(self, v):
        """Prune through the arity >= 3 tuples of the freshly singleton v:
        where every member but one variable x is a singleton, x keeps only
        the values the target allows there."""
        two = self._at_least_two()[1]
        singles = [p & ~two for p in self.planes]  # singletons, by value
        mine = [p & 1 << v for p in self.planes]
        for r, rel, trel in self.ctx.high:
            for p in range(r):
                # v at p; the other positions split, by the bits of split,
                # into the free ones, which hold one variable, and the rest
                others = [q for q in range(r) if q != p]
                for split in range(1, 1 << (r - 1)):
                    free = tuple(q for i, q in enumerate(others)
                                 if split >> i & 1)
                    rest = tuple(q for q in others if q not in free)
                    for allowed, x in self.ctx.leaves(
                            rel, trel, (p,) + rest, free,
                            [mine] + [singles] * len(rest)):
                        if not self._revise(x, allowed):
                            return False
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
                if self.ctx.high and not self._forward_check(v):
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

    def run(self, budget, static_order, on_solution):
        """DFS calling on_solution at each solution; on_solution returning
        False stops the search. Returns 'unsat' once the search is
        complete, else 'exhausted' or 'stopped'.
        """
        select = self.select_static if static_order else self.select_dynamic
        var = select()
        if var is None:
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
                if on_solution() is False:
                    return "stopped"
                continue
            frames.append([nxt, list(_bits(self.domain(1 << nxt))), 0,
                           len(self.trail)])
        return "unsat"


def _run(problem, budget, cap=None):
    """Search for the first solution, smallest domain first, or (given a
    cap) for up to cap solutions in lexicographic order, spending the
    _Budget budget. Each solution is re-verified. Returns (status,
    solutions, nodes): the nodes this search spent."""
    source, target = _as_power(problem.source), problem.target
    ctx = _context(source.base, source.exponent, target)
    before = budget.nodes
    found = []
    search = _Search(ctx, problem.pins)

    def record():
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
        found.append(assignment)
        return cap is not None and len(found) < cap

    status = ("unsat" if ctx.static_unsat or not search.root_propagate()
              else search.run(budget, cap is not None, record))
    return status, found, budget.nodes - before


def solve(problem, limits=None):
    """Decide the extension problem. Unsat is reported only on a fully
    exhausted search; budget exits report exhausted with the reason.
    limits is SearchLimits, None for the defaults, or the allowance of
    the calling top-level search (see the module docstring)."""
    budget = _allowance(limits)
    status, found, nodes = _run(problem, budget)
    return Outcome("found" if found else status,
                   assignment=found[0] if found else None,
                   nodes=nodes, nvars=problem.nvars,
                   reason=budget.reason if status == "exhausted" else None)


def enumerate_solutions(problem, cap, limits=None):
    """All homomorphisms extending the pins, lexicographic by variable
    index, at most cap. Returns (assignments, complete). limits as for
    solve."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    status, found, _ = _run(problem, _allowance(limits), cap)
    return found, status == "unsat"


def _push(image, succs, cyl, n, k):
    """The codes reached from image when each digit j moves from x to the
    values succs[j][x]: moving the members whose digit j is x by (y - x) *
    n^(k-1-j) sets digit j to y."""
    for j in range(k):
        w = n ** (k - 1 - j)
        moved = 0
        for x, ys in succs[j].items():
            part = image & cyl[j][x]
            if part:
                for y in ys:
                    moved |= (part << (y - x) * w if y >= x
                              else part >> (x - y) * w)
        image = moved
    return image


def _power_violation(handle, rel, trel, planes, vals, cyl):
    """The first violation of one relation by a map on a power, or None.

    A unary relation is checked on its members at once. For arity r >= 2,
    the first r - 2 positions are fixed one code at a time, leaving a
    binary slice of R at each digit. Each value a's preimage is pushed
    through it (see _push) and must avoid the values b that the target's
    slice at the fixed images does not allow after a.
    """
    n = handle.base.size
    k = handle.exponent
    if rel.arity == 1:
        bad = _within(cyl, (1 << handle.size) - 1,
                      [a for (a,) in rel.tuples]) & _union(
            p for b, p in enumerate(planes) if (b,) not in trel.tuples)
        v = _lowest(bad)
        return (rel.name, (v,), (vals[v],)) if bad else None
    slices, allowed = {(): {}}, {(): trel.tuples}
    if rel.arity == 2:
        for x, y in rel.tuples:
            slices[()].setdefault(x, []).append(y)
    else:
        slices, allowed = {}, {}
        for t in rel.sorted_tuples:
            slices.setdefault(t[:-2], {}).setdefault(t[-2], []).append(t[-1])
        for t in trel.tuples:
            allowed.setdefault(t[:-2], set()).add(t[-2:])
    for choice in itertools.product(sorted(slices), repeat=k):
        # choice[j]: the values of the fixed positions at digit j
        prefix = tuple(handle.encode(column) for column in zip(*choice))
        head = tuple(vals[u] for u in prefix)
        succs = [slices[c] for c in choice]
        pairs = allowed.get(head, ())
        for a, pre in enumerate(planes):
            off = _union(p for b, p in enumerate(planes)
                         if (a, b) not in pairs)
            bad = pre and off and _push(pre, succs, cyl, n, k) & off
            if bad:
                v = _lowest(bad)
                dv = handle.decode(v)
                for j in range(k):
                    pre &= _union(cyl[j][x] for x, ys in succs[j].items()
                                  if dv[j] in ys)
                u = _lowest(pre)
                return (rel.name, prefix + (u, v), head + (a, vals[v]))
    return None


def check_is_homomorphism(source, target, mapping):
    """Independent verification that mapping is a homomorphism.

    Returns (ok, violations); each violation is (relation, source tuple,
    image tuple), at most one per relation. An explicit source is checked
    as its own first power. The relations of a power are checked on value
    bitsets, without listing its tuples (see _power_violation).
    """
    source = _as_power(source)
    planes, vals = _value_planes(mapping, source.size, target.size)
    cyl = _cylinders(source.base.size, source.exponent)
    violations = []
    for rel in source.base.relations:
        trel = target.relation_map[rel.name]
        if not rel.tuples or len(trel.tuples) == target.size ** rel.arity:
            continue
        found = _power_violation(source, rel, trel, planes, vals, cyl)
        if found:
            violations.append(found)
    return (not violations), violations
