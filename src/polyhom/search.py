"""Homomorphism-extension search over explicit structures and lazy powers.

An ExtensionProblem asks for a homomorphism source -> target agreeing with
a set of pinned values. Power sources are handled digitwise: a pair (u, v)
of power elements is related iff every digit pair is related in the base,
so neighbor sets are computed by vectorized digit lookups and product
relations are never enumerated during search.

Search is depth-first over domain bitmasks with trail-based undo, smallest
domain first, values ascending. Propagation is arc consistency on binary
constraints. Relations of arity >= 3 use incident-tuple forward checking;
every variable that becomes a singleton triggers its incident checks, so
complete assignments satisfy all constraints. Found results are
re-verified independently before they are returned, and a verification
mismatch is a hard error, never a silent answer.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .structures import (EnvelopeError, FiniteStructure, PowerHandle,
                         StructureError)

# Envelope caps: variable count of one extension CSP, dense-power handling
# of arity >= 3 relations, and re-verification work for found maps.
MAX_CSP_VARS = 1 << 20
MAX_MATERIALIZE_VARS = 4096
MAX_VERIFY_COMBOS = 50_000_000
MAX_VERIFY_SWEEP_VARS = 1 << 16
MAX_TARGET_SIZE = 32

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

    def to_json(self, include_timing=True):
        out = {"status": self.status, "nodes": self.nodes, "nvars": self.nvars}
        if include_timing:
            out["wall"] = round(self.wall, 6)
        if self.reason:
            out["reason"] = self.reason
        if self.assignment is not None:
            out["assignment"] = {str(k): v for k, v in sorted(self.assignment.items())}
        return out


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _BinaryConstraint:
    """One binary relation, digitwise over the (possibly trivial) power."""

    __slots__ = ("name", "src_rows", "src_cols", "row_allow", "col_allow",
                 "row_ne", "col_ne", "full_row_union", "full_col_union")

    def __init__(self, name, base_rel, target_rel, n_base, n_target):
        self.name = name
        rows = np.zeros((n_base, n_base), dtype=bool)
        for a, b in base_rel.tuples:
            rows[a, b] = True
        self.src_rows = rows
        self.src_cols = rows.T.copy()
        # row_allow[a] = bitmask of target successors of a
        self.row_allow = [0] * n_target
        self.col_allow = [0] * n_target
        for a, b in target_rel.tuples:
            self.row_allow[a] |= 1 << b
            self.col_allow[b] |= 1 << a
        self.row_ne = rows.any(axis=1)  # base element has a successor
        self.col_ne = rows.any(axis=0)
        self.full_row_union = 0
        for m in self.row_allow:
            self.full_row_union |= m
        self.full_col_union = 0
        for m in self.col_allow:
            self.full_col_union |= m

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

    __slots__ = ("name", "tuples", "target", "incident")

    def __init__(self, name, src_tuples, target_tuples):
        self.name = name
        self.tuples = [tuple(t) for t in sorted(src_tuples)]
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
        if self.nt > MAX_TARGET_SIZE:
            raise EnvelopeError(
                "target size %d exceeds bitmask width %d" % (self.nt, MAX_TARGET_SIZE))

        n = base.size
        codes = np.arange(nvars, dtype=np.int64)
        digs = []
        for _ in range(exponent):
            digs.append((codes % n).astype(np.int16))
            codes //= n
        digs.reverse()  # digs[j] = j-th coordinate, big-endian
        self.dig = digs

        self.static_unsat = None
        self.binary = []
        self.high = []
        domains = np.full(nvars, self.full_mask, dtype=np.uint32)

        for rel in base.relations:
            trel = target.relation_map[rel.name]
            if not rel.tuples:
                continue  # no source constraints
            if len(trel.tuples) == self.nt ** rel.arity:
                continue  # target relation is full: vacuous
            if not trel.tuples:
                self.static_unsat = ("relation %s is empty in the target but "
                                     "nonempty in the source" % rel.name)
                continue
            if rel.arity == 1:
                tmask = 0
                for (b,) in trel.tuples:
                    tmask |= 1 << b
                member = np.ones(nvars, dtype=bool)
                base_in = np.zeros(n, dtype=bool)
                for (a,) in rel.tuples:
                    base_in[a] = True
                for j in range(exponent):
                    member &= base_in[self.dig[j]]
                domains[member] &= np.uint32(tmask)
            elif rel.arity == 2:
                con = _BinaryConstraint(rel.name, rel, trel, n, self.nt)
                self.binary.append(con)
                # static prune: any var with an in-neighbor must map into the
                # union of target rows, dually for out-neighbors
                if con.full_row_union != self.full_mask:
                    has_in = np.ones(nvars, dtype=bool)
                    for j in range(exponent):
                        has_in &= con.col_ne[self.dig[j]]
                    domains[has_in] &= np.uint32(con.full_row_union)
                if con.full_col_union != self.full_mask:
                    has_out = np.ones(nvars, dtype=bool)
                    for j in range(exponent):
                        has_out &= con.row_ne[self.dig[j]]
                    domains[has_out] &= np.uint32(con.full_col_union)
                # self-loop prune
                loop_mask = 0
                for a in range(self.nt):
                    if con.row_allow[a] >> a & 1:
                        loop_mask |= 1 << a
                if loop_mask != self.full_mask:
                    diag = np.diagonal(con.src_rows).copy()
                    selfrel = np.ones(nvars, dtype=bool)
                    for j in range(exponent):
                        selfrel &= diag[self.dig[j]]
                    domains[selfrel] &= np.uint32(loop_mask)
            else:
                if exponent != 1:
                    raise EnvelopeError(
                        "arity-%d relation on a non-materialized power source"
                        % rel.arity)
                self.high.append(_HighArityConstraint(
                    rel.name, rel.tuples, trel.tuples))

        # verification feasibility is part of the envelope: a map can only
        # be reported found if it can be independently re-checked
        if exponent > 1:
            for rel in base.relations:
                trel = target.relation_map[rel.name]
                if not rel.tuples or len(trel.tuples) == self.nt ** rel.arity:
                    continue
                combos = len(rel.tuples) ** exponent
                if combos > MAX_VERIFY_COMBOS and not (
                        rel.arity == 2 and nvars <= MAX_VERIFY_SWEEP_VARS):
                    raise EnvelopeError(
                        "relation %s needs %d verification combinations (cap %d)"
                        % (rel.name, combos, MAX_VERIFY_COMBOS))

        self.initial_domains = domains
        if self.static_unsat is None and (domains == 0).any():
            first = int(np.flatnonzero(domains == 0)[0])
            self.static_unsat = ("variable %d has no admissible value" % first)

        # per-digit neighbor indicators: out_ind[ci][j][a][v] says digit j of
        # v is a base-successor of a, so a neighbor mask is k row ANDs
        # instead of k fancy-indexing passes
        bytes_needed = 2 * len(self.binary) * exponent * n * nvars
        self.out_ind = None
        self.in_ind = None
        if self.binary and bytes_needed <= (192 << 20):
            self.out_ind = []
            self.in_ind = []
            for con in self.binary:
                out_j = np.empty((exponent, n, nvars), dtype=bool)
                in_j = np.empty((exponent, n, nvars), dtype=bool)
                for j in range(exponent):
                    for a in range(n):
                        out_j[j, a] = con.src_rows[a][self.dig[j]]
                        in_j[j, a] = con.src_cols[a][self.dig[j]]
                self.out_ind.append(out_j)
                self.in_ind.append(in_j)

    def decode(self, code):
        n = self.base.size
        out = [0] * self.exponent
        for j in range(self.exponent - 1, -1, -1):
            out[j] = code % n
            code //= n
        return tuple(out)

    def nb_mask(self, u, ci, outgoing):
        """Boolean array over vars: digitwise relation neighbors of u.

        Read-only for callers; may alias precomputed rows when exponent is 1.
        """
        digits = self.decode(u)
        ind = (self.out_ind if outgoing else self.in_ind)
        if ind is not None:
            rows = ind[ci]
            if self.exponent == 1:
                return rows[0, digits[0]]
            mask = rows[0, digits[0]].copy()
            for j in range(1, self.exponent):
                mask &= rows[j, digits[j]]
            return mask
        con = self.binary[ci]
        mask = np.ones(self.nvars, dtype=bool)
        mat = con.src_rows if outgoing else con.src_cols
        for j in range(self.exponent):
            mask &= mat[digits[j]][self.dig[j]]
        return mask


# a context can hold megabytes of indicator arrays; the callers reuse
# only a few (base, exponent, target) triples at a time
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


def _check_pins_direct(ctx, source, pins):
    """Reject pins that violate a constraint all of whose variables are
    pinned; raised before any search is attempted."""
    pinned = dict(pins)
    for con in ctx.binary:
        items = list(pinned.items())
        for (u, a) in items:
            du = ctx.decode(u)
            for (v, b) in items:
                dv = ctx.decode(v)
                if all(con.src_rows[du[j], dv[j]]
                       for j in range(ctx.exponent)):
                    if not (con.row_allow[a] >> b & 1):
                        raise InconsistentPinsError(
                            "pins map source %s-edge (%d,%d) to non-edge (%d,%d)"
                            % (con.name, u, v, a, b))
    for rel in ctx.base.relations:
        if rel.arity != 1 or not rel.tuples:
            continue
        trel = ctx.target.relation_map[rel.name]
        if len(trel.tuples) == ctx.nt:
            continue
        tset = {b for (b,) in trel.tuples}
        for u, a in pinned.items():
            du = ctx.decode(u)
            if all((d,) in rel.tuples for d in du) and a not in tset:
                raise InconsistentPinsError(
                    "pin %d->%d violates unary relation %s" % (u, a, rel.name))
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
        self.domains = ctx.initial_domains.copy()
        self.trail = []
        for var, val in pins:
            self.domains[var] &= np.uint32(1 << val)

    def undo_to(self, marker):
        trail = self.trail
        domains = self.domains
        while len(trail) > marker:
            var, old = trail.pop()
            domains[var] = old

    def _prune_var(self, var, allowed, singles, binq):
        old = int(self.domains[var])
        new = old & allowed
        if new == old:
            return True
        self.trail.append((var, old))
        self.domains[var] = new
        if new == 0:
            return False
        if new & (new - 1) == 0:
            singles.append(var)
        binq.append(var)
        return True

    def _revise_from(self, u, singles, binq):
        ctx = self.ctx
        domains = self.domains
        du = int(domains[u])
        if du == ctx.full_mask:
            return True  # full-domain revisions were applied statically
        for ci, con in enumerate(ctx.binary):
            allowed = con.succ_allowed(du)
            if allowed != ctx.full_mask:
                nb = ctx.nb_mask(u, ci, outgoing=True)
                if not self._revise_set(nb, allowed, singles, binq):
                    return False
            allowed = con.pred_allowed(du)
            if allowed != ctx.full_mask:
                nb = ctx.nb_mask(u, ci, outgoing=False)
                if not self._revise_set(nb, allowed, singles, binq):
                    return False
        return True

    def _revise_set(self, nb, allowed, singles, binq):
        domains = self.domains
        masked = domains & np.uint32(allowed)
        changed = nb & (masked != domains)
        idx = np.flatnonzero(changed)
        if idx.size == 0:
            return True
        old_vals = domains[idx].tolist()
        new_vals = masked[idx]
        domains[idx] = new_vals
        trail = self.trail
        ok = True
        new_list = new_vals.tolist()
        for var, old, new in zip(idx.tolist(), old_vals, new_list):
            trail.append((var, old))
            if new == 0:
                ok = False
            elif new & (new - 1) == 0:
                singles.append(var)
        if not ok:
            return False
        binq.extend(idx.tolist())
        return True

    def _check_singleton(self, v, singles, binq):
        """Incident arity >= 3 tuples of a freshly singleton variable."""
        ctx = self.ctx
        domains = self.domains
        for con in ctx.high:
            for ti in con.incident.get(v, ()):
                t = con.tuples[ti]
                unassigned = [w for w in sorted(set(t))
                              if int(domains[w]) & (int(domains[w]) - 1)]
                if len(unassigned) > 1:
                    continue
                if not unassigned:
                    image = tuple(int(domains[w]).bit_length() - 1 for w in t)
                    if image not in con.target:
                        return False
                    continue
                w = unassigned[0]
                allowed = 0
                fixed = {x: int(domains[x]).bit_length() - 1
                         for x in set(t) if x != w}
                for b in _bits(int(domains[w])):
                    fixed[w] = b
                    if tuple(fixed[x] for x in t) in con.target:
                        allowed |= 1 << b
                if not self._prune_var(w, allowed, singles, binq):
                    return False
        return True

    def propagate(self, changed_vars):
        """Revise from changed vars to arc consistency."""
        domains = self.domains
        binq = deque(changed_vars)
        singles = deque(v for v in changed_vars
                        if int(domains[v]) & (int(domains[v]) - 1) == 0)
        while binq or singles:
            while singles:
                v = singles.popleft()
                if not self._check_singleton(v, singles, binq):
                    return False
                if not self._revise_from(v, singles, binq):
                    return False
            if binq:
                u = binq.popleft()
                if int(domains[u]) & (int(domains[u]) - 1) == 0:
                    continue  # singletons already revised above
                if not self._revise_from(u, singles, binq):
                    return False
        return True

    def root_propagate(self):
        if (self.domains == 0).any():
            return False
        return self.propagate(
            np.flatnonzero(self.domains != self.ctx.full_mask).tolist())

    def select_dynamic(self):
        sizes = np.bitwise_count(self.domains).astype(np.int32)
        sizes[sizes == 1] = 1 << 20
        var = int(np.argmin(sizes))
        if sizes[var] == 1 << 20:
            return None
        return var

    def select_static(self):
        sizes = np.bitwise_count(self.domains)
        idx = np.flatnonzero(sizes > 1)
        return int(idx[0]) if idx.size else None

    def extract(self):
        logs = np.rint(np.log2(self.domains.astype(np.float64))).astype(np.int64)
        return {int(v): int(logs[v]) for v in range(self.ctx.nvars)}

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
        frames = [[var, list(_bits(int(self.domains[var]))), 0, len(self.trail)]]
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
            val = vals[idx]
            self.trail.append((var, int(self.domains[var])))
            self.domains[var] = np.uint32(1 << val)
            if not self.propagate([var]):
                continue
            nxt = select()
            if nxt is None:
                if on_solution is None:
                    return "found"
                if on_solution() is False:
                    return "stopped"
                continue
            frames.append([nxt, list(_bits(int(self.domains[nxt]))), 0,
                           len(self.trail)])
        return "unsat"


def solve(problem, limits=None):
    """Decide the extension problem. Unsat is reported only on a fully
    exhausted search; budget exits report exhausted with the reason."""
    limits = limits or default_limits()
    base, exponent, target, source = _normalize_problem(problem)
    ctx = _context(base, exponent, target)
    _check_pins_direct(ctx, source, problem.pins)
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
    _check_pins_direct(ctx, source, problem.pins)
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


def _as_value_array(nvars, mapping):
    if isinstance(mapping, dict):
        vals = np.full(nvars, -1, dtype=np.int64)
        for k, v in mapping.items():
            vals[int(k)] = int(v)
    else:
        vals = np.asarray(mapping, dtype=np.int64)
        if vals.shape != (nvars,):
            raise ValueError("mapping must cover all %d source elements" % nvars)
    if (vals < 0).any():
        raise ValueError("mapping must cover all %d source elements" % nvars)
    return vals


def _verify_power_relation(handle, rel, trel, hvals, violations, nt, cap=8):
    """Check one base relation digitwise over a power source."""
    n = handle.base.size
    k = handle.exponent
    r = rel.arity
    if not trel.tuples:
        # every power tuple violates; report the diagonal of the first one
        t0 = rel.sorted_tuples[0]
        st = tuple(handle.encode((t0[i],) * k) for i in range(r))
        violations.append((rel.name, st, tuple(int(hvals[c]) for c in st)))
        return False
    src = np.asarray(rel.sorted_tuples, dtype=np.int64)  # (m, r)
    m = src.shape[0]
    combos = m ** k
    if combos <= MAX_VERIFY_COMBOS:
        # coordinate i of a power tuple collects entry i across the k chosen
        # base tuples, one per digit position
        weights = np.array([n ** (k - 1 - j) for j in range(k)], dtype=np.int64)
        chunk = 1 << 18
        if r == 2:
            tmat = np.zeros((nt, nt), dtype=bool)
            for a, b in trel.tuples:
                tmat[a, b] = True
        else:
            enc_w = np.array([nt ** i for i in range(r)], dtype=np.int64)
            tgt_enc = np.sort(np.array(
                [sum(t[i] * nt ** i for i in range(r))
                 for t in trel.tuples], dtype=np.int64))
        for start in range(0, combos, chunk):
            idx = np.arange(start, min(start + chunk, combos), dtype=np.int64)
            choice = np.empty((k, idx.size), dtype=np.int64)
            rest = idx.copy()
            for j in range(k - 1, -1, -1):
                choice[j] = rest % m
                rest //= m
            codes = np.zeros((r, idx.size), dtype=np.int64)
            for j in range(k):
                sel = src[choice[j]]  # (chunk, r)
                for i in range(r):
                    codes[i] += sel[:, i] * weights[j]
            imgs = [hvals[codes[i]] for i in range(r)]
            if r == 2:
                bad = ~tmat[imgs[0], imgs[1]]
            else:
                enc = np.zeros(idx.size, dtype=np.int64)
                for i in range(r):
                    enc += imgs[i] * enc_w[i]
                pos = np.searchsorted(tgt_enc, enc)
                pos = np.clip(pos, 0, len(tgt_enc) - 1)
                bad = tgt_enc[pos] != enc
            if bad.any():
                for b in np.flatnonzero(bad)[:cap]:
                    st = tuple(int(codes[i][b]) for i in range(r))
                    iv = tuple(int(imgs[i][b]) for i in range(r))
                    violations.append((rel.name, st, iv))
                return False
        return True
    if r == 2 and handle.size <= MAX_VERIFY_SWEEP_VARS:
        nvars = handle.size
        tmat = np.zeros((nt, nt), dtype=bool)
        for a, b in trel.tuples:
            tmat[a, b] = True
        rows = np.zeros((n, n), dtype=bool)
        for a, b in rel.tuples:
            rows[a, b] = True
        digs = []
        codes = np.arange(nvars, dtype=np.int64)
        for _ in range(k):
            digs.append((codes % n).astype(np.int16))
            codes //= n
        digs.reverse()
        ok_img = tmat[:, hvals]  # ok_img[a, v] = (a, h(v)) in target
        for u in range(nvars):
            du = [int(digs[j][u]) for j in range(k)]
            nb = np.ones(nvars, dtype=bool)
            for j in range(k):
                nb &= rows[du[j]][digs[j]]
            bad = nb & ~ok_img[int(hvals[u])]
            if bad.any():
                for v in np.flatnonzero(bad)[:cap]:
                    violations.append(
                        (rel.name, (u, int(v)), (int(hvals[u]), int(hvals[v]))))
                return False
        return True
    raise EnvelopeError(
        "verification of relation %s needs %d combinations (cap %d)"
        % (rel.name, combos, MAX_VERIFY_COMBOS))


def check_is_homomorphism(source, target, mapping):
    """Independent verification that mapping is a homomorphism.

    Returns (ok, violations); each violation is (relation, source tuple,
    image tuple). Power sources are checked without materializing: either
    all digit combinations are enumerated in chunks, or for binary
    relations on moderate powers, a per-element neighbor sweep is used.
    """
    violations = []
    if isinstance(source, PowerHandle):
        hvals = _as_value_array(source.size, mapping)
        if (hvals >= target.size).any():
            raise ValueError("mapping has values outside the target carrier")
        for rel in source.base.relations:
            trel = target.relation_map[rel.name]
            if not rel.tuples:
                continue
            if len(trel.tuples) == target.size ** rel.arity:
                continue
            if rel.arity == 1:
                tset = {b for (b,) in trel.tuples}
                n = source.base.size
                base_in = np.zeros(n, dtype=bool)
                for (a,) in rel.tuples:
                    base_in[a] = True
                member = np.ones(source.size, dtype=bool)
                codes = np.arange(source.size, dtype=np.int64)
                for _ in range(source.exponent):
                    member &= base_in[codes % n]
                    codes //= n
                bad = member & ~np.isin(hvals, sorted(tset))
                for v in np.flatnonzero(bad)[:8]:
                    violations.append((rel.name, (int(v),), (int(hvals[v]),)))
            else:
                _verify_power_relation(source, rel, trel, hvals, violations,
                                       target.size)
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
