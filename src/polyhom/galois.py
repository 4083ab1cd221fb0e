"""The finite polymorphism / invariant-relation connection.

gamma_closure(A, tau) is the set of images of the tuple set tau under all
polymorphisms of matching arity, computed one candidate at a time through
the extendability engine. qf_type_closure(A, tau) is the outer bound given
by quantifier-free atomic types, computed on bitsets: QfAtoms numbers the
atoms over A^m (a relation over a coordinate selection, or a coordinate
equality), the atoms all of tau satisfies are the AND of its tuples' atom
masks, and the candidates are the points of A^m satisfying every one of
those atoms, a bitmask over A^m in itertools.product order; QfAtoms also
gives the qf-closed sets and their minimal covers, which decide_ph sweeps.
A relation is pp-definable from the structure exactly when it is
gamma-closed, and the invariant relations of the polymorphisms of bounded
arity shrink onto the gamma-closed family as the arity bound grows;
cross_check_inv_pol verifies that convergence. closed_sets is the one
listing of a closed family: it walks the sets a closure function fixes in
NextClosure order, whether the closure is gamma, closure under a set of
operations (invariant_relations), or closure under meet and join of
partitions (classify.enumerate_meet_complete_sublattices).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from operator import itemgetter, or_

from .structures import (EnvelopeError, PartialOpMap, RelationSet,
                         StructureError, cylinder, power, shared_tuple,
                         tuple_set)
from .search import (ExtensionProblem, _allowance, _bits,
                     enumerate_solutions)
from .homogeneity import FunctionTable, extendable

# closed_sets: points of the walked space, and the closed sets it lists
MAX_INV_POINTS = 24
MAX_INV_MEMBERS = 1 << 16
MAX_QF_POINTS = 1 << 20
# coordinate selections of one relation among the qf atoms over A^m
MAX_QF_SELECTIONS = 1_000_000
# check_finite_polylocal: nonempty tuple sets over A^m
MAX_POLYLOCAL_SETS = 1 << 16
# enumerate_polymorphisms: tables listed before it reports incomplete
MAX_ENUMERATED_POLYMORPHISMS = 1 << 15


def enumerate_polymorphisms(structure, k, limits=None):
    """All k-ary polymorphisms as FunctionTables, engine-enumerated in
    lexicographic table order. Returns (tables, complete); complete is
    False when the listing stopped at MAX_ENUMERATED_POLYMORPHISMS tables
    or at a budget. Raises EnvelopeError past search.MAX_CSP_VARS table
    entries. limits is as for search.solve."""
    sols, complete = enumerate_solutions(
        ExtensionProblem(power(structure, k), structure),
        MAX_ENUMERATED_POLYMORPHISMS, limits)
    return [FunctionTable(k, structure.size, "table", list(s.values()))
            for s in sols], complete


def _point(i, n, m):
    """The m-tuple over range(n) numbered i in itertools.product order."""
    digits = []
    for _ in range(m):
        i, a = divmod(i, n)
        digits.append(a)
    return shared_tuple(tuple(reversed(digits)))


def _code(t, n):
    """The number of the tuple t over range(n), the inverse of _point."""
    code = 0
    for a in t:
        if not 0 <= a < n:
            raise StructureError("value %r leaves the point space" % (a,))
        code = code * n + a
    return code


class QfAtoms:
    """The quantifier-free atoms over A^m, with the points satisfying each.

    An atom is a coordinate selection together with the tuples allowed
    there: (sel, R) for every nonempty relation R of arity r and every sel
    in range(m)^r, and ((i, j), diagonal) for every coordinate equality
    i < j. Atom k is bit k of an atom mask. The points of A^m are numbered
    in itertools.product order, and a point set is an int with bit i for
    point i, so low-to-high bit order is sorted order.

    Step one, atom_mask, gives the atoms one tuple satisfies; the atoms a
    tuple set satisfies are the AND of its tuples' masks. Step two,
    closure, gives the point set satisfying every atom of a mask.

    A qf-closed set Q = qf(tau) keeps the atoms of tau, At(Q) = At(tau).
    qf_sets lists them, and covers gives the minimal tau with a qf(tau).
    """

    def __init__(self, structure, m):
        n = structure.size
        if n ** m > MAX_QF_POINTS:
            raise EnvelopeError("qf closure space %d^%d too large" % (n, m))
        diagonal = frozenset((a, a) for a in range(n))
        atoms = [((i, j), diagonal)
                 for i in range(m) for j in range(i + 1, m)]
        for rel in structure.relations:
            if not rel.tuples:
                continue
            if m ** rel.arity > MAX_QF_SELECTIONS:
                raise EnvelopeError(
                    "qf closure needs %d selections for relation %s"
                    % (m ** rel.arity, rel.name))
            if rel.arity == 1:
                # (i, i) over the doubled tuples: itemgetter(i) would
                # return a bare value where every other atom gets a tuple
                doubled = frozenset((a, a) for (a,) in rel.tuples)
                atoms.extend(((i, i), doubled) for i in range(m))
                continue
            atoms.extend((sel, rel.tuples) for sel in
                         itertools.product(range(m), repeat=rel.arity))
        self.n = n
        self.m = m
        self._atoms = [(itemgetter(*sel), sel, allowed)
                       for sel, allowed in atoms]
        self.size = n ** m
        self.full = (1 << self.size) - 1
        self._satisfying = {}
        self._cylinders = {}
        self._point_atoms = None

    def atom_mask(self, t):
        """Step one: the atoms the m-tuple t satisfies."""
        mask = 0
        for k, (select, _, allowed) in enumerate(self._atoms):
            if select(t) in allowed:
                mask |= 1 << k
        return mask

    def closure(self, atom_mask):
        """Step two: the points satisfying every atom of atom_mask."""
        out = self.full
        while atom_mask and out:
            low = atom_mask & -atom_mask
            atom_mask ^= low
            out &= self._satisfying_points(low.bit_length() - 1)
        return out

    def qf(self, point_set):
        """The qf-type closure of a nonempty point set, as a point set."""
        mask = -1
        for i in _bits(point_set):
            mask &= self._point_masks()[i]
        return self.closure(mask)

    def qf_sets(self):
        """The nonempty qf-closed point sets, by size and then by value,
        each with its atom mask: the closures of the distinct ANDs of
        point atom masks."""
        masks = set()
        for pm in self._point_masks():
            masks |= {pm & x for x in masks}
            masks.add(pm)
        return sorted(((self.closure(a), a) for a in masks),
                      key=lambda qa: (qa[0].bit_count(), qa[0]))

    def covers(self, q, atom_mask):
        """The minimal covers of the qf-closed set q with atoms atom_mask,
        by size and then by value: the inclusion-minimal tau within q with
        At(tau) = atom_mask, which are the minimal transversals (Berge;
        Eiter and Gottlob 1995) of the edges {points of q violating atom k
        : k not in atom_mask}, or the singletons of q if there are none.
        Branches on the unmet edge with the fewest open points, barring
        the points tried before in it, and keeps a transversal whose every
        point is alone in some edge."""
        edges = {q & ~self._satisfying_points(k)
                 for k in range(len(self._atoms)) if not atom_mask >> k & 1}
        if not edges:
            return [1 << i for i in _bits(q)]
        out = []

        def grow(chosen, barred):
            unmet = [e & ~barred for e in edges if not e & chosen]
            if unmet:
                tried = 0
                for i in _bits(min(unmet, key=int.bit_count)):
                    grow(chosen | 1 << i, barred | tried)
                    tried |= 1 << i
            elif all(any(e & chosen == 1 << i for e in edges)
                     for i in _bits(chosen)):
                out.append(chosen)

        grow(0, 0)
        return sorted(out, key=lambda c: (c.bit_count(), c))

    def _point_masks(self):
        if self._point_atoms is None:
            self._point_atoms = [self.atom_mask(self.point(i))
                                 for i in range(self.size)]
        return self._point_atoms

    def point(self, i):
        """The m-tuple numbered i."""
        return _point(i, self.n, self.m)

    def decode(self, point_set):
        """The points of a point set, sorted."""
        bits = bin(point_set)[:1:-1]
        out = []
        i = bits.find("1")
        while i >= 0:
            out.append(self.point(i))
            i = bits.find("1", i + 1)
        return out

    def _satisfying_points(self, k):
        out = self._satisfying.get(k)
        if out is None:
            _, sel, allowed = self._atoms[k]
            out = 0
            for u in allowed:
                term = self.full
                for i, a in zip(sel, u):
                    term &= self._cylinder(i, a)
                out |= term
            self._satisfying[k] = out
        return out

    def _cylinder(self, i, a):
        """The points whose coordinate i is a."""
        out = self._cylinders.get((i, a))
        if out is None:
            out = self._cylinders[(i, a)] = cylinder(self.n, self.m, i, a)
        return out


def qf_type_closure(structure, tau):
    """Candidate images of tau permitted by quantifier-free atomic types.

    tau is a nonempty set of m-tuples. A tuple b qualifies when it satisfies
    every atom that all of tau satisfies: for every relation and every
    coordinate selection under which all of tau lands in the relation, b
    lands in it too; and b_i = b_j whenever coordinates i and j agree
    across all of tau. Computed as QfAtoms.closure of the AND of the
    tuples' atom masks and returned sorted. Always a superset of the
    polymorphism image closure.
    """
    tau = sorted(set(map(tuple, tau)))
    if not tau:
        raise ValueError("tau must be nonempty")
    m = len(tau[0])
    if any(len(t) != m for t in tau):
        raise StructureError("tau tuples must share one arity")
    atoms = QfAtoms(structure, m)
    mask = -1
    for t in tau:
        mask &= atoms.atom_mask(t)
    return atoms.decode(atoms.closure(mask))


def tau_extension_map(tau, b, size):
    """The partial map whose extendability decides b's membership in the
    image closure of tau: row i of the matrix with the tau tuples as
    columns maps to b_i."""
    tau = sorted(set(map(tuple, tau)))
    m = len(b)
    rows = [tuple(t[i] for t in tau) for i in range(m)]
    return PartialOpMap(len(tau), size, tuple(zip(rows, b)))


@lru_cache(maxsize=1 << 12)
def _shared(value):
    """value, or the equal one passed before: one object per equal result."""
    return value


def _settled_candidates(structure, tau, candidates, budget):
    """Each candidate image b of tau, in order, with whether the map tau ->
    b extends to a polymorphism, its CSP spending the call's allowance
    budget. Raises EnvelopeError when a candidate cannot be settled in
    the budget."""
    for b in candidates:
        res = extendable(structure, tau_extension_map(tau, b, structure.size),
                         budget)
        if res.exhausted:
            raise EnvelopeError(
                "image closure candidate %r exhausted the search budget"
                % (b,))
        yield b, res.extendable


def gamma_closure(structure, tau, limits=None):
    """Images of tau under arity-|tau| polymorphisms, a sorted tuple
    certified per candidate. The call builds one node and wall allowance
    (search._Budget) from limits, and every candidate's CSP spends from
    it. Raises EnvelopeError when a candidate cannot be settled within the
    budget, rather than returning an uncertified set."""
    tau = sorted(set(map(tuple, tau)))
    return _shared(tuple(b for b, extends in _settled_candidates(
        structure, tau, qf_type_closure(structure, tau),
        _allowance(limits)) if extends))


@dataclass(slots=True)
class PpResult:
    definable: bool
    witness: tuple = None  # first closure tuple outside sigma
    closure: tuple = ()
    detail: dict = None

    def to_json(self):
        out = {"definable": self.definable,
               "closure": [list(t) for t in self.closure]}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.detail:
            out["detail"] = self.detail
        return out


def is_pp_definable(structure, sigma, limits=None):
    """Is sigma a primitive-positive-definable relation of the structure,
    i.e. closed under all polymorphisms of arity |sigma|?

    sigma is a RelationSet or an iterable of same-arity tuples. The empty
    relation is definable by convention. On a negative answer the witness
    is the first closure tuple outside sigma. Its one gamma_closure call
    spends one node and wall allowance.
    """
    if isinstance(sigma, RelationSet):
        tuples = set(sigma.tuples)
    else:
        tuples = set(map(tuple, sigma))
    if not tuples:
        return PpResult(True, None, (),
                        {"note": "empty relation handled by convention"})
    closure = gamma_closure(structure, tuples, limits)
    extra = next((b for b in closure if b not in tuples), None)
    return PpResult(extra is None, extra, closure)


@dataclass(slots=True)
class RelationFamily:
    """A finite family of m-ary relations over a common carrier."""

    arity: int
    size: int
    members: tuple  # of frozensets of tuples

    def __post_init__(self):
        canon = sorted((tuple_set(s) for s in self.members),
                       key=lambda s: (len(s), sorted(s)))
        object.__setattr__(self, "members", tuple(canon))

    def __contains__(self, relation):
        return frozenset(map(tuple, relation)) in set(self.members)

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (isinstance(other, RelationFamily)
                and self.arity == other.arity and self.size == other.size
                and set(self.members) == set(other.members))

    def to_json(self):
        return {"arity": self.arity, "size": self.size,
                "members": [[list(t) for t in sorted(s)]
                            for s in self.members]}


def _walk_points(npoints):
    """npoints, or EnvelopeError past MAX_INV_POINTS."""
    if npoints > MAX_INV_POINTS:
        raise EnvelopeError(
            "exhaustive invariant enumeration over %d points (cap %d)"
            % (npoints, MAX_INV_POINTS))
    return npoints


def closed_sets(npoints, close):
    """Every set of point indices in range(npoints) that close fixes, as
    frozensets in lectic order: Ganter's NextClosure (1984), where point 0
    is the most significant. close must be a closure operator on frozensets
    of point indices (extensive, monotone and idempotent); it gets
    frozenset(), then closed sets plus one point, which are not closed.
    Raises EnvelopeError past MAX_INV_POINTS points or MAX_INV_MEMBERS."""
    _walk_points(npoints)
    current = close(frozenset())
    members = [current]
    while True:
        if len(members) > MAX_INV_MEMBERS:
            raise EnvelopeError(
                "more than %d closed relations" % (MAX_INV_MEMBERS,))
        for i in range(npoints - 1, -1, -1):
            if i in current:
                current = current - {i}
                continue
            candidate = close(current | {i})
            # lectic successor: close added no point more significant than i
            if not any(j < i for j in candidate - current):
                break
        else:
            return members
        current = candidate
        members.append(current)


def _point_tables(ops, n, m):
    """Each operation as (arity, a dict from point index tuples of A^m to
    the coordinatewise image's index), once MAX_INV_POINTS is checked."""
    points = [_point(i, n, m) for i in range(_walk_points(n ** m))]
    return [(ft.arity, {args: _code([ft.apply(c) for c in zip(
        *map(points.__getitem__, args))], n) for args in itertools.product(
            range(len(points)), repeat=ft.arity)}) for ft in ops]


def _closure_under_ops(tables, seed):
    """Smallest superset of the point indices seed closed under the
    _point_tables. Semi-naive (Bancilhon and Ramakrishnan 1986): a pass
    applies them only to argument lists holding a point the last pass
    added, the first to all of seed, which need not be closed."""
    old, new = [], list(seed)
    while new:
        current = old + new
        images = {table[args] for k, table in tables for j in range(k)
                  for args in itertools.product(*[old] * j, new,
                                                *[current] * (k - 1 - j))}
        old, new = current, list(images.difference(current))
    return frozenset(old)


def _closed_family(n, m, close):
    """The m-ary relations over range(n) whose point sets close fixes."""
    return RelationFamily(m, n, tuple(
        _shared(frozenset({_point(i, n, m) for i in s}))
        for s in closed_sets(n ** m, close)))


def invariant_relations(ops, m, size=None):
    """Relations of arity m closed under every operation in ops.

    ops: FunctionTables over one carrier. Lists the whole closed-set
    lattice with closed_sets; the empty relation and the full relation are
    closed and always appear. Raises EnvelopeError past MAX_INV_POINTS
    points or MAX_INV_MEMBERS relations.
    """
    if not ops and size is None:
        raise ValueError("need ops or an explicit carrier size")
    n = size if size is not None else ops[0].size
    for ft in ops:
        if ft.size != n:
            raise StructureError("operations disagree on the carrier size")
    return _closed_family(n, m, partial(_closure_under_ops,
                                        _point_tables(ops, n, m)))


@dataclass(slots=True)
class PolylocalResult:
    holds: bool
    separation: tuple = None  # (tau, b) with b in qf closure minus gamma
    checked: int = 0

    def to_json(self):
        out = {"holds": self.holds, "checked": self.checked}
        if self.separation is not None:
            tau, b = self.separation
            out["separation"] = {"tau": [list(t) for t in tau],
                                 "image": list(b)}
        return out


def check_finite_polylocal(structure, m, limits=None):
    """Does every qf-type-permitted image of every nonempty tuple set over
    A^m arise from a polymorphism? Fails with the first separating pair in
    sweep order (tuple-set size ascending, then lexicographic), so the
    images in qf(tau minus t), within gamma(tau minus t) and gamma(tau), are
    skipped as in homogeneity._sweep_level. The call builds one node and
    wall allowance (search._Budget) from limits, and every candidate's CSP
    spends from it. Raises EnvelopeError past MAX_POLYLOCAL_SETS tuple
    sets."""
    budget = _allowance(limits)
    n = structure.size
    space = n ** m
    # 2^space - 1 tuple sets, compared without building 2^space
    if space > (MAX_POLYLOCAL_SETS + 1).bit_length() - 1:
        raise EnvelopeError(
            "polylocality sweep over 2^%d - 1 tuple sets (cap %d)"
            % (space, MAX_POLYLOCAL_SETS))
    atoms = QfAtoms(structure, m)
    qf = {}  # point set -> its qf closure, for the sets already settled
    for checked, combo in enumerate(itertools.chain.from_iterable(
            itertools.combinations(range(space), size)
            for size in range(1, space + 1)), 1):
        mask = sum(1 << i for i in combo)
        known = reduce(or_, [qf.get(mask ^ 1 << i, 0) for i in combo], mask)
        qf[mask] = atoms.qf(mask)
        tau = [atoms.point(i) for i in combo]
        for b, extends in _settled_candidates(
                structure, tau, atoms.decode(qf[mask] & ~known), budget):
            if not extends:
                return PolylocalResult(False, (tau, b), checked)
    return PolylocalResult(True, None, (1 << space) - 1)


@dataclass(slots=True)
class CrossCheckResult:
    gamma_family: RelationFamily
    by_arity: dict  # k -> RelationFamily of Pol^{<=k}-invariant relations
    containment_ok: bool
    stabilization_arity: int = None
    pol_counts: dict = field(default_factory=dict)

    @property
    def equal_at_max(self):
        k = max(self.by_arity)
        return self.by_arity[k] == self.gamma_family

    def to_json(self):
        return {
            "gamma_family": self.gamma_family.to_json(),
            "by_arity": {str(k): fam.to_json()
                         for k, fam in self.by_arity.items()},
            "containment_ok": self.containment_ok,
            "stabilization_arity": self.stabilization_arity,
            "equal_at_max": self.equal_at_max,
            "pol_counts": {str(k): v for k, v in self.pol_counts.items()},
        }


def cross_check_inv_pol(structure, m, K, limits=None):
    """Compare the gamma-closed m-ary relations with the invariants of the
    polymorphisms of arity up to k, for k = 1..K.

    Pol^<=K is enumerated first, so a cut-off enumeration raises before
    gamma is walked; the walk counts the closure of S under Pol^<=K as in
    gamma(S). The gamma-closed family is contained in every invariant
    family; they coincide once k reaches the stabilization arity.
    Containment failures raise, since they would mean one of the two
    computations is wrong. The call builds one node and wall allowance
    (search._Budget) from limits; the enumerations spend from it first,
    then the candidates' CSPs.
    """
    budget = _allowance(limits)
    n = structure.size
    tables, by_arity, pol_counts = [], {}, {}
    for k in range(1, K + 1):
        if budget.spent():
            raise EnvelopeError("the node budget was spent before the "
                                "arity-%d polymorphism enumeration" % k)
        found, complete = enumerate_polymorphisms(structure, k, budget)
        if not complete:
            raise EnvelopeError(
                "polymorphism enumeration at arity %d was cut off" % k)
        pol_counts[k] = len(found)
        tables = tables + _point_tables(found, n, m)
        by_arity[k] = _closed_family(n, m, partial(_closure_under_ops,
                                                   tables))
    atoms = QfAtoms(structure, m)

    def gamma(seed):
        closed = _closure_under_ops(tables, seed)
        todo = atoms.qf(sum(1 << i for i in seed)) if seed else 0
        todo &= ~sum(1 << i for i in closed)
        tau = [atoms.point(i) for i in sorted(seed)]
        return closed.union(_code(b, n) for b, extends in _settled_candidates(
            structure, tau, atoms.decode(todo), budget) if extends)

    gamma_family = _closed_family(n, m, gamma)
    stabilization = None
    for k, fam in by_arity.items():
        if not set(gamma_family.members) <= set(fam.members):
            raise RuntimeError(
                "internal error: a gamma-closed relation is not invariant "
                "under Pol^<=%d" % k)
        if fam == gamma_family:
            by_arity[k] = gamma_family  # one object for equal families
            stabilization = stabilization or k
    return CrossCheckResult(gamma_family, by_arity, True, stabilization,
                            pol_counts)
