"""Finite relational structures, lazy powers, partial operation tables,
and the axioms of the classified families (FAMILY_AXIOMS), which every
family check goes through.

Elements are dense integers 0..n-1. Power elements are base-n encoded
integers (big-endian: the first coordinate is the most significant digit),
so lexicographic order of index vectors equals numeric order of codes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

# Powers are never materialized above this many elements; consumers must
# go through the lazy handle beyond it.
MAX_MATERIALIZED_POWER = 1 << 20
# Tuples one relation of a materialized power may list.
MAX_MATERIALIZED_TUPLES = 1 << 22
# Tuples of one or two points below this are one shared object each (see
# shared_tuple).
SHARED_TUPLE_POINTS = 16
_SHARED_TUPLES = {t: t for r in (1, 2)
                  for t in itertools.product(range(SHARED_TUPLE_POINTS),
                                             repeat=r)}


class StructureError(ValueError):
    """A structure, relation, or map failed validation."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class EnvelopeError(RuntimeError):
    """A computation would exceed the declared feasibility envelope."""


def _check_tuple(t, arity, n, symbol, index, violations):
    if len(t) != arity:
        violations.append(
            (symbol, index, "arity mismatch: tuple %r has length %d, declared %d"
             % (t, len(t), arity)))
        return
    for entry in t:
        if not isinstance(entry, int) or not 0 <= entry < n:
            violations.append(
                (symbol, index, "entry %r out of range 0..%d in tuple %r"
                 % (entry, n - 1, t)))
            return


def _check_tuples(tuples, arity, n, symbol, violations):
    """Check every tuple, in sorted order so that the reported indices do
    not depend on set order. Entries that do not compare with the others
    (an int beside a str) are ordered by repr instead, so that the check,
    not the sort, reports them."""
    try:
        ordered = sorted(tuples)
    except TypeError:
        ordered = sorted(tuples, key=repr)
    for i, t in enumerate(ordered):
        _check_tuple(t, arity, n, symbol, i, violations)


def shared_tuple(t):
    """t, or the one shared object equal to it when t holds one or two
    ints below SHARED_TUPLE_POINTS, so that the many small structures and
    reports built apart hold their pairs and singletons once."""
    shared = _SHARED_TUPLES.get(t)
    # an equal tuple of floats or bools is not shared: t[0] and t[-1] are
    # all the entries of a tuple found in the table
    if shared is not None and type(t[0]) is int and type(t[-1]) is int:
        return shared
    return t


def tuple_set(tuples):
    """The tuples as a frozenset of tuples, returned as is when it is one.
    Copied from a set, a frozenset is sized to its contents; grown a tuple
    at a time, it can take twice the memory."""
    if type(tuples) is frozenset and all(type(t) is tuple for t in tuples):
        return tuples
    return frozenset(set(map(tuple, tuples)))


@dataclass(frozen=True, slots=True)
class Relation:
    """One named relation: a duplicate-free set of arity-matching tuples."""

    name: str
    arity: int
    tuples: frozenset
    _sorted: tuple = field(default=None, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tuples", tuple_set(self.tuples))

    @property
    def sorted_tuples(self):
        """The tuples in ascending order, sorted on first use."""
        if self._sorted is None:
            object.__setattr__(self, "_sorted", tuple(sorted(self.tuples)))
        return self._sorted

    def __contains__(self, t):
        return tuple(t) in self.tuples


@dataclass(frozen=True)
class RelationSet:
    """An anonymous m-ary relation over a stated carrier size."""

    arity: int
    size: int
    tuples: frozenset

    def __post_init__(self):
        tuples = tuple_set(self.tuples)
        violations = []
        _check_tuples(tuples, self.arity, self.size, "<relation-set>",
                      violations)
        if violations:
            raise StructureError("invalid relation set", violations)
        object.__setattr__(self, "tuples", tuples)

    @cached_property
    def sorted_tuples(self):
        return tuple(sorted(self.tuples))

    def __contains__(self, t):
        return tuple(t) in self.tuples

    def __len__(self):
        return len(self.tuples)

    def to_json(self):
        return {"arity": self.arity, "size": self.size,
                "tuples": [list(t) for t in self.sorted_tuples]}


@dataclass(frozen=True, slots=True)
class FiniteStructure:
    """A finite carrier 0..n-1 plus named finitary relations.

    Equality and hashing ignore the display name, so isomorphic copies with
    different labels still compare unequal while renamings compare equal.
    """

    size: int
    relations: tuple
    name: str = field(default="", compare=False)

    def __post_init__(self):
        rels = tuple(r if isinstance(r, Relation) else Relation(*r)
                     for r in self.relations)
        object.__setattr__(self, "relations", rels)
        violations = []
        if not isinstance(self.size, int) or self.size < 1:
            violations.append(("<structure>", -1, "carrier size must be >= 1"))
        seen = set()
        for rel in rels:
            if rel.name in seen:
                violations.append((rel.name, -1, "duplicate relation symbol"))
            seen.add(rel.name)
            if rel.arity < 1:
                violations.append((rel.name, -1, "arity must be >= 1"))
                continue
            _check_tuples(rel.tuples, rel.arity, self.size, rel.name,
                          violations)
        if violations:
            raise StructureError(
                "invalid structure %r: %s" % (self.name or "<anon>",
                                              "; ".join(v[2] for v in violations)),
                violations)

    @property
    def relation_map(self):
        return {r.name: r for r in self.relations}

    @property
    def signature(self):
        return tuple((r.name, r.arity) for r in self.relations)

    @property
    def max_arity(self):
        return max((r.arity for r in self.relations), default=0)

    def relation(self, name):
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise KeyError(name)


@dataclass(frozen=True)
class PowerHandle:
    """A lazy view of base^exponent.

    Elements are codes 0..n^k-1; a tuple of power elements is in a relation
    iff every coordinate projection is in the base relation. Relation tuple
    sets are never materialized through this handle.
    """

    base: FiniteStructure
    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise StructureError("power exponent must be >= 1")

    @property
    def size(self):
        return self.base.size ** self.exponent

    @property
    def name(self):
        return "%s^%d" % (self.base.name or "A", self.exponent)

    @property
    def signature(self):
        return self.base.signature

    def encode(self, vector):
        n = self.base.size
        if len(vector) != self.exponent:
            raise ValueError("vector length %d, exponent %d"
                             % (len(vector), self.exponent))
        code = 0
        for v in vector:
            if not 0 <= v < n:
                raise ValueError("coordinate %r out of range" % (v,))
            code = code * n + v
        return code

    def decode(self, code):
        n = self.base.size
        if not 0 <= code < self.size:
            raise ValueError("code %r out of range" % (code,))
        out = [0] * self.exponent
        for j in range(self.exponent - 1, -1, -1):
            out[j] = code % n
            code //= n
        return tuple(out)

    def materialize(self):
        """Explicit product structure; guarded against blow-up."""
        if self.size > MAX_MATERIALIZED_POWER:
            raise EnvelopeError(
                "refusing to materialize power with %d elements (cap %d)"
                % (self.size, MAX_MATERIALIZED_POWER))
        n = self.base.size
        k = self.exponent
        rels = []
        for rel in self.base.relations:
            count = len(rel.tuples) ** k
            if count > MAX_MATERIALIZED_TUPLES:
                raise EnvelopeError(
                    "relation %s would materialize %d tuples (cap %d)"
                    % (rel.name, count, MAX_MATERIALIZED_TUPLES))
            tuples = set()
            for choice in itertools.product(rel.sorted_tuples, repeat=k):
                # choice[j] is the j-th coordinate's base tuple
                tuples.add(tuple(self.encode(tuple(choice[j][i] for j in range(k)))
                                 for i in range(rel.arity)))
            rels.append(Relation(rel.name, rel.arity, frozenset(tuples)))
        return FiniteStructure(self.size, tuple(rels), name=self.name)


def power(structure, k):
    """Direct power A^k as a lazy handle."""
    return PowerHandle(structure, k)


def cylinder(n, k, j, a):
    """The codes of n^k whose digit j is a, as a bitset (bit c for code c).

    The set is periodic: each run of n^(k-j) codes holds one block of
    w = n^(k-1-j) consecutive members, starting at a * w; written out as
    a binary numeral, the highest code first, that is n^j copies of one
    run.
    """
    w = n ** (k - 1 - j)
    run = "0" * ((n - 1 - a) * w) + "1" * w + "0" * (a * w)
    return int(run * n ** j, 2)


@lru_cache(maxsize=1 << 10)
def partition_pairs(blocks):
    """The equivalence with the blocks (tuples) as classes, as pairs."""
    return frozenset({shared_tuple((a, b)) for block in blocks
                      for a in block for b in block})


def _validate_partition(n, blocks, which, violations):
    seen = []
    for block in blocks:
        for e in block:
            if not isinstance(e, int) or not 0 <= e < n:
                violations.append((which, -1, "partition entry %r out of range" % (e,)))
                return
            seen.append(e)
    if sorted(seen) != list(range(n)):
        violations.append((which, -1,
                           "partition %r does not partition 0..%d" % (blocks, n - 1)))


# The axioms of each classified family's binary relations, in recognition
# order: the empty relation is both an edgeless graph and an empty strict
# order, and is recognized as the graph.
FAMILY_AXIOMS = {
    "graph": ("irreflexive", "symmetric"),
    "poset": ("reflexive", "antisymmetric", "transitive"),
    "strict_poset": ("irreflexive", "transitive"),
    "eq_lattice": ("reflexive", "symmetric", "transitive"),
}


def broken_axiom(pairs, n, family):
    """The first axiom of the family that the binary relation pairs (a
    set) on 0..n-1 breaks, with its least witness, or None. A witness is
    the pair (a, a) missing or present, the pair (a, b) whose converse is
    missing or present, or the path (a, b, c) whose shortcut (a, c) is
    missing."""
    for axiom in FAMILY_AXIOMS[family]:
        if axiom == "reflexive":
            bad = [(a, a) for a in range(n) if (a, a) not in pairs]
        elif axiom == "irreflexive":
            bad = [(a, a) for a in range(n) if (a, a) in pairs]
        elif axiom == "symmetric":
            bad = [(a, b) for a, b in pairs if (b, a) not in pairs]
        elif axiom == "antisymmetric":
            bad = [(a, b) for a, b in pairs if a != b and (b, a) in pairs]
        else:
            after = {}
            for a, b in pairs:
                after.setdefault(a, []).append(b)
            bad = [(a, b, c) for a, b in pairs for c in after.get(b, ())
                   if (a, c) not in pairs]
        if bad:
            return axiom, min(bad)
    return None


def check_family(family, symbol, pairs, n):
    """Raise StructureError, naming the relation symbol, when pairs breaks
    an axiom of the family."""
    broken = broken_axiom(pairs, n, family)
    if broken is not None:
        rule = "not %s: witness %r" % broken
        raise StructureError("invalid %s: %s %s" % (family, symbol, rule),
                             [(symbol, -1, rule)])


def canonical_structure(family, n, data, name=""):
    """Canonical relational structure of a graph, poset, strict poset, or
    family of equivalence relations; family axioms verified with witnesses.

    data: graph - iterable of edges (unordered; symmetric closure applied);
    poset - the full reflexive order relation as pairs; strict_poset - the
    strict order pairs; eq_lattice - list of partitions (lists of blocks).
    """
    if family == "strict":
        family = "strict_poset"
    elif family == "eqlattice":
        family = "eq_lattice"
    if family == "eq_lattice":
        violations = []
        rels = []
        seen = set()
        for i, blocks in enumerate(data):
            _validate_partition(n, blocks, "th%d" % i, violations)
            if violations:
                raise StructureError("invalid equivalence family", violations)
            pairs = partition_pairs(tuple(map(tuple, blocks)))
            if pairs in seen:
                violations.append(("th%d" % i, -1, "duplicate partition %r" % (blocks,)))
            seen.add(pairs)
            rels.append(Relation("th%d" % i, 2, pairs))
        if violations:
            raise StructureError("invalid equivalence family", violations)
        return FiniteStructure(n, tuple(rels), name=name or "eq_lattice")
    if family not in FAMILY_AXIOMS:
        raise StructureError("unknown family %r" % (family,))
    symbol = {"graph": "edge", "poset": "le", "strict_poset": "lt"}[family]
    pairs = {shared_tuple(tuple(e)) for e in data}
    if family == "graph":
        pairs |= {shared_tuple(e[::-1]) for e in pairs}
    pairs = frozenset(pairs)
    structure = FiniteStructure(n, (Relation(symbol, 2, pairs),),
                                name=name or family)
    check_family(family, symbol, pairs, n)
    return structure


@dataclass(frozen=True, slots=True)
class PartialOpMap:
    """A finite-domain k-ary partial function on the carrier 0..n-1.

    entries is a canonically sorted tuple of (args, value) pairs; functional
    by construction.
    """

    arity: int
    size: int
    entries: tuple

    def __post_init__(self):
        if self.arity < 1:
            raise StructureError("arity must be >= 1")
        normalized = {}
        items = (self.entries.items() if isinstance(self.entries, dict)
                 else self.entries)
        for args, value in items:
            args = tuple(args)
            if len(args) != self.arity:
                raise StructureError("key %r has wrong arity" % (args,))
            for a in args:
                if not 0 <= a < self.size:
                    raise StructureError("key entry %r out of range" % (a,))
            if not 0 <= value < self.size:
                raise StructureError("value %r out of range" % (value,))
            if normalized.get(args, value) != value:
                raise StructureError(
                    "conflicting values for key %r" % (args,))
            normalized[args] = value
        object.__setattr__(self, "entries", tuple(sorted(normalized.items())))

    @property
    def as_dict(self):
        """The entries as a new dict. Lookups build one each: the package
        reads maps through entries, so no map keeps a copy."""
        return dict(self.entries)

    @property
    def domain(self):
        return tuple(k for k, _ in self.entries)

    def __call__(self, args):
        return self.as_dict[tuple(args)]

    def get(self, args, default=None):
        return self.as_dict.get(tuple(args), default)

    def __contains__(self, args):
        return tuple(args) in self.as_dict

    def __len__(self):
        return len(self.entries)

    def with_entry(self, args, value):
        return PartialOpMap(self.arity, self.size, self.entries + ((tuple(args), value),))

    def to_json(self):
        return {"arity": self.arity, "size": self.size,
                "entries": [[list(k), v] for k, v in self.entries]}

    @staticmethod
    def from_json(obj):
        return PartialOpMap(obj["arity"], obj["size"],
                            tuple((tuple(k), v) for k, v in obj["entries"]))


def reduce_columns(f):
    """Remove duplicate columns of f's domain matrix.

    Rows are f's domain tuples in ascending order; column j is the vector of
    j-th coordinates down the rows. Returns (g, column_map) where g is the
    induced map on the distinct columns (first-occurrence order) and
    column_map[j] is the kept-column index that original coordinate j equals.
    f extends to a polymorphism iff g does: either extension is a minor of
    the other via column_map, and duplicate columns preserve row distinctness.
    """
    if not f.entries:
        raise StructureError("reduce_columns requires a nonempty map")
    rows = f.domain
    k = f.arity
    columns = [tuple(r[j] for r in rows) for j in range(k)]
    first_index = {}
    kept = []
    column_map = []
    for j, col in enumerate(columns):
        if col not in first_index:
            first_index[col] = len(kept)
            kept.append(j)
        column_map.append(first_index[col])
    entries = tuple((tuple(r[j] for j in kept), v) for r, v in f.entries)
    g = PartialOpMap(len(kept), f.size, entries)
    return g, tuple(column_map)
