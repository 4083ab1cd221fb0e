"""Family-specific classification with constructive refutation witnesses.

Finite graphs are polymorphism-homogeneous exactly when they are edgeless
or a disjoint union of single edges; finite reflexive posets exactly when
they are antichains or lattices; finite strict posets exactly when the
order is empty; structures carrying a meet-complete sublattice of
equivalence relations exactly when that lattice is arithmetical (all pairs
permute and the lattice is distributive). Each NotPH classification is
backed by an explicit partial map that provably fails to extend: where
the family admits a uniform construction, that map, re-verified through
the extension engine; otherwise (posets without a pair witness, complete
graphs past the star witness's reach) the refuting map of decide_ph's
certificate. The classifiers' verdicts serve as independent oracles for
the generic decision procedure. The meet-complete lattices of partitions
are listed by galois.closed_sets, as the invariant relations of meet and
join.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .structures import (FAMILY_AXIOMS, EnvelopeError, PartialOpMap,
                         StructureError, broken_axiom, canonical_structure,
                         check_family, partition_pairs, shared_tuple)
from .search import _allowance
from .homogeneity import FunctionTable, decide_ph, extendable
from .galois import _walk_points, invariant_relations


@dataclass(slots=True)
class ClassReport:
    family: str
    verdict: str  # "PH" | "NotPH"
    reasons: dict = field(default_factory=dict)
    witness: PartialOpMap = None
    witness_arity: int = None
    notes: str = ""

    @property
    def is_ph(self):
        return self.verdict == "PH"

    def to_json(self):
        out = {"family": self.family, "verdict": self.verdict,
               "reasons": self.reasons}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
            out["witness_arity"] = self.witness_arity
        if self.notes:
            out["notes"] = self.notes
        return out


def _single_binary(structure):
    if len(structure.relations) != 1 or structure.relations[0].arity != 2:
        return None
    return structure.relations[0]


def _family_pairs(structure, family):
    """The pairs of the structure's one binary relation, once they satisfy
    the family's axioms; raises StructureError otherwise."""
    rel = _single_binary(structure)
    if rel is None:
        raise StructureError("a %s carries exactly one binary relation"
                             % family)
    check_family(family, rel.name, rel.tuples, structure.size)
    return rel.tuples


def recognize_family(structure):
    """Name the classification family the structure belongs to, if any:
    for one binary relation, the first family of
    structures.FAMILY_AXIOMS whose axioms it satisfies; eq_lattice for
    several binary relations that are all equivalences. Returns None
    otherwise."""
    n = structure.size
    rel = _single_binary(structure)
    if rel is not None:
        return next((family for family in FAMILY_AXIOMS
                     if broken_axiom(rel.tuples, n, family) is None), None)
    if structure.relations and all(
            r.arity == 2 and broken_axiom(r.tuples, n, "eq_lattice") is None
            for r in structure.relations):
        return "eq_lattice"
    return None


def _refuted(structure, f, what, limits):
    """(arity, f) for a map f that must not extend; raises RuntimeError
    when the extension engine does not refute it."""
    res = extendable(structure, f, limits)
    if not res.not_extendable:
        raise RuntimeError("internal error: %s unexpectedly %s"
                           % (what, res.status))
    return (f.arity, f)


def _engine_witness(structure, budget):
    """(arity, f) for the map of decide_ph's NotPH certificate, or None
    when decide_ph is Inconclusive within the budget; raises RuntimeError
    when it says PH for a structure its family classifies NotPH."""
    verdict = decide_ph(structure, budget)
    if verdict.status == "PH":
        raise RuntimeError("internal error: decide_ph says PH for %s"
                           % structure.name)
    if verdict.status == "Inconclusive":
        return None
    f = PartialOpMap.from_json(verdict.certificate["map"])
    return (f.arity, f)


# ---------------------------------------------------------------- graphs

@lru_cache(maxsize=1)
def _graph_neighbors(structure):
    """Each vertex's neighbours, once the structure is a graph. The last
    graph read is kept, so classify_graph and the graph_star_witness it
    calls check its axioms once."""
    nbrs = [set() for _ in range(structure.size)]
    for a, b in _family_pairs(structure, "graph"):
        nbrs[a].add(b)
    return tuple(map(frozenset, nbrs))


def _branch_vertex(nbrs):
    """The first vertex with two neighbours, or None when every path
    a - b - c collapses (a = c): each component is a single vertex or a
    single edge."""
    return next((v for v, s in enumerate(nbrs) if len(s) >= 2), None)


def _components(nbrs):
    n = len(nbrs)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(shared_tuple(tuple(sorted(comp))))
    return tuple(comps)


def graph_property_star(structure):
    """Does every path a - b - c collapse (a = c)? Equivalent to every
    vertex having at most one neighbor, i.e. components are single
    vertices or single edges."""
    return _branch_vertex(_graph_neighbors(structure)) is None


def graph_star_witness(structure, limits=None):
    """For a graph with some vertex b adjacent to two distinct vertices,
    build a non-extendable partial polymorphism.

    Pick the first minimum-size vertex set B = {b_1 < ... < b_k} with no
    common neighbor. The map of arity k+1 sends, for each i, the tuple
    with c at position i and a elsewhere to b_i (a, c being b's first two
    neighbors). Position 0 always holds a, so no relation constraint ever
    binds the domain rows and the map is vacuously a partial polymorphism.
    Any total extension g forces g(b,...,b) adjacent to every b_i, a
    common neighbor that does not exist. Returns (arity, map), or None
    when every vertex has at most one neighbor.
    """
    nbrs = _graph_neighbors(structure)
    n = structure.size
    b = _branch_vertex(nbrs)
    if b is None:
        return None
    a, c = sorted(nbrs[b])[:2]
    B = None
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            common = set(range(n))
            for v in combo:
                common &= nbrs[v]
            if not common:
                B = combo
                break
        if B is not None:
            break
    k = len(B)
    entries = {}
    for i in range(1, k + 1):
        row = tuple(c if j == i else a for j in range(k + 1))
        entries[row] = B[i - 1]
    return _refuted(structure, PartialOpMap(k + 1, n, entries),
                    "star witness", limits)


def _isolated_vertex_witness(structure, nbrs, limits):
    """With an isolated vertex u and an edge (x,y) present, the unary map
    x -> u cannot extend: the image of y would need a neighbor of u."""
    u = next((v for v, s in enumerate(nbrs) if not s), None)
    x = next((v for v, s in enumerate(nbrs) if s), None)
    if u is None or x is None:
        return None
    return _refuted(structure, PartialOpMap(1, structure.size, {(x,): u}),
                    "isolated-vertex witness", limits)


def classify_graph(structure, limits=None, with_witness=True):
    """PH exactly when the edge set is empty or every connected component
    is a single edge. The witness CSPs it chains (star, decide_ph,
    isolated vertex) spend one node and wall allowance (search._Budget),
    built from limits."""
    limits = _allowance(limits)
    nbrs = _graph_neighbors(structure)
    comps = _components(nbrs)
    edgeless = all(not s for s in nbrs)
    k2_union = bool(nbrs) and all(
        len(c) == 2 and c[1] in nbrs[c[0]] for c in comps)
    reasons = {
        "is_edgeless": edgeless,
        "is_k2_union": k2_union,
        "property_star": _branch_vertex(nbrs) is None,
        "components": comps,
    }
    if edgeless or k2_union:
        return ClassReport("graph", "PH", reasons)
    witness = arity = None
    if with_witness:
        try:
            got = graph_star_witness(structure, limits)
        except EnvelopeError:
            # the star witness's extension CSP is out of reach (K7: arity
            # 8, 7^8 variables past search.MAX_CSP_VARS); decide_ph refutes
            # it with its first probe, for a majority polymorphism
            got = _engine_witness(structure, limits)
            if got is None:
                raise
        if got is None:
            got = _isolated_vertex_witness(structure, nbrs, limits)
        if got is not None:
            arity, witness = got
    return ClassReport("graph", "NotPH", reasons, witness, arity)


# ---------------------------------------------------------------- posets

def _is_lattice(le, n):
    def lub(s):
        uppers = [u for u in range(n) if all((x, u) in le for x in s)]
        least = [u for u in uppers if all((u, w) in le for w in uppers)]
        return least[0] if least else None

    def glb(s):
        lowers = [u for u in range(n) if all((u, x) in le for x in s)]
        greatest = [u for u in lowers if all((w, u) in le for w in lowers)]
        return greatest[0] if greatest else None

    return all(lub((x, y)) is not None and glb((x, y)) is not None
               for x in range(n) for y in range(x + 1, n))


def poset_is_lattice(structure):
    return _is_lattice(_family_pairs(structure, "poset"), structure.size)


def poset_pair_witness(structure, limits=None):
    """An incomparable pair with a common upper bound mapped to one with
    no common upper bound cannot extend (the image of the bound would
    dominate both targets); dually with lower bounds. Returns (1, map) or
    None when neither configuration exists."""
    le = _family_pairs(structure, "poset")
    n = structure.size
    incomp = [(x, y) for x in range(n) for y in range(n)
              if x != y and (x, y) not in le and (y, x) not in le]

    def uppers(x, y):
        return [u for u in range(n) if (x, u) in le and (y, u) in le]

    def lowers(x, y):
        return [u for u in range(n) if (u, x) in le and (u, y) in le]

    for pick, name in ((uppers, "upper"), (lowers, "lower")):
        src = next((p for p in incomp if pick(*p)), None)
        dst = next((p for p in incomp if not pick(*p)), None)
        if src is None or dst is None:
            continue
        f = PartialOpMap(1, n, {(src[0],): dst[0], (src[1],): dst[1]})
        return _refuted(structure, f, "%s-bound pair witness" % name,
                        limits)
    return None


def classify_poset(structure, limits=None, with_witness=True):
    """PH exactly when the order is an antichain or a lattice. The NotPH
    witness is the pair witness, else the map of decide_ph's certificate;
    both spend one node and wall allowance (search._Budget), built from
    limits, and the witness is None when decide_ph is Inconclusive
    within it."""
    limits = _allowance(limits)
    le = _family_pairs(structure, "poset")
    n = structure.size
    antichain = all(a == b for a, b in le)
    lattice = _is_lattice(le, n)
    x5_dense = True
    for a1 in range(n):
        for a2 in range(n):
            for a3 in range(n):
                for a4 in range(n):
                    if not ((a1, a3) in le and (a1, a4) in le
                            and (a2, a3) in le and (a2, a4) in le):
                        continue
                    if not any((a1, c) in le and (a2, c) in le
                               and (c, a3) in le and (c, a4) in le
                               for c in range(n)):
                        x5_dense = False
    bounded = (n == 0 or (
        any(all((m, x) in le for x in range(n)) for m in range(n))
        and any(all((x, m) in le for x in range(n)) for m in range(n))))
    reasons = {
        "is_antichain": antichain,
        "is_lattice": lattice,
        "is_x5_dense": x5_dense,
        "locally_bounded": bounded,
    }
    if antichain or lattice:
        return ClassReport("poset", "PH", reasons)
    witness = arity = None
    if with_witness:
        got = poset_pair_witness(structure, limits)
        if got is None:
            got = _engine_witness(structure, limits)
        if got is not None:
            arity, witness = got
    return ClassReport("poset", "NotPH", reasons, witness, arity)


# ---------------------------------------------------------- strict posets

def strict_poset_witness(structure, limits=None):
    """Map some b to a minimal element a lying strictly below b; an
    extension would need the image of a strictly below a itself."""
    lt = _family_pairs(structure, "strict_poset")
    n = structure.size
    minimal = [v for v in range(n) if not any((u, v) in lt for u in range(n))]
    for a in minimal:
        above = sorted(b for b in range(n) if (a, b) in lt)
        if above:
            return _refuted(structure, PartialOpMap(1, n, {(above[0],): a}),
                            "strict witness", limits)
    return None


def classify_strict_poset(structure, limits=None, with_witness=True):
    """PH exactly when the strict order is empty: any nonempty finite
    strict order has a minimal element a below some b, and mapping b to a
    is a partial polymorphism with no extension. The witness CSP spends
    one node and wall allowance (search._Budget), built from limits."""
    limits = _allowance(limits)
    lt = _family_pairs(structure, "strict_poset")
    reasons = {"is_empty_order": not lt,
               "finite_collapse": bool(lt)}
    if not lt:
        return ClassReport("strict_poset", "PH", reasons)
    witness = arity = None
    if with_witness:
        got = strict_poset_witness(structure, limits)
        if got is not None:
            arity, witness = got
    return ClassReport("strict_poset", "NotPH", reasons, witness, arity)


# -------------------------------------------- equivalence-relation lattices

def partitions_of(n):
    """All set partitions of 0..n-1, canonical form: blocks sorted, block
    list sorted by least element; enumerated in restricted-growth order."""
    out = []
    for rgs in itertools.product(*[range(i + 1) for i in range(n)]):
        if any(rgs[i] > max(rgs[:i], default=-1) + 1 for i in range(n)):
            continue
        blocks = {}
        for x, b in enumerate(rgs):
            blocks.setdefault(b, []).append(x)
        out.append(tuple(tuple(sorted(b))
                         for b in sorted(blocks.values())))
    return out


def pairs_to_partition(pairs, n):
    seen = set()
    blocks = []
    for x in range(n):
        if x in seen:
            continue
        block = sorted({b for a, b in pairs if a == x} | {x})
        seen.update(block)
        blocks.append(tuple(block))
    return tuple(blocks)


def partition_meet(p, q):
    blocks = []
    for bp in p:
        for bq in q:
            common = sorted(set(bp) & set(bq))
            if common:
                blocks.append(tuple(common))
    return tuple(sorted(blocks, key=lambda b: b[0]))


def partition_join(p, q, n):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for part in (p, q):
        for block in part:
            for x in block[1:]:
                union(block[0], x)
    blocks = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return tuple(tuple(sorted(b)) for b in sorted(blocks.values()))


def enumerate_meet_complete_sublattices(n):
    """All nonempty families of equivalence relations on 0..n-1 closed
    under pairwise meet (common refinement) and join (transitive closure
    of the union), in canonical subset order: the nonempty unary invariant
    relations of meet and join as binary operations on partitions_of(n).
    Raises EnvelopeError past galois.MAX_INV_POINTS partitions (n >= 5)
    before building those, or past galois.MAX_INV_MEMBERS families."""
    parts = partitions_of(n)
    _walk_points(len(parts))
    index = {p: i for i, p in enumerate(parts)}
    meet = [index[partition_meet(p, q)] for p in parts for q in parts]
    join = [index[partition_join(p, q, n)] for p in parts for q in parts]
    ops = [FunctionTable(2, len(parts), "table", meet),
           FunctionTable(2, len(parts), "table", join)]
    # RelationFamily sorts by size and then by the sorted 1-tuples, which
    # is the canonical subset order of the partition indices
    return [tuple(parts[i] for (i,) in sorted(family))
            for family in invariant_relations(ops, 1).members if family]


def _compose_pairs(p_pairs, q_pairs):
    by_first = {}
    for a, b in q_pairs:
        by_first.setdefault(a, set()).add(b)
    return {(a, c) for a, b in p_pairs for c in by_first.get(b, ())}


def is_arithmetical(family, n=None):
    """True when all member pairs permute under relational composition and
    the family is distributive as a lattice of partitions. Returns
    (flag, witness) with the violating pair or triple."""
    family = [tuple(tuple(b) for b in p) for p in family]
    if n is None:
        n = max((b[-1] for p in family for b in p), default=-1) + 1
    pairs = {p: partition_pairs(p) for p in family}
    for p, q in itertools.combinations(family, 2):
        if _compose_pairs(pairs[p], pairs[q]) != _compose_pairs(
                pairs[q], pairs[p]):
            return False, {"kind": "permutability", "pair": [p, q]}
    for t1, t2, t3 in itertools.product(family, repeat=3):
        lhs = partition_meet(t1, partition_join(t2, t3, n))
        rhs = partition_join(partition_meet(t1, t2),
                             partition_meet(t1, t3), n)
        if lhs != rhs:
            return False, {"kind": "distributivity", "triple": [t1, t2, t3]}
    return True, None


def structure_partitions(structure):
    """Read each relation back as a partition; rejects non-equivalences."""
    n = structure.size
    out = []
    for rel in structure.relations:
        if rel.arity != 2:
            raise StructureError(
                "relation %s is not an equivalence" % rel.name)
        check_family("eq_lattice", rel.name, rel.tuples, n)
        out.append(pairs_to_partition(rel.tuples, n))
    return out


def classify_eq_lattice(structure, limits=None):
    """For a structure whose relations form a meet-complete sublattice of
    the partition lattice: PH exactly when the family is arithmetical."""
    n = structure.size
    family = structure_partitions(structure)
    fam_set = set(family)
    closed = all(
        partition_meet(p, q) in fam_set and partition_join(p, q, n) in fam_set
        for p in family for q in family)
    if not closed:
        raise StructureError(
            "relation family is not closed under meet and join")
    arith, witness = is_arithmetical(family, n)
    reasons = {
        "is_meet_complete": True,
        "is_arithmetical": arith,
    }
    if witness is not None:
        reasons["arithmetical_witness"] = witness
    verdict = "PH" if arith else "NotPH"
    return ClassReport("eq_lattice", verdict, reasons)


def kaarli_cross_check(n, limits=None):
    """Compare is_arithmetical with polymorphism-homogeneity over every
    meet-complete sublattice of the partition lattice on n points, by
    running decide_ph on each. A family counts as an agreement when the
    certified verdict matches the arithmetical test, and is listed under
    inconclusive when decide_ph hits search.MAX_CSP_VARS, another cap or
    the budget.
    """
    families = enumerate_meet_complete_sublattices(n)
    rows = []
    agreements = 0
    inconclusive = []
    for idx, fam in enumerate(families):
        arith, _ = is_arithmetical(fam, n)
        family = [list(map(list, p)) for p in fam]
        A = canonical_structure("eq_lattice", n, family,
                                name="eq%d_%d" % (n, idx))
        verdict = decide_ph(A, limits).status
        agrees = verdict == ("PH" if arith else "NotPH")
        rows.append({"family": family, "arithmetical": arith,
                     "verdict": verdict, "agrees": agrees})
        if verdict == "Inconclusive":
            inconclusive.append(idx)
        elif agrees:
            agreements += 1
    return {
        "n": n,
        "families": len(families),
        "rows": rows,
        "agreements": agreements,
        "inconclusive": inconclusive,
    }


# -------------------------------------------------------------- dispatch

CLASSIFIERS = {
    "graph": classify_graph,
    "poset": classify_poset,
    "strict_poset": classify_strict_poset,
    "eq_lattice": classify_eq_lattice,
}


def classify_structure(structure, limits=None):
    """Dispatch to the recognized family's classifier; None if the
    structure fits no classified family."""
    family = recognize_family(structure)
    return None if family is None else CLASSIFIERS[family](structure, limits)
