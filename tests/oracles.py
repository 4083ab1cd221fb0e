"""Independent brute-force oracles.

Everything here works straight from the definitions by exhaustive
enumeration, sharing no search or closure code with the package, so the
fast paths can be validated against it at desk scale.
"""

import itertools


def table_apply(table, n, args):
    code = 0
    for a in args:
        code = code * n + a
    return table[code]


def all_total_tables(n, k):
    """All k-ary operations on 0..n-1 as value tuples indexed base-n."""
    return itertools.product(range(n), repeat=n ** k)


def oracle_is_polymorphism(structure, table, k):
    """Definition check: every coordinatewise image of k relation tuples
    stays in the relation."""
    n = structure.size
    for rel in structure.relations:
        tuples = sorted(rel.tuples)
        for choice in itertools.product(tuples, repeat=k):
            image = tuple(
                table_apply(table, n, tuple(choice[j][i] for j in range(k)))
                for i in range(rel.arity))
            if image not in rel.tuples:
                return False
    return True


def oracle_polymorphisms(structure, k):
    n = structure.size
    return [t for t in all_total_tables(n, k)
            if oracle_is_polymorphism(structure, t, k)]


def oracle_is_partial_polymorphism(structure, entries, k):
    """entries: dict args->value. Definition check over domain rows."""
    dom = sorted(entries)
    for rel in structure.relations:
        for sel in itertools.product(dom, repeat=rel.arity):
            if all(tuple(sel[i][j] for i in range(rel.arity)) in rel.tuples
                   for j in range(k)):
                image = tuple(entries[s] for s in sel)
                if image not in rel.tuples:
                    return False
    return True


def oracle_extends(structure, entries, k, polymorphisms=None):
    """Does some total polymorphism agree with the partial map."""
    n = structure.size
    if polymorphisms is None:
        polymorphisms = oracle_polymorphisms(structure, k)
    for table in polymorphisms:
        if all(table_apply(table, n, args) == v
               for args, v in entries.items()):
            return True
    return False


def oracle_all_partial_maps(n, k):
    """Every partial k-ary map as a dict, domains in subset order."""
    points = sorted(itertools.product(range(n), repeat=k))
    for dsize in range(len(points) + 1):
        for domain in itertools.combinations(points, dsize):
            for values in itertools.product(range(n), repeat=dsize):
                yield dict(zip(domain, values))


def oracle_is_k_ph(structure, k):
    """Every partial k-ary polymorphism extends to a total one; feasible
    for n = 2 and k <= 3."""
    pols = oracle_polymorphisms(structure, k)
    for entries in oracle_all_partial_maps(structure.size, k):
        if not oracle_is_partial_polymorphism(structure, entries, k):
            continue
        if not oracle_extends(structure, entries, k, pols):
            return False
    return True


def oracle_homomorphisms(source, target, pins=()):
    """All maps source -> target preserving every relation, as tuples."""
    ns, nt = source.size, target.size
    pin_map = dict(pins)
    out = []
    for values in itertools.product(range(nt), repeat=ns):
        if any(values[var] != val for var, val in pin_map.items()):
            continue
        ok = True
        for rel, trel in zip(source.relations, target.relations):
            for t in rel.tuples:
                if tuple(values[e] for e in t) not in trel.tuples:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(values)
    return out


def oracle_gamma(structure, tau):
    """Images of the tau matrix under every |tau|-ary polymorphism,
    applied coordinatewise."""
    tau = sorted(set(map(tuple, tau)))
    s = len(tau)
    m = len(tau[0])
    n = structure.size
    out = set()
    for table in oracle_polymorphisms(structure, s):
        out.add(tuple(
            table_apply(table, n, tuple(t[i] for t in tau))
            for i in range(m)))
    return out


def oracle_invariant_relations(structure, ops, m):
    """All subsets of A^m closed under every operation table in ops;
    ops are (arity, table) pairs."""
    n = structure.size
    points = sorted(itertools.product(range(n), repeat=m))
    out = []
    for mask in range(1 << len(points)):
        rel = [points[i] for i in range(len(points)) if mask >> i & 1]
        rel_set = set(rel)
        closed = True
        for k, table in ops:
            for choice in itertools.product(rel, repeat=k):
                image = tuple(
                    table_apply(table, n, tuple(choice[j][i]
                                                for j in range(k)))
                    for i in range(m))
                if image not in rel_set:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            out.append(frozenset(rel_set))
    return set(out)


def oracle_pp_definable(structure, m, qvars):
    """All m-ary relations definable by an existentially quantified
    conjunction of atomic formulas (relation atoms and equalities) with at
    most qvars bound variables: solution sets of conjunctions are exactly
    the intersections of atom solution sets over m+qvars variables, and
    definable relations are their projections to the free variables."""
    n = structure.size
    nvars = m + qvars
    assignments = sorted(itertools.product(range(n), repeat=nvars))
    index = {a: i for i, a in enumerate(assignments)}
    full = (1 << len(assignments)) - 1

    def mask_of(pred):
        mask = 0
        for a in assignments:
            if pred(a):
                mask |= 1 << index[a]
        return mask

    atoms = []
    for rel in structure.relations:
        for vs in itertools.product(range(nvars), repeat=rel.arity):
            atoms.append(mask_of(
                lambda a, vs=vs, rel=rel:
                tuple(a[v] for v in vs) in rel.tuples))
    for i in range(nvars):
        for j in range(i + 1, nvars):
            atoms.append(mask_of(lambda a, i=i, j=j: a[i] == a[j]))

    closed = {full} | set(atoms)
    frontier = set(closed)
    while frontier:
        new = set()
        for x in frontier:
            for y in atoms:
                z = x & y
                if z not in closed:
                    new.add(z)
        closed |= new
        frontier = new

    definable = set()
    for mask in closed:
        proj = frozenset(a[:m] for a in assignments
                         if mask >> index[a] & 1)
        definable.add(proj)
    return definable


def oracle_families(pairs, n):
    """The classified families whose axioms the binary relation pairs on
    0..n-1 satisfies, straight from the definitions."""
    pairs = set(pairs)
    reflexive = all((a, a) in pairs for a in range(n))
    irreflexive = all((a, a) not in pairs for a in range(n))
    symmetric = all((b, a) in pairs for a, b in pairs)
    antisymmetric = all(a == b or (b, a) not in pairs for a, b in pairs)
    transitive = all((a, d) in pairs
                     for a, b in pairs for c, d in pairs if b == c)
    return {
        "graph": irreflexive and symmetric,
        "poset": reflexive and antisymmetric and transitive,
        "strict_poset": irreflexive and transitive,
        "eq_lattice": reflexive and symmetric and transitive,
    }
