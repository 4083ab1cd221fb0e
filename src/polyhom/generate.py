"""Deterministic structure generators for batch validation.

Exhaustive modes emit every labeled instance of a family exactly once in
a fixed canonical order (edge or pair subsets enumerated by ascending
bitmask); random modes are fully determined by the seed.
"""

from __future__ import annotations

import itertools
import random

from .structures import (FiniteStructure, Relation, StructureError,
                         broken_axiom, canonical_structure)

# exhaustive-mode bounds enforced at the command-line level
CLI_MAX_GRAPH_SIZE = 5
CLI_MAX_POSET_SIZE = 4

FAMILY_ALIASES = {
    "graph": "graph", "graphs": "graph",
    "poset": "poset", "posets": "poset",
    "strict": "strict", "strict_poset": "strict", "strict-poset": "strict",
    "n2-binary": "n2-binary", "n2_binary": "n2-binary", "n2": "n2-binary",
}


def normalize_family(name):
    key = FAMILY_ALIASES.get(name.strip().lower())
    if key is None:
        raise StructureError("unknown generator family %r" % name)
    return key


def _order_structure(family, n, strict_pairs, name):
    """The poset or strict poset whose off-diagonal pairs are strict_pairs,
    or None when they are not the strict part of an order, which is
    exactly when they break a strict-order axiom."""
    if broken_axiom(set(strict_pairs), n, "strict_poset") is not None:
        return None
    if family == "poset":
        strict_pairs = [(i, i) for i in range(n)] + strict_pairs
    return canonical_structure(family, n, strict_pairs, name=name)


def _all_orders(family, n):
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for mask in range(1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        A = _order_structure(family, n, chosen,
                             "%s%d_%04d" % (family, n, mask))
        if A is not None:
            out.append(A)
    return out


def all_graphs(n):
    """Every labeled simple graph on n vertices, by ascending edge-set
    bitmask over the lexicographic pair list."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        out.append(canonical_structure(
            "graph", n, edges, name="graph%d_%04d" % (n, mask)))
    return out


def all_posets(n):
    """Every labeled partial order on n points (reflexive relation), by
    ascending bitmask over off-diagonal pairs, filtered for antisymmetry
    and transitivity."""
    return _all_orders("poset", n)


def all_strict_posets(n):
    """Every labeled strict order on n points (irreflexive, asymmetric,
    transitive), same enumeration order as all_posets."""
    return _all_orders("strict", n)


def all_n2_binary():
    """All 16 structures on {0,1} with one binary relation, by ascending
    bitmask over the lexicographic tuple list."""
    points = [(0, 0), (0, 1), (1, 0), (1, 1)]
    out = []
    for mask in range(16):
        tuples = {points[i] for i in range(4) if mask >> i & 1}
        out.append(FiniteStructure(
            2, [Relation("r", 2, tuples)], name="n2_%02d" % mask))
    return out


def random_structures(family, n, count, seed):
    """Seed-deterministic random instances; posets and strict orders are
    rejection-sampled from the pair-subset space."""
    rng = random.Random(seed)
    out = []
    if family == "graph":
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for i in range(count):
            edges = [pq for pq in pairs if rng.random() < 0.5]
            out.append(canonical_structure("graph", n, edges,
                                           name="graph%d_r%03d" % (n, i)))
        return out
    if family == "n2-binary":
        points = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for i in range(count):
            tuples = {pq for pq in points if rng.random() < 0.5}
            out.append(FiniteStructure(2, [Relation("r", 2, tuples)],
                                       name="n2_r%03d" % i))
        return out
    if family in ("poset", "strict"):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for i in range(count):
            for _ in range(100_000):
                A = _order_structure(
                    family, n, [pq for pq in pairs if rng.random() < 0.3],
                    "%s%d_r%03d" % (family, n, i))
                if A is not None:
                    break
            else:
                raise StructureError("rejection sampling failed")
            out.append(A)
        return out
    raise StructureError("unknown generator family %r" % family)


def generate(family, size=None, mode="all", count=10, seed=0,
             enforce_cli_bounds=False):
    """Generator entry point. mode 'all' is exhaustive and canonical;
    mode 'random' yields count seed-determined instances."""
    family = normalize_family(family)
    if family == "n2-binary":
        if size not in (None, 2):
            raise StructureError("n2-binary structures have size 2")
        size = 2
    elif size is None:
        raise StructureError("--size is required for family %r" % family)
    if size < 1:
        raise StructureError("size must be positive")
    if mode == "all":
        if enforce_cli_bounds:
            if family == "graph" and size > CLI_MAX_GRAPH_SIZE:
                raise StructureError(
                    "exhaustive graphs are bounded at %d vertices"
                    % CLI_MAX_GRAPH_SIZE)
            if family in ("poset", "strict") and size > CLI_MAX_POSET_SIZE:
                raise StructureError(
                    "exhaustive orders are bounded at %d elements"
                    % CLI_MAX_POSET_SIZE)
        if family == "graph":
            return all_graphs(size)
        if family == "poset":
            return all_posets(size)
        if family == "strict":
            return all_strict_posets(size)
        return all_n2_binary()
    if mode == "random":
        return random_structures(family, size, count, seed)
    raise StructureError("mode must be 'all' or 'random'")
