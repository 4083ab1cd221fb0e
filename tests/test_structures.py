import itertools
import pickle

import pytest

from polyhom.structures import (FiniteStructure, Relation, RelationSet,
                                PartialOpMap, PowerHandle, power, cylinder,
                                reduce_columns, canonical_structure,
                                StructureError, EnvelopeError)
from polyhom.classify import ClassReport, classify_graph
from polyhom.homogeneity import KphResult, is_k_ph


def chain2():
    return canonical_structure("poset", 2, [(0, 0), (0, 1), (1, 1)],
                               name="chain2")


def test_structure_rejects_out_of_range_entries():
    with pytest.raises(StructureError) as e:
        FiniteStructure(2, [Relation("r", 2, {(0, 5)})])
    assert any("out of range" in v[2] for v in e.value.violations)


def test_structure_rejects_arity_mismatch():
    with pytest.raises(StructureError):
        FiniteStructure(3, [Relation("r", 2, {(0, 1, 2)})])


def test_structure_rejects_duplicate_symbols():
    with pytest.raises(StructureError):
        FiniteStructure(2, [Relation("r", 1, {(0,)}),
                            Relation("r", 1, {(1,)})])


def test_structure_equality_ignores_name():
    a = FiniteStructure(2, [Relation("r", 2, {(0, 1)})], name="x")
    b = FiniteStructure(2, [Relation("r", 2, {(0, 1)})], name="y")
    assert a == b
    assert a.signature == (("r", 2),)


def test_relation_sorted_tuples_canonical():
    rel = Relation("r", 2, {(1, 0), (0, 1), (0, 0)})
    assert rel.sorted_tuples == ((0, 0), (0, 1), (1, 0))


def test_relation_set_validates():
    with pytest.raises(StructureError):
        RelationSet(2, 2, {(0, 2)})
    s = RelationSet(2, 2, {(1, 0), (0, 1)})
    assert len(s) == 2 and (0, 1) in s


def test_mixed_int_and_str_entries_are_rejected_not_sorted():
    # the entries are checked in an order that does not need them to
    # compare, so the check reports them rather than the sort raising
    with pytest.raises(StructureError) as e:
        FiniteStructure(3, [Relation("edge", 2, {("a", 1), (0, 1)})])
    [(symbol, _, rule)] = e.value.violations
    assert symbol == "edge" and "'a' out of range" in rule
    with pytest.raises(StructureError):
        RelationSet(2, 3, {("a", 1), (0, 1)})
    with pytest.raises(StructureError):
        canonical_structure("graph", 3, [("a", "a"), (0, 0)])


# ---------------------------------------------------------------- families

def test_canonical_graph_symmetric_closure():
    A = canonical_structure("graph", 3, [(0, 1)])
    assert A.relation("edge").tuples == {(0, 1), (1, 0)}


def test_canonical_graph_rejects_loop():
    with pytest.raises(StructureError):
        canonical_structure("graph", 2, [(0, 0)])


def test_canonical_poset_needs_reflexivity():
    with pytest.raises(StructureError):
        canonical_structure("poset", 2, [(0, 1)])


def test_canonical_poset_rejects_cycle():
    with pytest.raises(StructureError):
        canonical_structure("poset", 2, [(0, 0), (1, 1), (0, 1), (1, 0)])


def test_canonical_strict_rejects_reflexive():
    with pytest.raises(StructureError):
        canonical_structure("strict_poset", 2, [(0, 0)])


def test_canonical_strict_requires_transitivity():
    with pytest.raises(StructureError):
        canonical_structure("strict_poset", 3, [(0, 1), (1, 2)])
    A = canonical_structure("strict_poset", 3, [(0, 1), (1, 2), (0, 2)])
    assert len(A.relation("lt").tuples) == 3


def test_small_structures_share_their_pair_objects():
    g = canonical_structure("graph", 4, [(0, 1)])
    h = canonical_structure("graph", 4, [(2, 3), (1, 0)])
    e = canonical_structure("eq_lattice", 4, [[[0, 1], [2], [3]]])

    def stored(A, pair):
        return next(t for t in A.relations[0].tuples if t == pair)

    assert stored(g, (1, 0)) is stored(h, (1, 0)) is stored(e, (1, 0))
    assert stored(g, (0, 1)) is stored(h, (0, 1))
    components = [classify_graph(A).reasons["components"] for A in (g, h)]
    assert components == [((0, 1), (2,), (3,)), ((0, 1), (2, 3))]
    assert components[0][0] is components[1][0]


def test_canonical_eq_lattice():
    A = canonical_structure("eq_lattice", 3, [[[0, 1], [2]]])
    assert A.relation("th0").tuples == {(0, 0), (1, 1), (2, 2), (0, 1),
                                        (1, 0)}
    with pytest.raises(StructureError):
        canonical_structure("eq_lattice", 3, [[[0, 1]]])


# ------------------------------------------------------------ partial maps

def test_partial_map_dedups_identical_entries():
    f = PartialOpMap(1, 2, (((0,), 1), ((0,), 1)))
    assert len(f) == 1


def test_partial_map_rejects_conflicts():
    with pytest.raises(StructureError):
        PartialOpMap(1, 2, (((0,), 0), ((0,), 1)))


def test_partial_map_rejects_bad_keys():
    with pytest.raises(StructureError):
        PartialOpMap(2, 2, (((0,), 0),))
    with pytest.raises(StructureError):
        PartialOpMap(1, 2, (((5,), 0),))
    with pytest.raises(StructureError):
        PartialOpMap(1, 2, (((0,), 5),))


def test_partial_map_accessors_and_with_entry():
    f = PartialOpMap(2, 3, (((0, 1), 2), ((1, 1), 0)))
    assert f((0, 1)) == 2 and f.get((2, 2)) is None
    assert (1, 1) in f and (2, 2) not in f
    g = f.with_entry((2, 2), 1)
    assert len(g) == 3 and g((2, 2)) == 1


def test_slotted_classes_keep_no_instance_dict():
    A = canonical_structure("graph", 3, [(0, 1)])
    f = PartialOpMap(1, 3, {(0,): 2})
    objects = [A, A.relations[0], f, classify_graph(A), is_k_ph(A, 1)]
    assert [type(o) for o in objects] == [FiniteStructure, Relation,
                                          PartialOpMap, ClassReport,
                                          KphResult]
    for o in objects:
        assert not hasattr(o, "__dict__"), type(o).__name__


def test_slotted_classes_survive_a_pickle_round_trip():
    A = canonical_structure("graph", 3, [(0, 1), (1, 2)], name="p3")
    assert A.relations[0].sorted_tuples  # the lazily filled slot is set
    objects = [A, PartialOpMap(2, 3, {(0, 1): 2}), classify_graph(A),
               is_k_ph(A, 1)]
    assert objects[2].witness is not None
    assert objects[3].counterexample is not None
    for o in objects:
        back = pickle.loads(pickle.dumps(o))
        assert back == o and type(back) is type(o)
    back = pickle.loads(pickle.dumps(A))
    assert back.name == "p3"
    assert back.relations[0].sorted_tuples == A.relations[0].sorted_tuples


def test_partial_map_json_roundtrip():
    f = PartialOpMap(2, 3, (((0, 1), 2), ((1, 1), 0)))
    assert PartialOpMap.from_json(f.to_json()) == f


# ----------------------------------------------------------------- powers

def test_power_encode_decode_roundtrip():
    A = chain2()
    h = power(A, 3)
    for vec in itertools.product(range(2), repeat=3):
        assert h.decode(h.encode(vec)) == vec
    assert h.size == 8
    with pytest.raises(ValueError):
        h.encode((0, 1))
    with pytest.raises(ValueError):
        h.decode(8)


def test_cylinder_is_the_codes_with_that_digit():
    for n in range(1, 5):
        for k in range(1, 5):
            h = power(FiniteStructure(n, ()), k)
            for j in range(k):
                for a in range(n):
                    cyl = cylinder(n, k, j, a)
                    assert cyl >> h.size == 0
                    for code in range(h.size):
                        assert (cyl >> code & 1) == (h.decode(code)[j] == a)


def test_power_membership_equals_materialized():
    # oracle: the definition of the product, all n^k <= 64: a tuple of
    # codes is in R^k iff every digit column is in R
    cases = [
        (chain2(), 2), (chain2(), 3), (chain2(), 5),
        (canonical_structure("graph", 3, [(0, 1), (1, 2)]), 2),
        (canonical_structure("graph", 2, [(0, 1)]), 6),
        (canonical_structure("strict_poset", 4,
                             [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]), 2),
    ]
    for A, k in cases:
        h = power(A, k)
        assert h.size <= 64
        M = h.materialize()
        for rel in A.relations:
            mat = M.relation(rel.name).tuples
            for codes in itertools.product(range(h.size),
                                           repeat=rel.arity):
                digits = [h.decode(c) for c in codes]
                member = all(tuple(d[j] for d in digits) in rel.tuples
                             for j in range(k))
                assert member == (codes in mat)


def test_power_materialize_cap():
    A = chain2()
    with pytest.raises(EnvelopeError):
        power(A, 21).materialize()


# --------------------------------------------------------- column reduction

def test_reduce_columns_recomposition():
    # recomposing g with the column map reproduces f on its whole domain
    cases = [
        PartialOpMap(3, 2, (((0, 0, 0), 0), ((1, 1, 0), 1))),
        PartialOpMap(2, 3, (((0, 0), 1), ((1, 1), 2), ((2, 2), 0))),
        PartialOpMap(4, 2, (((0, 1, 0, 1), 1), ((1, 0, 1, 0), 0))),
        PartialOpMap(1, 2, (((0,), 1),)),
    ]
    for f in cases:
        g, column_map = reduce_columns(f)
        assert len(column_map) == f.arity
        kept_first = [column_map.index(c) for c in range(g.arity)]
        for args, val in f.entries:
            g_args = tuple(args[pos] for pos in kept_first)
            assert g(g_args) == val
            for j in range(f.arity):
                assert args[j] == g_args[column_map[j]]


def test_reduce_columns_identifies_duplicates():
    f = PartialOpMap(2, 2, (((0, 0), 0), ((1, 1), 1)))
    g, column_map = reduce_columns(f)
    assert g.arity == 1 and column_map == (0, 0)


def test_reduce_columns_rejects_empty():
    with pytest.raises(StructureError):
        reduce_columns(PartialOpMap(1, 2, ()))
