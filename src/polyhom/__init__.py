"""Polymorphism-homogeneity of finite relational structures.

A structure is polymorphism-homogeneous when every partial polymorphism
on a finite domain extends to a total one. This package decides that
property with machine-checkable certificates, computes the finite
polymorphism/invariant-relation Galois connection, and cross-validates
the generic pipeline against family classification theorems for graphs,
posets, strict orders, and lattices of equivalence relations.
"""

from .structures import (FiniteStructure, Relation, PartialOpMap,
                         PowerHandle, power, reduce_columns,
                         canonical_structure, EnvelopeError, StructureError)
from .relfile import (RelParseError, parse_structure, parse_structures,
                      load_structure, serialize_structure, save_structure,
                      parse_tuples, load_tuples, serialize_tuples)
from .search import (ExtensionProblem, SearchLimits, Outcome, solve,
                     enumerate_solutions, check_is_homomorphism,
                     default_limits, InconsistentPinsError)
from .homogeneity import (FunctionTable, ExtendResult, KphResult, Verdict,
                          is_partial_polymorphism, extendable,
                          canonical_partial_nu, find_nu_polymorphism,
                          is_k_ph, is_hom_homogeneous, decide_ph)
from .galois import (enumerate_polymorphisms, qf_type_closure, gamma_closure,
                     tau_extension_map,
                     PpResult, is_pp_definable, RelationFamily,
                     invariant_relations, PolylocalResult,
                     check_finite_polylocal, CrossCheckResult,
                     cross_check_inv_pol)
from .classify import (ClassReport, recognize_family, classify_graph,
                       graph_property_star, graph_star_witness,
                       classify_poset, poset_is_lattice, poset_pair_witness,
                       classify_strict_poset, strict_poset_witness,
                       partitions_of, partition_pairs, pairs_to_partition,
                       partition_meet, partition_join,
                       enumerate_meet_complete_sublattices, is_arithmetical,
                       structure_partitions, classify_eq_lattice,
                       kaarli_cross_check,
                       classify_structure)

__version__ = "0.1.0"
