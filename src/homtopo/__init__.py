"""Polyhedral complexes of graph multihomomorphisms and their invariants."""

from ._kernels import BACKEND  # read only by perfbench/worker.py
from .equivariant import (OrbitComplex, coloring_bound, equivariant_report,
                          has_invariant_component, induced_involution,
                          quotient, sw_height)
from .errors import (BudgetError, ConsistencyError, DomainError, HomtopoError,
                     ResourceError)
from .folds import (DominationRecord, ReductionTrace, core_uniqueness_check,
                    dominated_pairs, fold, irreducible_core, random_policy,
                    smallest_policy)
from .formulas import (MnFaceLabel, chi_hom, cycle_components, f_table,
                       f_wedge, mn_face_poset, mn_faces, rho_cell,
                       rho_isomorphism_check, verify_generating_identity)
from .graphs import (Graph, are_isomorphic, chromatic_number, complement,
                     complete, cycle, disjoint_union, enumerate_homomorphisms,
                     find_isomorphism, from_edges, kneser, load_graph,
                     max_independent_set, parse_graph_name, path, petersen,
                     q_graph, validate_involution)
from .homcx import (HomComplex, build_hom, count_hom_components,
                    neighborhood_complex)
from .morse import (PartialMatching, PosetMap, check_quillen_A_proxy,
                    check_quillen_B, critical_drops_to_smaller, is_acyclic,
                    kmn_matching, neighborhood_poset_map)
from .topology import (BettiProfile, Poset, SimplicialComplex, betti_gf2,
                       connected_components, f_vector, face_poset,
                       find_poset_isomorphism, order_complex)
from .verify import CHECKS, run_checks

__version__ = "0.1.0"
