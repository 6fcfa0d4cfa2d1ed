"""Exact arithmetic for integral quadratic lattices: discriminant forms and
gluing, symmetrized power forms, p-adic classification, short-vector
oracles, Newton polygons, and prime-splitting densities."""

from .bb_form import (DegreeRoot, SymmetrizedPowerForm, degree_to_bb,
                      perfect_matchings, recover_form, symmetrized_power)
from .disc_form import (FiniteQuadraticForm, IsotropicSubgroup,
                        acts_trivially_on_disc, disc_local_part,
                        discriminant_group, forms_isomorphic,
                        isotropic_subgroups, overlattice_from_isotropic)
from .enumeration import (VectorSet, find_vector_norm_prime_to_p,
                          is_isometric_definite, vectors_of_norm)
from .errors import (CapacityError, DegenerateLatticeError, DomainError,
                     InconsistencyError, InvalidGramError, LatticeError,
                     StructureError, UnverifiedHypothesisWarning)
from .lattice_core import (QuadLattice, as_vector, direct_sum,
                           inner_product, is_even, is_isometry, is_primitive,
                           k3n_lattice, make_E8, make_rank1, make_U,
                           orthogonal_complement, signature)
from .local_arith import (ArtinResult, JordanDecomposition,
                          PointedInvariants, artin_invariant,
                          is_selfdual_at_p, jordan_decomposition,
                          pointed_equivalent_at_p, pointed_invariants)
from .moduli_arith import (AbelJacobiConstants, FrobeniusPairingInstance,
                           MukaiDiscReport, MukaiVector, NewtonPolygon,
                           abel_jacobi_constants, check_k3_crystal_pairing,
                           cubic_primitive_lattice,
                           fermat_transcendental_lattice,
                           hilbert_scheme_vector, is_supersingular_newton,
                           mukai_lattice, mukai_pairing,
                           mukai_perp_disc_check, newton_polygon)
from .prime_density import (PrimePredicateReport, empirical_density,
                            fermat_cubic_supersingular, field_discriminant,
                            is_inert, is_prime, is_ramified,
                            kronecker_symbol, sieve_primes, squarefree_part,
                            union_inert_density)

__version__ = "0.1.0"
