"""defring: exact computation with deformation functors over finite local rings.

Finite local rings are structure-constant tables over Galois rings; the
characteristic-zero side is handled through rational fibers of integer
polynomial presentations.  See the README for the model's caveats (precision
semantics, polynomial stand-ins for power series).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import DefringError, InternalInconsistencyError
from .galois import GaloisRing, GaloisRingSpec, default_irreducible, is_prime
from .groups import (FiniteGroup, build_group, cyclic, dihedral, direct_product,
                     extend_and_verify_hom, p_part, quaternion8, symmetric)
from .local_ring import (CapExceededError, FiniteLocalRing, Ideal,
                         NonUnitError, NotFiniteAtCapError,
                         PrecisionExhaustedError, RingElement, RingHom,
                         ZeroDivisorError, build_galois_ring, exact_divide,
                         fingerprint, hom_enumerate, maximal_ideal, quotient_ring,
                         ring_from_truncated_presentation, scale_ideal)
from .matrices import Matrix
from .polys import Poly, PolyParseError, buchberger, grevlex_key, grlex_key, parse_poly
from .presentations import IntegerPolynomialPresentation, r_alpha_presentation
from .presented import (EtaleReport, QFiberAlgebra, etale_check, groebner_basis,
                        nilpotent_witness, omega_rank, q_fiber, trace_form,
                        verify_presented_hom, w_membership_check)
from .representation import (DefSet, Lift, MarandaCertificate, Representation,
                             def_set, enumerate_lifts, kernel_group, maranda_average,
                             maranda_decide, residual_rep, trivial_residual_rep)
from .udr import (NecessaryConditionVerdict, OrderBoundError, OrderBoundResult,
                  necessary_condition, order_lower_bound)
