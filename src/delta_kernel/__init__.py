"""Exact-arithmetic workbench for differential algebra.

Sparse polynomials and rational functions over Q, a Buchberger-based
Groebner oracle, differential polynomial rings with rankings and reduction
certificates, initial-set combinatorics and prolongation bounds, affine
fiber extraction, Darboux and first-integral search, exterior-algebra
checks, and function-field heights, behind a batch CLI.
"""

from .diffring import (
    AlgIndet,
    AutoreducedSet,
    DiffContext,
    DiffPoly,
    apply_derivation,
    is_autoreduced,
    poly_rank_compare,
    rank_compare,
    ritt_reduce,
    set_rank_compare,
)
from .dvariety import (
    DarbouxResult,
    DSpec,
    darboux_search,
    first_integral_search,
    is_dconstant,
    is_dsubvariety,
    log_derivative,
)
from .exterior import ExtVector, factorization_implication_check, span_probe, wedge
from .groebner import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    buchberger,
    ideal_dimension,
    normal_form,
    saturate,
)
from .heights import (
    HeightReport,
    OdePoly,
    height_axioms_check,
    height_ratfunc,
    rational_solution_search,
    verify_ode_solution,
)
from .initialsets import (
    InitialSetRep,
    dimension_function,
    leaders_to_exponents,
    prolongation_bound,
)
from .linalg import ExactMatrix, nullspace, rational_eigen
from .multipoly import InexactDivisionError, MultiPoly, SignatureMismatchError, poly_gcd
from .parser import ParseError, ProblemFile, parse_system
from .prolongation import (
    AffineFiberModel,
    DVarietyData,
    ProlongationLadder,
    affine_fiber,
    extract_dvariety,
    nabla_frame,
    prolong_ideal,
)
from .ratfunc import RatFunc

__version__ = "0.1.0"
