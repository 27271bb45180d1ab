"""chiralbv: exact symbolic engine for chiral quantum master equations.

Free-field vertex-algebra OPE and modes-Lie-algebra calculus, a Moyal
algebra with a recursive flat-connection solver, the W-generator transport
between them, the BCOV classical interaction on elliptic curves built from
psi-class intersection numbers, a Poisson sigma-model instance, and a small
quarantined numeric module for the ordered radial integrals.
"""

from .algebra import (
    BudgetError,
    Derivation,
    DerivedGenerator,
    DiffPoly,
    Generator,
    Grading,
    Scalar,
    System,
    canonicalize,
    euler_derivative,
    grade,
    apply_T,
    ibp_decompose,
)
from .vertex import (
    ContractionTable,
    ModeElement,
    bracket_zero_modes,
    delta_bcov,
    make_bcov,
    make_heisenberg,
    mc_residual,
    mode_bracket,
    mode_normal_form,
    nth_product,
    wick_ope,
)
from .moyal import (
    FedosovSolution,
    closed_form_j0,
    delta_b,
    delta_inv,
    delta_star,
    fedosov_solve,
    make_b_system,
    reflection,
    star,
    star_bracket,
)
from .correspondence import (
    PHI_BRACKET_ORIENTATION,
    BackgroundSubstitution,
    index_weight,
    morphism_defect,
    phi,
    restrict_index_weight,
    shift_exp,
    w_generator,
)
from .bcov import (
    bcov_classical,
    bcov_mc_report,
    check_equivariant,
    psi_coefficient,
    restore_lambda_powers,
    stationary_commutator,
    verify_classical_limit,
)
from .psm import (
    PoissonBivector,
    build_psm,
    psm_mc_check,
    constant_bivector,
    non_jacobi_bivector,
    so3_bivector,
)

__version__ = "0.1.0"

# chiralbv.renorm needs scipy, which dominates the import time; load it on first use.
_RENORM_NAMES = ("OrderedIntegralSpec", "oracle_ordered_integral", "ordered_integral", "residue_identity_report")


def __getattr__(name):
    if name in _RENORM_NAMES:
        from . import renorm

        return getattr(renorm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
