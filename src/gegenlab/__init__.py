"""Exact computer algebra for the trigonometric quantum many-body system on
the circle: generalized Gegenbauer polynomials, commuting integrals of
motion, and raising/lowering operators."""

from .scalars import (
    KappaPolynomial,
    KappaRational,
    KappaPole,
    KappaZeroDivision,
    SpectralDegeneracy,
    kappa,
    kr,
    kr_eval,
    lin,
)
from .symfun import (
    NonSymmetricInput,
    RankMismatch,
    Weight,
    XPolynomial,
    ZPolynomial,
    dominated_weights,
    partition_weight,
    weight_partition,
    weighted_degree,
)
from .integrals import (
    Calibration,
    CommutatorReport,
    ConventionMismatch,
    EngineError,
    ZOperator,
    apply_integral,
    apply_momentum,
    calibrate,
    char_apply,
    commutator_residual,
    transcribed_operator,
)
from .gegenbauer import (
    DecompositionError,
    LVector,
    ShiftNotTabulated,
    char_eigenvalue,
    epsilon2,
    expand_product,
    gen_eigen,
    gen_recurrence,
    ground_energy,
    l_shift,
    l_vector,
    mu_vector,
    recurrence_coefficient,
    sigma_closed_form,
    step,
    tabulated_shifts,
)

__version__ = "0.1.0"
