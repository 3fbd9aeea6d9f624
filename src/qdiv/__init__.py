"""qdiv: exact q-series arithmetic for generalized sum-of-divisors functions.

Everything is computed in exact rational arithmetic on truncated power
series.  The package provides the two weighted-partition generating-function
families A_k and C_k by four independent routes, rescaled Chebyshev
polynomials and their bivariate theta series, verification suites for the
triple-product identities connecting them, and constructive quasi-modular
decompositions over E2, E4, E6.
"""

from .macmahon import (
    BivarSeries,
    Family,
    IntPolynomial,
    cheb_coeff_closed,
    cheb_rescaled,
    gen_direct,
    gen_explicit,
    gen_recurrence,
    oracle_a,
    oracle_c,
    theta_f,
    theta_g,
)
from .quasimodular import (
    DivisorFitResult,
    NoDecompositionError,
    QMDecomposition,
    QMMonomial,
    decompose,
    eval_decomposition,
    fit_divisor_form,
    monomial_basis,
)
from .series import (
    NonInvertibleSeriesError,
    QSeries,
    divisor_sigma,
    eisenstein,
    pochhammer_inf,
    sigma_series,
)
from .verify import (
    Mismatch,
    Perturbation,
    VerificationReport,
    perturbable_targets,
    verify_method_agreement,
    verify_quasimodularity,
    verify_theorem_f,
    verify_theorem_g,
)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "python"


__all__ = [
    "BivarSeries",
    "DivisorFitResult",
    "Family",
    "IntPolynomial",
    "Mismatch",
    "NoDecompositionError",
    "NonInvertibleSeriesError",
    "Perturbation",
    "QMDecomposition",
    "QMMonomial",
    "QSeries",
    "VerificationReport",
    "cheb_coeff_closed",
    "cheb_rescaled",
    "decompose",
    "divisor_sigma",
    "eisenstein",
    "eval_decomposition",
    "fit_divisor_form",
    "gen_direct",
    "gen_explicit",
    "gen_recurrence",
    "kernel_backend",
    "monomial_basis",
    "oracle_a",
    "oracle_c",
    "perturbable_targets",
    "pochhammer_inf",
    "sigma_series",
    "theta_f",
    "theta_g",
    "verify_method_agreement",
    "verify_quasimodularity",
    "verify_theorem_f",
    "verify_theorem_g",
    "__version__",
]
