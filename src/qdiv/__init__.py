"""qdiv: exact q-series arithmetic for generalized sum-of-divisors functions.

Everything is computed in exact rational arithmetic on truncated power
series.  The package provides the two weighted-partition generating-function
families A_k and C_k by four independent routes, rescaled Chebyshev
polynomials and their bivariate theta series, verification suites for the
triple-product identities connecting them, and constructive quasi-modular
decompositions over E2, E4, E6.

`import qdiv` imports none of its submodules: a public name, or a submodule
such as `qdiv.series`, is imported when it is first read (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name's home module.
_EXPORTS = {
    **dict.fromkeys(
        (
            "BivarSeries",
            "Family",
            "IntPolynomial",
            "cheb_coeff_closed",
            "cheb_rescaled",
            "gen_direct",
            "gen_explicit",
            "gen_recurrence",
            "oracle_a",
            "oracle_c",
            "theta_f",
            "theta_g",
        ),
        "macmahon",
    ),
    **dict.fromkeys(
        (
            "DivisorFitResult",
            "NoDecompositionError",
            "QMDecomposition",
            "QMMonomial",
            "decompose",
            "eval_decomposition",
            "fit_divisor_form",
            "monomial_basis",
        ),
        "quasimodular",
    ),
    **dict.fromkeys(
        (
            "NonInvertibleSeriesError",
            "QSeries",
            "divisor_sigma",
            "eisenstein",
            "pochhammer_inf",
            "sigma_series",
        ),
        "series",
    ),
    **dict.fromkeys(
        (
            "Mismatch",
            "Perturbation",
            "VerificationReport",
            "perturbable_targets",
            "verify_method_agreement",
            "verify_quasimodularity",
            "verify_theorem_f",
            "verify_theorem_g",
        ),
        "verify",
    ),
}


def kernel_backend() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "python"


__all__ = [*_EXPORTS, "kernel_backend", "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        return value
    if name.isidentifier():
        # a submodule's name, or none; the import binds a submodule here too
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as e:
            if e.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return list(__all__)
