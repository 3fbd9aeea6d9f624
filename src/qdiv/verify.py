"""Executable identity checks with structured pass/fail reports.

Each suite builds both sides of an identity through a stated truncation
order and reports either a clean pass or the exact location of the first
mismatching coefficient (x-degree where applicable, q-exponent, and the two
exact rational values).  Passing at order N is coefficientwise evidence
through q^N, not a proof.  Suites within one run scope share what does not
depend on the suite: the row tables of `gen_direct`, the recurrence chains
of `gen_recurrence`, the eta products of `pochhammer_inf` and the quotient
of `macmahon._eta_quotient`.  A perturbation is applied to a copy and never
reaches a shared value (`test_perturbation_does_not_leak_into_shared_rows`).

Every suite takes an optional `Perturbation` naming one of its intermediate
series; the named series gets a single coefficient bumped before use.  This
is the fault-injection seam: a suite that cannot be made to fail by a
one-coefficient perturbation would be vacuous.  `perturbable_targets`
enumerates the valid names per suite; a suite refuses any other name.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from ._certify import certify_rows
from .macmahon import (
    Family, _direct_table, _eta_quotient, gen_direct, gen_explicit, gen_recurrence,
    oracle_a, oracle_c, theta_f, theta_g,
)
from .quasimodular import NoDecompositionError, check_basis_size, decompose
from .series import QSeries, pochhammer_inf

Rational = Union[int, Fraction]


class Mismatch(NamedTuple):
    """First located coefficient disagreement of an identity check."""

    x_degree: Optional[int]
    q_exponent: int
    lhs_coefficient: Optional[Rational]
    rhs_coefficient: Optional[Rational]

    def to_json_obj(self) -> dict:
        def enc(v):
            return None if v is None else str(v)

        return {
            "x_degree": self.x_degree,
            "q_exponent": self.q_exponent,
            "lhs_coefficient": enc(self.lhs_coefficient),
            "rhs_coefficient": enc(self.rhs_coefficient),
        }


class _ReportFields(NamedTuple):
    """The fields of `VerificationReport`, whose `__new__` checks them."""

    identity_name: str
    parameters: dict
    checked_order: int
    status: str  # "pass" | "fail"
    first_mismatch: Optional[Mismatch]
    elapsed: float
    details: Optional[dict] = None


class VerificationReport(_ReportFields):
    """Structured outcome of one identity suite; `details` defaults to a
    fresh empty dict."""

    __slots__ = ()

    def __new__(
        cls, identity_name: str, parameters: dict, checked_order: int, status: str,
        first_mismatch: Optional[Mismatch], elapsed: float, details: Optional[dict] = None,
    ):
        if (status == "fail") != (first_mismatch is not None):
            raise ValueError("status must be 'fail' exactly when a mismatch is present")
        if status not in ("pass", "fail"):
            raise ValueError(f"invalid status {status!r}")
        return super().__new__(
            cls, identity_name, parameters, checked_order, status, first_mismatch, elapsed,
            {} if details is None else details,
        )

    @classmethod
    def _make(cls, iterable) -> "VerificationReport":
        # `_replace` builds through `_make`, so it too passes the checks
        return cls(*iterable)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_obj(self) -> dict:
        return {
            "identity_name": self.identity_name,
            "parameters": dict(self.parameters),
            "checked_order": self.checked_order,
            "status": self.status,
            "first_mismatch": None
            if self.first_mismatch is None
            else self.first_mismatch.to_json_obj(),
            "elapsed": self.elapsed,
            "details": self.details,
        }

    def summary_line(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
        line = f"{self.status.upper():<4} {self.identity_name} [{params}] ({self.elapsed:.2f}s)"
        if self.first_mismatch is not None:
            m = self.first_mismatch
            where = f"q^{m.q_exponent}"
            if m.x_degree is not None:
                where = f"x^{m.x_degree} {where}"
            line += f" first mismatch at {where}: {m.lhs_coefficient} vs {m.rhs_coefficient}"
        return line


class Perturbation(NamedTuple):
    """Bump one coefficient of a named intermediate series by `delta`.

    The exponent must lie in the tracked range of the named series (note the
    odd-family theorem suite builds its A_k only to half the q-order, since
    they enter through q -> q^2).
    """

    target: str
    exponent: int
    delta: Rational = 1


def _tap(series: QSeries, name: str, perturb: Optional[Perturbation]) -> QSeries:
    if perturb is None or perturb.target != name:
        return series
    data = list(series.coeffs)
    if not 0 <= perturb.exponent < len(data):
        raise ValueError(
            f"perturbation exponent {perturb.exponent} outside tracked range "
            f"of {name} (order {series.order})"
        )
    data[perturb.exponent] = data[perturb.exponent] + perturb.delta
    return QSeries(data, series.order)


def _first_mismatch(
    lhs: QSeries, rhs: QSeries, upto: int, x_degree: Optional[int]
) -> Optional[Mismatch]:
    if lhs.coeffs[: upto + 1] != rhs.coeffs[: upto + 1]:
        for n in range(upto + 1):
            a = lhs.coefficient(n)
            b = rhs.coefficient(n)
            if a != b:
                return Mismatch(x_degree, n, a, b)
    return None


def _report(
    name: str, parameters: dict, order: int, mismatch: Optional[Mismatch], t0: float,
    details: Optional[dict] = None,
) -> VerificationReport:
    status = "fail" if mismatch else "pass"
    elapsed = time.perf_counter() - t0
    return VerificationReport(name, parameters, order, status, mismatch, elapsed, details)


def perturbable_targets(suite: str, k_max: int) -> list[str]:
    """Intermediate-series names a Perturbation may address, per suite."""
    if suite in ("theorem-f", "theorem-g"):
        odd = int(suite == "theorem-f")
        rows = "A" if odd else "C"
        return (
            ["prefactor"]
            + [f"{rows}_{k}" for k in range(k_max + 1)]
            + [f"theta_x{d}" for d in range(2 * k_max + odd + 1)]
        )
    if suite == "agreement":
        return ["direct", "explicit", "recurrence"]
    if suite == "quasimodular":
        return [f"A_{k}" for k in range(1, k_max + 1)]
    raise ValueError(f"unknown suite {suite!r}")


def _refuse_unknown_target(perturb: Optional[Perturbation], suite: str, k_max: int) -> None:
    """Raise ValueError unless `perturb` is None or names one of
    `perturbable_targets(suite, k_max)`.  A name ending in the index i is a
    target at k_max exactly when it is one at min(k_max, i), so only those
    are listed, and the cost does not grow with k_max."""
    if perturb is not None:
        name = perturb.target
        index = name[len(name.rstrip("0123456789")):]
        if name not in perturbable_targets(suite, min(k_max, int(index or 0))):
            raise ValueError(f"{suite} at k_max {k_max} has no perturbable series {name!r}")


def _tapped_index(perturb: Optional[Perturbation], prefix: str) -> int:
    """i when `perturb` names the series f"{prefix}{i}", else -1."""
    if perturb is None or not perturb.target.startswith(prefix):
        return -1
    tail = perturb.target[len(prefix):]
    if tail.isdecimal() and f"{prefix}{int(tail)}" == perturb.target:
        return int(tail)
    return -1


def _verify_theorem(
    odd: int, k_max: int, order: int, perturb: Optional[Perturbation]
) -> VerificationReport:
    """The triple-product suite: theorem-f for odd = 1, theorem-g for odd = 0.

    The x^(2k+odd) entry of F (G) must equal the prefactor times A_k(q^2)
    (C_k(q)) for k <= k_max, and every other entry through x^(2k_max+odd)
    must vanish.  A_k is built to half the q-order, since it enters through
    q -> q^2.  The rows come from one read of the row table, which holds only
    feasible rows.  Only x-degrees up to the last that holds a theta term, a
    row or the perturbed entry are built and compared; every degree past
    them is zero on both sides, so the cost does not grow with k_max.  A
    perturbation of a row past the feasible ones first pads the rows with
    zero rows up to it.  Theta, prefactor and row builders are looked up as
    module globals on each call.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    _refuse_unknown_target(perturb, "theorem-f" if odd else "theorem-g", k_max)
    t0 = time.perf_counter()
    bound = 2 * k_max + odd
    if odd:
        prefactor = pochhammer_inf(1, 2, 2, order) ** 3
    else:
        prefactor = _eta_quotient(order)
    prefactor = _tap(prefactor, "prefactor", perturb)
    family = Family.A if odd else Family.C
    row_order = (order + 1) // 2 if odd else order
    rows = _direct_table(family, k_max, row_order)
    bumped_row = _tapped_index(perturb, f"{family.value}_")
    if len(rows) <= bumped_row <= k_max:
        rows += (QSeries.zero(row_order),) * (bumped_row + 1 - len(rows))
    rows = [_tap(row, f"{family.value}_{k}", perturb) for k, row in enumerate(rows)]
    # no theta term of G (F) reaches past x-degree 2*isqrt(order) (+ 1)
    top = max(2 * math.isqrt(order), 2 * len(rows) - 2) + odd
    top = max(top, _tapped_index(perturb, "theta_x"))
    entries = (theta_f if odd else theta_g)(min(top, bound), order).entries
    entries = [_tap(e, f"theta_x{d}", perturb) for d, e in enumerate(entries)]
    expected = {}
    for k, row in enumerate(rows):
        if not row.is_zero:
            if odd:
                row = row.substitute(2).truncate(order)
            expected[2 * k + odd] = prefactor * row
    zero = QSeries.zero(order)
    mismatch = None
    for d, entry in enumerate(entries):
        mismatch = _first_mismatch(entry, expected.get(d, zero), order, d)
        if mismatch is not None:
            break
    name = "theorem-f" if odd else "theorem-g"
    return _report(name, {"k_max": k_max, "order": order}, order, mismatch, t0)


def verify_theorem_f(
    k_max: int, order: int, perturb: Optional[Perturbation] = None
) -> VerificationReport:
    """Check F(x,q) = (q^2;q^2)_inf^3 * sum_k A_k(q^2) x^(2k+1) through x^(2k_max+1).

    Also asserts that every even x-degree entry of F vanishes.  k_max = 0 is
    the seed identity sum (-1)^n (2n+1) q^(n^2+n) = (q^2;q^2)_inf^3.
    """
    return _verify_theorem(1, k_max, order, perturb)


def verify_theorem_g(
    k_max: int, order: int, perturb: Optional[Perturbation] = None
) -> VerificationReport:
    """Check G(x,q) = (q;q)_inf/(-q;q)_inf * sum_k C_k(q) x^(2k) through x^(2k_max).

    Also asserts that every odd x-degree entry of G vanishes.  k_max = 0 is
    the seed identity 1 + 2 sum (-1)^n q^(n^2) = (q;q)_inf/(-q;q)_inf.  The
    prefactor is `macmahon._eta_quotient`, shared within one run scope with
    `gen_explicit`.
    """
    return _verify_theorem(0, k_max, order, perturb)


def verify_method_agreement(
    family: Family, k: int, order: int, perturb: Optional[Perturbation] = None
) -> VerificationReport:
    """Check the three series routes agree to `order`, plus the enumeration
    oracle on exponents up to min(order, 40)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _refuse_unknown_target(perturb, "agreement", k)
    t0 = time.perf_counter()
    direct = _tap(gen_direct(family, k, order), "direct", perturb)
    explicit = _tap(gen_explicit(family, k, order), "explicit", perturb)
    recurrence = _tap(gen_recurrence(family, k, order), "recurrence", perturb)
    mismatch = _first_mismatch(direct, explicit, order, None)
    if mismatch is None:
        mismatch = _first_mismatch(direct, recurrence, order, None)
    if mismatch is None:
        oracle = oracle_a if family is Family.A else oracle_c
        upto = min(order, 40)
        prefix = QSeries([0] + [oracle(n, k) for n in range(1, upto + 1)], upto)
        mismatch = _first_mismatch(direct, prefix, upto, None)
    parameters = {"family": family.value, "k": k, "order": order}
    return _report("method-agreement", parameters, order, mismatch, t0)


def verify_quasimodularity(
    k_max: int, order: int, perturb: Optional[Perturbation] = None
) -> VerificationReport:
    """Certify A_1..A_{k_max} as polynomials in E2, E4, E6 of weight <= 2k.

    The report's mismatch and details are those `_certify.certify_rows`
    returns for the rows of the defining sum through `order`.  When every
    check holds, an informational probe shows that the odd-part family's C_1
    does NOT decompose in this basis (expected; its failure does not fail
    the suite), with a `decompose` of its own two columns, 1 and E2.  Raises
    ValueError, before any series is built, when the weight-2k_max basis is
    too large for `order` or `perturb` names no series of this suite.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _refuse_unknown_target(perturb, "quasimodular", k_max)
    check_basis_size(2 * k_max, order)
    t0 = time.perf_counter()
    # the basis-size check leaves every A_k with k <= k_max feasible
    rows = _direct_table(Family.A, k_max, order)
    rows = [_tap(row, f"A_{k}", perturb) for k, row in enumerate(rows)]
    difference, details = certify_rows(rows, order)[:2]
    mismatch = None if difference is None else Mismatch(None, *difference)
    if mismatch is None:
        try:
            decompose(_direct_table(Family.C, 1, order)[1], 2, order, description="C_1")
            details["C_1_probe"] = {"status": "decomposed-unexpectedly"}
        except NoDecompositionError as e:
            details["C_1_probe"] = {
                "status": "no-decomposition",
                "witness_exponent": e.exponent,
            }
    return _report(
        "quasimodularity", {"k_max": k_max, "order": order}, order, mismatch, t0, details
    )
