"""Exact decomposition of q-series in the ring generated by E2, E4, E6.

A decomposition certificate states that a target series equals a rational
linear combination of monomials E2^a * E4^b * E6^c, verified coefficientwise
through a stated order.  `decompose` is deliberately two-stage: a small
overdetermined linear solve (basis size + 5 equations) finds the candidate,
then the candidate is re-evaluated and checked against every tracked
coefficient of the target, so "the solver found something" and "the identity
holds" stay distinguishable.  `_solve_top` states the window `decompose`
solves and `_monomial_series` builds its columns.

`fit_divisor_form` probes the related representation a_{n,k} =
sum_j p_j(n) * sigma_{2j-1}(n) with polynomial weights p_j of bounded degree;
there failure is a value (the first unsatisfiable n), not an exception.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Iterator, NamedTuple, Optional

from .linalg import IncrementalSolver
from .macmahon import Family, gen_direct
from .series import QSeries, divisor_sigma, eisenstein


class QMMonomial(NamedTuple):
    """Exponents (a, b, c) of E2^a * E4^b * E6^c."""

    a: int
    b: int
    c: int

    @property
    def weight(self) -> int:
        return 2 * self.a + 4 * self.b + 6 * self.c

    def __str__(self) -> str:
        if self.a == self.b == self.c == 0:
            return "1"
        parts = []
        for name, e in (("E2", self.a), ("E4", self.b), ("E6", self.c)):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


class NoDecompositionError(Exception):
    """No decomposition exists at the requested weight bound.

    `stage` is 'solve' (the overdetermined system is inconsistent) or
    'verify' (a candidate matched the solve window but fails deeper);
    `exponent` is the first q-exponent that cannot be matched, `lhs` the
    target coefficient there and `rhs` the candidate's value (None at the
    solve stage, where no candidate exists).
    """

    def __init__(self, weight_bound: int, stage: str, exponent: int, lhs, rhs=None):
        self.weight_bound = weight_bound
        self.stage = stage
        self.exponent = exponent
        self.lhs = lhs
        self.rhs = rhs
        detail = f"target has {lhs}" + ("" if rhs is None else f", candidate {rhs}")
        super().__init__(
            f"no solution at weight bound {weight_bound}: "
            f"first mismatch at q^{exponent} ({stage} stage; {detail})"
        )


class QMDecomposition(NamedTuple):
    """Verified rational combination of Eisenstein monomials."""

    terms: dict[QMMonomial, Fraction]
    weight_bound: int
    verified_order: int
    target_description: str = ""
    ambiguous: bool = False

    def to_json_obj(self) -> dict:
        return {
            "target": self.target_description,
            "weight_bound": self.weight_bound,
            "verified_order": self.verified_order,
            "ambiguous": self.ambiguous,
            "terms": [
                {"a": m.a, "b": m.b, "c": m.c, "coefficient": str(coeff)}
                for m, coeff in self.terms.items()
            ],
        }


def _monomials(weight_bound: int) -> Iterator[QMMonomial]:
    """Monomials of weight <= weight_bound, lazily, in the solver's column
    order: weight ascending, then E2-heavy first ((a, b, c) descending)."""
    if weight_bound < 0 or weight_bound % 2:
        raise ValueError("weight bound must be even and nonnegative")
    for half in range(weight_bound // 2 + 1):  # a + 2b + 3c = weight / 2
        for a in range(half, -1, -1):
            for b in range((half - a) // 2, -1, -1):
                c, rem = divmod(half - a - 2 * b, 3)
                if not rem:
                    yield QMMonomial(a, b, c)


def monomial_basis(weight_bound: int) -> list[QMMonomial]:
    """All monomials of weight <= weight_bound, in the column order of
    `_monomials`, which fixes the solution an underdetermined solve returns."""
    return list(_monomials(weight_bound))


def monomial_count(weight_bound: int, limit: int) -> int:
    """len(monomial_basis(weight_bound)), or limit + 1 if that exceeds limit.

    Walks the basis lazily and stops after limit + 1 monomials, so an
    oversized weight bound is refused in time set by the limit, not by the
    roughly weight_bound^3/288 monomials.
    """
    return sum(1 for _ in islice(_monomials(weight_bound), limit + 1))


def check_basis_size(weight_bound: int, order: int) -> None:
    """Raise ValueError unless the basis has at most order // 2 monomials.

    Twice the basis size in coefficients keeps the solve overdetermined; the
    count stops past the limit, so an oversized weight bound is refused at once.
    """
    if monomial_count(weight_bound, order // 2) > order // 2:
        raise ValueError(
            f"order {order} too small: the weight-{weight_bound} basis has more "
            f"monomials than order // 2 = {order // 2}, and the system needs at "
            "least twice the basis size to be overdetermined"
        )


def _build_columns(basis: list[QMMonomial], one, generator, times) -> list:
    """Column of each monomial of `basis`, by the parent rule both column
    builders follow: a monomial's column is its parent's times one generator's.

    The parent has one E2 fewer; with no E2, one E4 fewer; otherwise one E6
    fewer.  The constant's column is `one` and a generator's, of weight w,
    is `generator(w)`, with no product; each generator is sieved once, when
    first needed, so only those the basis holds are sieved.  Every other
    column is `times(parent column, generator column)`.  Precondition: every
    parent is in `basis` and comes earlier, as in a full basis in
    `_monomials` order (weight ascending).
    """
    built = {QMMonomial(0, 0, 0): one}
    generators: dict = {}
    for m in basis:
        if m in built:
            continue
        if m.a:
            parent, i = QMMonomial(m.a - 1, m.b, m.c), 0
        elif m.b:
            parent, i = QMMonomial(0, m.b - 1, m.c), 1
        else:
            parent, i = QMMonomial(0, 0, m.c - 1), 2
        if i not in generators:
            generators[i] = generator(2 * i + 2)
        built[m] = generators[i] if parent.weight == 0 else times(built[parent], generators[i])
    return [built[m] for m in basis]


def _monomial_series(basis: list[QMMonomial], order: int) -> list[QSeries]:
    """Exact series through q^order of each monomial of `basis`, by `_build_columns`."""
    return _build_columns(basis, QSeries.one(order), lambda w: eisenstein(w, order), mul)


def monomial_columns(weight_bound: int, order: int) -> dict[QMMonomial, QSeries]:
    """Series of every monomial of weight <= weight_bound, keyed by monomial."""
    basis = monomial_basis(weight_bound)
    return dict(zip(basis, _monomial_series(basis, order)))


def _integer_combination(
    coeffs: list[Fraction], columns: list[QSeries], order: int
) -> tuple[list[int], int]:
    """(D * sum(coeff * col) through q^order, D), D the lcm of the denominators.

    Each column is scaled by the integer coeff * D and summed on plain lists,
    so the sum builds no Fraction and no intermediate series.
    """
    denom = math.lcm(*(c.denominator for c in coeffs))
    combo = [0] * (order + 1)
    for coeff, col in zip(coeffs, columns):
        if coeff:
            scale = coeff.numerator * (denom // coeff.denominator)
            combo = [a + scale * b for a, b in zip(combo, col.coeffs)]
    return combo, denom


def _first_difference(combo, denom: int, target: QSeries) -> Optional[tuple]:
    """(n, target[n], combo[n] / denom) at the first n where combo[n] differs
    from denom * target[n], the quotient an int when integral; else None."""
    for n, (c, t) in enumerate(zip(combo, target.coeffs)):
        if c != denom * t:
            rhs = Fraction(c, denom)
            return n, t, rhs.numerator if rhs.denominator == 1 else rhs
    return None


def _solve_top(size: int, order: int) -> int:
    """The last coefficient `decompose` solves for a basis of `size` monomials."""
    return min(size + 4, order)


def decompose(
    target: QSeries, weight_bound: int, order: int, description: str = ""
) -> QMDecomposition:
    """Exactly decompose `target` over the weight-bounded monomial basis.

    Refuses, through `check_basis_size`, a basis too large for `order`.
    Solves coefficients 0.._solve_top(basis_size, order), then verifies the
    candidate against every coefficient through `order`, in integers: with D
    the lcm of the candidate's denominators, D * sum(coeff * column) is
    compared with D * target coefficient by coefficient.  Raises
    NoDecompositionError when either stage fails; an underdetermined solve
    pins free columns to zero and flags the result as ambiguous.
    """
    check_basis_size(weight_bound, order)
    basis = monomial_basis(weight_bound)
    if order > target.order:
        raise ValueError(
            f"target only tracks coefficients to {target.order}, cannot verify to {order}"
        )
    columns = _monomial_series(basis, order)
    solver = IncrementalSolver(len(basis))
    for n in range(_solve_top(len(basis), order) + 1):
        row = [col.coefficient(n) for col in columns]
        if not solver.add_equation(row, target.coefficient(n)):
            raise NoDecompositionError(
                weight_bound, "solve", n, target.coefficient(n)
            )
    values = solver.solution()
    ambiguous = bool(solver.free_columns())
    difference = _first_difference(*_integer_combination(values, columns, order), target)
    if difference is not None:
        raise NoDecompositionError(weight_bound, "verify", *difference)
    return QMDecomposition(
        terms={m: coeff for m, coeff in zip(basis, values) if coeff},
        weight_bound=weight_bound,
        verified_order=order,
        target_description=description,
        ambiguous=ambiguous,
    )


def eval_decomposition(dec: QMDecomposition, order: int) -> QSeries:
    """Exact evaluation of a decomposition as a QSeries of the given order."""
    # the full basis up to the heaviest term holds every column's parent
    basis = monomial_basis(max((m.weight for m in dec.terms), default=0))
    columns = _monomial_series(basis, order)
    combo, denom = _integer_combination(
        [dec.terms.get(m, 0) for m in basis], columns, order
    )
    return QSeries([Fraction(c, denom) for c in combo])


class DivisorFitResult(NamedTuple):
    """Outcome of fit_divisor_form; `polynomials` is None exactly on failure."""

    k: int
    degree_bound: int
    checked_n: int
    polynomials: Optional[list[list[Fraction]]] = None
    first_failure_n: Optional[int] = None
    ambiguous: bool = False

    @property
    def success(self) -> bool:
        return self.polynomials is not None

    def to_json_obj(self) -> dict:
        obj = {
            "k": self.k,
            "degree_bound": self.degree_bound,
            "checked_n": self.checked_n,
            "status": "success" if self.success else "no-solution",
        }
        if self.success:
            obj["polynomials"] = [
                [str(c) for c in poly] for poly in self.polynomials
            ]
            obj["ambiguous"] = self.ambiguous
        else:
            obj["first_failure_n"] = self.first_failure_n
        return obj


def fit_divisor_form(k: int, poly_degree_bound: int, order: int) -> DivisorFitResult:
    """Fit a_{n,k} = sum_{j=1..k} p_j(n) * sigma_{2j-1}(n) for 1 <= n <= order.

    The p_j are rational polynomials in n of degree <= poly_degree_bound,
    solved exactly over all stated n.  On inconsistency the result carries
    the first n at which no choice of polynomials can work.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if poly_degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    if order < 1:
        raise ValueError("order must be >= 1")
    target = gen_direct(Family.A, k, order)
    width = poly_degree_bound + 1
    solver = IncrementalSolver(k * width)
    for n in range(1, order + 1):
        sigmas = [divisor_sigma(n, 2 * j - 1) for j in range(1, k + 1)]
        row = []
        for j in range(k):
            npow = 1
            for _ in range(width):
                row.append(npow * sigmas[j])
                npow *= n
        if not solver.add_equation(row, target.coefficient(n)):
            return DivisorFitResult(
                k=k,
                degree_bound=poly_degree_bound,
                checked_n=order,
                first_failure_n=n,
            )
    values = solver.solution()
    polys = [values[j * width : (j + 1) * width] for j in range(k)]
    return DivisorFitResult(
        k=k,
        degree_bound=poly_degree_bound,
        checked_n=order,
        polynomials=polys,
        ambiguous=bool(solver.free_columns()),
    )
