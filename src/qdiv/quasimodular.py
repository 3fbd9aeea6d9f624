"""Exact decomposition of q-series in the ring generated by E2, E4, E6.

A decomposition certificate states that a target series equals a rational
linear combination of monomials E2^a * E4^b * E6^c, verified coefficientwise
through a stated order.  `decompose` is deliberately two-stage: a small
overdetermined linear solve (basis size + 5 equations) finds the candidate,
then the candidate is re-evaluated and checked against every tracked
coefficient of the target, so "the solver found something" and "the identity
holds" stay distinguishable.

For A_k no solve is needed: `verify.verify_quasimodularity` certifies it by
the paper's induction, from `induction_differences`,
`recurrence_polynomials` and `window_ranks`, and its docstring states the
four steps.  `_solve_top` states the window `decompose` solves, which the
suite pins and ranks, so the suite's `ambiguous` is what a solve would find.

`fit_divisor_form` probes the related representation a_{n,k} =
sum_j p_j(n) * sigma_{2j-1}(n) with polynomial weights p_j of bounded degree;
there failure is a value (the first unsatisfiable n), not an exception.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional

from .linalg import IncrementalSolver
from .macmahon import Family, _recurrence_step, gen_direct
from .series import QSeries, divisor_sigma, eisenstein


@dataclass(frozen=True, order=True)
class QMMonomial:
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


@dataclass
class QMDecomposition:
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
            f"than {order // 2} monomials, and the system needs at least twice "
            "the basis size to be overdetermined"
        )


def _monomial_series(basis: list[QMMonomial], order: int) -> list[QSeries]:
    """Series of each monomial of `basis`: its parent's series times one generator.

    The parent has one E2 fewer; with no E2, one E4 fewer; otherwise one E6
    fewer.  The constant and the generators E2, E4, E6 are their own series,
    with no product, and only the generators no heavier than the heaviest
    monomial are sieved.  Precondition: every parent is in `basis` and comes
    earlier, as in a full basis in `_monomials` order (weight ascending).
    """
    top = max((m.weight for m in basis), default=0)
    generators = (QMMonomial(1, 0, 0), QMMonomial(0, 1, 0), QMMonomial(0, 0, 1))
    built = {QMMonomial(0, 0, 0): QSeries.one(order)}
    built.update((g, eisenstein(g.weight, order)) for g in generators if g.weight <= top)
    e2, e4, e6 = (built.get(g) for g in generators)
    for m in basis:
        if m in built:
            continue
        if m.a:
            built[m] = built[QMMonomial(m.a - 1, m.b, m.c)] * e2
        elif m.b:
            built[m] = built[QMMonomial(0, m.b - 1, m.c)] * e4
        else:
            built[m] = built[QMMonomial(0, 0, m.c - 1)] * e6
    return [built[m] for m in basis]


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


# Ramanujan (1916): D = q d/dq maps each generator into the ring,
# D E2 = (E2^2 - E4)/12, D E4 = (E2*E4 - E6)/3 and D E6 = (E2*E6 - E4^2)/2,
# each as {exponents (a, b, c) of E2^a * E4^b * E6^c: coefficient}.
RAMANUJAN_D = (
    {(2, 0, 0): Fraction(1, 12), (0, 1, 0): Fraction(-1, 12)},
    {(1, 1, 0): Fraction(1, 3), (0, 0, 1): Fraction(-1, 3)},
    {(1, 0, 1): Fraction(1, 2), (0, 2, 0): Fraction(-1, 2)},
)


def _mul(f: dict, g: dict) -> Counter:
    """Product of two polynomials {(a, b, c): coefficient}."""
    out: Counter = Counter()
    for (a, b, c), u in f.items():
        for (x, y, z), v in g.items():
            out[a + x, b + y, c + z] += u * v
    return out


def _q_derivative(poly: dict, images: list) -> Counter:
    """D applied to {(a, b, c): coefficient} as a derivation, with D of the
    generators E2, E4, E6 read from `images`, in RAMANUJAN_D's form."""
    out: Counter = Counter()
    for exps, coeff in poly.items():
        for i, e in enumerate(exps):
            if e:
                lower = exps[:i] + (e - 1,) + exps[i + 1 :]
                out.update(_mul({lower: e * coeff}, images[i]))
    return out


def recurrence_polynomials(k_max: int) -> list[dict[QMMonomial, Fraction]]:
    """A_0..A_{k_max} as polynomials in E2, E4, E6, with no linear algebra.

    A_0 = 1, A_1 = (1 - E2)/24 and, for k >= 2, the paper's recurrence
    A_k = [(6*A_1 + k(k-1)) A_{k-1} - 2 D A_{k-1}] / ((2k+1) 2k), D = q d/dq,
    which stays in Q[E2, E4, E6] by RAMANUJAN_D.  Entry k maps the monomials
    of A_k, all of weight <= 2k, to their nonzero coefficients.

    The chain runs in integers: A_k is carried as integer numerators over
    one denominator.  With s the lcm of 4 and the denominators of
    RAMANUJAN_D (s = 12), s*D and s*6*A_1 = (s/4)*(1 - E2) have integer
    coefficients, so each step multiplies the denominator by s*(2k+1)*2k.
    The Fractions are made once, at the end.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    one = (0, 0, 0)
    scale = math.lcm(4, *(c.denominator for image in RAMANUJAN_D for c in image.values()))
    images = [{e: int(scale * c) for e, c in image.items()} for image in RAMANUJAN_D]
    a1 = {one: 1, (1, 0, 0): -1}  # 24 * A_1
    chain = [({one: 1}, 1), (a1, 24)][: k_max + 1]
    for k in range(2, k_max + 1):
        prev, denominator = chain[-1]
        factor = {key: scale // 4 * v for key, v in a1.items()}  # s * 6 * A_1
        factor[one] += scale * k * (k - 1)
        cur = _mul(factor, prev)
        cur.update({key: -2 * v for key, v in _q_derivative(prev, images).items()})
        denominator *= scale * (2 * k + 1) * 2 * k
        chain.append(({key: v for key, v in cur.items() if v}, denominator))
    return [
        {QMMonomial(*key): Fraction(v, denominator) for key, v in poly.items()}
        for poly, denominator in chain
    ]


def _candidate_difference(
    poly: dict, columns: dict, target: QSeries, order: int
) -> Optional[tuple]:
    """`_first_difference` through `order` of the polynomial `poly` in the
    Eisenstein `columns` against `target`, in integers over the lcm of the
    polynomial's denominators."""
    combo = _integer_combination(list(poly.values()), [columns[m] for m in poly], order)
    return _first_difference(*combo, target)


def induction_differences(rows: list[QSeries], polys: list[dict], order: int) -> list:
    """Steps 1-3 of the certificate that `verify.verify_quasimodularity`
    states, on rows[1..k_max] = A_1, ..., A_{k_max}, each exact through
    `order`, with `polys` from `recurrence_polynomials(k_max)`.

    differences[0] is the first difference of the Ramanujan identities, on
    the columns of weight <= min(2 k_max, 8); differences[1] that of polys[1]
    against rows[1]; differences[k], k >= 2, that of the step of
    `gen_recurrence` from rows[k-1] to rows[k], its numerator against its
    denominator times rows[k].  Each is None where the check holds, else a
    `_first_difference` triple.  The steps read only the rows and run before
    any column is built, so their work does not add to the memory the
    columns hold.
    """
    steps = (_recurrence_step(Family.A, k, rows[1], rows[k - 1]) for k in range(2, len(rows)))
    differences = [None, None] + [
        _first_difference(numerator.coeffs, denominator, row)
        for (numerator, denominator), row in zip(steps, rows[2:])
    ]
    weight = min(2 * (len(rows) - 1), 8)
    columns = monomial_columns(weight, order)
    differences[1] = _candidate_difference(polys[1], columns, rows[1], order)
    generators = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for exps, image in zip(generators[: weight // 2 - 1], RAMANUJAN_D):
        image = {QMMonomial(*e): c for e, c in image.items()}
        derivative = columns[QMMonomial(*exps)].q_derivative()
        differences[0] = differences[0] or _candidate_difference(image, columns, derivative, order)
    return differences


_RANK_PRIME = 2**31 - 1


def window_ranks(columns: list[QSeries], sizes: list[int], order: int) -> list[int]:
    """Rank modulo a prime of each solve window `decompose` would use.

    The window of basis size m holds coefficients 0.._solve_top(m, order) of the
    first m of `columns` (integer series, in basis order); `sizes` ascend.
    Rank mod p <= rank over Q, so a window of full rank here has exactly no
    free column, as `decompose` would find it.  One elimination serves every
    window: rows enter by exponent with the first nonzero column as pivot, so
    after row t the pivots below column m count the rank of rows 0..t on the
    first m columns, since a stored row with a later pivot is zero there.
    """
    p = _RANK_PRIME
    width = len(columns)
    # A row packs its entries into fixed slots of one int, column j in slot j.
    # Stored rows hold -entry mod p, with -1 at the pivot.  An incoming row
    # starts below p per slot and gains v * stored < p^2 per stored row, with
    # v < p, so its slots stay below (width + 1) * p^2 and never carry; it is
    # reduced mod p only once, after its elimination.
    slot = (2 * p.bit_length() + (width + 1).bit_length() + 7) // 8
    nbytes = slot * width
    mask = (1 << 8 * slot) - 1

    def pack(values):
        return int.from_bytes(b"".join(v.to_bytes(slot, "little") for v in values), "little")

    def reduced(row):
        data = row.to_bytes(nbytes, "little")
        return [int.from_bytes(data[i : i + slot], "little") % p for i in range(0, nbytes, slot)]

    pivots: list[int] = []
    stored: list[int] = []
    ranks = []
    n = 0
    for m in sizes:
        while n <= _solve_top(m, order):
            row = pack([col.coeffs[n] % p for col in columns])
            for pc, neg in zip(pivots, stored):
                v = (row >> 8 * slot * pc & mask) % p
                if v:
                    row += v * neg
            values = reduced(row)
            lead = next((j for j, v in enumerate(values) if v), None)
            if lead is not None:
                inv = pow(values[lead], -1, p)
                stored.append(pack([-v * inv % p for v in values]))
                pivots.append(lead)
            n += 1
        ranks.append(sum(pc < m for pc in pivots))
    return ranks


@dataclass
class DivisorFitResult:
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
