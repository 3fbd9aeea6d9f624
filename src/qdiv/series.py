"""Exact truncated power series in q over the rationals.

QSeries is the carrier type for everything in this package: divisor-sum
generating functions, q-Pochhammer products, Eisenstein series, theta
coefficients.  A series tracks coefficients for exponents 0..order exactly;
coefficients beyond `order` are unknown, never assumed zero.  Mixed-order
arithmetic truncates to the smaller order (the only sound result).

Coefficients are canonical: int where the value is integral, Fraction in
lowest terms otherwise.  Values are immutable, so series are safe to share
across threads; all operations are pure.
"""

from __future__ import annotations

import contextlib
import contextvars
import re
from fractions import Fraction
from typing import Iterable, Union

from . import _kernels_py as kernels

Rational = Union[int, Fraction]
_WIRE_COEFF = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?").fullmatch  # 'p' or 'p/q', q > 0


class NonInvertibleSeriesError(ValueError):
    """Raised when inverting a series whose constant term is zero."""


def _canon(value) -> Rational:
    """Normalize a coefficient: Fractions with denominator 1 become int."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool and int subclasses
        return int(value)
    raise TypeError(f"coefficient must be int or Fraction, got {type(value).__name__}")


class QSeries:
    """Truncated formal power series with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = (), order: int | None = None):
        data = [_canon(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            if len(data) > order + 1:
                del data[order + 1 :]
            elif len(data) < order + 1:
                data.extend([0] * (order + 1 - len(data)))
        elif not data:
            data = [0]
        self._coeffs: tuple = tuple(data)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _wrap(cls, coeffs: list) -> "QSeries":
        # a list of exact ints, as the kernels return, is canonical already
        s = cls.__new__(cls)
        if set(map(type, coeffs)) <= {int}:
            s._coeffs = tuple(coeffs)
        else:
            s._coeffs = tuple(_canon(c) for c in coeffs)
        return s

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls([1], order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: Rational = 1) -> "QSeries":
        """coeff * q^exponent, truncated at `order`."""
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        data = [0] * (order + 1)
        if exponent <= order:
            data[exponent] = coeff
        return cls(data, order)

    # -- basic accessors -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coefficient(self, n: int) -> Rational:
        """Coefficient of q^n; n beyond the tracked order is an error."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} outside tracked range 0..{self.order}")
        return self._coeffs[n]

    @property
    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def integer_coefficients(self) -> list[int]:
        """All coefficients as ints; raises if any is non-integral."""
        for n, c in enumerate(self._coeffs):
            if not isinstance(c, int):
                raise ValueError(f"coefficient of q^{n} is non-integral: {c}")
        return list(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        terms = []
        for n, c in enumerate(self._coeffs):
            if c:
                terms.append(f"{c}*q^{n}" if n else f"{c}")
            if len(terms) == 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"QSeries[{body}; order={self.order}]"

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            n = min(self.order, other.order)
            return QSeries._wrap(
                [self._coeffs[i] + other._coeffs[i] for i in range(n + 1)]
            )
        if isinstance(other, (int, Fraction)):
            data = list(self._coeffs)
            data[0] = data[0] + other
            return QSeries._wrap(data)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries._wrap([-c for c in self._coeffs])

    def __sub__(self, other) -> "QSeries":
        if isinstance(other, (QSeries, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            n = min(self.order, other.order)
            return QSeries._wrap(
                kernels.conv_trunc(list(self._coeffs), list(other._coeffs), n)
            )
        if isinstance(other, (int, Fraction)):
            other = _canon(other)
            if other == 0:
                return QSeries.zero(self.order)
            return QSeries._wrap([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "QSeries":
        """Division by a nonzero scalar; an int divisor keeps exact quotients int."""
        if isinstance(scalar, (int, Fraction)):
            if scalar == 0:
                raise ZeroDivisionError("division of series by zero scalar")
            if isinstance(scalar, Fraction):
                return self * (1 / scalar)
            return QSeries._wrap([
                c // scalar if type(c) is int and not c % scalar else Fraction(c, scalar)
                for c in self._coeffs
            ])
        return NotImplemented

    def __pow__(self, exponent: int) -> "QSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers must be nonnegative integers")
        result = QSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def inverse(self) -> "QSeries":
        """Multiplicative inverse to the same order; constant term must be nonzero."""
        if not self._coeffs[0]:
            raise NonInvertibleSeriesError(
                "non-invertible series: constant coefficient is zero"
            )
        return QSeries._wrap(kernels.inverse_trunc(list(self._coeffs), self.order))

    def q_derivative(self) -> "QSeries":
        """The operator q*d/dq: coefficient of q^n becomes n times itself."""
        return QSeries._wrap([n * c for n, c in enumerate(self._coeffs)])

    def substitute(self, m: int) -> "QSeries":
        """q -> q^m reindexing; the result has order m*self.order."""
        if not isinstance(m, int) or m < 1:
            raise ValueError("substitution exponent must be a positive integer")
        data = [0] * (m * self.order + 1)
        for n, c in enumerate(self._coeffs):
            data[m * n] = c
        return QSeries._wrap(data)

    def truncate(self, order: int) -> "QSeries":
        """Restriction to a smaller order; raising the order is not possible."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        if order > self.order:
            raise ValueError(
                f"cannot extend to order {order}: coefficients beyond {self.order} are unknown"
            )
        if order == self.order:
            return self
        return QSeries._wrap(list(self._coeffs[: order + 1]))

    # -- serialization (CLI wire format) --------------------------------------

    def to_json_obj(self) -> dict:
        """JSON form: exact coefficient strings 'p' or 'p/q', plus the order."""
        return {
            "order": self.order,
            "coeffs": [str(c) for c in self._coeffs],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "QSeries":
        """Inverse of `to_json_obj`: `order` must be an int and `coeffs` a list of
        order + 1 strings 'p' or 'p/q', q > 0, so none reads as 0 or inexactly."""
        order, coeffs = obj["order"], obj["coeffs"]
        if type(order) is not int:
            raise ValueError(f"order must be an int, got {order!r}")
        if type(coeffs) is not list or not all(type(c) is str and _WIRE_COEFF(c) for c in coeffs):
            raise ValueError("coeffs must be a list of strings 'p' or 'p/q' with q > 0")
        if len(coeffs) != order + 1:
            raise ValueError(f"order {order} needs {order + 1} coefficients, got {len(coeffs)}")
        return cls([Fraction(s) for s in coeffs], order)


_MEMO: contextvars.ContextVar = contextvars.ContextVar("qdiv_memo")


@contextlib.contextmanager
def run_scope():
    """Share the row tables, recurrence chains and eta products built inside
    through one memo, which it yields.  A scope opened inside another uses
    the outer one's memo; a thread that starts with an empty context (the
    default with the GIL) does not see its starter's scope."""
    token = _MEMO.set(memo())
    try:
        yield _MEMO.get()
    finally:
        _MEMO.reset(token)


def memo() -> dict:
    """The current run scope's memo; outside every scope, a fresh dict."""
    return _MEMO.get({})


# -- classical building blocks ------------------------------------------------


def pochhammer_inf(c: Rational, offset: int, step: int, order: int) -> QSeries:
    """Truncated infinite product of factors (1 - c*q^(offset + k*step)), k >= 0.

    Instances: (q;q)_inf = pochhammer_inf(1,1,1,N); (q^2;q^2)_inf = (1,2,2,N);
    (-q;q)_inf = (-1,1,1,N); (q;q^2)_inf = (1,1,2,N).  Factors whose exponent
    exceeds `order` only touch discarded coefficients and are skipped.  Each
    product is built once per order within one run scope.
    """
    if offset < 1:
        raise ValueError("offset must be >= 1 (constant factors are disallowed)")
    if step < 1:
        raise ValueError("step must be a positive integer")
    if order < 0:
        raise ValueError("order must be nonnegative")
    c = _canon(c)
    held, key = memo(), ("pochhammer", c, offset, step, order)
    if key in held:
        return held[key]
    data: list = [0] * (order + 1)
    data[0] = 1
    e = offset
    while e <= order:
        # multiply in place by (1 - c*q^e), high exponents first
        for i in range(order - e, -1, -1):
            v = data[i]
            if v:
                data[i + e] -= c * v
        e += step
    held[key] = QSeries._wrap(data)
    return held[key]


def divisor_sigma(n: int, k: int) -> int:
    """Sum of k-th powers of the divisors of n."""
    if n < 1:
        raise ValueError("divisor_sigma requires n >= 1")
    if k < 0:
        raise ValueError("divisor_sigma requires k >= 0")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
        d += 1
    return total


def sigma_series(k: int, order: int) -> QSeries:
    """sum_{n>=1} sigma_k(n) q^n via a divisor sieve (no constant term)."""
    if k < 0:
        raise ValueError("sigma_series requires k >= 0")
    if order < 0:
        raise ValueError("order must be nonnegative")
    data = [0] * (order + 1)
    for d in range(1, order + 1):
        p = d**k
        for m in range(d, order + 1, d):
            data[m] += p
    return QSeries._wrap(data)


#: q-expansion normalization 2/zeta(1-2k) for the supported weights.
EISENSTEIN_NORMALIZATION = {2: -24, 4: 240, 6: -504}


def eisenstein(weight: int, order: int) -> QSeries:
    """Eisenstein series E2, E4 or E6: 1 + (2/zeta(1-weight)) sum sigma_{weight-1}(n) q^n."""
    try:
        norm = EISENSTEIN_NORMALIZATION[weight]
    except KeyError:
        raise ValueError(f"unsupported Eisenstein weight {weight}; choose 2, 4 or 6")
    return 1 + norm * sigma_series(weight - 1, order)
