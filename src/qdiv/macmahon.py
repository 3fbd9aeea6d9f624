"""Generalized sum-of-divisors generating functions and their theta mates.

Two families of weighted partition generating functions are computed here,
selected by `Family`:

  A_k(q) = sum over 0 < m_1 < ... < m_k of q^(m_1+...+m_k) / prod (1-q^(m_i))^2
  C_k(q) = the same with the parts m_i replaced by odd parts 2*m_i - 1

The coefficient of q^n in A_k (resp. C_k) is the sum of s_1*...*s_k over all
ways of writing n = s_1*v_1 + ... + s_k*v_k with strictly increasing part
values v_i of the family's shape and multiplicities s_i >= 1; `oracle_a` and
`oracle_c` compute these counts by exhaustive enumeration and are the ground
truth every series route is checked against.

Three series routes are provided: `gen_direct` (the defining part sum),
`gen_explicit` (theta sum divided by an eta-type product) and
`gen_recurrence` (first-order recurrence in k seeded at k=1).  A_k is the
k-th elementary symmetric function of the series q^v/(1-q^v)^2 over the
parts v, and `gen_direct`'s rows come from one of two builders, chosen by
a size rule in `_direct_rows`: a DP that adds one part at a time
(`_dp_rows`), or Newton's identities over power sums read from a divisor
sieve (`_newton.rows`).  Neither calls the series kernels through which the
other two routes multiply.  The bivariate
generating functions built from rescaled Chebyshev polynomials,

  F(x,q) = sum_{n>=0} P_{2n+1}(x) q^(n^2+n)
  G(x,q) = 1 + sum_{n>=1} P_{2n}(x) q^(n^2),     P_n(x) = 2*T_n(x/2),

tie the two families to the Jacobi triple product and are exposed as
`theta_f` / `theta_g` for the identity-verification suites.
"""

from __future__ import annotations

import enum
import functools
import math
from itertools import accumulate
from operator import add, truediv
from typing import Literal, Sequence

from .series import QSeries, memo, pochhammer_inf


class Family(enum.Enum):
    """Selector between the two generating-function families."""

    A = "A"  # parts are arbitrary strictly increasing positive integers
    C = "C"  # parts are strictly increasing odd positive integers

    @property
    def step(self) -> int:
        """Gap between consecutive part values, 1 for A and 2 for C: the
        part of index i >= 1 is step*(i - 1) + 1."""
        return 1 if self is Family.A else 2


# -- exhaustive partition oracles ----------------------------------------------


def _min_tail(step: int, j: int, m: int) -> int:
    """Least possible sum of j parts with indices strictly above m, the part
    of index i being step*(i - 1) + 1."""
    return step * (j * m + j * (j + 1) // 2) - (step - 1) * j


@functools.lru_cache(maxsize=1 << 17)
def _count(step: int, rem: int, j: int, m_prev: int) -> int:
    """Weighted count of j-part representations of rem, j >= 1, with part
    indices above m_prev, the part of index i being step*(i - 1) + 1.

    Keyed on plain ints (`Family.step`), so a memo lookup hashes no enum.
    One part v > the part of index m_prev counts rem // v when it divides
    rem; for more parts the multiplicities of the smallest part are walked
    by subtracting it.  Depends on neither the target n nor k, so one cache
    serves every oracle call of a family; it is bounded because
    `--allow-slow` tables may reach states far beyond the few thousand of a
    verify run.  Unlike the series memos it lives for the process and not
    in a run scope: it holds only ints, its key holds neither the order nor
    k, and a scope's dict would have to be threaded through the recursion
    for no measured gain.
    """
    v = step * m_prev + 1  # the part of index m_prev + 1
    if j == 1:
        return sum(rem // u for u in range(v, rem + 1, step) if not rem % u)
    total = 0
    m = m_prev + 1
    tail = _min_tail(step, j - 1, m)
    while v + tail <= rem:
        s, r = 1, rem - v
        while r >= tail:
            sub = _count(step, r, j - 1, m)
            if sub:
                total += s * sub
            s += 1
            r -= v
        m += 1
        v += step
        tail += step * (j - 1)
    return total


def _oracle(n: int, k: int, family: Family) -> int:
    if n < 1 or k < 1:
        raise ValueError("oracle requires n >= 1 and k >= 1")
    return _count(family.step, n, k, 0)


def oracle_a(n: int, k: int) -> int:
    """Sum of s_1*...*s_k over n = s_1*m_1+...+s_k*m_k, 0 < m_1 < ... < m_k."""
    return _oracle(n, k, Family.A)


def oracle_c(n: int, k: int) -> int:
    """As oracle_a with odd parts: n = s_1*(2m_1-1)+...+s_k*(2m_k-1)."""
    return _oracle(n, k, Family.C)


# -- the three series routes ----------------------------------------------------


def _feasible_rows(family: Family, order: int) -> int:
    """Largest j whose least part sum (j(j+1)/2 for A, j^2 for C) is <= order."""
    j = 0
    while _min_tail(family.step, j + 1, 0) <= order:
        j += 1
    return j


def _add_part(dst: list, src: list, lo: int, v: int, order: int) -> None:
    """dst += q^v * src / (1-q^v)^2 in place, for int lists vanishing below lo.

    The shifted copy t of src is divided by (1-q^v) twice as two running sums
    of stride v.  When the stride is short (v*v <= len(t)), each residue
    class t[r::v] is summed twice by one `accumulate` call each; otherwise
    the few long strides are swept one block of v coefficients at a time.
    """
    t = src[lo : order + 1 - v]
    n = len(t)
    if v * v <= n:
        for r in range(v):
            t[r::v] = accumulate(accumulate(t[r::v]))
    else:
        for _ in range(2):
            for b in range(v, n, v):
                t[b : b + v] = map(add, t[b : b + v], t[b - v : b])
    start = lo + v
    dst[start:] = map(add, dst[start:], t)


def _direct_rows(family: Family, k: int, order: int) -> tuple:
    """Rows 0..k of the defining sum, from the builder the size rule picks.

    Both builders give the same exact rows.  `_newton.rows` is taken when
    k >= 2 and step*3*k**3 <= order (step 1 for A, 2 for C), else `_dp_rows`.
    Newton's cost is about k^2/2 int products whose slot width grows with
    k; the DP's part sweeps grow with order^2.  The rule was fitted on three
    runs of a cold in-process grid, k 2..12 and orders 100..2000 for both
    families (2-core x86_64 VM, CPython 3.11).  DP against Newton took
    0.24-0.47 against 0.04-0.07 s at (A, 4, 2000), 0.17-0.18 against
    0.04-0.06 s at (C, 4, 2000) and 0.023-0.034 against 0.06-0.10 s at
    (A, 12, 400); Newton lost at every order for k >= 10 in A and k >= 8 in
    C.  3 is the least integer factor with which the rule takes Newton at
    no grid point where it was slower, but for a tie under 0.5 ms at
    (C, 2, 100); with 2 it would also take (A, 9, 1600) and (C, 7, 1600).
    """
    if k >= 2 and family.step * 3 * k**3 <= order:
        from . import _newton  # about 2 ms of import, paid only by a run that takes it

        return tuple(map(QSeries._wrap, _newton.rows(family.step, k, order)))
    return _dp_rows(family, k, order)


def _dp_rows(family: Family, k: int, order: int) -> tuple:
    """Rows 0..k of the defining sum, built on int lists in one pass over the parts.

    Part values are taken in descending order, so when v is added row j-1
    holds the sum over (j-1)-tuples of strictly larger parts, and row j gains
    q^v/(1-q^v)^2 times it.  lo[j] is the least exponent where row j can be
    nonzero; coefficients below lo[j-1] + v are never touched.
    """
    rows = [[1] + [0] * order] + [[0] * (order + 1) for _ in range(k)]
    lo = [0] + [order + 1] * k
    values = range(order, 0, -1) if family is Family.A else range(
        order if order % 2 else order - 1, 0, -2
    )
    for v in values:
        for j in range(k, 1, -1):
            start = lo[j - 1] + v
            if start <= order:
                _add_part(rows[j], rows[j - 1], lo[j - 1], v, order)
                lo[j] = start
        if k:  # row 1 is the Lambert series sum_v sum_s s q^(s*v)
            row = rows[1]
            for s, e in enumerate(range(v, order + 1, v), 1):
                row[e] += s
            lo[1] = v
    return tuple(QSeries._wrap(row) for row in rows)


def _direct_table(family: Family, k: int, order: int) -> tuple:
    """Immutable rows of the defining sum for (family, order), shared within
    one run scope.

    Returns exactly rows 0..k, capped at the last feasible row: the one
    place that decides which rows can be nonzero.  The held table may hold
    more rows, left by an earlier call with a larger k.  A request for more
    rows than the held table has truncates a held table of the family at a
    larger order with enough rows, else rebuilds it.  So the theorem and
    quasimodular suites read all their rows in one call, theorem-f's
    half-order rows come from the agreement suite's table, and the per-k
    agreement loop asks for its largest k first.
    """
    held = memo()
    want = min(k, _feasible_rows(family, order))
    rows = held.get(("rows", family, order))
    if rows is None or len(rows) <= want:
        larger = [
            table for key, table in held.items()
            if key[:2] == ("rows", family) and key[2] > order and len(table) > want
        ]
        rows = (
            tuple(row.truncate(order) for row in larger[-1][: want + 1])
            if larger else _direct_rows(family, want, order)
        )
        held["rows", family, order] = rows
    return rows[: want + 1]


def gen_direct(family: Family, k: int, order: int) -> QSeries:
    """The defining sum over strictly increasing k-tuples of parts.

    Read from the shared table built by `_direct_rows`, which takes the
    part-by-part DP or Newton's identities by a size rule on (family, k,
    order); past the last feasible row the answer is the zero series, with
    no row built.  k = 0 is the empty product, i.e. the constant series 1.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if k > _feasible_rows(family, order):
        return QSeries.zero(order)
    return _direct_table(family, k, order)[k]


def gen_explicit(family: Family, k: int, order: int) -> QSeries:
    """Closed form: a theta sum of Chebyshev coefficients times an eta-type prefactor.

    Family A:  sum_{n>=k} cheb_coeff_closed(n, k, "odd")  q^(n(n+1)/2) / (q;q)_inf^3
    Family C:  sum_{n>=k} cheb_coeff_closed(n, k, "even") q^(n^2) * (-q;q)_inf/(q;q)_inf

    The theta coefficient is that of x^(2k+1) in P_{2n+1} (of x^(2k) in
    P_{2n}), an integer that vanishes for n < k, so the sum starts at n = k
    and everything is integer arithmetic; only exponents <= order are
    generated.  When n = k is already past the order, the answer is the zero
    series.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    odd = family is Family.A
    data = [0] * (order + 1)
    n = k
    while (e := n * (n + 1) // 2 if odd else n * n) <= order:
        data[e] = cheb_coeff_closed(n, k, "odd" if odd else "even")
        n += 1
    if n == k:
        return QSeries.zero(order)
    return QSeries(data, order) * _explicit_prefactor(family, order)


def _explicit_prefactor(family: Family, order: int) -> QSeries:
    """The k-independent eta-type factor of `gen_explicit`, built once per
    (family, order) within one run scope.

    (q;q)_inf^-3 for A, (-q;q)_inf/(q;q)_inf for C.  C's factor is the
    inverse of `_eta_quotient`, a lacunary series, so the inversion is cheap.
    """
    held, key = memo(), ("prefactor", family, order)
    if key not in held:
        if family is Family.A:
            held[key] = (pochhammer_inf(1, 1, 1, order) ** 3).inverse()
        else:
            held[key] = _eta_quotient(order).inverse()
    return held[key]


def _eta_quotient(order: int) -> QSeries:
    """(q;q)_inf/(-q;q)_inf = 1 + 2 sum_{n>=1} (-1)^n q^(n^2), built once per
    order within one run scope: theorem-g's prefactor and the inverse of C's
    factor in `gen_explicit`.

    Built as (q;q)_inf^2/(q^2;q^2)_inf from the shared eta products, since
    1 + q^e = (1 - q^2e)/(1 - q^e); (-q;q)_inf itself is never built.
    """
    held, key = memo(), ("eta_quotient", order)
    if key not in held:
        held[key] = pochhammer_inf(1, 1, 1, order) ** 2 * pochhammer_inf(1, 2, 2, order).inverse()
    return held[key]


def gen_recurrence(family: Family, k: int, order: int) -> QSeries:
    """Recurrence route, seeded at k = 1 by gen_direct.

    A_k = [ (6*A_1 + k(k-1)) A_{k-1} - 2 q d/dq A_{k-1} ] / ((2k+1) 2k)
    C_k = [ (2*C_1 + (k-1)^2) C_{k-1} - q d/dq C_{k-1} ] / (2k (2k-1))

    The k = 1 instance of each relation is an identity in the seed rather
    than a constructor, so k = 1 returns the seed unchanged.  Zero is a
    fixed point of the recurrence, so past the last feasible row the answer
    is the zero series at once; within it no A_j (C_j) vanishes.

    The chain of rows 1..k of each (family, order) is built once within one
    run scope, from that scope's row 1, and extended when a larger k is
    asked for.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > _feasible_rows(family, order):
        return QSeries.zero(order)
    seed = gen_direct(family, 1, order)
    chain = memo().setdefault(("chain", family, order), [seed])
    while len(chain) < k:
        chain.append(truediv(*_recurrence_step(family, len(chain) + 1, seed, chain[-1])))
    return chain[k - 1]


def _recurrence_step(family: Family, k: int, seed: QSeries, prev: QSeries) -> tuple:
    """(numerator, denominator) of `gen_recurrence`'s step from row k-1 (`prev`)
    to row k, with `seed` the row k = 1; row k is their quotient."""
    if family is Family.A:
        return (6 * seed + k * (k - 1)) * prev - 2 * prev.q_derivative(), (2 * k + 1) * 2 * k
    return (2 * seed + (k - 1) ** 2) * prev - prev.q_derivative(), 2 * k * (2 * k - 1)


# -- rescaled Chebyshev polynomials ---------------------------------------------


class IntPolynomial:
    """Integer-coefficient polynomial, coefficients indexed by degree."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        data = list(coeffs)
        for c in data:
            if not isinstance(c, int):
                raise TypeError("IntPolynomial coefficients must be ints")
        while data and data[-1] == 0:
            data.pop()
        self._coeffs: tuple = tuple(data)

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._coeffs) - 1

    def coefficient(self, d: int) -> int:
        if d < 0:
            raise ValueError("degree must be nonnegative")
        return self._coeffs[d] if d < len(self._coeffs) else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "IntPolynomial[0]"
        terms = []
        for d in range(self.degree, -1, -1):
            c = self._coeffs[d]
            if c:
                terms.append(f"{c}*x^{d}" if d else f"{c}")
        return "IntPolynomial[" + " + ".join(terms) + "]"


def cheb_rescaled(n: int) -> IntPolynomial:
    """P_n(x) = 2*T_n(x/2): P_0 = 2, P_1 = x, P_n = x*P_{n-1} - P_{n-2}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return IntPolynomial([2])
    prev, cur = [2], [0, 1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return IntPolynomial(cur)


def cheb_coeff_closed(n: int, k: int, parity: Literal["even", "odd"]) -> int:
    """Closed form for one coefficient of a rescaled Chebyshev polynomial.

    parity 'even': coefficient of x^(2k) in P_{2n} is
        (-1)^(n-k) * 2n * (n+k-1)! / ((n-k)! (2k)!),  n >= 1.
    parity 'odd':  coefficient of x^(2k+1) in P_{2n+1} is
        (-1)^(n-k) * (2n+1) * (n+k)! / ((n-k)! (2k+1)!),  n >= 0.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if k < 0 or k > n:
        raise ValueError("k must satisfy 0 <= k <= n")
    if parity == "even":
        if n < 1:
            raise ValueError("even parity requires n >= 1")
        num = 2 * n * math.factorial(n + k - 1)
        den = math.factorial(n - k) * math.factorial(2 * k)
    else:
        num = (2 * n + 1) * math.factorial(n + k)
        den = math.factorial(n - k) * math.factorial(2 * k + 1)
    value, rem = divmod(num, den)
    assert rem == 0  # the ratio is a polynomial coefficient, hence integral
    return -value if (n - k) & 1 else value


# -- bivariate theta series -------------------------------------------------------


class BivarSeries:
    """Polynomial in x whose coefficients are QSeries sharing one q-order."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Sequence[QSeries]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("BivarSeries needs at least the x^0 entry")
        order = entries[0].order
        for e in entries:
            if e.order != order:
                raise ValueError("all x-entries must share the same q-order")
        self._entries = entries

    @property
    def x_degree_bound(self) -> int:
        return len(self._entries) - 1

    @property
    def q_order(self) -> int:
        return self._entries[0].order

    def entry(self, d: int) -> QSeries:
        """The QSeries coefficient of x^d."""
        if not 0 <= d <= self.x_degree_bound:
            raise ValueError(f"x-degree {d} outside 0..{self.x_degree_bound}")
        return self._entries[d]

    @property
    def entries(self) -> tuple:
        return self._entries

    def nonzero_degrees(self) -> list[int]:
        return [d for d, e in enumerate(self._entries) if not e.is_zero]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarSeries):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return (
            f"BivarSeries[x_degree_bound={self.x_degree_bound}, "
            f"q_order={self.q_order}, nonzero x-degrees={self.nonzero_degrees()}]"
        )


def _theta(odd: int, x_degree_bound: int, q_order: int) -> BivarSeries:
    """sum_n P_{2n+odd}(x) q^(n^2+odd*n), x-degrees above the bound dropped.

    odd = 1 is F, summed from n = 0; odd = 0 is G, summed from n = 1 with
    constant term 1.  Only x-degrees of the parity of `odd` are populated.
    Past x-degree 2*sqrt(q_order) + 1 no term reaches, so rows are built
    only for degrees that get a term, and every other degree holds one
    shared zero series: the cost follows q_order, not x_degree_bound.
    """
    rows: dict = {}
    if not odd:
        rows[0] = [1] + [0] * q_order
    n = 1 - odd
    while (e := n * (n + odd)) <= q_order:
        poly = cheb_rescaled(2 * n + odd)
        for d in range(odd, min(x_degree_bound, poly.degree) + 1, 2):
            c = poly.coefficient(d)
            if c:
                rows.setdefault(d, [0] * (q_order + 1))[e] += c
        n += 1
    zero = QSeries.zero(q_order)
    return BivarSeries(
        [QSeries(rows[d], q_order) if d in rows else zero for d in range(x_degree_bound + 1)]
    )


def theta_f(x_degree_bound: int, q_order: int) -> BivarSeries:
    """F(x,q) = sum_{n>=0} P_{2n+1}(x) q^(n^2+n), x-degrees above the bound dropped.

    Only odd x-degrees are populated.
    """
    return _theta(1, x_degree_bound, q_order)


def theta_g(x_degree_bound: int, q_order: int) -> BivarSeries:
    """G(x,q) = 1 + sum_{n>=1} P_{2n}(x) q^(n^2), x-degrees above the bound dropped.

    Only even x-degrees are populated.
    """
    return _theta(0, x_degree_bound, q_order)
