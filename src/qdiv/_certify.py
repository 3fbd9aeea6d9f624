"""The A_k certificate: the paper's induction, carried into Q[E2, E4, E6].

`recurrence_polynomials` derives A_0..A_k as polynomials in E2, E4, E6 by
the paper's recurrence and Ramanujan's identities (`RAMANUJAN_D`), with no
linear algebra.  `prove_rows` carries them onto the rows of the defining
sum through the whole order, by the four checks its docstring states;
`certify_rows` adds the suite's report, and `decompose_row` reads A_k's
decomposition from the proof or leaves it to the caller's exact solve.
Only the series checks read the rows, so only they can fail on a row.  The
ring steps read k alone: one that fails is a defect of this module, and
raises ArithmeticError.  A proved polynomial is what `decompose` would
find when the window it solves has full rank; one rule, `basis_ranks`,
decides that: by the constant `K_FULL_RANK`, else by `window_ranks`,
packed modulo `_RANK_PRIME`.

The exact path's rules stay in `quasimodular`: the solve window
`_solve_top`, the column build `_monomial_series` and the report's
fallback `decompose` are read through that module when they run, so the
certificate follows the rules the exact path states.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from typing import Optional

from . import quasimodular
from .macmahon import Family, _direct_table, _recurrence_step
from .quasimodular import (
    NoDecompositionError,
    QMDecomposition,
    QMMonomial,
    _build_columns,
    _first_difference,
    _integer_combination,
    check_basis_size,
    monomial_basis,
)
from .series import QSeries

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
                a, b, c = (f - (j == i) for j, f in enumerate(exps))  # one E_{2i+2} fewer
                for (x, y, z), v in images[i].items():
                    out[a + x, b + y, c + z] += e * coeff * v
    return out


def _integer_images() -> tuple[int, list[dict]]:
    """(s, the images of s*D): s = 12 is the lcm of 4 and the denominators
    of RAMANUJAN_D, so s*D maps each generator to integer coefficients."""
    scale = math.lcm(4, *(c.denominator for image in RAMANUJAN_D for c in image.values()))
    return scale, [{e: int(scale * c) for e, c in image.items()} for image in RAMANUJAN_D]


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
    scale, images = _integer_images()
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


def _numerators(poly: dict) -> tuple[dict, int]:
    """(d * poly, d), d the lcm of the denominators of poly's coefficients."""
    d = math.lcm(*(c.denominator for c in poly.values()))
    return {m: c.numerator * (d // c.denominator) for m, c in poly.items()}, d


def ring_step_holds(polys: list[dict], k: int) -> bool:
    """Whether P_k = polys[k] has weight <= 2k and, in Q[E2, E4, E6],
    (2k+1) 2k P_k = (6 P_1 + k(k-1)) P_{k-1} - 2 D P_{k-1}, with D the
    derivation of RAMANUJAN_D.

    Checked in integers: with e and d the lcms of the denominators of P_1
    and P_{k-1}, s*e*d times the right side is
    (6s*eP_1 + s*e*k(k-1)) dP_{k-1} - 2e (sD)(dP_{k-1}), compared term by
    term with s*e*d*(2k+1)*2k P_k.
    """
    scale, images = _integer_images()
    (p1, e), (prev, d) = _numerators(polys[1]), _numerators(polys[k - 1])
    factor = Counter({m: 6 * scale * v for m, v in p1.items()})
    factor[0, 0, 0] += scale * e * k * (k - 1)
    rhs = _mul(factor, prev)
    rhs.update({m: -2 * e * v for m, v in _q_derivative(prev, images).items()})
    lhs = scale * e * d * (2 * k + 1) * 2 * k
    cur = polys[k]
    return all(
        m.weight <= 2 * k and rhs[m] * c.denominator == lhs * c.numerator
        for m, c in cur.items()
    ) and all(m in cur for m, v in rhs.items() if v)


def _candidate_difference(
    poly: dict, columns: dict, target: QSeries, order: int
) -> Optional[tuple]:
    """`_first_difference` through `order` of the polynomial `poly` in the
    Eisenstein `columns` against `target`, in integers over the lcm of the
    polynomial's denominators."""
    combo = _integer_combination(list(poly.values()), [columns[m] for m in poly], order)
    return _first_difference(*combo, target)


_RANK_PRIME = 2**31 - 1

# Every window of the weight-2k basis with k <= K_FULL_RANK has full rank
# mod _RANK_PRIME, hence over Q.  Once m_k + 4 <= order, that window is
# coefficients 0..m_k + 4 of the basis's m_k monomials (`_solve_top`): a
# fixed integer matrix, the same at every order and for every target.  The
# tests recompute it with `window_ranks` on `_monomial_residues`.  29 is the
# deepest k the basis-size rule accepts at order 2000 (m_29 = 950).
K_FULL_RANK = 29


class Slots:
    """`count` residues mod p = `_RANK_PRIME` packed into fixed slots of one
    int, value i in slot i, and read back.  A slot is wide enough for a sum
    of `terms` products of two residues, below terms * p^2, so adding such
    products never carries into the next slot.

    Both ways move bytes by slices, with no Python call per value: a
    residue is below 2^32, so it is its slot's low 4 bytes, and as
    2^31 = 1 mod p, folding the bits of a slot above bit 31 onto its low
    31 bits keeps it mod p, for every slot at once.
    """

    def __init__(self, count: int, terms: int):
        self.count = count
        self.slot = slot = (2 * _RANK_PRIME.bit_length() + terms.bit_length() + 7) // 8
        self.unit = unit = int.from_bytes((b"\x01" + bytes(slot - 1)) * count, "little")
        self.low = unit * _RANK_PRIME  # bits 0..30 of every slot
        self.high = unit * ((1 << 8 * slot - 31) - 1)  # the rest, shifted down by 31
        self.mask = (1 << 8 * slot * count) - 1
        # fold until every slot is below 2^32, then once more, to at most 2^31
        self.folds, top = 1, (1 << 8 * slot) - 1
        while top >> 32:
            top = _RANK_PRIME + (top >> 31)
            self.folds += 1

    def pack(self, values: list[int]) -> int:
        """sum of v_i * 2^(8*slot*i), for at most `count` residues v_i."""
        data, slot = struct.pack(f"<{len(values)}I", *values), self.slot
        wide = bytearray(slot * len(values))
        for b in range(4):
            wide[b::slot] = data[b::4]
        return int.from_bytes(wide, "little")

    def residues(self, packed: int) -> list[int]:
        """The first `count` slots of `packed`, a nonnegative int, mod p."""
        x = packed & self.mask
        for _ in range(self.folds):
            x = (x & self.low) + (x >> 31 & self.high)
        # each slot s is now at most 2^31 = p + 1; with t = s + 1,
        # (t & p) + (t >> 31) - 1 is s mod p
        x += self.unit
        x = (x & self.low) + (x >> 31 & self.unit) - self.unit
        data, slot = x.to_bytes(self.slot * self.count, "little"), self.slot
        narrow = bytearray(4 * self.count)
        for b in range(4):
            narrow[b::4] = data[b::slot]
        return list(struct.unpack(f"<{self.count}I", narrow))


def _monomial_residues(basis: list[QMMonomial], order: int) -> list[QSeries]:
    """`quasimodular._monomial_series` mod `_RANK_PRIME`: each coefficient
    reduced to 0..p-1, by `_build_columns`.

    A column is held with its packed form, coefficient n in slot n of one
    int (`Slots`), so each product is one int multiplication.  A slot of
    the product sums at most order + 1 products of two residues, so slots
    never carry; the low order + 1 are read back and reduced.
    """
    slots = Slots(order + 1, order + 1)

    def column(residues: list[int]) -> tuple[list[int], int]:
        return residues, slots.pack(residues)

    built = _build_columns(
        basis,
        column([1] + [0] * order),
        lambda w: column([c % _RANK_PRIME for c in quasimodular.eisenstein(w, order).coeffs]),
        lambda parent, g: column(slots.residues(parent[1] * g[1])),
    )
    return [QSeries._wrap(residues) for residues, _ in built]


def window_ranks(columns: list[QSeries], sizes: list[int], order: int) -> list[int]:
    """Rank modulo `_RANK_PRIME` of each solve window `decompose` would use.

    The window of basis size m holds coefficients 0.._solve_top(m, order) of the
    first m of `columns` (integer series, or their residues from
    `_monomial_residues`, in basis order); `sizes` ascend.
    Rank mod p <= rank over Q, so a window of full rank here has exactly no
    free column, as `decompose` would find it.

    One elimination serves every window.  Rows enter by exponent and are
    kept in echelon form, each with its first nonzero column as pivot, so
    after row t the pivots below column m count the rank of rows 0..t on
    the first m columns.  An incoming row is reduced by the kept rows in
    ascending pivot order, which leaves every column left of the current
    pivot final; the row drops those columns as it goes, and stops at the
    first nonzero column that no kept row has as pivot, its own pivot.
    """
    p = _RANK_PRIME
    width = len(columns)
    # A row packs its entries into `Slots`, the column it has reached in
    # slot 0.  Kept rows start at their pivot, hold -entry mod p and -1 at
    # the pivot.  An incoming row starts below p per slot and gains
    # v * kept < p^2 per kept row, with v < p, so its slots stay below
    # (width + 1) * p^2; it is reduced mod p only once.
    slots = Slots(width, width + 1)
    bits, mask = 8 * slots.slot, (1 << 8 * slots.slot) - 1
    pivots: list[int] = []
    kept: list[int] = []
    ranks = []
    entries = zip(*(col.coeffs for col in columns))
    n = 0
    for m in sizes:
        top = quasimodular._solve_top(m, order)
        while n <= top:
            row = slots.pack([v % p for v in next(entries)])
            at = 0
            for pc, neg in zip(pivots, kept):
                while at < pc and not (row & mask) % p:
                    row >>= bits
                    at += 1
                if at < pc:
                    break  # column `at` leads: nonzero, and no kept row's pivot
                v = (row & mask) % p
                if v:
                    row += v * neg
                row >>= bits
                at += 1
            values = slots.residues(row)[: width - at]
            lead = next((j for j, v in enumerate(values) if v), None)
            if lead is not None:
                inv = pow(values[lead], -1, p)
                i = bisect_left(pivots, at + lead)
                pivots.insert(i, at + lead)
                kept.insert(i, slots.pack([-v * inv % p for v in values[lead:]]))
            n += 1
        ranks.append(bisect_left(pivots, m))
    return ranks


def basis_ranks(weight: int, sizes: list[int], order: int) -> list[int]:
    """Rank mod `_RANK_PRIME` of the window `decompose` solves for each
    weight-2j basis of m monomials, m in `sizes` (ascending), 2j <= `weight`.

    K_FULL_RANK decides them, as `sizes`, when weight <= 2 K_FULL_RANK and
    the largest window is not cut at `order`; else `window_ranks` ranks
    them on `_monomial_residues` of the weight-`weight` basis.
    """
    top = quasimodular._solve_top(sizes[-1], order)
    if weight <= 2 * K_FULL_RANK and top == sizes[-1] + 4:
        return sizes
    return window_ranks(_monomial_residues(monomial_basis(weight), top), sizes, order)


def prove_rows(rows: list[QSeries], order: int) -> tuple[list, list]:
    """Prove rows[1..k_max] = A_1..A_{k_max}, each exact through `order`,
    as polynomials in E2, E4, E6 of weight <= 2k: the paper's induction, as
    four exact checks, with D = q d/dq and P_k = `recurrence_polynomials(k_max)[k]`:

    1. Ramanujan's identities D E_w = R_w(E2, E4, E6) from `RAMANUJAN_D`,
       for the w in 2, 4, 6 with w + 2 <= 2k_max (no step below takes D of a
       heavier generator);
    2. P_1, the paper's (1 - E2)/24, against rows[1];
    3. the step (2k+1) 2k A_k = (6 A_1 + k(k-1)) A_{k-1} - 2 D A_{k-1} of
       `gen_recurrence` on the rows, k = 2..k_max;
    4. the same step on the polynomials, in the ring, with P_k of weight
       <= 2k (`ring_step_holds`), k = 2..k_max.  Let S map a polynomial to
       its series through `order`, a ring map.  D S and S D agree on the
       generators by 1, and both are derivations, so they agree on every
       polynomial; with 2 and 3, induction gives S(P_k) = rows[k] through
       the whole order.

    Checks 1-3 run through `order`, the steps before any column is built,
    so their work does not add to the memory the columns hold.  Only the
    columns checks 1 and 2 read (8 at most) are built exactly through
    `order`.  Check 4 reads no row: a step that fails raises
    ArithmeticError naming P_k.  Returns (differences, polys):
    differences[k] is the first failing series check on A_k (1 and 2 for
    k = 1, 3 above) as (exponent, row coefficient, candidate value), a
    step's candidate being its numerator over (2k+1) 2k, or None; polys is
    P_0..P_{k_max}.  S(P_k) = rows[k] through `order` for every k with no
    difference at 1..k.
    """
    k_max = len(rows) - 1
    polys = recurrence_polynomials(k_max)
    steps = (_recurrence_step(Family.A, k, rows[1], rows[k - 1]) for k in range(2, k_max + 1))
    differences = [None, None] + [
        _first_difference(numerator.coeffs, denominator, row)
        for (numerator, denominator), row in zip(steps, rows[2:])
    ]
    weight = min(2 * k_max, 8)
    identities = list(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1))[: weight // 2 - 1], RAMANUJAN_D))
    read = {(0, 0, 0), (1, 0, 0)}.union(*({g, *image} for g, image in identities))
    basis = [m for m in monomial_basis(weight) if m in read]
    columns = dict(zip(basis, quasimodular._monomial_series(basis, order)))
    for g, image in identities:
        derivative = columns[g].q_derivative()
        differences[1] = differences[1] or _candidate_difference(image, columns, derivative, order)
    differences[1] = differences[1] or _candidate_difference(polys[1], columns, rows[1], order)
    columns = derivative = None  # hold no full-order series through the ring steps
    for k in range(2, k_max + 1):
        if not ring_step_holds(polys, k):
            raise ArithmeticError(f"the ring step into P_{k} fails: recurrence_polynomials is wrong")
    return differences, polys


def certify_rows(rows: list[QSeries], order: int) -> tuple[Optional[tuple], dict]:
    """The quasimodular suite's report on `prove_rows`.  Returns
    (difference, details): the first failing series check's (exponent, row
    coefficient, candidate value), k by k, or None, and each A_k certified
    before it with its weight bound, term count and `ambiguous`.
    `ambiguous` is false where the window `decompose` would solve, of the
    weight-2k basis, has full rank by `basis_ranks`, ranked once the
    proof's columns are freed; elsewhere `decompose` decides it.
    """
    differences, polys = prove_rows(rows, order)
    k_max = len(rows) - 1
    sizes = [len(monomial_basis(2 * k)) for k in range(1, k_max + 1)]
    ranks = basis_ranks(2 * k_max, sizes, order)
    details = {}
    for k, difference in enumerate(differences[1:], 1):
        if difference is not None:
            return difference, details
        if ranks[k - 1] == sizes[k - 1]:
            terms, ambiguous = len(polys[k]), False
        else:
            try:
                dec = quasimodular.decompose(rows[k], 2 * k, order, description=f"A_{k}")
            except NoDecompositionError as e:
                return (e.exponent, e.lhs, e.rhs), details
            terms, ambiguous = len(dec.terms), dec.ambiguous
        details[f"A_{k}"] = {"weight_bound": 2 * k, "terms": terms, "ambiguous": ambiguous}
    return None, details


def decompose_row(k: int, weight_bound: int, order: int) -> Optional[QMDecomposition]:
    """`decompose` of A_k, the row k of the defining sum through `order`, at
    `weight_bound`, from `prove_rows` on rows 0..k (feasible by the basis-size
    check), or None for the caller's exact solve.  S(P_k) = A_k through
    `order` when no series check through k fails; if the window `decompose`
    solves at weight_bound >= 2k has full rank too (`basis_ranks`, the one
    window ranked), P_k padded with zeros is its only solution.
    weight_bound < 2k runs no proof.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    check_basis_size(weight_bound, order)
    if weight_bound >= 2 * k:
        differences, polys = prove_rows(_direct_table(Family.A, k, order), order)
        basis = monomial_basis(weight_bound)
        if not any(differences) and basis_ranks(weight_bound, [len(basis)], order) == [len(basis)]:
            terms = {m: polys[k][m] for m in basis if m in polys[k]}
            return QMDecomposition(terms, weight_bound, order, f"A_{k}")
