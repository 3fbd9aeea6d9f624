"""The parts of the A_k certificate that only `quasimodular.certify_rows`,
`quasimodular.window_ranks` and `qdiv decompose` run: the ring check of the
paper's recurrence, the rule that ranks a basis's solve windows
(`basis_ranks`: decided once by `K_FULL_RANK`, else ranked with packed
arithmetic modulo `_RANK_PRIME`), and `decompose_row`, which reads A_k's
decomposition from the polynomials `certify_rows` proves.  They import
this module when they first run, so a command that certifies nothing,
such as `coeffs`, never compiles it.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from collections import Counter

from .macmahon import Family, _direct_table, gen_direct
from .quasimodular import (
    _RANK_PRIME,
    QMDecomposition,
    _integer_images,
    _monomial_residues,
    _mul,
    _q_derivative,
    _solve_top,
    certify_rows,
    check_basis_size,
    decompose,
    monomial_basis,
    window_ranks,
)

# Every window of the weight-2k basis with k <= K_FULL_RANK has full rank
# mod _RANK_PRIME, hence over Q.  Once m_k + 4 <= order, that window is
# coefficients 0..m_k + 4 of the basis's m_k monomials (`_solve_top`): a
# fixed integer matrix, the same at every order and for every target.  The
# tests recompute it with `window_ranks` on `_monomial_residues`.  29 is the
# deepest k the basis-size rule accepts at order 2000 (m_29 = 950).
K_FULL_RANK = 29


def basis_ranks(weight: int, sizes: list[int], order: int) -> list[int]:
    """Rank mod `_RANK_PRIME` of the window `decompose` solves for each
    weight-2j basis of m monomials, m in `sizes` (ascending), 2j <= `weight`.

    K_FULL_RANK decides them, as `sizes`, when weight <= 2 K_FULL_RANK and
    the largest window is not cut at `order`; else `window_ranks` ranks
    them on `_monomial_residues` of the weight-`weight` basis.
    """
    top = _solve_top(sizes[-1], order)
    if weight <= 2 * K_FULL_RANK and top == sizes[-1] + 4:
        return sizes
    return window_ranks(_monomial_residues(monomial_basis(weight), top), sizes, order)


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


def nested_ranks(columns: list, windows: list[tuple[int, int]]) -> list[int]:
    """Rank mod `_RANK_PRIME` of each window (m, top): coefficients 0..top
    of the first m of `columns`, with m and top ascending.

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
    for m, top in windows:
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


def decompose_row(k: int, weight_bound: int, order: int, solve=decompose) -> QMDecomposition:
    """`decompose` of A_k, the row k of the defining sum through `order`, at
    `weight_bound`, with `solve` (`decompose` or a wrapper of it) for what
    the certificate does not decide.

    For weight_bound >= 2k, `certify_rows` on rows 0..k proves S(P_k) = A_k
    through `order` when P_k is among the polynomials it returns as proved.
    When the window `decompose` solves at weight_bound also has full rank
    (`basis_ranks`), P_k, padded with zeros, solves that window as its only
    solution: it is what `decompose` finds, with no free column, and its
    check through `order` holds.  Every other case goes to `solve`,
    including weight_bound < 2k, where `decompose` finds no solution.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    check_basis_size(weight_bound, order)
    if weight_bound >= 2 * k:
        rows = _direct_table(Family.A, k, order)  # the basis-size check leaves row k feasible
        proved = certify_rows(rows, order)[2]
        basis = monomial_basis(weight_bound)
        if k < len(proved) and basis_ranks(weight_bound, [len(basis)], order) == [len(basis)]:
            return QMDecomposition(
                terms={m: proved[k][m] for m in basis if m in proved[k]},
                weight_bound=weight_bound,
                verified_order=order,
                target_description=f"A_{k}",
            )
    return solve(gen_direct(Family.A, k, order), weight_bound, order, f"A_{k}")
