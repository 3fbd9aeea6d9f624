"""Rows of MacMahon's defining sum by Newton's identities.

A_k (C_k) is the k-th elementary symmetric function of the series
q^v/(1-q^v)^2 over the parts v (the odd parts for C).  `rows` builds rows
0..k from the power sums of those series, read from a divisor sieve, with
big-int products of packed unsigned coefficients.  It works on int lists
alone and calls none of the series kernels through which `gen_explicit`
and `gen_recurrence` multiply; `macmahon._direct_rows` decides when it is
used.
"""

from __future__ import annotations

import math
from operator import add
from typing import NamedTuple


def rows(step: int, k: int, order: int) -> list:
    """Rows 0..k of the defining sum by Newton's identities.

    Row j is the j-th elementary symmetric function e_j of the series
    f_v = q^v/(1-q^v)^2 over the parts v.  With the power sums
    p_i = sum_v f_v^i from `_power_sum`, and e_0 = 1,

        j*e_j = sum_{i=1..j} (-1)^(i-1) e_{j-i} p_i,

    all with nonnegative coefficients.  e_0..e_{k-1} and p_1..p_k are kept
    only `_Packed`, and `_signed_sum` takes each row's sum with one int
    multiply per term: about k^2/2 for the table.  The packed j*e_j is
    divided by j once.  j divides every one of its coefficients exactly
    when the remainder is 0 and j times each slot of the quotient still
    fits a slot (the digits of j*quotient are then those of j*e_j); both
    are checked.
    """
    n = order + 1
    table = [[1] + [0] * order]
    elementary = [_pack([1])]  # e_0 = 1, e_1, e_2, ...
    powers: list = []  # p_1, p_2, ...
    for j in range(1, k + 1):
        powers.append(_pack(_power_sum(step, j, order)))
        pairs = [(elementary[j - i], powers[i - 1]) for i in range(1, j + 1)]
        total, width = _signed_sum(pairs, n)
        quotient, rem = divmod(total, j)
        digits = quotient.to_bytes(width * n, "little")
        row = [
            int.from_bytes(digits[at : at + width], "little") for at in range(0, len(digits), width)
        ]
        top = max(row)
        assert rem == 0 and j * top < 1 << 8 * width  # Newton's identity: j divides j*e_j
        table.append(row)
        if j < k:  # e_k takes part in no product
            elementary.append(_Packed(digits, width, top))
    return table


def _signed_sum(pairs: list, n: int) -> tuple:
    """(total, width): the first n coefficients of sum_i (-1)^(i-1) e*p over
    the `_Packed` (e, p) of `pairs`, numbered from i = 1, packed into the
    int total at `width` bytes a slot.  They must be nonnegative.

    Each coefficient of the sum is at most n * sum max(e) * max(p) over the
    terms of sign +, and the slot width of `width` bytes holds that and
    every operand.  Each operand is widened to it and each product is one
    int multiply.  The sum is read modulo 2^(8*width*n), so its first n
    slots are its first n coefficients whatever the other slots hold.
    """
    bound = n * sum(e.top * p.top for e, p in pairs[::2])
    width = max(bound.bit_length() // 8 + 1, *(max(e.width, p.width) for e, p in pairs))
    total = 0
    for i, (e, p) in enumerate(pairs, 1):
        product = _widen(e, width) * _widen(p, width)
        if i & 1:
            total += product
        else:
            total -= product
    return total & ((1 << 8 * width * n) - 1), width


def _power_sum(step: int, i: int, order: int) -> list:
    """p_i = sum_v q^(i*v)/(1-q^v)^(2i) through q^order, v over the parts.

    Its q^n coefficient is sum over v*s = n, s >= i, of C(s+i-1, 2i-1): one
    slice per part v adds the binomials from s = i on at the exponents s*v.
    """
    row = [0] * (order + 1)
    binom = [0] * i + [math.comb(s + i - 1, 2 * i - 1) for s in range(i, order + 1)]
    for v in range(1, order // i + 1, step):
        row[i * v :: v] = map(add, row[i * v :: v], binom[i : order // v + 1])
    return row


class _Packed(NamedTuple):
    """A list of nonnegative ints, each as `width` little-endian bytes of
    `digits`, and the largest of them, `top`."""

    digits: bytes
    width: int
    top: int


def _pack(coeffs: list) -> _Packed:
    """`coeffs` packed at the least width that holds the largest."""
    top = max(coeffs)
    width = top.bit_length() // 8 + 1
    return _Packed(b"".join([c.to_bytes(width, "little") for c in coeffs]), width, top)


def _widen(packed: _Packed, width: int) -> int:
    """sum_i c_i * 2^(8*width*i) over the packed coefficients c_i, for a
    width no less than theirs: one slice per byte plane."""
    digits, old, _ = packed
    if old == width:
        return int.from_bytes(digits, "little")
    wide = bytearray(len(digits) // old * width)
    for b in range(old):
        wide[b::width] = digits[b::old]
    return int.from_bytes(wide, "little")
