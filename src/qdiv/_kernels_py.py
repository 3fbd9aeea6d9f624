"""Kernels for truncated series arithmetic on plain coefficient lists.

Coefficients are exact: int or fractions.Fraction.  `conv_trunc` takes one
of three paths:

- lists holding a Fraction take the schoolbook loop `conv_schoolbook`, which
  is also the reference the tests compare the int paths against;
- int lists where one operand has few nonzero terms (a theta sum, an eta
  product, the series 1) take the sparse path: one C-level shift-and-add
  of the other operand per nonzero term;
- all other int lists are multiplied by Kronecker substitution, so the work
  is one CPython bigint multiply.

The switch between the two int paths is one rule on the operands, stated
at `conv_trunc`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import add


def conv_trunc(a: list, b: list, order: int) -> list:
    """Coefficients of a*b through q^order.

    Int inputs are multiplied by Kronecker substitution: each list is packed
    into one integer with a slot of `nbytes` bytes per coefficient, wide
    enough for any coefficient of the product plus a sign bit; the two
    integers are multiplied once and the slots of the product are read back
    as the coefficients.  When the operand with fewer nonzero terms has nnz
    of them and the other has length m, the sparse path instead adds
    c * (the other operand) at each nonzero term c, nnz shift-and-adds of m
    coefficients.  It is taken when nnz * m <= nbytes * (len(a) + len(b)),
    i.e. when it touches no more coefficients than the Kronecker path packs
    bytes.  Fitted on the products of `verify --suite all`: it sends theta
    sums times eta quotients and products with the series 1 to the sparse
    path, and theorem-f's and theorem-g's prefactor times a row of small
    coefficients, the Eisenstein columns and the recurrence steps to the
    Kronecker path.
    """
    n_out = order + 1
    a, b = a[:n_out], b[:n_out]
    if not set(map(type, a)) | set(map(type, b)) <= {int}:
        return conv_schoolbook(a, b, order)
    bound = max(map(abs, a), default=0) * max(map(abs, b), default=0) * min(len(a), len(b))
    if not bound:  # a zero operand: slots sized by the bound would not hold the other one
        return [0] * n_out
    nbytes = bound.bit_length() // 8 + 1
    nnz_a, nnz_b = len(a) - a.count(0), len(b) - b.count(0)
    sparse, dense = (a, b) if nnz_a <= nnz_b else (b, a)
    if min(nnz_a, nnz_b) * len(dense) <= nbytes * (len(a) + len(b)):
        return _conv_sparse(sparse, dense, n_out)
    width = 8 * nbytes
    product = _pack(a, nbytes) * _pack(b, nbytes)
    # Every slot of the product lies in (-2^(width-1), 2^(width-1)); adding
    # 2^(width-1) to each makes them the unsigned digits of the sum, with no
    # borrow between slots.
    half = 1 << (width - 1)
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * n_out, "little")
    digits = ((product + bias) & ((1 << width * n_out) - 1)).to_bytes(nbytes * n_out, "little")
    return [
        int.from_bytes(digits[i : i + nbytes], "little") - half
        for i in range(0, nbytes * n_out, nbytes)
    ]


def _conv_sparse(sparse: list, dense: list, n_out: int) -> list:
    """sparse*dense through n_out coefficients, for int lists no longer than
    n_out: dense scaled by each nonzero sparse[i] and added in at offset i.
    Each slice assignment replaces exactly the slice it reads, so a dense
    operand shorter than n_out - i leaves the output's length as it is."""
    out = [0] * n_out
    m = len(dense)
    for i in compress(range(len(sparse)), sparse):
        out[i : i + m] = map(add, out[i : i + m], map(sparse[i].__mul__, dense))
    return out


def _pack(coeffs: list, nbytes: int) -> int:
    """sum of c_i * 2^(8*nbytes*i) for ints with |c_i| < 2^(8*nbytes - 1).

    The two's-complement slots read as one unsigned integer overstate each
    negative c_i by 2^(8*nbytes), i.e. by one unit of the next slot; the
    packed borrow mask takes that back.
    """
    packed = b"".join([c.to_bytes(nbytes, "little", signed=True) for c in coeffs])
    borrow = bytearray(len(packed))
    borrow[::nbytes] = bytes(map((0).__gt__, coeffs))
    return int.from_bytes(packed, "little") - (int.from_bytes(borrow, "little") << (8 * nbytes))


def conv_schoolbook(a: list, b: list, order: int) -> list:
    """Coefficients of a*b through q^order (schoolbook, zero-skipping)."""
    n_out = order + 1
    out = [0] * n_out
    if len(a) > n_out:
        a = a[:n_out]
    for i, ai in enumerate(a):
        if not ai:
            continue
        jmax = min(len(b), n_out - i)
        for j in range(jmax):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def inverse_trunc(a: list, order: int) -> list:
    """Coefficients of 1/a through q^order; a[0] must be nonzero.

    Each step sums over the nonzero terms a_i, i >= 1, only, so the cost is
    O(order * nnz): the eta products inverted here are sparse.
    """
    a0 = a[0]
    recip = a0 if a0 in (1, -1) else 1 / Fraction(a0)  # a unit keeps int input int
    n_out = order + 1
    out = [0] * n_out
    out[0] = recip
    support = [(i, ai) for i, ai in enumerate(a[1:n_out], 1) if ai]
    for m in range(1, n_out):
        acc = 0
        for i, ai in support:
            if i > m:
                break
            acc += ai * out[m - i]
        if acc:
            out[m] = -acc * recip
    return out
