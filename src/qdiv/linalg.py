"""Incremental fraction-free linear solving over the rationals.

Equations are fed one at a time in a meaningful order (coefficient exponent,
partition index, ...), each scaled to an integer row; elimination uses only
integer cross-multiplication plus gcd normalization, so no floating point and
no intermediate rationals.  Each step `row = p*row - v*prow` first divides
the multipliers p and v by gcd(p, v) (the content reduction of fraction-free
elimination, Bareiss 1968), so an incoming row stays about as wide as the
stored rows instead of gaining the width of every pivot it meets.  Feeding
incrementally makes inconsistency witnesses exact: the first equation that
cannot be satisfied together with its predecessors is reported the moment
it arrives.

Pivot choice is the first nonzero column in the caller's column order, which
keeps solutions reproducible.  Rows are stored in echelon form only and are
never rewritten.  Eliminated against the stored rows in arrival order, an
incoming row ends zero on every pivot column, which makes it, up to scale,
the unique such vector of its coset; stored primitive and sign-fixed, it
does not depend on the gcd step.  `solution()` back-substitutes once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def _integer_row(coeffs: Sequence, rhs) -> list[int]:
    entries = [*coeffs, rhs]
    scale = math.lcm(*(c.denominator for c in entries))
    return [c.numerator * (scale // c.denominator) for c in entries]


def _normalize(row: list[int], lead: int) -> None:
    g = math.gcd(*row)
    if g > 1:
        for i, v in enumerate(row):
            row[i] = v // g
    if 0 <= lead < len(row) and row[lead] < 0:
        for i, v in enumerate(row):
            row[i] = -v


def _eliminate(row: list[int], prow: list[int], col: int) -> list[int]:
    """(p/g)*row - (v/g)*prow with p = prow[col], v = row[col], g = gcd(p, v).

    The result is zero at `col` and is the undivided step p*row - v*prow
    divided by g, so it spans the same line and `_normalize` maps both to
    the same row.
    """
    p, v = prow[col], row[col]
    g = math.gcd(p, v)
    return [(p // g) * a - (v // g) * b for a, b in zip(row, prow)]


class IncrementalSolver:
    """Echelon-form accumulator for an overdetermined exact system."""

    def __init__(self, n_cols: int):
        if n_cols < 0:
            raise ValueError("n_cols must be nonnegative")
        self.n_cols = n_cols
        self._rows: list[list[int]] = []
        self._pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def free_columns(self) -> list[int]:
        taken = set(self._pivot_cols)
        return [j for j in range(self.n_cols) if j not in taken]

    def add_equation(self, coeffs: Sequence, rhs) -> bool:
        """Absorb one equation; False means it is inconsistent (and ignored)."""
        if len(coeffs) != self.n_cols:
            raise ValueError(f"expected {self.n_cols} coefficients, got {len(coeffs)}")
        row = _integer_row(coeffs, rhs)
        for prow, pc in zip(self._rows, self._pivot_cols):
            if row[pc]:
                row = _eliminate(row, prow, pc)
        lead = next((j for j in range(self.n_cols) if row[j]), None)
        if lead is None:
            return row[-1] == 0
        _normalize(row, lead)
        self._rows.append(row)
        self._pivot_cols.append(lead)
        return True

    def solution(self) -> list[Fraction]:
        """Values per column; free columns are pinned to zero.

        Back-substitutes in reverse arrival order: each row is zero on the
        pivots of the rows before it, so its other pivots are solved already.
        """
        values = [Fraction(0)] * self.n_cols
        for row, pc in zip(reversed(self._rows), reversed(self._pivot_cols)):
            rest = sum(a * x for a, x in zip(row, values) if a and x)
            values[pc] = Fraction(row[-1] - rest, row[pc])
        return values
