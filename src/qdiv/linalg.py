"""Incremental fraction-free linear solving over the rationals.

Equations are fed one at a time in a meaningful order (coefficient exponent,
partition index, ...), each scaled to an integer row; elimination uses only
integer cross-multiplication plus gcd normalization, so no floating point and
no intermediate rationals.  Each step `row = p*row - v*prow` first divides
the multipliers p and v by gcd(p, v) (the content reduction of fraction-free
elimination, Bareiss 1968), so an incoming row stays about as wide as the
stored rows instead of gaining the width of every pivot it meets.  The
stored rows do not depend on it: a primitive, sign-fixed row in reduced
echelon form is unique.  Feeding incrementally makes inconsistency
witnesses exact: the first equation that cannot be satisfied together with
its predecessors is reported the moment it arrives.

Pivot choice is the first nonzero column in the caller's column order, which
keeps solutions reproducible; reduced rows are kept in full reduced echelon
form so extraction is direct.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def _integer_row(coeffs: Sequence, rhs) -> list[int]:
    scale = 1
    for c in coeffs:
        scale = math.lcm(scale, c.denominator)
    scale = math.lcm(scale, rhs.denominator)
    row = []
    for c in coeffs:
        v = c * scale
        row.append(v if isinstance(v, int) else v.numerator)
    v = rhs * scale
    row.append(v if isinstance(v, int) else v.numerator)
    return row


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
    """Reduced-echelon accumulator for an overdetermined exact system."""

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
        # keep full reduced form: clear the new pivot column everywhere above
        for i, prow in enumerate(self._rows):
            if prow[lead]:
                updated = _eliminate(prow, row, lead)
                _normalize(updated, self._pivot_cols[i])
                self._rows[i] = updated
        self._rows.append(row)
        self._pivot_cols.append(lead)
        return True

    def solution(self) -> list[Fraction]:
        """Values per column; free columns are pinned to zero."""
        values = [Fraction(0)] * self.n_cols
        for row, pc in zip(self._rows, self._pivot_cols):
            values[pc] = Fraction(row[-1], row[pc])
        return values
