"""Exact incremental solver tests."""

import math
import random
from fractions import Fraction

import pytest

from qdiv.linalg import IncrementalSolver


def test_unique_solution():
    solver = IncrementalSolver(2)
    assert solver.add_equation([1, 1], 3)
    assert solver.add_equation([1, -1], 1)
    assert solver.solution() == [Fraction(2), Fraction(1)]
    assert solver.free_columns() == []
    assert solver.rank == 2


def test_rational_rows_are_cleared_to_integers():
    solver = IncrementalSolver(2)
    assert solver.add_equation([Fraction(1, 2), Fraction(1, 3)], Fraction(5, 6))
    assert solver.add_equation([Fraction(1, 4), 0], Fraction(1, 4))
    assert solver.solution() == [Fraction(1), Fraction(1)]


def test_redundant_equation_absorbed():
    solver = IncrementalSolver(2)
    assert solver.add_equation([1, 2], 5)
    assert solver.add_equation([2, 4], 10)  # scalar multiple, no new pivot
    assert solver.rank == 1
    assert solver.free_columns() == [1]
    # free column pinned to zero
    assert solver.solution() == [Fraction(5), Fraction(0)]


def test_inconsistency_detected_on_arrival():
    solver = IncrementalSolver(2)
    assert solver.add_equation([1, 1], 1)
    assert solver.add_equation([2, 2], 2)
    assert not solver.add_equation([1, 1], 3)
    # solver state is unchanged by the rejected row
    assert solver.rank == 1
    assert solver.add_equation([0, 1], 4)


def test_zero_row_consistency():
    solver = IncrementalSolver(3)
    assert solver.add_equation([0, 0, 0], 0)
    assert not solver.add_equation([0, 0, 0], 7)
    assert solver.rank == 0


def test_pivot_order_is_first_nonzero_column():
    solver = IncrementalSolver(3)
    assert solver.add_equation([0, 1, 1], 2)
    assert solver.add_equation([0, 0, 1], 1)
    assert solver.free_columns() == [0]
    assert solver.solution() == [Fraction(0), Fraction(1), Fraction(1)]


def test_wrong_width_rejected():
    solver = IncrementalSolver(2)
    with pytest.raises(ValueError):
        solver.add_equation([1], 0)


def test_overdetermined_consistent_chain():
    # x = 3, fed through many consistent disguises
    solver = IncrementalSolver(1)
    for m in range(1, 30):
        assert solver.add_equation([m], 3 * m)
    assert solver.solution() == [Fraction(3)]


# -- seeded property test against two references ------------------------------------


class FractionGaussJordan:
    """Reference: reduced echelon form over Fraction, pivots scaled to 1."""

    def __init__(self, n_cols):
        self.n_cols = n_cols
        self.rows = []
        self.pivot_cols = []

    def add_equation(self, coeffs, rhs):
        row = [Fraction(c) for c in coeffs] + [Fraction(rhs)]
        for prow, pc in zip(self.rows, self.pivot_cols):
            f = row[pc]
            if f:
                row = [a - f * b for a, b in zip(row, prow)]
        lead = next((j for j in range(self.n_cols) if row[j]), None)
        if lead is None:
            return row[-1] == 0
        row = [a / row[lead] for a in row]
        for i, prow in enumerate(self.rows):
            f = prow[lead]
            if f:
                self.rows[i] = [a - f * b for a, b in zip(prow, row)]
        self.rows.append(row)
        self.pivot_cols.append(lead)
        return True

    def free_columns(self):
        return [j for j in range(self.n_cols) if j not in self.pivot_cols]

    def solution(self):
        values = [Fraction(0)] * self.n_cols
        for row, pc in zip(self.rows, self.pivot_cols):
            values[pc] = row[-1]
        return values


def _primitive(row, lead):
    g = 0
    for v in row:
        if v:
            g = math.gcd(g, v)
    if g > 1:
        row = [v // g for v in row]
    if 0 <= lead < len(row) and row[lead] < 0:
        row = [-v for v in row]
    return row


class CrossMultiplySolver:
    """Reference for the stored integer rows: echelon form by
    cross-multiplication with no gcd step, the row made primitive and
    sign-fixed only once it is done."""

    def __init__(self, n_cols):
        self.n_cols = n_cols
        self.rows = []
        self.pivot_cols = []

    def add_equation(self, coeffs, rhs):
        scale = 1
        for c in list(coeffs) + [rhs]:
            scale = math.lcm(scale, Fraction(c).denominator)
        row = [int(Fraction(c) * scale) for c in list(coeffs) + [rhs]]
        for prow, pc in zip(self.rows, self.pivot_cols):
            v = row[pc]
            if v:
                p = prow[pc]
                row = [p * a - v * b for a, b in zip(row, prow)]
        lead = next((j for j in range(self.n_cols) if row[j]), None)
        if lead is None:
            return row[-1] == 0
        row = _primitive(row, lead)
        self.rows.append(row)
        self.pivot_cols.append(lead)
        return True


def random_entry(rng, bits):
    r = rng.random()
    if r < 0.2:
        return 0
    if r < 0.5:
        return Fraction(
            rng.randint(-(2**bits), 2**bits), rng.randint(1, 2 ** rng.choice([1, 6, 40]))
        )
    return rng.randint(-(2**bits), 2**bits)


def random_system(rng):
    """Equations in a random-rank row space with a hidden solution; some
    right-hand sides are bumped, which is inconsistent once the row is
    spanned by the rows before it."""
    n_cols = rng.randint(0, 7)
    bits = rng.choice([1, 8, 64, 200])
    rank = rng.randint(0, n_cols)
    basis = [[random_entry(rng, bits) for _ in range(n_cols)] for _ in range(rank)]
    hidden = [random_entry(rng, bits) for _ in range(n_cols)]
    equations = []
    for _ in range(rng.randint(1, 3 * n_cols + 4)):
        weights = [rng.choice([0, 1, -1, random_entry(rng, bits)]) for _ in basis]
        coeffs = [sum(w * b[j] for w, b in zip(weights, basis)) for j in range(n_cols)]
        rhs = sum(c * x for c, x in zip(coeffs, hidden))
        if rng.random() < 0.25:
            rhs += rng.choice([1, -1, Fraction(1, 3), 2**bits])
        equations.append((coeffs, rhs))
    return n_cols, equations


@pytest.mark.parametrize("seed", range(3))
def test_random_systems_match_references(seed):
    rng = random.Random(5100 + seed)
    rejected = deficient = 0
    for _ in range(40):
        n_cols, equations = random_system(rng)
        solver = IncrementalSolver(n_cols)
        exact = FractionGaussJordan(n_cols)
        cross = CrossMultiplySolver(n_cols)
        for coeffs, rhs in equations:
            accepted = solver.add_equation(coeffs, rhs)
            assert accepted == exact.add_equation(coeffs, rhs)
            assert accepted == cross.add_equation(coeffs, rhs)
            rejected += not accepted
            assert solver.rank == len(exact.rows)
            assert solver.free_columns() == exact.free_columns()
            assert solver.solution() == exact.solution()
            assert solver._rows == cross.rows
            assert solver._pivot_cols == cross.pivot_cols
            assert all(type(v) is int for row in solver._rows for v in row)
        deficient += bool(solver.free_columns())
    assert rejected and deficient  # both kinds of system were drawn
