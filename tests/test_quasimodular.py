"""Quasi-modular decomposition and divisor-form fitting tests.

Frozen expectations derived independently: the A_2 table follows from
A_2 = (3*A_1^2 + A_1 - q dA_1/dq)/10 with A_1 = (1-E2)/24 and the classical
q dE2/dq = (E2^2 - E4)/12, giving 3/640 - E2/192 + E2^2/1152 - E4/2880; the
same elimination yields a_{n,2} = (1/8 - n/4) sigma_1(n) + (1/8) sigma_3(n).
"""

import random
from fractions import Fraction

import pytest

from qdiv import _certify, quasimodular, series
from qdiv.linalg import IncrementalSolver
from qdiv.macmahon import Family, gen_direct, oracle_a
from qdiv._certify import RAMANUJAN_D, recurrence_polynomials, window_ranks
from qdiv.quasimodular import (
    NoDecompositionError,
    QMDecomposition,
    QMMonomial,
    decompose,
    eval_decomposition,
    fit_divisor_form,
    monomial_basis,
    monomial_columns,
    monomial_count,
)
from qdiv.series import QSeries, divisor_sigma, eisenstein


# -- monomial basis -----------------------------------------------------------------


def test_monomial_basis_weight_zero():
    assert [(m.a, m.b, m.c) for m in monomial_basis(0)] == [(0, 0, 0)]


def test_monomial_basis_weight_four():
    assert [(m.a, m.b, m.c) for m in monomial_basis(4)] == [
        (0, 0, 0),
        (1, 0, 0),
        (2, 0, 0),
        (0, 1, 0),
    ]


def test_monomial_basis_weight_six():
    basis = monomial_basis(6)
    assert len(basis) == 7
    assert [(m.a, m.b, m.c) for m in basis[4:]] == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]


def test_monomial_basis_rejects_odd_bound():
    with pytest.raises(ValueError):
        monomial_basis(3)


def test_monomial_count_matches_basis_and_stops_past_the_limit():
    for w in range(0, 62, 2):
        size = len(monomial_basis(w))
        assert monomial_count(w, 10**9) == size
        assert monomial_count(w, size) == size
        assert monomial_count(w, size - 1) == size  # past the limit: limit + 1
    assert monomial_count(10**12, 50) == 51
    with pytest.raises(ValueError):
        monomial_count(3, 10)


def test_monomial_weight():
    assert QMMonomial(1, 2, 3).weight == 2 + 8 + 18
    assert str(QMMonomial(0, 0, 0)) == "1"
    assert str(QMMonomial(2, 0, 1)) == "E2^2*E6"


# -- decompose ----------------------------------------------------------------------


def test_decompose_a1_exact():
    dec = decompose(gen_direct(Family.A, 1, 100), 2, 100, description="A_1")
    assert dec.terms == {
        QMMonomial(0, 0, 0): Fraction(1, 24),
        QMMonomial(1, 0, 0): Fraction(-1, 24),
    }
    assert dec.verified_order == 100
    assert not dec.ambiguous


def test_decompose_basis_element():
    dec = decompose(eisenstein(4, 50), 4, 50)
    assert dec.terms == {QMMonomial(0, 1, 0): Fraction(1)}


def test_decompose_a2_frozen_table():
    target = gen_direct(Family.A, 2, 120)
    dec = decompose(target, 4, 120, description="A_2")
    assert dec.terms == {
        QMMonomial(0, 0, 0): Fraction(3, 640),
        QMMonomial(1, 0, 0): Fraction(-1, 192),
        QMMonomial(2, 0, 0): Fraction(1, 1152),
        QMMonomial(0, 1, 0): Fraction(-1, 2880),
    }
    assert eval_decomposition(dec, 120) == target


def test_decompose_monotone_in_weight_bound():
    target = gen_direct(Family.A, 1, 100)
    low = decompose(target, 2, 100)
    high = decompose(target, 6, 100)
    assert low.terms == high.terms  # extension terms are zero and dropped


@pytest.mark.parametrize("k", [1, 2, 3])
def test_decompose_roundtrip(k):
    target = gen_direct(Family.A, k, 100)
    dec = decompose(target, 2 * k, 100)
    assert eval_decomposition(dec, 100) == target


def test_monomial_columns_cost_one_product_each(monkeypatch):
    calls = []
    conv = series.kernels.conv_trunc

    def spy(a, b, order):
        calls.append(order)
        return conv(a, b, order)

    monkeypatch.setattr(series.kernels, "conv_trunc", spy)
    monomial_columns(12, 60)
    # the constant and the generators E2, E4, E6 cost no product
    assert len(calls) == len(monomial_basis(12)) - 4 == 19
    monkeypatch.undo()
    # QSeries powers build each monomial independently of the parent rule,
    # also for the bases that hold fewer than all three generators
    e2, e4, e6 = (eisenstein(w, 60) for w in (2, 4, 6))
    for weight in (0, 2, 4, 12):
        columns = monomial_columns(weight, 60)
        assert list(columns) == monomial_basis(weight)
        for m, col in columns.items():
            assert col == e2**m.a * e4**m.b * e6**m.c, (weight, m)


def test_derivative_closure():
    # q d/dq E2 lies in the weight-4 ring: (E2^2 - E4)/12
    dec = decompose(eisenstein(2, 100).q_derivative(), 4, 100)
    assert dec.terms == {
        QMMonomial(2, 0, 0): Fraction(1, 12),
        QMMonomial(0, 1, 0): Fraction(-1, 12),
    }


def test_decompose_c1_fails_in_level_one_basis():
    with pytest.raises(NoDecompositionError) as exc:
        decompose(gen_direct(Family.C, 1, 100), 2, 100, description="C_1")
    err = exc.value
    assert err.stage == "solve"
    assert err.exponent == 2  # first prefix 0..n with no solution
    assert "q^2" in str(err)


def test_decompose_verify_stage_mismatch():
    # bump A_1 beyond the solve window: candidate passes the solve, fails deep
    data = list(gen_direct(Family.A, 1, 100).coeffs)
    data[50] += 1
    with pytest.raises(NoDecompositionError) as exc:
        decompose(QSeries(data, 100), 2, 100)
    err = exc.value
    assert err.stage == "verify"
    assert err.exponent == 50
    assert err.rhs is not None and err.lhs == err.rhs + 1


@pytest.mark.parametrize("exponent", [53, 60])
def test_decompose_verify_stage_non_integral_candidate(exponent):
    # E4/7 passes with common denominator 7; bumped past the solve window it
    # fails there, with the candidate's value canonical: a Fraction at q^53,
    # an int at q^60 (7 divides 240 * sigma_3(60))
    target = eisenstein(4, 100) / 7
    assert decompose(target, 4, 100).terms == {QMMonomial(0, 1, 0): Fraction(1, 7)}
    data = list(target.coeffs)
    data[exponent] += 1
    with pytest.raises(NoDecompositionError) as exc:
        decompose(QSeries(data, 100), 4, 100)
    err = exc.value
    assert err.stage == "verify"
    assert err.exponent == exponent
    assert err.rhs == Fraction(240 * divisor_sigma(exponent, 3), 7)
    assert type(err.rhs) is (int if exponent == 60 else Fraction)
    assert err.lhs == err.rhs + 1


def test_decompose_preconditions():
    target = gen_direct(Family.A, 1, 20)
    with pytest.raises(ValueError):
        decompose(target, 2, 2)  # under twice the basis size
    with pytest.raises(ValueError):
        decompose(target, 2, 50)  # target does not track 50 coefficients
    with pytest.raises(ValueError):
        decompose(target, 3, 20)  # odd weight bound


def test_decomposition_json_schema():
    dec = decompose(gen_direct(Family.A, 1, 60), 2, 60, description="A_1")
    obj = dec.to_json_obj()
    assert obj["weight_bound"] == 2
    assert obj["verified_order"] == 60
    assert obj["target"] == "A_1"
    assert {"a": 0, "b": 0, "c": 0, "coefficient": "1/24"} in obj["terms"]
    assert {"a": 1, "b": 0, "c": 0, "coefficient": "-1/24"} in obj["terms"]


def test_eval_of_unit_term():
    from qdiv.quasimodular import QMDecomposition

    dec = QMDecomposition({QMMonomial(0, 0, 0): Fraction(1)}, 0, 10)
    assert eval_decomposition(dec, 10) == QSeries.one(10)
    dec2 = QMDecomposition({QMMonomial(1, 0, 0): Fraction(1)}, 2, 10)
    assert eval_decomposition(dec2, 2).coeffs == (1, -24, -72)


# -- recurrence polynomials and window ranks ---------------------------------------


def test_ramanujan_identities_on_series():
    e2, e4, e6 = (eisenstein(w, 200) for w in (2, 4, 6))
    assert 12 * e2.q_derivative() == e2 * e2 - e4
    assert 3 * e4.q_derivative() == e2 * e4 - e6
    assert 2 * e6.q_derivative() == e2 * e6 - e4 * e4
    # the table the derivation reads says the same
    for w, image in zip((2, 4, 6), RAMANUJAN_D):
        dec = QMDecomposition({QMMonomial(*e): c for e, c in image.items()}, w + 2, 200)
        assert eval_decomposition(dec, 200) == eisenstein(w, 200).q_derivative()


def test_a1_is_one_minus_e2_over_24():
    assert gen_direct(Family.A, 1, 200) == (1 - eisenstein(2, 200)) / 24
    assert recurrence_polynomials(1) == [
        {QMMonomial(0, 0, 0): Fraction(1)},
        {QMMonomial(0, 0, 0): Fraction(1, 24), QMMonomial(1, 0, 0): Fraction(-1, 24)},
    ]


def test_recurrence_polynomials_match_the_solve():
    # two independent routes to A_k: the paper's recurrence with Ramanujan's
    # identities, and an exact solve against the defining sum
    polys = recurrence_polynomials(8)
    assert len(polys) == 9
    for k in range(1, 9):
        dec = decompose(gen_direct(Family.A, k, 120), 2 * k, 120)
        assert polys[k] == dec.terms, k
        assert all(m.weight <= 2 * k for m in polys[k])


def solve_window_rank(columns, m, top):
    solver = IncrementalSolver(m)
    for n in range(top + 1):
        solver.add_equation([col.coefficient(n) for col in columns[:m]], 0)
    return solver.rank


@pytest.mark.parametrize("weight, order", [(12, 60), (6, 8), (8, 10)])
def test_window_ranks_match_the_exact_rank(weight, order):
    columns = list(monomial_columns(weight, order).values())
    sizes = [len(monomial_basis(w)) for w in range(0, weight + 1, 2)]
    assert window_ranks(columns, sizes, order) == [
        solve_window_rank(columns, m, min(m + 4, order)) for m in sizes
    ]


def test_decompose_and_window_ranks_read_one_solve_window(monkeypatch):
    # a window of half the basis: the solve takes that many equations and
    # is left with free columns, and the ranks are those of the same window
    monkeypatch.setattr(quasimodular, "_solve_top", lambda size, order: size // 2)
    calls = []
    add_equation = IncrementalSolver.add_equation

    def spy(self, coeffs, rhs):
        calls.append(len(coeffs))
        return add_equation(self, coeffs, rhs)

    monkeypatch.setattr(IncrementalSolver, "add_equation", spy)
    dec = decompose(gen_direct(Family.A, 1, 60), 4, 60)
    assert calls == [4] * 3
    assert dec.ambiguous
    assert dec.terms == recurrence_polynomials(1)[1]
    columns = list(monomial_columns(8, 60).values())
    sizes = [len(monomial_basis(w)) for w in (2, 4, 6, 8)]
    expected = [solve_window_rank(columns, m, m // 2) for m in sizes]
    assert expected == [2, 3, 4, 6]
    assert window_ranks(columns, sizes, 60) == expected


def test_window_ranks_short_of_the_rational_rank():
    # 1 and (2^31 - 1) q are independent over Q but not modulo the prime,
    # and a repeated column is dependent over both
    one, q = QSeries.one(10), QSeries.monomial(1, 10, 2**31 - 1)
    assert window_ranks([one, q], [1, 2], 10) == [1, 1]
    assert solve_window_rank([one, q], 2, 6) == 2
    e4 = eisenstein(4, 10)
    assert window_ranks([e4, e4, one], [1, 2, 3], 10) == [1, 1, 2]


@pytest.mark.parametrize("seed", range(4))
def test_window_ranks_match_the_exact_rank_on_dependent_columns(seed):
    # small random columns with zero columns, repeats and combinations of
    # earlier ones, so pivots skip columns and windows fall short of full rank
    rng = random.Random(8800 + seed)
    order = rng.randint(8, 30)
    columns = []
    for _ in range(rng.randint(3, 14)):
        kind = rng.random()
        if columns and kind < 0.3:
            a, b = rng.choice(columns), rng.choice(columns)
            columns.append(rng.randint(-3, 3) * a + rng.randint(-3, 3) * b)
        elif kind < 0.4:
            columns.append(QSeries.zero(order))
        else:
            data = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(order + 1)]
            columns.append(QSeries(data, order))
    sizes = sorted(set(rng.randint(1, len(columns)) for _ in range(4)))
    assert window_ranks(columns, sizes, order) == [
        solve_window_rank(columns, m, min(m + 4, order)) for m in sizes
    ]


def test_monomial_residues_are_the_exact_columns_mod_p():
    # seeded (weight, order) pairs, with the weight-24 basis through the
    # largest window of the k_max = 12, order 400 suite
    p = _certify._RANK_PRIME
    rng = random.Random(2031)
    pairs = [(24, 106), (0, 5), (2, 0)] + [
        (2 * rng.randint(0, 12), rng.randint(1, 90)) for _ in range(5)
    ]
    for weight, order in pairs:
        basis = monomial_basis(weight)
        residues = _certify._monomial_residues(basis, order)
        exact = quasimodular._monomial_series(basis, order)
        assert [r.coeffs for r in residues] == [
            tuple(c % p for c in col.coeffs) for col in exact
        ], (weight, order)


@pytest.mark.parametrize("k_max, order", [(12, 400), (18, 600)])
def test_window_ranks_read_residues_as_exact_columns(k_max, order):
    sizes = [len(monomial_basis(2 * k)) for k in range(1, k_max + 1)]
    top = min(sizes[-1] + 4, order)
    basis = monomial_basis(2 * k_max)
    residues = _certify._monomial_residues(basis, top)
    exact = quasimodular._monomial_series(basis, top)
    assert window_ranks(residues, sizes, order) == window_ranks(exact, sizes, order) == sizes


def windows_of_full_rank(k_max):
    """Whether every window of the weight-2k basis, k <= k_max, has full rank
    mod p, ranked live at the order where none is cut, m_k_max + 4."""
    sizes = [len(monomial_basis(2 * k)) for k in range(1, k_max + 1)]
    top = sizes[-1] + 4
    residues = _certify._monomial_residues(monomial_basis(2 * k_max), top)
    return window_ranks(residues, sizes, top) == sizes


def test_full_rank_constant_holds_through_k_18():
    # the windows K_FULL_RANK decides, recomputed as far as tier-1 affords;
    # CI recomputes them through K_FULL_RANK itself
    assert _certify.K_FULL_RANK >= 18
    assert windows_of_full_rank(18)


@pytest.mark.parametrize("seed", range(3))
def test_q_derivative_is_d_on_the_series(seed):
    # the derivation of RAMANUJAN_D, taken on seeded polynomials of weight
    # <= 12 with Fraction coefficients, is q d/dq on their series: the
    # property that lets certify_rows check the recurrence in the ring
    rng = random.Random(5200 + seed)
    basis = monomial_basis(12)
    order = 60

    def series_of(poly):
        terms = {QMMonomial(*m): c for m, c in poly.items() if c}
        return eval_decomposition(QMDecomposition(terms, 14, order), order)

    for _ in range(4):
        poly = {
            m: Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            for m in rng.sample(basis, rng.randint(1, 12))
        }
        derivative = _certify._q_derivative(poly, RAMANUJAN_D)
        assert series_of(derivative) == series_of(poly).q_derivative()


def test_ring_step_holds_for_the_recurrence_polynomials_only():
    polys = recurrence_polynomials(12)
    assert all(_certify.ring_step_holds(polys, k) for k in range(2, 13))
    for k, m, delta in [(2, QMMonomial(0, 0, 0), 1), (7, QMMonomial(0, 1, 1), Fraction(1, 7))]:
        bumped = [dict(poly) for poly in polys]
        bumped[k][m] = bumped[k].get(m, 0) + delta
        # the bump breaks the step into k and the step out of it, no other
        assert [_certify.ring_step_holds(bumped, j) for j in range(2, 13)] == [
            j not in (k, k + 1) for j in range(2, 13)
        ]
    # a term above weight 2k fails the step even with coefficient zero
    heavy = [dict(poly) for poly in polys]
    heavy[3][QMMonomial(0, 0, 2)] = Fraction(0)
    assert not _certify.ring_step_holds(heavy, 3)
    assert _certify.ring_step_holds(heavy, 4)


def test_recurrence_polynomials_preconditions():
    assert recurrence_polynomials(0) == [{QMMonomial(0, 0, 0): Fraction(1)}]
    with pytest.raises(ValueError):
        recurrence_polynomials(-1)


# -- fit_divisor_form ------------------------------------------------------------------


def test_fit_k1_constant():
    res = fit_divisor_form(1, 0, 50)
    assert res.success
    assert res.polynomials == [[Fraction(1)]]
    assert not res.ambiguous


def test_fit_k2_linear_succeeds():
    res = fit_divisor_form(2, 1, 100)
    assert res.success
    assert res.polynomials == [
        [Fraction(1, 8), Fraction(-1, 4)],
        [Fraction(1, 8), Fraction(0)],
    ]
    # cross-check the fitted identity against the enumeration oracle
    p1, p2 = res.polynomials
    for n in range(1, 41):
        value = (p1[0] + p1[1] * n) * divisor_sigma(n, 1) + p2[0] * divisor_sigma(n, 3)
        assert value == oracle_a(n, 2)


def test_fit_k2_constant_fails_with_witness():
    res = fit_divisor_form(2, 0, 100)
    assert not res.success
    assert res.polynomials is None
    assert res.first_failure_n == 3
    obj = res.to_json_obj()
    assert obj["status"] == "no-solution"
    assert obj["first_failure_n"] == 3


def test_fit_json_success_schema():
    obj = fit_divisor_form(1, 0, 30).to_json_obj()
    assert obj["status"] == "success"
    assert obj["polynomials"] == [["1"]]


def test_fit_preconditions():
    with pytest.raises(ValueError):
        fit_divisor_form(0, 0, 10)
    with pytest.raises(ValueError):
        fit_divisor_form(1, -1, 10)
    with pytest.raises(ValueError):
        fit_divisor_form(1, 0, 0)
