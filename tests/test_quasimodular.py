"""Quasi-modular decomposition and divisor-form fitting tests.

Frozen expectations derived independently: the A_2 table follows from
A_2 = (3*A_1^2 + A_1 - q dA_1/dq)/10 with A_1 = (1-E2)/24 and the classical
q dE2/dq = (E2^2 - E4)/12, giving 3/640 - E2/192 + E2^2/1152 - E4/2880; the
same elimination yields a_{n,2} = (1/8 - n/4) sigma_1(n) + (1/8) sigma_3(n).
"""

from fractions import Fraction

import pytest

from qdiv import series
from qdiv.linalg import IncrementalSolver
from qdiv.macmahon import Family, gen_direct, oracle_a
from qdiv.quasimodular import (
    RAMANUJAN_D,
    NoDecompositionError,
    QMDecomposition,
    QMMonomial,
    decompose,
    eval_decomposition,
    fit_divisor_form,
    monomial_basis,
    monomial_columns,
    monomial_count,
    recurrence_polynomials,
    window_ranks,
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
    columns = monomial_columns(12, 60)
    # the constant and the generators E2, E4, E6 cost no product
    assert len(calls) == len(monomial_basis(12)) - 4 == 19
    monkeypatch.undo()
    # QSeries powers build each monomial independently of the parent rule
    e2, e4, e6 = (eisenstein(w, 60) for w in (2, 4, 6))
    assert list(columns) == monomial_basis(12)
    for m, col in columns.items():
        assert col == e2**m.a * e4**m.b * e6**m.c, m


def test_decompose_with_shared_columns_matches_own_columns():
    # a column set built once at a higher weight serves every smaller basis
    columns = monomial_columns(6, 60)
    assert list(columns) == monomial_basis(6)
    for k in (1, 2, 3):
        target = gen_direct(Family.A, k, 60)
        assert decompose(target, 2 * k, 60, columns=columns) == decompose(
            target, 2 * k, 60
        )


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


def test_decompose_refuses_columns_of_lower_order():
    target = gen_direct(Family.A, 1, 60)
    with pytest.raises(ValueError):
        decompose(target, 2, 60, columns=monomial_columns(2, 40))
    # columns of a lower weight bound lack monomials of the basis
    with pytest.raises(ValueError, match="weight-4"):
        decompose(gen_direct(Family.A, 2, 60), 4, 60, columns=monomial_columns(2, 60))


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


def solve_window_rank(columns, m, order):
    solver = IncrementalSolver(m)
    for n in range(min(m + 4, order) + 1):
        solver.add_equation([col.coefficient(n) for col in columns[:m]], 0)
    return solver.rank


@pytest.mark.parametrize("weight, order", [(12, 60), (6, 8), (8, 10)])
def test_window_ranks_match_the_exact_rank(weight, order):
    columns = list(monomial_columns(weight, order).values())
    sizes = [len(monomial_basis(w)) for w in range(0, weight + 1, 2)]
    assert window_ranks(columns, sizes, order) == [
        solve_window_rank(columns, m, order) for m in sizes
    ]


def test_window_ranks_short_of_the_rational_rank():
    # 1 and (2^31 - 1) q are independent over Q but not modulo the prime,
    # and a repeated column is dependent over both
    one, q = QSeries.one(10), QSeries.monomial(1, 10, 2**31 - 1)
    assert window_ranks([one, q], [1, 2], 10) == [1, 1]
    assert solve_window_rank([one, q], 2, 10) == 2
    e4 = eisenstein(4, 10)
    assert window_ranks([e4, e4, one], [1, 2, 3], 10) == [1, 1, 2]


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
