"""Series kernel tests: frozen expansions plus randomized ring laws."""

import random
from fractions import Fraction

import pytest

from qdiv.series import (
    NonInvertibleSeriesError,
    QSeries,
    _canon,
    divisor_sigma,
    eisenstein,
    pochhammer_inf,
    sigma_series,
)


def random_series(rng, order, integral=False, unit=False):
    coeffs = []
    for _ in range(order + 1):
        if integral or rng.random() < 0.6:
            coeffs.append(rng.randint(-9, 9))
        else:
            coeffs.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    if unit and coeffs[0] == 0:
        coeffs[0] = rng.choice([1, -1, 2, Fraction(3, 2)])
    return QSeries(coeffs, order)


# -- multiplication ---------------------------------------------------------------


def test_mul_difference_of_squares():
    one_plus = QSeries([1, 1], 5)
    one_minus = QSeries([1, -1], 5)
    assert (one_plus * one_minus).coeffs == (1, 0, -1, 0, 0, 0)


def test_mul_inverse_roundtrip_pochhammer():
    pq = pochhammer_inf(1, 1, 1, 50)
    assert pq * pq.inverse() == QSeries.one(50)


def test_mul_even_odd_product_split():
    # (q;q)_inf * (-q;q)_inf = (q^2;q^2)_inf, both sides by product expansion
    lhs = pochhammer_inf(1, 1, 1, 20) * pochhammer_inf(-1, 1, 1, 20)
    assert lhs == pochhammer_inf(1, 2, 2, 20)


@pytest.mark.parametrize("order", [0, 1, 7])
def test_construction_keeps_order_plus_one_coefficients(order):
    # one coefficient too many is dropped, as are more; too few are padded
    for extra in (2, 1, 0, -1):
        data = list(range(1, max(order + extra, 0) + 1))
        s = QSeries(data, order)
        assert s.order == order
        assert s.coeffs == tuple((data + [0] * (order + 1))[: order + 1])


def test_mul_takes_min_order():
    a = QSeries([1, 1, 1], 10)
    b = QSeries([1, 2], 5)
    assert (a * b).order == 5
    assert (a + b).order == 5


def test_scalar_ops():
    s = QSeries([1, 2, 3], 2)
    assert (2 * s).coeffs == (2, 4, 6)
    assert (s / 2).coeffs == (Fraction(1, 2), 1, Fraction(3, 2))
    assert (1 - s).coeffs == (0, -2, -3)
    assert (s + 5).coeffs == (6, 2, 3)


def test_pow_binary():
    s = QSeries([1, 1], 8)
    cube = s * s * s
    assert s**3 == cube
    assert s**0 == QSeries.one(8)
    with pytest.raises(ValueError):
        s ** (-1)


# -- inversion --------------------------------------------------------------------


def test_inverse_geometric():
    assert QSeries([1, -1], 4).inverse().coeffs == (1, 1, 1, 1, 1)


def test_inverse_identity():
    assert QSeries([1], 3).inverse() == QSeries.one(3)


def test_inverse_geometric_square():
    # 1/(1-q)^2 = sum (n+1) q^n, the Cauchy square of the geometric series
    sq = QSeries([1, -1], 4) * QSeries([1, -1], 4)
    assert sq.inverse().coeffs == (1, 2, 3, 4, 5)


def test_inverse_rejects_zero_constant():
    with pytest.raises(NonInvertibleSeriesError):
        QSeries([0, 1], 3).inverse()


def test_inverse_rational_constant():
    s = QSeries([Fraction(1, 2), 1], 3)
    assert s * s.inverse() == QSeries.one(3)
    assert s.inverse().coefficient(0) == 2


# -- q-derivative -----------------------------------------------------------------


def test_q_derivative_monomial():
    assert QSeries.monomial(3, 5).q_derivative() == QSeries.monomial(3, 5, 3)


def test_q_derivative_constant():
    assert QSeries.one(4).q_derivative().is_zero


def test_q_derivative_divisor_series():
    # q d/dq of sum sigma_1(n) q^n has coefficient n*sigma_1(n): 1, 6, 12, 28
    ds = sigma_series(1, 4).q_derivative()
    assert [ds.coefficient(n) for n in range(1, 5)] == [1, 6, 12, 28]


# -- pochhammer products ------------------------------------------------------------


def test_pochhammer_euler_expansion():
    assert pochhammer_inf(1, 1, 1, 12).coeffs == (
        1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1,
    )


def test_pochhammer_order_zero_is_one():
    assert pochhammer_inf(1, 1, 1, 0) == QSeries.one(0)


def test_div_by_int_matches_fraction_reciprocal():
    rng = random.Random(5151)
    for _ in range(60):
        order = rng.randint(0, 30)
        s = random_series(rng, order)
        if rng.random() < 0.5:  # large ints, many of them multiples of n
            s = s * rng.choice([2**70, -6 * 3**40, 12])
        n = rng.choice([1, -1, 2, -2, 3, 7, -12, 2**65, -(3**41)])
        quotient = s / n
        expected = s * Fraction(1, n)
        assert quotient == expected
        assert list(map(type, quotient.coeffs)) == list(map(type, expected.coeffs))
    assert (QSeries([Fraction(3, 2), 4], 1) / Fraction(3, 4)).coeffs == (2, Fraction(16, 3))
    with pytest.raises(ZeroDivisionError):
        QSeries([1], 0) / 0


def test_pochhammer_rejects_constant_factor():
    with pytest.raises(ValueError):
        pochhammer_inf(1, 0, 1, 10)


def test_pochhammer_odd_even_split_identity():
    # (q^2;q^2)(q;q^2)^2 = (q;q)/(-q;q) up to order 40
    lhs = pochhammer_inf(1, 2, 2, 40) * pochhammer_inf(1, 1, 2, 40) ** 2
    rhs = pochhammer_inf(1, 1, 1, 40) * pochhammer_inf(-1, 1, 1, 40).inverse()
    assert lhs == rhs


def pentagonal_pattern(order):
    expected = {0: 1}
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        sign = -1 if j % 2 else 1
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e <= order:
                expected[e] = sign
        j += 1
    return expected


def test_pochhammer_pentagonal_support_200():
    pq = pochhammer_inf(1, 1, 1, 200)
    expected = pentagonal_pattern(200)
    for n in range(201):
        assert pq.coefficient(n) == expected.get(n, 0), f"exponent {n}"


# -- divisor sums and Eisenstein series ----------------------------------------------


def test_divisor_sigma_values():
    assert divisor_sigma(1, 1) == 1
    assert divisor_sigma(6, 1) == 12
    assert divisor_sigma(2, 3) == 9
    assert divisor_sigma(12, 0) == 6


def test_divisor_sigma_rejects_zero():
    with pytest.raises(ValueError):
        divisor_sigma(0, 1)


def test_sigma_series_matches_pointwise():
    s = sigma_series(3, 30)
    for n in range(1, 31):
        assert s.coefficient(n) == divisor_sigma(n, 3)
    assert s.coefficient(0) == 0


@pytest.mark.parametrize("build, match", [
    (lambda: sigma_series(1, -1), "order must be nonnegative"),
    (lambda: sigma_series(-1, 5), "k >= 0"),
    (lambda: eisenstein(4, -1), "order must be nonnegative"),
])
def test_sigma_series_rejects_negative_arguments(build, match):
    # as divisor_sigma does, instead of an order -1 series, a float
    # coefficient or an IndexError
    with pytest.raises(ValueError, match=match):
        build()


def test_eisenstein_expansions():
    assert eisenstein(2, 3).coeffs == (1, -24, -72, -96)
    assert eisenstein(4, 2).coeffs == (1, 240, 2160)
    assert eisenstein(6, 1).coeffs == (1, -504)


def test_eisenstein_rejects_unsupported_weight():
    with pytest.raises(ValueError):
        eisenstein(8, 10)


# -- randomized ring laws -------------------------------------------------------------


def test_ring_laws_randomized():
    rng = random.Random(20260810)
    for _ in range(100):
        order = rng.randint(0, 64)
        a = random_series(rng, order)
        b = random_series(rng, order)
        c = random_series(rng, order)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_truncation_soundness_randomized():
    rng = random.Random(77)
    for _ in range(50):
        order = rng.randint(1, 40)
        m = rng.randint(0, order - 1)
        a = random_series(rng, order)
        b = random_series(rng, order)
        assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)


def test_leibniz_rule_randomized():
    rng = random.Random(31337)
    for _ in range(50):
        order = rng.randint(0, 40)
        a = random_series(rng, order)
        b = random_series(rng, order)
        lhs = (a * b).q_derivative()
        assert lhs == a.q_derivative() * b + a * b.q_derivative()


def test_inverse_roundtrip_randomized():
    rng = random.Random(4242)
    for _ in range(40):
        order = rng.randint(0, 40)
        a = random_series(rng, order, unit=True)
        assert a * a.inverse() == QSeries.one(order)


# -- representation and serialization --------------------------------------------------


def test_coefficients_canonical():
    s = QSeries([Fraction(2, 2), Fraction(1, 3)], 1)
    assert isinstance(s.coefficient(0), int)
    assert s.coefficient(1) == Fraction(1, 3)


def test_wrap_matches_canon_element_by_element():
    # lists of exact ints are kept as they are, anything else is normalised
    # one coefficient at a time, as `_canon` does
    class Int(int):
        pass

    rng = random.Random(17)
    makers = [
        lambda: rng.randint(-10**30, 10**30),
        lambda: rng.choice([True, False]),
        lambda: Int(rng.randint(-9, 9)),
        lambda: Fraction(rng.randint(-9, 9) * 3, 3),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    ]
    for _ in range(200):
        kinds = rng.sample(makers, rng.randint(1, len(makers)))
        coeffs = [rng.choice(kinds)() for _ in range(rng.randint(0, 12))]
        wrapped = QSeries._wrap(list(coeffs)).coeffs
        expected = tuple(_canon(c) for c in coeffs)
        assert wrapped == expected
        assert [type(c) for c in wrapped] == [type(c) for c in expected]
    for bad in ([1.0], [1, 2, 0.5], [Fraction(1, 2), 1.5]):
        with pytest.raises(TypeError):
            QSeries._wrap(bad)


def test_equality_is_coefficientwise():
    assert QSeries([1, Fraction(4, 2)], 1) == QSeries([Fraction(1), 2], 1)
    assert QSeries([1], 1) != QSeries([1], 2)
    assert hash(QSeries([1, 2], 1)) == hash(QSeries([1, 2], 1))


def test_coefficient_beyond_order_rejected():
    s = QSeries([1, 2], 1)
    with pytest.raises(ValueError):
        s.coefficient(2)


def test_truncate_cannot_extend():
    s = QSeries([1, 2], 1)
    with pytest.raises(ValueError):
        s.truncate(5)
    assert s.truncate(0) == QSeries([1], 0)


@pytest.mark.parametrize("order", [-1, -5])
def test_truncate_rejects_negative_order(order):
    # no series of some other order, such as -1 or 6, comes back
    with pytest.raises(ValueError, match="nonnegative"):
        QSeries(range(11), 10).truncate(order)


def test_substitute_reindexes():
    s = QSeries([1, 2, 3], 2)
    sub = s.substitute(3)
    assert sub.order == 6
    assert sub.coeffs == (1, 0, 0, 2, 0, 0, 3)
    with pytest.raises(ValueError):
        s.substitute(0)


def test_integer_coefficients_guard():
    assert QSeries([1, 2], 1).integer_coefficients() == [1, 2]
    with pytest.raises(ValueError):
        QSeries([1, Fraction(1, 2)], 1).integer_coefficients()


def test_json_roundtrip():
    s = QSeries([1, Fraction(-7, 3), 0], 2)
    obj = s.to_json_obj()
    assert obj == {"order": 2, "coeffs": ["1", "-7/3", "0"]}
    assert " " not in "".join(obj["coeffs"])
    assert QSeries.from_json_obj(obj) == s


@pytest.mark.parametrize("obj, match", [
    ({"order": 2, "coeffs": ["1", "2"]}, "needs 3 coefficients"),  # unknown q^2 is not 0
    ({"order": 1, "coeffs": ["1", "2", "3"]}, "needs 2 coefficients"),
    ({"order": 2.9, "coeffs": ["1", "2", "3"]}, "must be an int"),
    ({"order": -1, "coeffs": []}, "nonnegative"),
    # the wire holds exact strings 'p' or 'p/q' only: nothing is read in binary,
    # as another container, with whitespace, in decimal or over zero
    ({"order": 1, "coeffs": [0.1, 2]}, "list of strings"),
    ({"order": 1, "coeffs": [1, "2"]}, "list of strings"),
    ({"order": 1, "coeffs": "12"}, "list of strings"),
    ({"order": 1, "coeffs": {"1": 0, "2": 0}}, "list of strings"),
    ({"order": 1, "coeffs": ("1", "2")}, "list of strings"),
    ({"order": 0, "coeffs": ["1.5"]}, "list of strings"),
    ({"order": 0, "coeffs": ["1e3"]}, "list of strings"),
    ({"order": 0, "coeffs": [" 1"]}, "list of strings"),
    ({"order": 0, "coeffs": ["1 "]}, "list of strings"),
    ({"order": 0, "coeffs": ["+1"]}, "list of strings"),
    ({"order": 0, "coeffs": ["1/-2"]}, "list of strings"),
    ({"order": 0, "coeffs": ["1/0"]}, "list of strings"),
    ({"order": 0, "coeffs": ["1/00"]}, "list of strings"),
    ({"order": 0, "coeffs": ["\u0661"]}, "list of strings"),  # an Arabic-Indic 1
])
def test_json_malformed_series_refused(obj, match):
    with pytest.raises(ValueError, match=match):
        QSeries.from_json_obj(obj)
