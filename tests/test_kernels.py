"""Kernel properties: conv_trunc against the schoolbook loop, inverse_trunc against
an index loop."""

import random
from fractions import Fraction

import pytest

from qdiv import _kernels_py, kernel_backend


def random_coeffs(rng, n, rational=False, bound=50, density=1.0):
    out = []
    for _ in range(n):
        if rng.random() >= density:
            out.append(0)
        elif rational and rng.random() < 0.4:
            out.append(Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
        else:
            out.append(rng.randint(-bound, bound))
    return out


def assert_matches_schoolbook(a, b, order):
    out = _kernels_py.conv_trunc(a, b, order)
    assert out == _kernels_py.conv_schoolbook(a, b, order)
    assert len(out) == order + 1
    assert all(type(c) is int for c in out)


@pytest.mark.parametrize("order", [0, 1, 5])
def test_conv_zero_and_length_one_lists(order):
    cases = [
        ([0], [0]),
        ([0] * 7, [3, -1, 4]),
        ([2, -9], [0] * 3),
        ([], [1, 2]),
        ([5], [-3]),
        ([-2], [4, 0, -1, 8]),
        ([1, 1, 1, 1, 1, 1, 1], [-1]),
    ]
    for a, b in cases:
        assert_matches_schoolbook(a, b, order)
        assert_matches_schoolbook(b, a, order)


def test_conv_order_zero_and_inputs_past_the_order():
    rng = random.Random(404)
    for _ in range(40):
        order = rng.choice([0, 0, 1, rng.randint(2, 30)])
        a = random_coeffs(rng, rng.randint(order + 2, order + 40))
        b = random_coeffs(rng, rng.randint(1, order + 40))
        assert_matches_schoolbook(a, b, order)


@pytest.mark.parametrize("seed", range(3))
def test_conv_mixed_sign_bigints(seed):
    rng = random.Random(7000 + seed)
    for _ in range(60):
        order = rng.randint(0, 100)
        bound = 2 ** rng.choice([1, 7, 8, 63, 64, 200, 256])
        density = rng.choice([0.05, 0.3, 1.0])
        a = random_coeffs(rng, rng.randint(1, order + 10), bound=bound, density=density)
        b = random_coeffs(rng, rng.randint(1, order + 10), bound=bound, density=density)
        assert_matches_schoolbook(a, b, order)


@pytest.mark.parametrize("seed", range(2))
def test_conv_one_operand_with_negatives(seed):
    rng = random.Random(8100 + seed)
    for _ in range(40):
        order = rng.randint(0, 80)
        bound = 2 ** rng.choice([3, 32, 256])
        a = [abs(c) for c in random_coeffs(rng, rng.randint(1, order + 5), bound=bound)]
        b = random_coeffs(rng, rng.randint(1, order + 5), bound=bound)
        b[rng.randrange(len(b))] = -bound  # at least one negative, at full size
        assert_matches_schoolbook(a, b, order)
        assert_matches_schoolbook(b, a, order)
        assert_matches_schoolbook([-c for c in a], [-c for c in a], order)


def test_fraction_inputs_take_the_schoolbook_path(monkeypatch):
    schoolbook = _kernels_py.conv_schoolbook
    calls = []

    def spy(a, b, order):
        calls.append(order)
        return schoolbook(a, b, order)

    monkeypatch.setattr(_kernels_py, "conv_schoolbook", spy)
    rng = random.Random(9001)
    for n in range(30):
        order = rng.randint(0, 60)
        a = random_coeffs(rng, rng.randint(1, order + 5), rational=True)
        b = random_coeffs(rng, rng.randint(1, order + 5))
        a[rng.randrange(len(a))] = Fraction(1, 3)
        a, b = (a, b) if n % 2 else (b, a)
        assert _kernels_py.conv_trunc(a, b, order) == schoolbook(a, b, order)
    assert len(calls) == 30

    calls.clear()
    _kernels_py.conv_trunc([1, -2, 3], [4, 5], 6)
    assert calls == []


def inverse_index_loop(a, order):
    """1/a through q^order by a loop over every index: the reference."""
    a0 = a[0]
    recip = a0 if a0 in (1, -1) else 1 / Fraction(a0)
    out = [0] * (order + 1)
    out[0] = recip
    amax = min(len(a), order + 1)
    for m in range(1, order + 1):
        acc = 0
        for i in range(1, min(m, amax - 1) + 1):
            if a[i]:
                acc += a[i] * out[m - i]
        if acc:
            out[m] = -acc * recip
    return out


@pytest.mark.parametrize("seed", range(3))
def test_inverse_matches_the_index_loop(seed):
    rng = random.Random(9500 + seed)
    for _ in range(40):
        order = rng.choice([0, 1, rng.randint(2, 80)])
        a = random_coeffs(
            rng, rng.randint(1, order + 20),  # often longer than the order
            rational=rng.random() < 0.3,
            bound=2 ** rng.choice([1, 8, 64, 200]),
            density=rng.choice([0.05, 0.3, 1.0]),
        )
        a[0] = rng.choice([1, -1, 3, -2 ** 200, Fraction(-5, 7)])
        out = _kernels_py.inverse_trunc(a, order)
        expected = inverse_index_loop(a, order)
        assert out == expected
        assert list(map(type, out)) == list(map(type, expected))


def test_inverse_unit_constant_stays_integer():
    a = [1, -1, 4, -9]
    out = _kernels_py.inverse_trunc(a, 10)
    assert all(isinstance(v, int) for v in out)


def test_conv_respects_truncation():
    a = [1] * 10
    b = [1] * 10
    assert _kernels_py.conv_trunc(a, b, 4) == [1, 2, 3, 4, 5]
    assert _kernels_py.conv_schoolbook(a, b, 4) == [1, 2, 3, 4, 5]


def test_backend_is_reported():
    assert kernel_backend() == "python"
