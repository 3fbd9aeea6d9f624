"""Kernel properties: conv_trunc's sparse and Kronecker paths against the schoolbook
loop, inverse_trunc against an index loop."""

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


def sparse_operand(rng, n, nnz, bound, order=None):
    """n coefficients with exactly nnz nonzero ones through q^order (default:
    anywhere), signed, up to `bound`."""
    out = [0] * n
    for i in rng.sample(range(n if order is None else min(n, order + 1)), nnz):
        out[i] = rng.choice([-1, 1]) * rng.randint(1, bound)
    return out


def takes_sparse_path(monkeypatch, a, b, order):
    """Whether conv_trunc(a, b, order) multiplies by shift-and-add, one term
    of the operand with fewer nonzero terms at a time; the result is checked
    against the schoolbook loop either way."""
    taken = []
    sparse = _kernels_py._conv_sparse

    def spy(*args):
        shifted, scaled = args[:2]
        assert len(shifted) - shifted.count(0) <= len(scaled) - scaled.count(0)
        taken.append(args)
        return sparse(*args)

    monkeypatch.setattr(_kernels_py, "_conv_sparse", spy)
    assert_matches_schoolbook(a, b, order)
    monkeypatch.undo()
    return bool(taken)


@pytest.mark.parametrize("seed", range(3))
def test_sparse_path_matches_schoolbook(monkeypatch, seed):
    # signed bigints, sparse x dense in both argument orders, a sparse
    # operand with one term (the series 1), and operands shorter or longer
    # than the order: the dense one shorter than the order must not shorten
    # the output
    rng = random.Random(9200 + seed)
    for _ in range(40):
        order = rng.randint(1, 120)
        dense = random_coeffs(
            rng, rng.choice([rng.randint(1, order), order + 1, order + rng.randint(2, 30)]),
            bound=2 ** rng.choice([8, 64, 300]),
        )
        n = rng.randint(1, order + 20)
        nnz = rng.randint(1, min(3, n, order + 1))
        sparse = sparse_operand(rng, n, nnz, 2 ** rng.choice([1, 30, 200]), order)
        for a, b in ((sparse, dense), (dense, sparse)):
            assert takes_sparse_path(monkeypatch, a, b, order)


def test_sparse_path_edge_operands(monkeypatch):
    # length-one lists, and single terms at or past the end of the other operand
    cases = [(order, [5], [-3]) for order in (0, 1, 7)] + [
        (0, [-2], [4, 0, -1, 8] * 3),
        (5, [-2], [4, 0, -1, 8] * 3),
        (12, [0, 0, 3], [1, -1] * 6),
        (12, [0] * 9 + [-7], [2, 3]),
        (9, [0] * 9 + [-7], [2 ** 90, -3]),
    ]
    for order, a, b in cases:
        assert takes_sparse_path(monkeypatch, a, b, order)
        assert takes_sparse_path(monkeypatch, b, a, order)
    # an all-zero operand, or one zero through the order, gives zeros on no path
    for order, a, b in ((7, [0] * 5, [3, -1, 4]), (7, [0], [2 ** 100] * 9), (1, [0, 0, 3], [1])):
        assert not takes_sparse_path(monkeypatch, a, b, order)
        assert not takes_sparse_path(monkeypatch, b, a, order)


def kronecker_bytes(a, b):
    """The slot width conv_trunc packs int lists with."""
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    return bound.bit_length() // 8 + 1


@pytest.mark.parametrize("seed", range(2))
def test_sparse_path_switch(monkeypatch, seed):
    # the sparse path is taken exactly while nnz * len(dense) <= nbytes *
    # (len(a) + len(b)); counts just below and just above the switch agree
    # with the schoolbook loop either way
    rng = random.Random(9300 + seed)
    for _ in range(6):
        order = rng.randint(60, 200)
        dense = random_coeffs(rng, order + 1, bound=2 ** rng.choice([4, 60, 160]))
        bound = 2 ** rng.choice([1, 20])
        nbytes = kronecker_bytes([bound] * (order + 1), dense)
        switch = 2 * nbytes  # both operands have order + 1 terms
        for nnz in (switch - 1, switch, switch + 1, switch + 2):
            sparse = sparse_operand(rng, order + 1, nnz - 1, bound - 1)
            sparse[sparse.index(0)] = bound  # the largest coefficient sets the slot
            assert kronecker_bytes(sparse, dense) == nbytes
            for a, b in ((sparse, dense), (dense, sparse)):
                assert takes_sparse_path(monkeypatch, a, b, order) == (nnz <= switch)


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
