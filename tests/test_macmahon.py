"""Partition oracles, the three series routes, Chebyshev and theta builders.

The package oracles are themselves validated here against an independent
brute-force enumerator built on itertools (different traversal, no pruning),
so the oracle/series cross-checks elsewhere rest on two unrelated codepaths.
"""

import itertools
import random
import threading
import tracemalloc
from contextlib import nullcontext
from operator import add

import pytest

from qdiv.macmahon import (
    BivarSeries,
    Family,
    IntPolynomial,
    cheb_coeff_closed,
    cheb_rescaled,
    gen_direct,
    gen_explicit,
    gen_recurrence,
    oracle_a,
    oracle_c,
    theta_f,
    theta_g,
)
from qdiv import _kernels_py, _newton, macmahon
from qdiv._newton import _pack, _power_sum, _signed_sum
from qdiv.macmahon import _add_part, _direct_rows, _dp_rows, _explicit_prefactor
from qdiv.series import QSeries, memo, pochhammer_inf, run_scope


def brute_force_count(n, k, odd_parts):
    """Sum of multiplicity products over all representations, by blunt search."""
    values = range(1, n + 1, 2) if odd_parts else range(1, n + 1)
    total = 0
    for parts in itertools.combinations(values, k):
        # multiplicities s_i >= 1 with sum s_i * parts_i == n
        def search(idx, rem):
            if idx == len(parts) - 1:
                s, r = divmod(rem, parts[idx])
                return s if r == 0 and s >= 1 else 0
            acc = 0
            s = 1
            while s * parts[idx] + sum(parts[idx + 1 :]) <= rem:
                acc += s * search(idx + 1, rem - s * parts[idx])
                s += 1
            return acc

        total += search(0, n)
    return total


# -- oracles ---------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_oracle_a_against_brute_force(k):
    for n in range(1, 15):
        assert oracle_a(n, k) == brute_force_count(n, k, odd_parts=False)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_oracle_c_against_brute_force(k):
    for n in range(1, 15):
        assert oracle_c(n, k) == brute_force_count(n, k, odd_parts=True)


def test_oracle_a_examples():
    assert oracle_a(6, 1) == 12  # sigma_1(6)
    assert oracle_a(2, 2) == 0  # least representable n for k=2 is 1+2=3
    assert oracle_a(5, 2) == 9


def test_oracle_c_examples():
    assert oracle_c(1, 1) == 1
    assert oracle_c(3, 1) == 4  # 3 = 3*1 and 3 = 1*3
    assert oracle_c(4, 2) == 1  # only 4 = 1*1 + 1*3


def test_oracle_preconditions():
    with pytest.raises(ValueError):
        oracle_a(0, 1)
    with pytest.raises(ValueError):
        oracle_c(3, 0)


# -- gen_direct --------------------------------------------------------------------


def test_oracle_memo_keeps_only_states_with_parts():
    # a verify run's oracle calls, both families, k <= 4, n <= 40: one
    # memo state per (part step, rem, parts, index); a single part is
    # counted by divisibility, so the 1240 zero-part states a memo reaching
    # them would add (2642 in all) are never made
    macmahon._count.cache_clear()
    for oracle in (oracle_a, oracle_c):
        for k in range(4, 0, -1):
            for n in range(1, 41):
                oracle(n, k)
    info = macmahon._count.cache_info()
    assert (info.currsize, info.maxsize) == (1402, 1 << 17)


def test_gen_direct_k1_is_divisor_sum():
    assert gen_direct(Family.A, 1, 6).coeffs == (0, 1, 3, 4, 7, 6, 12)


def test_gen_direct_k0_empty_product():
    assert gen_direct(Family.A, 0, 10) == QSeries.one(10)
    assert gen_direct(Family.C, 0, 10) == QSeries.one(10)


def test_gen_direct_c2_first_term():
    assert gen_direct(Family.C, 2, 4).coeffs == (0, 0, 0, 0, 1)


def test_gen_direct_lambert_route():
    # one step applied to row 0 adds exactly the part factor q^v / (1-q^v)^2
    for v in (1, 2, 5, 30):
        row = [0] * 31
        _add_part(row, [1] + [0] * 30, 0, v, 30)
        denom = (QSeries.one(30) - QSeries.monomial(v, 30)) ** 2
        assert QSeries(row, 30) == QSeries.monomial(v, 30) * denom.inverse()


def block_sweep_add_part(dst, src, lo, v, order):
    """dst += q^v * src / (1-q^v)^2, both running sums swept one block of v
    coefficients at a time: the reference for `_add_part`."""
    t = src[lo : order + 1 - v]
    for _ in range(2):
        for b in range(v, len(t), v):
            t[b : b + v] = map(add, t[b : b + v], t[b - v : b])
    dst[lo + v :] = map(add, dst[lo + v :], t)


def block_sweep_rows(family, k, order):
    """Rows 0..k of the defining sum by the block sweep, with no lower bounds."""
    rows = [[1] + [0] * order] + [[0] * (order + 1) for _ in range(k)]
    for v in reversed(range(1, order + 1, 1 if family is Family.A else 2)):
        for j in range(k, 0, -1):
            block_sweep_add_part(rows[j], rows[j - 1], 0, v, order)
    return rows


@pytest.mark.parametrize("seed", range(2))
def test_add_part_matches_the_block_sweep(seed):
    # strides on both sides of v*v <= n, n the length of the shifted slice,
    # and at the switch itself; signed big coefficients
    rng = random.Random(4100 + seed)
    for _ in range(30):
        order = rng.randint(1, 300)
        lo = rng.randint(0, order // 2)
        n0 = order + 1 - lo  # n = n0 - v
        root = max(1, int((n0 - 1) ** 0.5))
        v = rng.choice([1, 2, root - 1, root, root + 1, root + 2, rng.randint(1, n0 - 1 or 1)])
        v = max(1, min(v, order))
        src = [0] * lo + [rng.randint(-2 ** 70, 2 ** 70) for _ in range(order + 1 - lo)]
        dst = [rng.randint(-9, 9) for _ in range(order + 1)]
        expected = list(dst)
        block_sweep_add_part(expected, src, lo, v, order)
        _add_part(dst, src, lo, v, order)
        assert dst == expected
        assert len(dst) == order + 1


@pytest.mark.parametrize("family", [Family.A, Family.C])
@pytest.mark.parametrize("order", [0, 1, 2, 37, 64, 121, 160])
def test_direct_rows_match_the_block_sweep(family, order):
    k = 18
    expected = block_sweep_rows(family, k, order)
    rows = _direct_rows(family, k, order)
    assert [list(row.coeffs) for row in rows] == expected


@pytest.mark.parametrize("family", [Family.A, Family.C])
@pytest.mark.parametrize("order", [0, 1, 2, 37, 64, 121, 160])
def test_newton_rows_match_the_block_sweep(family, order):
    # k = 18 keeps these orders on the DP in `_direct_rows`
    k = 18
    expected = block_sweep_rows(family, k, order)
    assert _newton.rows(family.step, k, order) == expected


def newton_side(family, k):
    """Least order at which `_direct_rows` takes the Newton builder for k >= 2."""
    return family.step * 3 * k**3


@pytest.mark.parametrize("seed", range(3))
def test_row_builders_agree_with_each_other_and_the_oracle(seed):
    rng = random.Random(7300 + seed)
    cases = [  # orders 0 and 1, k 0 and 1, k past the last feasible row
        (rng.choice([Family.A, Family.C]), rng.randint(0, 5), rng.choice([0, 1])),
        (rng.choice([Family.A, Family.C]), rng.choice([0, 1]), rng.randint(2, 120)),
        (Family.A, 7, rng.randint(2, 27)),  # 7*8/2 = 28
        (Family.C, 6, rng.randint(2, 35)),  # 6^2 = 36
    ]
    for _ in range(8):  # both sides of the size rule
        family, k = rng.choice([Family.A, Family.C]), rng.randint(2, 4)
        cases.append((family, k, newton_side(family, k) + rng.randint(-20, 20)))
    for family, k, order in cases:
        oracle = oracle_a if family is Family.A else oracle_c
        rows = _dp_rows(family, k, order)
        assert _newton.rows(family.step, k, order) == [list(row.coeffs) for row in rows]
        assert _direct_rows(family, k, order) == rows
        assert len(rows) == k + 1
        assert rows[0] == QSeries.one(order)
        for j in range(1, k + 1):
            assert rows[j].order == order
            assert rows[j].coefficient(0) == 0
            for n in range(1, min(order, 30) + 1):
                assert rows[j].coefficient(n) == oracle(n, j)


def test_direct_rows_dispatch_by_the_size_rule(monkeypatch):
    built = []
    for module, name in ((macmahon, "_dp_rows"), (_newton, "rows")):
        def spy(*args, name=name, build=getattr(module, name)):
            built.append(name)
            return build(*args)

        monkeypatch.setattr(module, name, spy)
    cases = {
        (Family.A, 4, 192): "rows",
        (Family.A, 4, 191): "_dp_rows",
        (Family.C, 4, 384): "rows",
        (Family.C, 4, 383): "_dp_rows",
        (Family.A, 2, 2000): "rows",
        (Family.A, 1, 2000): "_dp_rows",
        (Family.C, 0, 2000): "_dp_rows",
        (Family.A, 12, 400): "_dp_rows",  # the quasimodular suite's table
        (Family.A, 18, 600): "_dp_rows",
    }
    for (family, k, order), name in cases.items():
        del built[:]
        rows = _direct_rows(family, k, order)
        assert built == [name]
        assert len(rows) == k + 1 and all(type(row) is QSeries for row in rows)


def test_row_builders_use_no_series_kernel(monkeypatch):
    # gen_explicit and gen_recurrence multiply through these kernels; the
    # defining sum must not, on either side of the size rule
    def refuse(*args):
        raise AssertionError("row builder called a series kernel")

    for name in ("conv_trunc", "conv_schoolbook", "inverse_trunc"):
        monkeypatch.setattr(_kernels_py, name, refuse)
    assert _direct_rows(Family.A, 4, 200)[4].coefficient(10) == oracle_a(10, 4)
    assert _direct_rows(Family.C, 4, 200)[4].coefficient(16) == oracle_c(16, 4)


@pytest.mark.parametrize("seed", range(2))
def test_signed_sum_slots_hold_every_coefficient(seed):
    # a coefficient of the sum can exceed every operand's width and every
    # product of two maxima: with all operands 255 it is 255^2 * (s + 1)
    rng = random.Random(7400 + seed)
    n = rng.randint(300, 1200)
    big = [[rng.randint(100, 255) for _ in range(n)] for _ in range(2)]
    small = [[rng.randint(0, 40) for _ in range(rng.randint(1, n))] for _ in range(2)]
    for pairs in ([[255] * n] * 2,), (big,), (big, small):
        expected = [0] * n
        for i, (e, p) in enumerate(pairs):
            product = _kernels_py.conv_schoolbook(e, p, n - 1)
            expected = [x - y if i & 1 else x + y for x, y in zip(expected, product)]
        total, width = _signed_sum([(_pack(e), _pack(p)) for e, p in pairs], n)
        digits = total.to_bytes(width * n, "little")
        got = [int.from_bytes(digits[i : i + width], "little") for i in range(0, width * n, width)]
        assert got == expected


@pytest.mark.parametrize("family", [Family.A, Family.C])
def test_power_sums_match_the_series_powers(family):
    order = 60
    for i in range(1, 5):
        expected = QSeries.zero(order)
        for v in range(1, order + 1, family.step):
            q_v = QSeries.monomial(v, order)
            expected = expected + (q_v * ((1 - q_v) ** 2).inverse()) ** i
        assert _power_sum(family.step, i, order) == list(expected.coeffs)


@pytest.mark.parametrize("family,threshold", [
    (Family.A, lambda k: k * (k + 1) // 2),
    (Family.C, lambda k: k * k),
])
def test_gen_direct_vanishing_thresholds(family, threshold):
    for k in range(1, 5):
        s = gen_direct(family, k, 30)
        t = threshold(k)
        for n in range(t):
            assert s.coefficient(n) == 0
        assert s.coefficient(t) == 1  # unique minimal representation


@pytest.mark.parametrize("seed", range(3))
def test_direct_rows_match_oracle_and_explicit(seed):
    rng = random.Random(7000 + seed)
    for trial in range(12):
        family = rng.choice([Family.A, Family.C])
        k = rng.randint(0, 6)
        # order 0 and 1 and small orders put k past the last feasible row
        order = [0, 1][trial] if trial < 2 else rng.choice(
            [rng.randint(2, 12), rng.randint(13, 150)]
        )
        oracle = oracle_a if family is Family.A else oracle_c
        rows = _direct_rows(family, k, order)
        assert len(rows) == k + 1
        assert rows[0] == QSeries.one(order)
        for j in range(k + 1):
            assert gen_direct(family, j, order) == rows[j]
        for j in range(1, k + 1):
            assert rows[j].coefficient(0) == 0
            for n in range(1, min(order, 30) + 1):
                assert rows[j].coefficient(n) == oracle(n, j)
            assert gen_explicit(family, j, order) == rows[j]


def test_gen_direct_beyond_feasible_rows_is_zero():
    # 13 is the last k with k(k+1)/2 <= 100, 10 the last with k^2 <= 100
    assert not gen_direct(Family.A, 13, 100).is_zero
    assert gen_direct(Family.A, 14, 100) == QSeries.zero(100)
    assert not gen_direct(Family.C, 10, 100).is_zero
    assert gen_direct(Family.C, 11, 100) == QSeries.zero(100)
    assert gen_direct(Family.A, 10**6, 100) == QSeries.zero(100)


def test_gen_direct_past_the_last_feasible_row_builds_no_row(monkeypatch):
    # 62 is the last k with k(k+1)/2 <= 2000 and 44 the last with k^2 <= 2000;
    # one past them the answer is zero before any row is built, where a
    # capped table would build all 62 (44) feasible rows
    built = []
    direct_rows = macmahon._direct_rows

    def spy(family, k, order):
        built.append((family, k, order))
        return direct_rows(family, k, order)

    monkeypatch.setattr(macmahon, "_direct_rows", spy)
    assert gen_direct(Family.A, 63, 2000) == QSeries.zero(2000)
    assert gen_direct(Family.C, 45, 2000) == QSeries.zero(2000)
    assert built == []
    assert [macmahon._feasible_rows(f, 2000) for f in (Family.A, Family.C)] == [62, 44]


# -- gen_explicit and gen_recurrence -------------------------------------------------


def test_gen_explicit_matches_direct_a1():
    assert gen_explicit(Family.A, 1, 6) == gen_direct(Family.A, 1, 6)


def test_gen_explicit_a2_threshold():
    s = gen_explicit(Family.A, 2, 3)
    assert s.coeffs == (0, 0, 0, 1)


def test_gen_explicit_c1_values():
    assert gen_explicit(Family.C, 1, 3).coeffs == (0, 1, 2, 4)


def test_gen_recurrence_a2():
    assert gen_recurrence(Family.A, 2, 5).coeffs == (0, 0, 0, 1, 3, 9)


def test_gen_recurrence_seed_passthrough():
    assert gen_recurrence(Family.A, 1, 10) == gen_direct(Family.A, 1, 10)
    assert gen_recurrence(Family.C, 1, 10) == gen_direct(Family.C, 1, 10)


def test_gen_recurrence_c2():
    assert gen_recurrence(Family.C, 2, 4).coeffs == (0, 0, 0, 0, 1)


@pytest.mark.parametrize("family", [Family.A, Family.C])
@pytest.mark.parametrize("order", [60, 61])
def test_recurrence_chain_serves_ks_in_any_order(family, order):
    # each k from a cold chain, as a call outside any scope builds it,
    # against the same k read from one scope's chain asked in ascending,
    # descending and mixed order; k = 9 is past C's last feasible row at
    # order 60
    cold = {}
    for k in range(1, 10):
        cold[k] = gen_recurrence(family, k, order)
        assert cold[k] == gen_direct(family, k, order)
    for ks in (range(1, 10), range(9, 0, -1), (3, 6, 1, 8, 2, 9, 5, 4, 7, 6)):
        with run_scope():
            for k in ks:
                assert gen_recurrence(family, k, order) == cold[k]


@pytest.mark.parametrize("order", [200, 800])
def test_theta_sums_times_prefactor_skip_the_kronecker_packer(monkeypatch, order):
    with run_scope():
        for family in (Family.A, Family.C):
            _explicit_prefactor(family, order)  # built once per order, on any path
        packed = []
        pack = _kernels_py._pack

        def spy(coeffs, nbytes):
            packed.append(len(coeffs))
            return pack(coeffs, nbytes)

        monkeypatch.setattr(_kernels_py, "_pack", spy)
        for family in (Family.A, Family.C):
            for k in range(1, 5):
                assert gen_explicit(family, k, order) == gen_direct(family, k, order)
    assert packed == []


def test_threads_never_share_a_scope():
    # threads started inside the main thread's scope, each in a scope of
    # its own or in none, ask for random k of two chains: every answer is
    # the cold one, a scoped thread's chains hold exactly the rows it asked
    # for, and no thread sees or fills the main thread's memo
    expected = {(f, k): gen_direct(f, k, 80) for f in (Family.A, Family.C) for k in range(1, 9)}
    wrong, saw_main = [], []

    def work(seed):
        saw_main.append(memo() is held)
        rng = random.Random(seed)
        with run_scope() if seed % 2 else nullcontext() as scope:
            top = {}
            for _ in range(40):
                key = rng.choice(list(expected))
                top[key[0]] = max(top.get(key[0], 0), key[1])
                if gen_recurrence(key[0], key[1], 80) != expected[key]:
                    wrong.append(key)
            if scope is not None:
                chains = {key[1]: len(v) for key, v in scope.items() if key[0] == "chain"}
                if chains != top:
                    wrong.append(chains)

    with run_scope() as held:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert held == {}
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert saw_main == [False] * 6


def test_library_calls_outside_a_scope_hold_nothing():
    # eight orders of all three routes leave no table, chain or eta
    # product behind; stores that kept the last eight of each would hold
    # about 0.13 MB here
    gen_explicit(Family.A, 3, 99), gen_recurrence(Family.A, 3, 99)  # one-time allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for order in range(100, 108):
            for family in (Family.A, Family.C):
                gen_explicit(family, 3, order)
                gen_recurrence(family, 3, order)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 30_000


def test_recurrence_chain_is_kept_only_for_its_seed(monkeypatch):
    warm = gen_recurrence(Family.A, 3, 40)
    bumped = gen_direct(Family.A, 1, 40) + QSeries.monomial(5, 40)
    monkeypatch.setattr(macmahon, "gen_direct", lambda family, k, order: bumped)
    expected = bumped
    for k in (2, 3):
        numerator, denominator = macmahon._recurrence_step(Family.A, k, bumped, expected)
        expected = numerator / denominator
    assert gen_recurrence(Family.A, 3, 40) == expected != warm


def test_route_preconditions():
    with pytest.raises(ValueError):
        gen_explicit(Family.A, 0, 5)
    with pytest.raises(ValueError):
        gen_recurrence(Family.A, 0, 5)
    with pytest.raises(ValueError):
        gen_direct(Family.A, -1, 5)


@pytest.mark.parametrize("family", [Family.A, Family.C])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_four_way_agreement_small(family, k):
    order = 25
    direct = gen_direct(family, k, order)
    assert gen_explicit(family, k, order) == direct
    assert gen_recurrence(family, k, order) == direct
    oracle = oracle_a if family is Family.A else oracle_c
    for n in range(1, order + 1):
        assert direct.coefficient(n) == oracle(n, k)


def test_routes_return_integral_series():
    for family in (Family.A, Family.C):
        for fn in (gen_direct, gen_explicit, gen_recurrence):
            fn(family, 3, 40).integer_coefficients()


# -- Chebyshev machinery ---------------------------------------------------------------


def test_cheb_rescaled_small():
    assert cheb_rescaled(0).coeffs == (2,)
    assert cheb_rescaled(1).coeffs == (0, 1)
    assert cheb_rescaled(2).coeffs == (-2, 0, 1)
    assert cheb_rescaled(4).coeffs == (2, 0, -4, 0, 1)


def test_cheb_closed_form_examples():
    assert cheb_coeff_closed(2, 1, "even") == -4  # x^2 in P_4
    assert cheb_coeff_closed(1, 0, "odd") == -3  # x in P_3
    for n in range(1, 8):
        assert cheb_coeff_closed(n, n, "even") == 1
        assert cheb_coeff_closed(n, n, "odd") == 1


@pytest.mark.parametrize("n", range(0, 13))
def test_cheb_closed_matches_recurrence(n):
    odd_poly = cheb_rescaled(2 * n + 1)
    for k in range(n + 1):
        assert odd_poly.coefficient(2 * k + 1) == cheb_coeff_closed(n, k, "odd")
    for d in range(0, odd_poly.degree + 1, 2):
        assert odd_poly.coefficient(d) == 0
    if n >= 1:
        even_poly = cheb_rescaled(2 * n)
        for k in range(n + 1):
            assert even_poly.coefficient(2 * k) == cheb_coeff_closed(n, k, "even")
        for d in range(1, even_poly.degree + 1, 2):
            assert even_poly.coefficient(d) == 0


def test_cheb_closed_preconditions():
    with pytest.raises(ValueError):
        cheb_coeff_closed(2, 3, "even")
    with pytest.raises(ValueError):
        cheb_coeff_closed(0, 0, "even")
    with pytest.raises(ValueError):
        cheb_coeff_closed(2, 1, "middling")
    assert cheb_coeff_closed(0, 0, "odd") == 1  # P_1 = x


def test_int_polynomial_normalization():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert p.coefficient(5) == 0
    assert IntPolynomial([]).degree == -1
    with pytest.raises(TypeError):
        IntPolynomial([1.5])


# -- theta builders ----------------------------------------------------------------------


def test_theta_f_x1_entry():
    assert theta_f(1, 2).entry(1).coeffs == (1, 0, -3)


def test_theta_g_x0_entry():
    assert theta_g(0, 9).entry(0).coeffs == (1, -2, 0, 0, 2, 0, 0, 0, 0, -2)


def test_theta_f_parity():
    t = theta_f(8, 30)
    for d in range(0, 9, 2):
        assert t.entry(d).is_zero
    assert t.nonzero_degrees() == [1, 3, 5, 7]


def test_theta_g_parity():
    t = theta_g(7, 30)
    for d in range(1, 8, 2):
        assert t.entry(d).is_zero
    assert t.nonzero_degrees() == [0, 2, 4, 6]


def test_theta_shapes():
    t = theta_f(5, 17)
    assert t.x_degree_bound == 5
    assert t.q_order == 17
    assert all(t.entry(d).order == 17 for d in range(6))
    with pytest.raises(ValueError):
        t.entry(6)


def test_bivar_series_order_validation():
    with pytest.raises(ValueError):
        BivarSeries([QSeries.one(3), QSeries.one(4)])
    with pytest.raises(ValueError):
        BivarSeries([])


def test_explicit_prefactors_match_the_product_forms():
    # C's prefactor is built from (q^2;q^2)_inf, not from (-q;q)_inf
    pq = pochhammer_inf(1, 1, 1, 300)
    assert _explicit_prefactor(Family.C, 300) == pochhammer_inf(-1, 1, 1, 300) * pq.inverse()
    assert _explicit_prefactor(Family.A, 300) * pq**3 == QSeries.one(300)
