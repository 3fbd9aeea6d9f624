"""Identity suite tests: passing runs, report structure, fault injection."""

import json
import random
from contextlib import nullcontext
from fractions import Fraction

import pytest

from qdiv import _certify, linalg, macmahon, quasimodular, series, verify
from qdiv.macmahon import Family, gen_direct, gen_explicit
from qdiv._certify import RAMANUJAN_D, recurrence_polynomials
from qdiv.quasimodular import (
    DivisorFitResult, QMDecomposition, QMMonomial, monomial_basis, monomial_columns,
)
from qdiv.series import run_scope
from qdiv.verify import (
    Mismatch,
    Perturbation,
    VerificationReport,
    perturbable_targets,
    verify_method_agreement,
    verify_quasimodularity,
    verify_theorem_f,
    verify_theorem_g,
)


def test_theorem_f_seed_passes():
    r = verify_theorem_f(0, 150)
    assert r.passed
    assert r.checked_order == 150
    assert r.first_mismatch is None


def test_theorem_f_passes():
    assert verify_theorem_f(3, 60).passed


def test_theorem_f_odd_order():
    assert verify_theorem_f(2, 51).passed


def test_theorem_g_seed_passes():
    assert verify_theorem_g(0, 150).passed


def test_theorem_g_passes():
    assert verify_theorem_g(3, 60).passed


@pytest.mark.parametrize("family", [Family.A, Family.C])
@pytest.mark.parametrize("k", [1, 2])
def test_agreement_passes(family, k):
    r = verify_method_agreement(family, k, 60)
    assert r.passed
    assert r.parameters == {"family": family.value, "k": k, "order": 60}


@pytest.mark.parametrize("family, oracle", [(Family.A, "oracle_a"), (Family.C, "oracle_c")])
@pytest.mark.parametrize("order", [3, 40, 41, 90])
def test_agreement_checks_the_oracle_through_n_40(monkeypatch, family, oracle, order):
    # the oracle prefix is the suite's one check against ground truth: it
    # covers every n from 1 to min(order, 40), for the k of the report
    calls = []
    original = getattr(verify, oracle)

    def spy(n, k):
        calls.append((n, k))
        return original(n, k)

    monkeypatch.setattr(verify, oracle, spy)
    assert verify_method_agreement(family, 2, order).passed
    assert calls == [(n, 2) for n in range(1, min(order, 40) + 1)]


def test_quasimodularity_passes_with_details():
    r = verify_quasimodularity(2, 60)
    assert r.passed
    assert r.details["A_1"]["terms"] == 2
    assert r.details["A_2"]["terms"] == 4
    assert r.details["C_1_probe"]["status"] == "no-decomposition"
    assert r.details["C_1_probe"]["witness_exponent"] == 2


def test_suite_argument_validation():
    with pytest.raises(ValueError):
        verify_theorem_f(-1, 50)
    with pytest.raises(ValueError):
        verify_method_agreement(Family.A, 0, 50)
    with pytest.raises(ValueError):
        verify_quasimodularity(0, 50)


# -- report structure ---------------------------------------------------------------


def test_report_invariant_fail_iff_mismatch():
    mm = Mismatch(None, 3, 1, 2)
    with pytest.raises(ValueError):
        VerificationReport("x", {}, 10, "fail", None, 0.0)
    with pytest.raises(ValueError):
        VerificationReport("x", {}, 10, "pass", mm, 0.0)
    with pytest.raises(ValueError):
        VerificationReport("x", {}, 10, "maybe", None, 0.0)
    ok = VerificationReport("x", {}, 10, "fail", mm, 0.0)
    assert not ok.passed
    with pytest.raises(ValueError):
        ok._replace(status="pass")
    # each report built without details gets a dict of its own
    ok.details["k"] = 1
    assert VerificationReport("x", {}, 10, "fail", mm, 0.0).details == {}


@pytest.mark.parametrize("record, given, defaults", [
    (Mismatch, {"x_degree": None, "q_exponent": 3, "lhs_coefficient": 1,
                "rhs_coefficient": Fraction(1, 2)}, {}),
    (VerificationReport, {"identity_name": "x", "parameters": {}, "checked_order": 10,
                          "status": "pass", "first_mismatch": None, "elapsed": 0.0},
     {"details": {}}),
    (Perturbation, {"target": "A_1", "exponent": 2}, {"delta": 1}),
    (QMMonomial, {"a": 1, "b": 0, "c": 2}, {}),
    (QMDecomposition, {"terms": {}, "weight_bound": 2, "verified_order": 10},
     {"target_description": "", "ambiguous": False}),
    (DivisorFitResult, {"k": 1, "degree_bound": 0, "checked_n": 10},
     {"polynomials": None, "first_failure_n": None, "ambiguous": False}),
], ids=["Mismatch", "VerificationReport", "Perturbation", "QMMonomial", "QMDecomposition",
        "DivisorFitResult"])
def test_records_are_immutable_named_tuples(record, given, defaults):
    r = record(**given)
    fields = {**given, **defaults}  # the defaulted fields come last
    assert r._fields == tuple(fields)
    assert tuple(r) == tuple(fields.values())
    with pytest.raises(AttributeError):
        setattr(r, r._fields[0], None)
    with pytest.raises(AttributeError):
        r.extra = None


def test_monomials_sort_by_exponents():
    exps = [(1, 2, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 0), (1, 0, 3)]
    assert sorted(QMMonomial(*e) for e in exps) == [QMMonomial(*e) for e in sorted(exps)]


def test_report_json_and_determinism():
    a = verify_theorem_g(1, 40).to_json_obj()
    b = verify_theorem_g(1, 40).to_json_obj()
    del a["elapsed"], b["elapsed"]
    assert a == b
    assert json.dumps(a)  # serializable
    assert a["status"] == "pass"
    assert a["first_mismatch"] is None


def test_mismatch_json_encoding():
    obj = Mismatch(3, 6, -5, None).to_json_obj()
    assert obj == {
        "x_degree": 3,
        "q_exponent": 6,
        "lhs_coefficient": "-5",
        "rhs_coefficient": None,
    }


def test_summary_line_contains_location_on_failure():
    r = verify_theorem_f(1, 50, perturb=Perturbation("A_1", 3))
    line = r.summary_line()
    assert line.startswith("FAIL theorem-f")
    assert "x^3" in line and "q^6" in line


# -- fault injection ------------------------------------------------------------------


def test_perturbed_a1_located_exactly():
    # bump A_1 at q^3; the q -> q^2 substitution puts the mismatch at x^3, q^6
    r = verify_theorem_f(1, 50, perturb=Perturbation("A_1", 3))
    assert not r.passed
    assert r.first_mismatch == Mismatch(3, 6, -5, -4)


@pytest.mark.parametrize(
    "suite, k_max, order",
    [pytest.param(s, 2, 40, id=s) for s in ("theorem-f", "theorem-g", "agreement", "quasimodular")]
    # k_max = 12 lies past the feasible rows at order 20, where both sides of
    # every identity are zero; quasimodular refuses a basis that large
    + [pytest.param(s, 12, 20, id=f"{s}-past-feasible") for s in ("theorem-f", "theorem-g", "agreement")]
    # below k_max 4 the induction builds columns of weight 2k_max only
    + [pytest.param("quasimodular", k, 40, id=f"quasimodular-k{k}") for k in (1, 3)],
)
def test_every_perturbable_target_flips_to_fail(suite, k_max, order):
    for target in perturbable_targets(suite, k_max):
        p = Perturbation(target, 3)
        if suite == "theorem-f":
            r = verify_theorem_f(k_max, order, perturb=p)
        elif suite == "theorem-g":
            r = verify_theorem_g(k_max, order, perturb=p)
        elif suite == "agreement":
            r = verify_method_agreement(Family.A, k_max, order, perturb=p)
        else:
            r = verify_quasimodularity(k_max, order, perturb=p)
        assert not r.passed, f"{suite}: perturbing {target} did not fail"
        assert r.first_mismatch is not None
        assert 0 <= r.first_mismatch.q_exponent <= r.checked_order


def test_quasimodular_perturbation_beyond_solve_window():
    # exponent 30 is past the solve equations, so only deep verification sees it
    r = verify_quasimodularity(1, 60, perturb=Perturbation("A_1", 30))
    assert not r.passed
    assert r.first_mismatch.q_exponent == 30


def test_quasimodular_perturbation_inside_solve_window_located_exactly():
    # the candidate comes from the recurrence, so a bump inside the old solve
    # window is reported where it is, against the candidate's value
    a = gen_direct(Family.A, 2, 60).coefficient(3)
    r = verify_quasimodularity(2, 60, perturb=Perturbation("A_2", 3))
    assert r.first_mismatch == Mismatch(None, 3, a + 1, a)
    assert type(r.first_mismatch.rhs_coefficient) is int
    # a bump at q^0 adds the constant monomial, which a solve would absorb
    r = verify_quasimodularity(1, 60, perturb=Perturbation("A_1", 0))
    assert r.first_mismatch == Mismatch(None, 0, 1, 0)


def test_quasimodularity_solves_only_the_c1_probe(monkeypatch):
    calls = []
    add_equation = linalg.IncrementalSolver.add_equation

    def spy(self, coeffs, rhs):
        calls.append(len(coeffs))
        return add_equation(self, coeffs, rhs)

    monkeypatch.setattr(linalg.IncrementalSolver, "add_equation", spy)
    r = verify_quasimodularity(8, 200)
    assert r.passed
    assert r.details["C_1_probe"]["witness_exponent"] == 2
    # the probe's 2-column solve, through its witness exponent
    assert calls == [2, 2, 2]


def test_quasimodularity_short_window_falls_back_to_the_solve(monkeypatch):
    clean = verify_quasimodularity(4, 100).to_json_obj()
    solved, ranked = [], []
    ranks, decompose = _certify.window_ranks, quasimodular.decompose

    def short(columns, sizes, order):
        ranked.append(sizes)
        found = ranks(columns, sizes, order)
        found[2] -= 1  # A_3's window
        return found

    def spy(target, weight_bound, order, description=""):
        solved.append(description)
        return decompose(target, weight_bound, order, description)

    monkeypatch.setattr(_certify, "window_ranks", short)
    monkeypatch.setattr(quasimodular, "decompose", spy)
    monkeypatch.setattr(verify, "decompose", spy)  # the C_1 probe
    # K_FULL_RANK decides every window to A_4: none is ranked or solved
    assert verify_quasimodularity(4, 100).passed
    assert ranked == [] and solved == ["C_1"]
    # the live path ranks them, and solves the one short of full rank
    monkeypatch.setattr(_certify, "K_FULL_RANK", 0)
    solved.clear()
    r = verify_quasimodularity(4, 100).to_json_obj()
    assert solved == ["A_3", "C_1"]
    for obj in (clean, r):
        del obj["elapsed"]
    assert r == clean


def test_certify_rows_returns_the_report_mismatch_and_details():
    # certify_rows is the whole certificate: the suite adds only the taps,
    # the C_1 probe and the report
    k_max, order = 5, 100
    clean = [gen_direct(Family.A, k, order) for k in range(k_max + 1)]
    difference, details, _ = _certify.certify_rows(clean, order)
    report = verify_quasimodularity(k_max, order)
    assert difference is None
    assert details == {key: v for key, v in report.details.items() if key != "C_1_probe"}
    assert list(details) == [f"A_{k}" for k in range(1, k_max + 1)]
    for k, exponent, delta in [(1, 40, 1), (3, 5, -3), (5, 90, Fraction(1, 7))]:
        p = Perturbation(f"A_{k}", exponent, delta)
        rows = [verify._tap(row, f"A_{j}", p) for j, row in enumerate(clean)]
        difference, details, _ = _certify.certify_rows(rows, order)
        report = verify_quasimodularity(k_max, order, perturb=p)
        assert Mismatch(None, *difference) == report.first_mismatch, p
        assert details == report.details, p
        assert list(details) == [f"A_{j}" for j in range(1, k)], p


def test_certify_rows_returns_the_polynomials_it_carries_through_the_order(monkeypatch):
    # every P_k on clean rows; past a failing check, or a failing ring step
    # that the window pin takes over, only the P_k below it
    k_max, order = 5, 100
    polys = recurrence_polynomials(k_max)
    clean = [gen_direct(Family.A, k, order) for k in range(k_max + 1)]
    assert _certify.certify_rows(clean, order)[2] == polys
    p = Perturbation("A_3", 5, -3)
    rows = [verify._tap(row, f"A_{j}", p) for j, row in enumerate(clean)]
    difference, _, proved = _certify.certify_rows(rows, order)
    assert difference is not None and proved == polys[:3]
    ring_step = _certify.ring_step_holds
    monkeypatch.setattr(
        _certify, "ring_step_holds", lambda found, k: k != 4 and ring_step(found, k)
    )
    difference, _, proved = _certify.certify_rows(clean, order)
    assert difference is None and proved == polys[:4]


def full_order_mismatch(k_max, order, columns, perturb):
    """The reference: each recurrence polynomial summed over the weight-2k_max
    columns through the whole order and compared with its row, k = 1, 2, ..."""
    polys = recurrence_polynomials(k_max)
    for k in range(1, k_max + 1):
        target = verify._tap(gen_direct(Family.A, k, order), f"A_{k}", perturb)
        difference = _certify._candidate_difference(polys[k], columns, target, order)
        if difference is not None:
            return Mismatch(None, *difference)
    return None


@pytest.mark.parametrize("k_max, order", [(6, 120), (8, 200)])
def test_quasimodular_mismatch_matches_the_full_order_reference(k_max, order):
    # seeded bumps inside and past each row's solve window, by ints and
    # Fractions: the induction locates each where the full-order check does
    rng = random.Random(order)
    columns = monomial_columns(2 * k_max, order)
    for _ in range(12):
        k = rng.randint(1, k_max)
        window = min(len(monomial_basis(2 * k)) + 4, order)
        exponent = rng.choice([rng.randint(0, window), rng.randint(window + 1, order)])
        delta = rng.choice([rng.randint(1, 9), Fraction(rng.randint(-9, -1), rng.randint(2, 9))])
        p = Perturbation(f"A_{k}", exponent, delta)
        found = verify_quasimodularity(k_max, order, perturb=p).first_mismatch
        expected = full_order_mismatch(k_max, order, columns, p)
        assert expected is not None and found == expected, p
        assert type(found.rhs_coefficient) is type(expected.rhs_coefficient), p


def test_quasimodularity_pins_the_recurrence_polynomials(monkeypatch):
    # the induction holds whatever the polynomials say; only the window pin
    # sees a wrong coefficient
    polys = _certify.recurrence_polynomials

    def nudged(k_max):
        found = polys(k_max)
        found[3][next(iter(found[3]))] += Fraction(1, 10**6)
        return found

    monkeypatch.setattr(_certify, "recurrence_polynomials", nudged)
    r = verify_quasimodularity(4, 100)
    assert not r.passed
    assert r.first_mismatch.q_exponent <= len(monomial_basis(6)) + 4


@pytest.mark.parametrize("delta", [3, Fraction(-2, 7)], ids=["int", "fraction"])
@pytest.mark.parametrize("k", [2, 6], ids=["first-k", "k-max"])
def test_corrupted_recurrence_polynomial_fails_the_suite_at_k(monkeypatch, k, delta):
    # a wrong P_k breaks the ring step into k; from there the suite pins P_k
    # on the window decompose would solve, and reports what that pin finds
    k_max, order = 6, 120
    polys = _certify.recurrence_polynomials
    term = sorted(polys(k_max)[k])[1]

    def corrupted(n):
        found = polys(n)
        found[k][term] += delta
        return found

    monkeypatch.setattr(_certify, "recurrence_polynomials", corrupted)
    r = verify_quasimodularity(k_max, order)
    window = quasimodular._solve_top(len(monomial_basis(2 * k)), order)
    columns = monomial_columns(2 * k_max, order)
    row = gen_direct(Family.A, k, order)
    expected = _certify._candidate_difference(corrupted(k_max)[k], columns, row, window)
    assert expected is not None
    assert r.first_mismatch == Mismatch(None, *expected)
    assert type(r.first_mismatch.rhs_coefficient) is type(expected[2])
    assert list(r.details) == [f"A_{j}" for j in range(1, k)]


def test_quasimodularity_checks_ramanujan_identities(monkeypatch):
    # D E6 is first taken in the step to A_4, so k_max 4 checks its identity,
    # which runs first and finds the wrong image E2*E6/2 - E4^2/3 at q^0,
    # 1/6 against D E6 = 0
    monkeypatch.setitem(RAMANUJAN_D[2], (0, 2, 0), Fraction(-1, 3))
    r = verify_quasimodularity(4, 60)
    assert r.first_mismatch == Mismatch(None, 0, 0, Fraction(1, 6))


@pytest.mark.parametrize("generator, key, value, k_max, rhs", [
    (0, (0, 1, 0), Fraction(-1, 6), 2, Fraction(-1, 12)),  # E2^2/12 - E4/6
    (1, (0, 0, 1), Fraction(-1, 2), 3, Fraction(-1, 6)),  # E2*E4/3 - E6/2
])
def test_quasimodularity_checks_each_identity_from_its_first_step(
    monkeypatch, generator, key, value, k_max, rhs
):
    # D E_w is first taken in the step to A_{w/2 + 1}: from that k_max on,
    # the identity check finds a wrong image at q^0, against D E_w = 0
    monkeypatch.setitem(RAMANUJAN_D[generator], key, value)
    r = verify_quasimodularity(k_max, 60)
    assert r.first_mismatch == Mismatch(None, 0, 0, rhs)


@pytest.mark.parametrize("k_max", [1, 2, 3])
def test_quasimodularity_builds_no_column_above_weight_2k_max(monkeypatch, k_max):
    weights = []
    build = quasimodular._monomial_series

    def spy(basis, order):
        weights.append(max(m.weight for m in basis))
        return build(basis, order)

    monkeypatch.setattr(quasimodular, "_monomial_series", spy)
    r = verify_quasimodularity(k_max, 400)
    assert r.passed
    assert r.details["C_1_probe"]["status"] == "no-decomposition"
    assert weights and max(weights) == 2 * k_max


def test_quasimodularity_checks_eisenstein_series_through_the_order(monkeypatch):
    eisenstein = quasimodular.eisenstein

    def bumped(weight, order):
        e = eisenstein(weight, order)
        return e + series.QSeries.monomial(300, order) if weight == 4 else e

    monkeypatch.setattr(quasimodular, "eisenstein", bumped)
    r = verify_quasimodularity(12, 400)
    assert r.first_mismatch.q_exponent == 300


def test_quasimodularity_builds_only_weight_8_columns_through_the_order(monkeypatch):
    built, residues = [], []
    build, reduce = quasimodular._monomial_series, _certify._monomial_residues

    def spy(basis, order):
        built.append((len(basis), order))
        return build(basis, order)

    def residue_spy(basis, order):
        residues.append((len(basis), order))
        return reduce(basis, order)

    monkeypatch.setattr(quasimodular, "_monomial_series", spy)
    monkeypatch.setattr(_certify, "_monomial_residues", residue_spy)
    assert verify_quasimodularity(12, 400).passed
    # exactly, only the 8 columns Ramanujan's identities and A_1 read,
    # through the order, and the C_1 probe's own two columns; K_FULL_RANK
    # decides the windows, so no column is built mod p
    assert built == [(8, 400), (2, 400)]
    assert residues == []
    # on the live path, the weight-24 columns only mod p, through the
    # largest window, 102 + 4
    monkeypatch.setattr(_certify, "K_FULL_RANK", 0)
    built.clear()
    assert verify_quasimodularity(12, 400).passed
    assert built == [(8, 400), (2, 400)]
    assert residues == [(102, 106)]


@pytest.mark.parametrize("run, weights", [
    (lambda: verify_quasimodularity(1, 200), [2]),
    (lambda: verify_quasimodularity(2, 200), [2, 4]),
    (lambda: quasimodular.decompose(gen_direct(Family.C, 1, 60), 2, 60), [2]),
], ids=["suite-k1", "suite-k2", "decompose-c1"])
def test_columns_sieve_only_the_generators_of_their_basis(monkeypatch, run, weights):
    sieved = []
    eisenstein = quasimodular.eisenstein

    def spy(weight, order):
        sieved.append(weight)
        return eisenstein(weight, order)

    monkeypatch.setattr(quasimodular, "eisenstein", spy)
    try:
        run()
    except quasimodular.NoDecompositionError:
        pass  # C_1 has no decomposition at level 1
    assert sorted(set(sieved)) == weights


def test_replaced_recurrence_step_is_not_hidden_by_a_warm_chain(monkeypatch):
    assert verify_method_agreement(Family.A, 4, 60).passed  # keeps the A chain
    step = macmahon._recurrence_step

    def wrong(family, k, seed, prev):
        numerator, denominator = step(family, k, seed, prev)
        return numerator, denominator + (k == 3)

    monkeypatch.setattr(macmahon, "_recurrence_step", wrong)
    assert not verify_method_agreement(Family.A, 4, 60).passed
    assert not verify_method_agreement(Family.A, 3, 60).passed
    assert verify_method_agreement(Family.A, 2, 60).passed
    monkeypatch.undo()  # nor does the chain built with the wrong step outlive it
    assert verify_method_agreement(Family.A, 3, 60).passed


def test_recurrence_perturbation_flips_a_warm_agreement_suite():
    assert verify_method_agreement(Family.C, 3, 60).passed
    r = verify_method_agreement(Family.C, 3, 60, perturb=Perturbation("recurrence", 7))
    assert r.first_mismatch.q_exponent == 7
    assert verify_method_agreement(Family.C, 3, 60).passed  # the kept chain is untouched


def test_recurrence_step_is_shared_by_the_route_and_the_suite(monkeypatch):
    step = macmahon._recurrence_step

    def wrong(family, k, seed, prev):
        numerator, denominator = step(family, k, seed, prev)
        return numerator, denominator + (k == 3)

    monkeypatch.setattr(macmahon, "_recurrence_step", wrong)
    monkeypatch.setattr(_certify, "_recurrence_step", wrong)
    assert not verify_method_agreement(Family.A, 3, 60).passed
    assert not verify_quasimodularity(3, 60).passed


def test_quasimodularity_refuses_oversized_basis_before_any_column(monkeypatch):
    # the weight-80 basis has more than 50 monomials: refused before the
    # suite builds its first Eisenstein column
    def no_columns(*args):
        raise AssertionError("a column was built")

    monkeypatch.setattr(quasimodular, "_monomial_series", no_columns)
    with pytest.raises(ValueError, match="too small") as info:
        verify_quasimodularity(40, 100)
    assert "weight-80" in str(info.value)


@pytest.mark.parametrize("scope", [nullcontext, run_scope], ids=["no-scope", "run-scope"])
def test_perturbation_does_not_leak_into_shared_rows(scope):
    # the suites share one row table per (family, order) within a run
    # scope; a perturbed run must leave it as it was for the runs that
    # follow.  Outside a scope nothing is shared, so only the run-scope
    # case exercises a shared table.
    with scope():
        clean = gen_explicit(Family.A, 2, 30)
        assert gen_direct(Family.A, 2, 30) == clean
        perturbed = verify_theorem_f(3, 60, perturb=Perturbation("A_2", 5, 1))
        assert not perturbed.passed
        assert gen_direct(Family.A, 2, 30) == clean
        assert verify_theorem_f(3, 60).passed
        assert verify_method_agreement(Family.A, 2, 30).passed
        assert verify_quasimodularity(2, 60).passed
        assert gen_direct(Family.A, 2, 30) == clean


def spy_table_reads(monkeypatch):
    """Record the family of every row-table read, from the suites or gen_direct."""
    reads = []
    table = macmahon._direct_table

    def spy(family, k, order):
        reads.append(family)
        return table(family, k, order)

    monkeypatch.setattr(macmahon, "_direct_table", spy)
    monkeypatch.setattr(verify, "_direct_table", spy)
    return reads


@pytest.mark.parametrize("suite, family", [(verify_theorem_f, Family.A), (verify_theorem_g, Family.C)])
def test_theorem_suites_read_the_row_table_once(monkeypatch, suite, family):
    reads = spy_table_reads(monkeypatch)
    assert suite(50, 100).passed
    assert reads == [family]


def test_quasimodularity_reads_each_row_table_once(monkeypatch):
    reads = spy_table_reads(monkeypatch)
    assert verify_quasimodularity(4, 100).passed
    assert sorted(reads, key=lambda f: f.value) == [Family.A, Family.C]


def test_larger_held_table_adds_no_products(monkeypatch):
    # a table left by a larger k_max holds rows this call did not ask for;
    # they must not be multiplied out
    products = []
    conv = series.kernels.conv_trunc

    def spy(a, b, order):
        products.append(order)
        return conv(a, b, order)

    monkeypatch.setattr(series.kernels, "conv_trunc", spy)
    with run_scope():
        assert verify_theorem_f(2, 100).passed
        cold = len(products)
        assert verify_theorem_f(10, 100).passed
        del products[:]
        assert verify_theorem_f(2, 100).passed
    assert len(products) == cold == 6


def spy_comparisons(monkeypatch):
    """Record (x-degree, rhs) of every comparison, and the x-degree bound of theta."""
    compared, bounds = [], []
    first_mismatch = verify._first_mismatch

    def spy(lhs, rhs, upto, x_degree):
        compared.append((x_degree, rhs))
        return first_mismatch(lhs, rhs, upto, x_degree)

    monkeypatch.setattr(verify, "_first_mismatch", spy)
    for name in ("theta_f", "theta_g"):
        def theta(bound, order, original=getattr(verify, name)):
            bounds.append(bound)
            return original(bound, order)

        monkeypatch.setattr(verify, name, theta)
    return compared, bounds


def test_theorem_g_prefactor_is_the_minus_q_quotient(monkeypatch):
    # the k = 0 entry of G is compared with the prefactor times C_0 = 1
    compared, _ = spy_comparisons(monkeypatch)
    assert verify_theorem_g(0, 300).passed
    old = series.pochhammer_inf(1, 1, 1, 300) * series.pochhammer_inf(-1, 1, 1, 300).inverse()
    assert compared[0] == (0, old)


@pytest.mark.parametrize("suite", [verify_theorem_f, verify_theorem_g])
def test_theorem_suite_work_does_not_grow_with_k_max(monkeypatch, suite):
    compared, bounds = spy_comparisons(monkeypatch)
    assert suite(50, 100).passed
    work = (len(compared), list(bounds))
    compared.clear()
    bounds.clear()
    assert suite(10**6, 100).passed
    assert (len(compared), bounds) == work
    assert work[0] <= 2 * 10 + 2


@pytest.mark.parametrize(
    "suite, odd, row", [(verify_theorem_f, 1, "A"), (verify_theorem_g, 0, "C")]
)
def test_perturbation_past_the_terms_is_located(suite, odd, row):
    # degrees past the last theta term and row are not compared unperturbed,
    # but a perturbation of any of them is still found where it lies
    k_max = 50
    top = 2 * k_max + odd
    r = suite(k_max, 100, perturb=Perturbation(f"theta_x{top}", 7))
    assert r.first_mismatch == Mismatch(top, 7, 1, 0)
    r = suite(k_max, 100, perturb=Perturbation(f"{row}_{k_max}", 7))
    assert r.first_mismatch == Mismatch(top, 7 * (1 + odd), 0, 1)
    # names next to the targets are no targets of the suite
    for target in (f"theta_x{top + 2}", f"{row}_{k_max + 1}", f"{row}_07", f"theta_x{top}x"):
        with pytest.raises(ValueError, match="no perturbable series"):
            suite(k_max, 100, perturb=Perturbation(target, 7))


@pytest.mark.parametrize("suite, odd", [(verify_theorem_f, 1), (verify_theorem_g, 0)])
def test_theta_terms_past_the_rows_are_compared(monkeypatch, suite, odd):
    # a row table that ends early leaves theta terms with no row to match;
    # they are compared all the same
    table = verify._direct_table
    monkeypatch.setattr(verify, "_direct_table", lambda f, k, o: table(f, k, o)[:2])
    assert suite(4, 30).first_mismatch.x_degree == 4 + odd


@pytest.mark.parametrize(
    "run, target",
    [
        (lambda p: verify_theorem_f(2, 100, perturb=p), "A_7"),
        (lambda p: verify_theorem_g(2, 100, perturb=p), "A_1"),
        (lambda p: verify_method_agreement(Family.A, 2, 100, perturb=p), "Direct"),
        (lambda p: verify_quasimodularity(4, 100, perturb=p), "A_9"),
    ],
    ids=["theorem-f", "theorem-g", "agreement", "quasimodular"],
)
def test_perturbation_of_unknown_target_is_refused(run, target):
    # a misspelt target would otherwise leave the suite unperturbed and passing
    with pytest.raises(ValueError, match="no perturbable series"):
        run(Perturbation(target, 3))


def test_perturbation_exponent_out_of_range():
    with pytest.raises(ValueError):
        verify_theorem_g(1, 40, perturb=Perturbation("C_1", 41))


def test_perturbable_targets_unknown_suite():
    with pytest.raises(ValueError):
        perturbable_targets("nonsense", 2)
