"""CLI contract tests: exit codes, formats, caps, stability."""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qdiv
from qdiv import _certify, cli, macmahon
from qdiv.cli import EXIT_INTERNAL, EXIT_NO_SOLUTION, EXIT_OK, EXIT_USAGE, main
from qdiv.macmahon import Family, gen_direct
from qdiv.quasimodular import NoDecompositionError, decompose, monomial_basis
from qdiv.series import run_scope
from qdiv.verify import Mismatch, VerificationReport


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def python_child(args, timeout, check=False):
    """Run `python -B <args>` in a fresh process with only PATH and the
    package's source directory set; -B keeps the child from writing bytecode
    caches into src, which later timings of this checkout would read."""
    env = {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONPATH": str(Path(qdiv.__file__).resolve().parents[1]),
    }
    return subprocess.run(
        [sys.executable, "-B", *args],
        capture_output=True, text=True, env=env, timeout=timeout, check=check,
    )


def run_fresh(argv, timeout):
    """Run the CLI in a fresh process that is killed after `timeout` seconds."""
    return python_child(["-m", "qdiv.cli", *argv], timeout)


def fresh_imports(statements):
    """Modules that `statements` load in a fresh interpreter, in the order
    of `sys.modules`.

    The snapshot is taken after start-up, so modules that `site` loads
    from third-party .pth files are not counted against the package.  The
    list goes to stderr, so the statements may write to stdout.
    """
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statements}\n"
        "sys.stderr.write(' '.join(m for m in sys.modules if m not in before))\n"
    )
    return python_child(["-c", code], timeout=60, check=True).stderr.split()


def package_modules(statements):
    """The qdiv modules that `statements` load in a fresh interpreter."""
    return {name for name in fresh_imports(statements) if name.partition(".")[0] == "qdiv"}


def test_children_write_no_bytecode():
    # run_fresh is python_child with `-m qdiv.cli`
    child = python_child(["-c", "import sys; print(sys.flags.dont_write_bytecode)"], timeout=60)
    assert child.stdout == "1\n"
    assert fresh_imports("print(sys.flags.dont_write_bytecode, file=sys.stderr)") == ["1"]


def test_import_loads_only_the_standard_library():
    # every module of the package, and what the commands load when they run,
    # so the checks on `out` guard all of it however lazily it is loaded
    package = Path(qdiv.__file__).parent
    modules = sorted(f"qdiv.{path.stem}" for path in package.glob("*.py")
                     if path.stem != "__init__")
    out = fresh_imports(
        f"import qdiv, {', '.join(modules)}\n"
        "from qdiv.cli import main\n"
        "for argv in (['coeffs', '--family', 'A', '--k', '1', '--order', '3', '--format', 'csv'],\n"
        "             ['coeffs', '--family', 'C', '--k', '1', '--order', '3', '--format', 'json'],\n"
        "             ['verify', '--suite', 'all', '--k-max', '1', '--order', '10'],\n"
        "             ['decompose', '--k', '1', '--order', '10', '--format', 'json']):\n"
        "    assert main(argv) == 0\n"
    )
    assert set(modules) <= set(out)
    assert "qdiv.cli" in out
    # records are named tuples and traceback is loaded only on failure, so
    # no start-up pays for the dataclasses -> inspect chain
    assert {"dataclasses", "inspect", "ast", "dis", "tokenize", "traceback"}.isdisjoint(out)
    # the package imports a submodule only when one of its names is read, and
    # the CLI at import only what `coeffs` runs
    assert package_modules("import qdiv") == {"qdiv"}
    coeffs_modules = {"qdiv", "qdiv.cli", "qdiv.series", "qdiv._kernels_py", "qdiv.macmahon",
                      "qdiv._newton"}
    assert package_modules("import qdiv.cli") == coeffs_modules
    cli_run = "from qdiv.cli import main\nassert main({}) == 0"
    argv = ["coeffs", "--family", "A", "--k", "2", "--order", "20", "--format", "json"]
    assert package_modules(cli_run.format(argv)) == coeffs_modules
    assert package_modules(cli_run.format(["--help"])) == coeffs_modules
    # verify and decompose bind their callees before argparse is imported:
    # compiling the package's modules after it raises the command's peak RSS
    for argv in (["verify", "--suite", "theorem-f", "--k-max", "1", "--order", "10"],
                 ["decompose", "--k", "1", "--order", "10"]):
        loaded = fresh_imports(cli_run.format(argv))
        for name in ("qdiv.verify", "qdiv._certify", "qdiv.quasimodular", "qdiv.linalg"):
            assert loaded.index(name) < loaded.index("argparse"), (argv, name)
    # the exact path stands on its own: quasimodular, imported without the
    # package's __init__, loads neither the certificate nor what imports it
    alone = fresh_imports(
        "import types\n"
        "sys.modules['qdiv'] = package = types.ModuleType('qdiv')\n"
        f"package.__path__ = [{str(package)!r}]\n"
        "import qdiv.quasimodular"
    )
    assert "qdiv.quasimodular" in alone
    assert {"qdiv._certify", "qdiv.verify", "qdiv.cli"}.isdisjoint(alone)
    outside = [
        name for name in out
        if name != "qdiv" and not name.startswith("qdiv.")
        and name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_public_names_resolve_to_their_home_modules():
    for name in qdiv.__all__:
        value = getattr(qdiv, name)
        if name not in ("kernel_backend", "__version__"):
            assert value.__module__.startswith("qdiv."), name
            assert getattr(sys.modules[value.__module__], name) is value, name
    # every submodule resolves the same way, with no list of them to keep
    for path in Path(qdiv.__file__).parent.glob("*.py"):
        if path.stem != "__init__":
            assert getattr(qdiv, path.stem) is importlib.import_module(f"qdiv.{path.stem}")
    star = {}
    exec("from qdiv import *", star)
    assert set(star) - {"__builtins__"} == set(qdiv.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        qdiv.no_such_name
    # after a bare `import qdiv`, reading a submodule imports it and its imports only
    assert package_modules("import qdiv\nqdiv.series.run_scope") == {
        "qdiv", "qdiv.series", "qdiv._kernels_py"}


def test_cli_binds_its_callees_when_read_and_keeps_a_binding_already_there():
    # before any command has run, the names that perfbench/layers.py wraps
    # resolve to the library's own callables
    child = python_child(["-c", (
        "import qdiv.cli as cli\n"
        "names = ['verify_method_agreement', 'verify_quasimodularity', 'verify_theorem_f',\n"
        "         'verify_theorem_g', 'decompose']\n"
        "resolved = [getattr(cli, name) for name in names]\n"
        "from qdiv import quasimodular, verify\n"
        "assert resolved == [getattr(verify, name) for name in names[:4]] + [quasimodular.decompose]\n"
    )], timeout=60)
    assert child.returncode == 0, child.stderr
    # a stand-in bound before the first `verify` command is the one it runs
    child = python_child(["-c", (
        "import sys\n"
        "import qdiv.cli as cli\n"
        "from qdiv.verify import Mismatch, VerificationReport\n"
        "failed = VerificationReport('theorem-f', {'k_max': 0, 'order': 10}, 10, 'fail',\n"
        "                            Mismatch(1, 2, 3, 4), 0.0)\n"
        "cli.verify_theorem_f = lambda k_max, order: failed\n"
        "sys.exit(cli.main(['verify', '--suite', 'theorem-f']))\n"
    )], timeout=60)
    assert child.returncode == EXIT_NO_SOLUTION, child.stderr
    assert child.stdout.startswith("FAIL")

# -- coeffs -----------------------------------------------------------------------


def test_coeffs_csv_divisor_sums(capsys):
    rc, out, _ = run(capsys, ["coeffs", "--family", "A", "--k", "1", "--order", "6",
                              "--format", "csv"])
    assert rc == EXIT_OK
    assert out.splitlines() == ["1,1", "2,3", "3,4", "4,7", "5,6", "6,12"]


def test_coeffs_below_threshold_all_zero(capsys):
    rc, out, _ = run(capsys, ["coeffs", "--family", "A", "--k", "2", "--order", "2",
                              "--format", "csv"])
    assert rc == EXIT_OK
    assert out.splitlines() == ["1,0", "2,0"]


def test_coeffs_family_c_text(capsys):
    rc, out, _ = run(capsys, ["coeffs", "--family", "C", "--k", "1", "--order", "3"])
    assert rc == EXIT_OK
    assert out.splitlines() == ["1\t1", "2\t2", "3\t4"]


def test_coeffs_json_schema(capsys):
    rc, out, _ = run(capsys, ["coeffs", "--family", "A", "--k", "1", "--order", "4",
                              "--format", "json"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj == {
        "family": "A",
        "k": 1,
        "method": "direct",
        "order": 4,
        "coeffs": ["0", "1", "3", "4", "7"],
    }


def test_coeffs_methods_agree(capsys):
    tables = {}
    for method in ("direct", "explicit", "recurrence", "oracle"):
        rc, out, _ = run(capsys, ["coeffs", "--family", "C", "--k", "2", "--order",
                                  "12", "--method", method, "--format", "csv"])
        assert rc == EXIT_OK
        tables[method] = out
    assert len(set(tables.values())) == 1


def test_coeffs_output_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    rc, out, _ = run(capsys, ["coeffs", "--family", "A", "--k", "1", "--order", "3",
                              "--format", "csv", "--output", str(path)])
    assert rc == EXIT_OK
    assert out == ""
    assert path.read_text().splitlines() == ["1,1", "2,3", "3,4"]


@pytest.mark.parametrize("argv", [
    ["coeffs", "--family", "A", "--k", "1", "--order", "3"],
    ["decompose", "--k", "1", "--order", "20"],
    ["decompose", "--k", "1", "--weight-bound", "0", "--order", "20"],  # exit 3 path
])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x"
    rc, out, err = run(capsys, [*argv, "--output", str(path)])
    assert rc == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    assert not path.parent.exists()


def test_coeffs_oracle_cap(capsys):
    rc, _, err = run(capsys, ["coeffs", "--family", "A", "--k", "1", "--order", "61",
                              "--method", "oracle"])
    assert rc == EXIT_USAGE
    assert "--allow-slow" in err
    rc, out, _ = run(capsys, ["coeffs", "--family", "A", "--k", "1", "--order", "61",
                              "--method", "oracle", "--allow-slow", "--format", "csv"])
    assert rc == EXIT_OK
    assert out.splitlines()[-1] == "61,62"  # sigma_1(61), 61 prime


def test_coeffs_k0_only_direct(capsys):
    rc, _, _ = run(capsys, ["coeffs", "--family", "A", "--k", "0", "--order", "5"])
    assert rc == EXIT_OK
    for method in ("explicit", "recurrence", "oracle"):
        rc, _, err = run(capsys, ["coeffs", "--family", "A", "--k", "0", "--order",
                                  "5", "--method", method])
        assert rc == EXIT_USAGE


def test_coeffs_invalid_family_usage_error(capsys):
    rc, _, _ = run(capsys, ["coeffs", "--family", "X", "--k", "1", "--order", "5"])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("family", ["A", "C"])
@pytest.mark.parametrize("method,k", [
    ("direct", 1000000),
    ("explicit", 100000),
    ("recurrence", 100000),
])
def test_coeffs_infeasible_k_is_zero_at_once(family, method, k):
    # no k-part sum fits below q^100, so every route must answer zero without
    # working through k; a fresh process with a timeout fails instead of hanging
    proc = run_fresh(["coeffs", "--family", family, "--k", str(k), "--order", "100",
                      "--method", method, "--format", "csv"], timeout=15)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines() == [f"{n},0" for n in range(1, 101)]


# -- decompose --------------------------------------------------------------------


def test_decompose_a1_json(capsys):
    rc, out, _ = run(capsys, ["decompose", "--k", "1", "--order", "100",
                              "--format", "json"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["weight_bound"] == 2
    assert obj["verified_order"] == 100
    assert sorted(obj["terms"], key=lambda t: t["a"]) == [
        {"a": 0, "b": 0, "c": 0, "coefficient": "1/24"},
        {"a": 1, "b": 0, "c": 0, "coefficient": "-1/24"},
    ]


def test_decompose_a2_residual_free(capsys):
    rc, out, _ = run(capsys, ["decompose", "--k", "2", "--order", "120",
                              "--format", "json"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert len(obj["terms"]) <= 4


def test_decompose_weight_bound_zero_fails(capsys):
    rc, out, _ = run(capsys, ["decompose", "--k", "1", "--weight-bound", "0",
                              "--order", "50", "--format", "json"])
    assert rc == EXIT_NO_SOLUTION
    obj = json.loads(out)
    assert obj["status"] == "no-solution"
    assert obj["witness_exponent"] == 1


def test_decompose_text_failure(capsys):
    rc, out, _ = run(capsys, ["decompose", "--k", "1", "--weight-bound", "0",
                              "--order", "50"])
    assert rc == EXIT_NO_SOLUTION
    assert "no solution" in out
    assert "q^1" in out


def test_decompose_usage_errors(capsys):
    rc, _, _ = run(capsys, ["decompose", "--k", "0", "--order", "50"])
    assert rc == EXIT_USAGE
    rc, _, _ = run(capsys, ["decompose", "--k", "1", "--weight-bound", "3",
                            "--order", "50"])
    assert rc == EXIT_USAGE
    rc, _, err = run(capsys, ["decompose", "--k", "3", "--order", "10"])
    assert rc == EXIT_USAGE
    assert "too small" in err
    rc, _, err = run(capsys, ["decompose", "--k", "3", "--weight-bound", "4",
                              "--order", "3"])
    assert rc == EXIT_USAGE
    assert "too small" in err and "more monomials than order // 2 = 1," in err
    rc, _, _ = run(capsys, ["decompose", "--k", "1", "--order", "50",
                            "--format", "csv"])
    assert rc == EXIT_USAGE  # csv applies only to coefficient tables


def decompose_both_ways(capsys, monkeypatch, argv):
    """(rc, out) of `decompose` for text and JSON, as run and then with the
    certificate made to fail, so that every answer comes from the exact solve."""
    runs = []
    for failing in (False, True):
        if failing:
            monkeypatch.setattr(_certify, "prove_rows", lambda rows, order: ([], [], 0))
        runs.append([run(capsys, ["decompose", *argv, "--format", fmt])[:2]
                     for fmt in ("text", "json")])
    monkeypatch.undo()
    return runs


def spy_solves(monkeypatch):
    """Descriptions of the targets `decompose` solves exactly from the CLI."""
    solved = []

    def spy(target, weight_bound, order, description=""):
        solved.append(description)
        return decompose(target, weight_bound, order, description)

    monkeypatch.setattr(cli, "decompose", spy)
    return solved


def test_decompose_reads_the_certificate_as_the_solve_would(capsys, monkeypatch):
    # seeded (k, weight bound >= 2k, order) that the basis-size rule accepts:
    # the certificate's P_k is the solve's answer, byte for byte
    rng = random.Random(2021)
    grid = [(6, 12, 60), (5, 18, 200)]
    while len(grid) < 10:
        k = rng.randint(1, 6)
        weight_bound = 2 * k + 2 * rng.randint(0, 4)
        least = 2 * len(monomial_basis(weight_bound))
        if least <= 200:
            grid.append((k, weight_bound, rng.randint(least, 200)))
    for k, weight_bound, order in grid:
        argv = ["--k", str(k), "--weight-bound", str(weight_bound), "--order", str(order)]
        solved = spy_solves(monkeypatch)
        certified, exact = decompose_both_ways(capsys, monkeypatch, argv)
        assert certified == exact, argv
        assert all(rc == EXIT_OK for rc, _ in certified), argv
        assert solved == [f"A_{k}"] * 2, argv  # only the exact runs solved


def test_decompose_below_weight_2k_solves_to_the_witness(capsys, monkeypatch):
    # no decomposition exists: the certificate is not run, and the solve's
    # exit-3 witness is reported as before
    solved = spy_solves(monkeypatch)
    certify = []
    monkeypatch.setattr(_certify, "prove_rows", lambda *a: certify.append(a))
    rc, out, _ = run(capsys, ["decompose", "--k", "3", "--weight-bound", "4",
                              "--order", "60", "--format", "json"])
    assert rc == EXIT_NO_SOLUTION
    with pytest.raises(NoDecompositionError) as info:
        decompose(gen_direct(Family.A, 3, 60), 4, 60)
    assert json.loads(out)["witness_exponent"] == info.value.exponent
    assert solved == ["A_3"] and certify == []


def test_decompose_window_cut_at_the_order_is_ranked(capsys, monkeypatch):
    # at order 4 the weight-2 window stops at q^4, short of m + 4 = 6, so
    # K_FULL_RANK does not decide it: its rank is computed
    ranked = []
    window_ranks = _certify.window_ranks

    def spy(columns, sizes, order):
        ranked[-1].append((len(columns), sizes, order))
        return window_ranks(columns, sizes, order)

    monkeypatch.setattr(_certify, "window_ranks", spy)
    solved = spy_solves(monkeypatch)
    runs = []
    for prove in (_certify.prove_rows, lambda rows, order: ([], [], 0)):
        monkeypatch.setattr(_certify, "prove_rows", prove)
        for fmt in ("text", "json"):
            ranked.append([])
            argv = ["decompose", "--k", "1", "--order", "4", "--format", fmt]
            runs.append(run(capsys, argv)[:2])
    # a certified run ranks the window once, in decompose_row; a run whose
    # proof fails ranks nothing and solves
    assert ranked == [[(2, [2], 4)]] * 2 + [[]] * 2 and solved == ["A_1"] * 2
    assert runs[:2] == runs[2:] and runs[0][0] == EXIT_OK


@pytest.mark.parametrize("name, failing", [
    ("prove_rows", lambda rows, order: ([], [], 0)),
    ("ring_step_holds", lambda polys, k: k != 4),
    ("window_ranks", lambda columns, sizes, order: [m - 1 for m in sizes]),
], ids=["certificate", "ring-step", "window-rank"])
def test_decompose_falls_back_to_the_solve(capsys, monkeypatch, name, failing):
    # a failing certificate, a ring step that does not hold, or a window
    # short of full rank (ranked live once K_FULL_RANK decides nothing):
    # the answer is the exact solve's, as it would have been
    argv = ["decompose", "--k", "5", "--weight-bound", "12", "--order", "120",
            "--format", "json"]
    certified = run(capsys, argv)[:2]
    solved = spy_solves(monkeypatch)
    monkeypatch.setattr(_certify, name, failing)
    monkeypatch.setattr(_certify, "K_FULL_RANK", 0)
    assert run(capsys, argv)[:2] == certified
    assert certified[0] == EXIT_OK and solved == ["A_5"]


@pytest.mark.parametrize("argv, steps", [
    (["decompose", "--k", "12", "--order", "400"], 11),
    (["decompose", "--k", "8", "--weight-bound", "20", "--order", "300"], 7),
    (["verify", "--suite", "quasimodular", "--k-max", "12", "--order", "400"], 11),
], ids=["decompose-k12", "decompose-wb20", "verify-k12"])
def test_each_command_proves_the_recurrence_once(capsys, monkeypatch, argv, steps):
    # one certificate per command: the recurrence polynomials are derived
    # once, under whichever name a module of the package holds them, and
    # each ring step to the deepest k is checked once
    calls = {"polynomials": 0, "steps": 0}
    polys, ring_step = _certify.recurrence_polynomials, _certify.ring_step_holds

    def count_polys(k_max):
        calls["polynomials"] += 1
        return polys(k_max)

    def count_steps(found, k):
        calls["steps"] += 1
        return ring_step(found, k)

    for name, module in list(sys.modules.items()):
        held = getattr(module, "recurrence_polynomials", None)
        if name.partition(".")[0] == "qdiv" and held is polys:
            monkeypatch.setattr(module, "recurrence_polynomials", count_polys)
    monkeypatch.setattr(_certify, "ring_step_holds", count_steps)
    assert run(capsys, argv)[0] == EXIT_OK
    assert calls == {"polynomials": 1, "steps": steps}


def test_decompose_row_refuses_what_decompose_refuses():
    with pytest.raises(ValueError, match="k must be"):
        _certify.decompose_row(0, 2, 20)
    with pytest.raises(ValueError, match="too small"):
        _certify.decompose_row(3, 6, 10)


def test_decompose_row_reads_a_proved_row_and_nothing_is_solved(capsys, monkeypatch):
    solved = spy_solves(monkeypatch)
    found = _certify.decompose_row(5, 12, 120)
    assert found == decompose(gen_direct(Family.A, 5, 120), 12, 120, "A_5")
    argv = ["decompose", "--k", "5", "--weight-bound", "12", "--order", "120"]
    assert run(capsys, argv)[0] == EXIT_OK and solved == []


@pytest.mark.parametrize("k, weight_bound, stubs, rc", [
    (3, 4, {}, EXIT_NO_SOLUTION),
    (5, 12, {"prove_rows": lambda rows, order, prove=_certify.prove_rows:
             (*prove(rows, order)[:2], len(rows) - 1)}, EXIT_OK),
    (5, 12, {"K_FULL_RANK": 0,
             "window_ranks": lambda columns, sizes, order: [m - 1 for m in sizes]}, EXIT_OK),
], ids=["below-weight-2k", "held-at-k", "short-window"])
def test_decompose_row_returns_none_and_the_cli_solves(capsys, monkeypatch, k, weight_bound,
                                                       stubs, rc):
    # where the proof does not decide A_k, decompose_row returns None and the
    # CLI solves exactly, once; below weight 2k no proof runs at all
    for name, value in stubs.items():
        monkeypatch.setattr(_certify, name, value)
    proofs, prove = [], _certify.prove_rows
    monkeypatch.setattr(_certify, "prove_rows",
                        lambda rows, order: proofs.append(len(rows) - 1) or prove(rows, order))
    assert _certify.decompose_row(k, weight_bound, 120) is None
    assert proofs == ([k] if weight_bound >= 2 * k else [])
    solved = spy_solves(monkeypatch)
    argv = ["decompose", "--k", str(k), "--weight-bound", str(weight_bound), "--order", "120"]
    assert run(capsys, argv)[0] == rc and solved == [f"A_{k}"]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "quasimodular", "--k-max", "500", "--order", "100"],
    ["decompose", "--k", "1", "--order", "100", "--weight-bound", "1000"],
])
def test_oversized_weight_bound_refused_at_once(argv):
    # the weight-1000 basis has about 3.5 million monomials; the order check
    # must not build them, and a fresh process with a timeout fails instead
    # of hanging
    proc = run_fresh(argv, timeout=5)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert "too small" in proc.stderr


# -- verify -----------------------------------------------------------------------


def test_verify_theorem_f_seed_depth(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "theorem-f", "--k-max", "0",
                              "--order", "200"])
    assert rc == EXIT_OK
    assert out.startswith("PASS theorem-f")


@pytest.mark.parametrize(
    "suite, k_max",
    [pytest.param(s, 100000, id=s) for s in ("theorem-f", "theorem-g")]
    + [pytest.param(s, 1000000, id=f"{s}-1000000") for s in ("theorem-f", "theorem-g")],
)
def test_verify_theorem_huge_k_max_finishes_at_once(suite, k_max):
    # past x-degree 2*sqrt(order) + 1 both sides are zero, so a huge k_max
    # must cost about what the feasible rows cost; a fresh process with a
    # timeout fails instead of spinning
    proc = run_fresh(["verify", "--suite", suite, "--k-max", str(k_max),
                      "--order", "100"], timeout=10)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith(f"PASS {suite} [k_max={k_max} order=100]")


def test_verify_agreement_past_feasible_rows_finishes_at_once():
    # A_k and C_k vanish through q^400 for k > 27 and k > 20; every route
    # must answer zero for those k at once instead of working toward it
    proc = run_fresh(["verify", "--suite", "agreement", "--k-max", "300",
                      "--order", "400"], timeout=10)
    assert proc.returncode == EXIT_OK, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 600
    assert all(line.startswith("PASS method-agreement") for line in lines)


def test_verify_quasimodular_deep_finishes_in_seconds():
    # 18 certificates over a 275-column basis: the candidates come from the
    # recurrence, so no solve of that size runs
    proc = run_fresh(["verify", "--suite", "quasimodular", "--k-max", "18",
                      "--order", "600"], timeout=30)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("PASS quasimodularity [k_max=18 order=600]")


def test_decompose_deepest_row_finishes_in_seconds():
    # A_29 over the weight-58 basis of 950 monomials, the largest accepted at
    # the default order cap, read from the certificate (an exact solve of
    # that size takes minutes)
    proc = run_fresh(["decompose", "--k", "29", "--order", "2000", "--format", "json"],
                     timeout=30)
    assert proc.returncode == EXIT_OK, proc.stderr
    obj = json.loads(proc.stdout)
    assert len(obj["terms"]) == 950 and obj["ambiguous"] is False
    assert obj["verified_order"] == 2000


def test_verify_all_small(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "all", "--k-max", "1",
                              "--order", "40"])
    assert rc == EXIT_OK
    lines = out.strip().splitlines()
    # 2 agreement reports (A and C) + quasimodularity + theorem-f + theorem-g
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)
    # deterministic aggregation by suite name
    names = [line.split()[1] for line in lines]
    assert names == sorted(names)


def test_verify_json_schema_stable(capsys):
    argv = ["verify", "--suite", "theorem-g", "--k-max", "1", "--order", "40",
            "--format", "json"]
    rc, out1, _ = run(capsys, argv)
    assert rc == EXIT_OK
    rc, out2, _ = run(capsys, argv)
    a, b = json.loads(out1), json.loads(out2)
    for obj in (*a, *b):
        del obj["elapsed"]
    assert a == b
    assert a[0]["identity_name"] == "theorem-g"
    assert a[0]["status"] == "pass"


def test_verify_agreement_requires_k(capsys):
    rc, _, err = run(capsys, ["verify", "--suite", "agreement", "--k-max", "0",
                              "--order", "50"])
    assert rc == EXIT_USAGE
    assert "k-max" in err


def test_verify_quasimodular_order_check(capsys):
    rc, _, err = run(capsys, ["verify", "--suite", "quasimodular", "--k-max", "4",
                              "--order", "10"])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("suite, builds", [("all", 2), ("quasimodular", 2)])
def test_verify_builds_each_row_table_once(capsys, monkeypatch, suite, builds):
    # within the command's run scope every caller asks for its largest k
    # first, so no (family, order) row table is rebuilt when a later caller
    # asks for more rows: suite all builds A and C at the order, and
    # theorem-f truncates A to half of it
    built = []
    direct_rows = macmahon._direct_rows

    def counting(family, k, order):
        built.append((family, order))
        return direct_rows(family, k, order)

    monkeypatch.setattr(macmahon, "_direct_rows", counting)
    rc, _, _ = run(capsys, ["verify", "--suite", suite, "--k-max", "4",
                            "--order", "60"])
    assert rc == EXIT_OK
    assert len(built) == builds
    assert len(set(built)) == builds


def test_each_command_builds_its_own_row_table(capsys, monkeypatch):
    # the CLI opens one run scope per command, so a second command in the
    # same process is as cold as the first and finds nothing held
    built = []
    direct_rows = macmahon._direct_rows

    def counting(family, k, order):
        built.append((family, k, order))
        return direct_rows(family, k, order)

    monkeypatch.setattr(macmahon, "_direct_rows", counting)
    argv = ["coeffs", "--family", "A", "--k", "4", "--order", "300"]
    first = run(capsys, argv)
    assert built == [(macmahon.Family.A, 4, 300)]
    assert run(capsys, argv) == first
    assert built == [(macmahon.Family.A, 4, 300)] * 2


def test_verify_agreement_builds_one_recurrence_chain_per_family(capsys, monkeypatch):
    # the agreement loop asks for k = 4, 3, 2, 1; the chain to A_4 (C_4) is
    # built once, in 3 steps, and serves every smaller k
    steps = []
    step = macmahon._recurrence_step

    def spy(family, k, seed, prev):
        steps.append((family.value, k))
        return step(family, k, seed, prev)

    monkeypatch.setattr(macmahon, "_recurrence_step", spy)
    rc, _, _ = run(capsys, ["verify", "--suite", "agreement", "--k-max", "4",
                            "--order", "200"])
    assert rc == EXIT_OK
    assert steps == [("A", 2), ("A", 3), ("A", 4), ("C", 2), ("C", 3), ("C", 4)]


def test_verify_builds_each_eta_product_once(capsys):
    # (q;q)_inf and (q^2;q^2)_inf are built once and shared by gen_explicit
    # and the theorem suites; (-q;q)_inf is never built.  The outer scope
    # keeps the command's memo readable after it returns.
    pochhammer = qdiv.series.pochhammer_inf
    with run_scope() as held:
        rc, _, _ = run(capsys, ["verify", "--suite", "all", "--k-max", "4", "--order", "200"])
        products = {key: held[key] for key in held if key[0] == "pochhammer"}
        assert sorted(products) == [("pochhammer", 1, 1, 1, 200), ("pochhammer", 1, 2, 2, 200)]
        assert pochhammer(1, 1, 1, 200) is products["pochhammer", 1, 1, 1, 200]
        assert pochhammer(1, 2, 2, 200) is products["pochhammer", 1, 2, 2, 200]
    assert rc == EXIT_OK


@pytest.mark.parametrize(
    "job", ["verify_o200", "verify_o400", "verify_o800", "quasimodular_k12"]
)
def test_verify_reports_match_benchmark_digests(capsys, monkeypatch, job):
    # the benchmark's seed-0 reports, pinned by perfbench/digests.json, are
    # checked here too, in process; the digests file is only read
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    gate = importlib.import_module("gate")
    spec = importlib.import_module("run").plan(0)[job]
    rc, out, _ = run(capsys, spec.argv)
    assert rc == EXIT_OK
    assert gate.canonical_digest(json.loads(out)) == spec.digest


def test_verify_failure_exits_no_solution(capsys, monkeypatch):
    failed = VerificationReport(
        identity_name="theorem-f",
        parameters={"k_max": 0, "order": 10},
        checked_order=10,
        status="fail",
        first_mismatch=Mismatch(1, 2, 3, 4),
        elapsed=0.0,
    )
    monkeypatch.setattr("qdiv.cli.verify_theorem_f", lambda k, o: failed)
    rc, out, _ = run(capsys, ["verify", "--suite", "theorem-f"])
    assert rc == EXIT_NO_SOLUTION
    assert out.startswith("FAIL")


def test_internal_error_exit_code(capsys, monkeypatch):
    def boom(k, o):
        raise RuntimeError("kaput")

    monkeypatch.setattr("qdiv.cli.verify_theorem_f", boom)
    rc, _, err = run(capsys, ["verify", "--suite", "theorem-f"])
    assert rc == EXIT_INTERNAL
    assert "Traceback (most recent call last)" in err
    assert "kaput" in err


# -- global behaviour ---------------------------------------------------------------


def test_order_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("QDIV_MAX_ORDER", "100")
    rc, _, err = run(capsys, ["coeffs", "--family", "A", "--k", "1", "--order", "200"])
    assert rc == EXIT_USAGE
    assert "QDIV_MAX_ORDER" in err


def test_order_cap_bad_value(capsys, monkeypatch):
    monkeypatch.setenv("QDIV_MAX_ORDER", "many")
    rc, _, _ = run(capsys, ["coeffs", "--family", "A", "--k", "1", "--order", "5"])
    assert rc == EXIT_USAGE


def test_order_cap_negative_refused(capsys, monkeypatch):
    monkeypatch.setenv("QDIV_MAX_ORDER", "-5")
    rc, _, err = run(capsys, ["coeffs", "--family", "A", "--k", "1", "--order", "0"])
    assert rc == EXIT_USAGE
    assert "QDIV_MAX_ORDER must be nonnegative" in err


def test_negative_order_usage(capsys):
    rc, _, _ = run(capsys, ["coeffs", "--family", "A", "--k", "1", "--order", "-3"])
    assert rc == EXIT_USAGE


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "exit codes" in out
