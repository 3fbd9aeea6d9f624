#!/usr/bin/env python3
"""qdiv benchmark: end-to-end CLI timings, checked outputs, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload verify-suite --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

`--trace 0` times each job of the workload as a fresh `python -m qdiv.cli`
child process, the way a CLI user pays for it, and prints the end-to-end
metrics.  `--trace 1` runs the same jobs in this process through
`qdiv.cli.main(argv)` with the layer entry points wrapped (see
perfbench/layers.py) and prints the per-layer metrics.  `--workload all`
runs every workload and prints every named job time.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Every job's output
passes the gate in `check_output` or the job counts as failed and its time
is dropped.  See perfbench/README.md for the workloads and measured spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from gate import Tally, check_output, coeffs_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
LAUNCHER = os.path.join(HERE, "launcher.py")

# Seeds other than 0 move each job's order by up to this share, so a claim
# can be re-checked on held-out inputs and no change can special-case one
# order.  Kept at 1% because run time grows like order^2..3 and a wider
# jitter would dominate the run-to-run spread.
ORDER_JITTER = 0.01

# `import qdiv` probes before each job run and once more at the end.
SETUP_PROBES = 3


@dataclass(frozen=True)
class JobSpec:
    """One CLI invocation; `name` + "_s" is the metric that reports its time."""

    name: str
    argv: tuple
    order: int  # nominal order, used as is for seed 0
    reports: int = 0  # verify jobs: number of suite reports expected


VERIFY_ALL = ("verify", "--suite", "all", "--k-max", "4", "--format", "json")

# Fixed order: seeds draw one jitter per entry in this order, so a job's
# order for a seed does not depend on which workload runs it.
JOBS = (
    JobSpec("verify_o200", VERIFY_ALL, 200, reports=11),
    JobSpec("verify_o400", VERIFY_ALL, 400, reports=11),
    JobSpec("verify_o800", VERIFY_ALL, 800, reports=11),
    JobSpec("coeffs_A2000", ("coeffs", "--family", "A", "--k", "4", "--format", "json"), 2000),
    JobSpec("coeffs_C2000", ("coeffs", "--family", "C", "--k", "4", "--format", "json"), 2000),
    JobSpec(
        "quasimodular_k12",
        ("verify", "--suite", "quasimodular", "--k-max", "12", "--format", "json"),
        400,
        reports=1,
    ),
)

# Jobs of each workload, shortest first.
WORKLOADS = {
    # Flagship command through every layer.  Order 200 is dominated by the
    # fixed-cost enumeration oracle, order 800 by gen_direct and conv_trunc.
    "verify-suite": ("verify_o200", "verify_o400", "verify_o800"),
    # One route at the largest order: sparse Lambert x dense row products,
    # QSeries churn and big-int JSON; never reaches the oracle or linalg.
    "coeffs-table": ("coeffs_C2000", "coeffs_A2000"),
    # Eisenstein columns up to weight 24 (dense x dense products) and a
    # 102-column exact solve: the only workload dominated by linalg.
    "quasimodular-deep": ("quasimodular_k12",),
}


@dataclass(frozen=True)
class Job:
    spec: JobSpec
    order: int
    digest: Optional[str]  # recorded canonical digest, seed 0 only

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def argv(self) -> list:
        return [*self.spec.argv, "--order", str(self.order)]

    @property
    def is_coeffs(self) -> bool:
        return self.spec.argv[0] == "coeffs"

    def explicit_argv(self) -> list:
        """The same table by the theta-quotient route, the gate's reference."""
        return [*self.argv, "--method", "explicit"]


def plan(seed: int) -> dict:
    """Every job with its order for `seed`; seed 0 is the nominal set."""
    rng = random.Random(seed)
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        digests = json.load(fh)
    jobs = {}
    for spec in JOBS:
        shift = rng.uniform(-ORDER_JITTER, ORDER_JITTER)
        if seed == 0:
            jobs[spec.name] = Job(spec, spec.order, digests[spec.name])
        else:
            jobs[spec.name] = Job(spec, round(spec.order * (1 + shift)), None)
    return jobs


# -- child processes ---------------------------------------------------------------


def child_env(max_order: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["QDIV_MAX_ORDER"] = str(max_order)
    return env


def run_child(args: list, env: dict):
    """Run `python <args>` from the launcher; (wall s, exit code, stdout, peak RSS MB).

    The peak RSS is the child's own (wait4 in launcher.py), not the cumulative
    RUSAGE_CHILDREN and not inflated by this process's memory.
    """
    out_path = os.path.join(OUT_DIR, "job.out")
    err_path = os.path.join(OUT_DIR, "job.err")
    launched = subprocess.run(
        [sys.executable, "-S", LAUNCHER, out_path, err_path, sys.executable, *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True,
    )
    wall, rc, rss_kib = launched.stdout.split()
    with open(out_path, encoding="utf-8") as fh:
        out = fh.read()
    if int(rc) != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-2000:])
    return float(wall), int(rc), out, int(rss_kib) / 1024.0


def run_cli(argv: list, env: dict):
    return run_child(["-m", "qdiv.cli", *argv], env)


def kernel_backend(env: dict) -> str:
    """Also the warm-up import that writes the bytecode caches."""
    _, rc, out, _ = run_child(["-c", "import qdiv; print(qdiv.kernel_backend())"], env)
    if rc != 0:
        raise SystemExit("error: `import qdiv` failed in a child process")
    return out.strip()


def probe_setup(env: dict, setup: list) -> None:
    """Append SETUP_PROBES wall times of `python -c "import qdiv"` children."""
    for _ in range(SETUP_PROBES):
        wall, rc, _, _ = run_child(["-c", "import qdiv"], env)
        if rc != 0:
            raise SystemExit("error: `import qdiv` failed in a child process")
        setup.append(wall)


def measure(names, jobs: dict, seconds: float, env: dict, tally: Tally, setup: list) -> None:
    """Interleave the workload's jobs over `seconds`, each at least once.

    After one run of every job, the job with the least time used so far,
    among those whose last run still fits in the time left, runs again,
    until none fits; so the jobs share the time evenly and short jobs get
    more samples.  Set-up probes run before every job run.  Samples are
    spread over the whole run because the speed of a shared host drifts on
    a scale of ten to thirty seconds.  The explicit-route reference run of a
    coeffs job is untimed and outside the budget.
    """
    references = {}
    for name in names:
        if jobs[name].is_coeffs:
            _, rc, out, _ = run_cli(jobs[name].explicit_argv(), env)
            references[name] = coeffs_of(rc, out)
    used = dict.fromkeys(names, 0.0)
    last = {}
    first_round = list(names)
    start = time.perf_counter()
    while True:
        if first_round:
            name = first_round.pop(0)
        else:
            left = seconds - (time.perf_counter() - start)
            fits = [n for n in last if last[n] <= left]
            if not fits:
                break
            name = min(fits, key=used.get)
        probe_setup(env, setup)
        job = jobs[name]
        wall, rc, out, rss = run_cli(job.argv, env)
        used[name] += wall
        last[name] = wall
        if not tally.add(name, wall, rss, check_output(job, rc, out, references.get(name))):
            del last[name]  # a failed job is not run again
    probe_setup(env, setup)


# -- reporting ---------------------------------------------------------------------


def git_commit(root: str) -> str:
    """Commit of a git checkout read from .git without running git; else 'unknown'."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, jobs: dict, names, backend: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "kernel_backend": backend,
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "orders": {name: jobs[name].order for name in names},
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_or_none(values):
    return statistics.median(values) if values else None


def describe(name: str, walls: list) -> str:
    if not walls:
        return f"{name}_s  n/a (no passing run)"
    spread = ""
    if len(walls) >= 2:
        spread = f", min {min(walls):.4f} max {max(walls):.4f}"
    return f"{name}_s  {statistics.median(walls):.4f} s  (median of {len(walls)}{spread})"


def end_to_end(names, tally: Tally, setup_s: float) -> dict:
    medians = [median_or_none(tally.walls[n]) for n in names]
    wall = None if None in medians else sum(medians)
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall, "s"),
        "peak_rss_mb": metric(tally.peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qdiv", "__init__.py")):
        print(f"error: no qdiv sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    names = [n for w in workloads for n in WORKLOADS[w]]
    jobs = plan(args.seed)
    env = child_env(max(job.order for job in jobs.values()))
    backend = kernel_backend(env)
    record = run_record(args, jobs, names, backend)
    print("run-record " + json.dumps(record, sort_keys=True))

    if args.trace:
        from layers import run_traced

        tally = Tally()
        metrics = run_traced([jobs[n] for n in names], SRC, OUT_DIR, record, tally)
        correct = tally.failed == 0
        print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
        return 0 if correct else 1

    tally = Tally()
    setup = []
    for workload in workloads:
        measure(WORKLOADS[workload], jobs, args.seconds, env, tally, setup)
    setup_s = statistics.median(setup)
    print(f"setup_s  {setup_s:.4f} s  (median of {len(setup)} `import qdiv` children)")
    for name in names:
        print(describe(name, tally.walls[name]))

    metrics = end_to_end(names, tally, setup_s)
    if args.workload == "all":
        # Human-facing summary: every named job time plus the failure ratio.
        for name in names:
            metrics[f"{name}_s"] = metric(median_or_none(tally.walls[name]), "s")
        metrics["jobs_failed_ratio"] = metric(tally.failed_ratio, "ratio")
    for key, m in metrics.items():
        print(f"metric {key} = {m['value']} {m['unit']}")
    print(f"jobs_failed_ratio  {tally.failed_ratio} ({tally.failed} of {tally.attempted} jobs)")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
