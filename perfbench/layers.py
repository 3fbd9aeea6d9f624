"""Traced in-process run: spans and counters at each qdiv layer boundary.

Layers are timed from outside the package.  `Tracer.installed` replaces each
layer's public entry point under the name its caller looks it up by (for
example `qdiv.verify.gen_direct`, `qdiv.quasimodular.IncrementalSolver`, the
`QSeries` operators and the `conv_trunc` attribute of the module object
`qdiv.series.kernels`) and restores every original on exit.  No qdiv source
file is changed.

A span is (name, start, end, parent span id, job).  Spans stay in memory and
are written out when the run ends.  A layer's self time is its span minus
the time of its child spans.  Kernel counters are computed at the same
wrappers; the clock is paused while they are computed, so their cost shows
in `tracing_overhead_s` and not in any layer.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from itertools import accumulate, compress

from gate import Tally, check_output, coeffs_of

# (metric, unit, better): the per-layer metrics, summed over a workload's jobs.
PER_LAYER = (
    ("macmahon.oracle.calls", "count", "lower"),
    ("macmahon.oracle.self_s", "s", "lower"),
    ("macmahon.gen_direct.calls", "count", "lower"),
    ("macmahon.gen_direct.distinct_calls", "count", "lower"),
    ("macmahon.gen_direct.rows_built", "count", "lower"),
    ("macmahon.gen_direct.self_s", "s", "lower"),
    ("macmahon.gen_direct.total_s", "s", "lower"),
    ("macmahon.gen_explicit.self_s", "s", "lower"),
    ("macmahon.gen_recurrence.self_s", "s", "lower"),
    ("macmahon.theta.self_s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.add.self_s", "s", "lower"),
    ("series.eisenstein.self_s", "s", "lower"),
    ("series.pochhammer.self_s", "s", "lower"),
    ("kernels.conv_trunc.calls", "count", "lower"),
    ("kernels.conv_trunc.self_s", "s", "lower"),
    ("kernels.conv_trunc.terms", "count", "lower"),
    ("kernels.conv_trunc.nonzero_products", "count", "lower"),
    ("kernels.conv_trunc.density", "ratio", "higher"),
    ("kernels.conv_trunc.max_bits", "bit", "lower"),
    ("kernels.conv_trunc.bytes_computed", "B", "lower"),
    ("kernels.inverse_trunc.calls", "count", "lower"),
    ("kernels.inverse_trunc.self_s", "s", "lower"),
    ("quasimodular.decompose.calls", "count", "lower"),
    ("quasimodular.decompose.self_s", "s", "lower"),
    ("quasimodular.columns.total_s", "s", "lower"),
    ("linalg.add_equation.calls", "count", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("tracing_overhead_s", "s", "lower"),
)


class JobStats:
    """Self times, call counts and counters of one traced job."""

    def __init__(self, name: str):
        self.name = name
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.gen_direct_args = set()
        self.bookkeeping_s = 0.0


def _bit_lengths(values) -> list:
    try:
        return list(map(int.bit_length, values))
    except TypeError:  # Fraction coefficients
        return [
            v.bit_length()
            if isinstance(v, int)
            else max(v.numerator.bit_length(), v.denominator.bit_length())
            for v in values
        ]


def count_conv(stats: JobStats, args, kwargs) -> None:
    """Work counters of conv_trunc(a, b, order), from its inputs alone.

    terms: pairs (i, j) with i + j <= order that the schoolbook loop visits;
    nonzero_products: those with both factors nonzero; bytes_computed: the
    operand bytes of those products, from coefficient bit lengths.
    """
    a, b, order = args
    n_out = order + 1
    la, lb = min(len(a), n_out), min(len(b), n_out)
    full = min(la, max(0, n_out - lb + 1))  # rows i that see all of b
    terms = full * lb + (la - full) * n_out - (full + la - 1) * (la - full) // 2
    bits_a = _bit_lengths(a[:la])
    bits_b = _bit_lengths(b[:lb])
    products = bits = 0
    if lb:
        nonzero_b = list(accumulate(map(bool, bits_b)))
        bits_b_sum = list(accumulate(bits_b))
        for i in compress(range(la), bits_a):
            m = min(lb, n_out - i) - 1
            products += nonzero_b[m]
            bits += bits_a[i] * nonzero_b[m] + bits_b_sum[m]
    c = stats.counts
    c["conv.terms"] += terms
    c["conv.nonzero_products"] += products
    c["conv.bits"] += bits
    c["conv.max_bits"] = max(c["conv.max_bits"], max(bits_a, default=0), max(bits_b, default=0))


def count_gen_direct(stats: JobStats, args, kwargs) -> None:
    family, k, order = args
    stats.gen_direct_args.add((family, k, order))
    stats.counts["gen_direct.rows"] += k


class Tracer:
    """In-memory span recorder; `wrap` returns a timed stand-in for a callable."""

    def __init__(self):
        self.span_names: list = []
        self._name_ids: dict = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("H")
        self.job_ids = array("H")
        self.jobs: list = []
        self.stats = JobStats("")
        self._stack: list = []
        self._paused = 0.0

    def clock(self) -> float:
        """perf_counter minus the time spent computing counters."""
        return time.perf_counter() - self._paused

    def begin_job(self, name: str) -> JobStats:
        self.stats = JobStats(name)
        self.jobs.append(self.stats)
        return self.stats

    def wrap(self, name: str, fn, count=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        nid = self._name_ids[name]
        perf = time.perf_counter
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            stats = tracer.stats
            sid = len(tracer.ends)
            tracer.parents.append(stack[-1][0] if stack else -1)
            tracer.name_ids.append(nid)
            tracer.job_ids.append(len(tracer.jobs) - 1)
            tracer.ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf() - tracer._paused
            tracer.starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf() - tracer._paused
                stack.pop()
                tracer.ends[sid] = t1
                dur = t1 - t0
                stats.self_s[name] += dur - frame[1]
                stats.total_s[name] += dur
                stats.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if count is not None:
                    p0 = perf()
                    count(stats, args, kwargs)
                    paused = perf() - p0
                    tracer._paused += paused
                    stats.bookkeeping_s += paused

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer entry point under its callers' names; restore on exit."""
        import qdiv.cli as cli
        import qdiv.macmahon as macmahon
        import qdiv.quasimodular as quasimodular
        import qdiv.series as series
        import qdiv.verify as verify

        points = [
            (cli, "verify_method_agreement", "verify", None),
            (cli, "verify_quasimodularity", "verify", None),
            (cli, "verify_theorem_f", "verify", None),
            (cli, "verify_theorem_g", "verify", None),
            (cli, "decompose", "quasimodular.decompose", None),
            (verify, "decompose", "quasimodular.decompose", None),
            (quasimodular, "_monomial_series", "quasimodular.columns", None),
            (quasimodular, "eisenstein", "series.eisenstein", None),
            (verify, "theta_f", "macmahon.theta", None),
            (verify, "theta_g", "macmahon.theta", None),
            (verify, "pochhammer_inf", "series.pochhammer", None),
            (macmahon, "pochhammer_inf", "series.pochhammer", None),
            (series.QSeries, "__mul__", "series.mul", None),
            (series.QSeries, "__rmul__", "series.mul", None),
            (series.QSeries, "__add__", "series.add", None),
            (series.QSeries, "__radd__", "series.add", None),
            (series.kernels, "conv_trunc", "kernels.conv_trunc", count_conv),
            (series.kernels, "inverse_trunc", "kernels.inverse_trunc", None),
        ]
        for owner in (cli, verify, macmahon, quasimodular):
            for attr, span in (
                ("gen_direct", "macmahon.gen_direct"),
                ("gen_explicit", "macmahon.gen_explicit"),
                ("gen_recurrence", "macmahon.gen_recurrence"),
                ("oracle_a", "macmahon.oracle"),
                ("oracle_c", "macmahon.oracle"),
            ):
                if hasattr(owner, attr):
                    count = count_gen_direct if attr == "gen_direct" else None
                    points.append((owner, attr, span, count))

        solver = quasimodular.IncrementalSolver

        class TracedSolver(solver):
            add_equation = self.wrap("linalg.add_equation", solver.add_equation)
            solution = self.wrap("linalg.solution", solver.solution)

        saved = [(quasimodular, "IncrementalSolver", solver)]
        try:
            quasimodular.IncrementalSolver = TracedSolver
            for owner, attr, span, count in points:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span, original, count))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,job,name,parent,start_s,end_s\n")
            names, jobs = self.span_names, [j.name for j in self.jobs]
            for sid in range(len(self.ends)):
                fh.write(
                    f"{sid},{jobs[self.job_ids[sid]]},{names[self.name_ids[sid]]},"
                    f"{self.parents[sid]},{self.starts[sid]!r},{self.ends[sid]!r}\n"
                )


def call_cli(main, argv):
    """Run qdiv.cli.main(argv) with stdout captured; (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def job_breakdown(stats: JobStats, traced_wall: float, real_wall: float, untraced_wall: float) -> dict:
    self_sum = sum(stats.self_s.values())
    return {
        "job": stats.name,
        "traced_wall_s": traced_wall,
        "layer_self_sum_s": self_sum,
        "unattributed_s": traced_wall - self_sum,
        "untraced_wall_s": untraced_wall,
        "tracing_overhead_s": real_wall - untraced_wall,
        "counter_bookkeeping_s": stats.bookkeeping_s,
        "self_s": dict(sorted(stats.self_s.items())),
        "total_s": dict(sorted(stats.total_s.items())),
        "calls": dict(sorted(stats.calls.items())),
        "counts": dict(sorted(stats.counts.items())),
        "gen_direct_distinct_calls": len(stats.gen_direct_args),
    }


def layer_metrics(rows: list) -> dict:
    """The PER_LAYER metrics summed over the per-job breakdowns."""

    def total(key, sub=None):
        return sum(row[key] if sub is None else row[key].get(sub, 0) for row in rows)

    terms = total("counts", "conv.terms")
    products = total("counts", "conv.nonzero_products")
    values = {
        "macmahon.oracle.calls": total("calls", "macmahon.oracle"),
        "macmahon.oracle.self_s": total("self_s", "macmahon.oracle"),
        "macmahon.gen_direct.calls": total("calls", "macmahon.gen_direct"),
        "macmahon.gen_direct.distinct_calls": total("gen_direct_distinct_calls"),
        "macmahon.gen_direct.rows_built": total("counts", "gen_direct.rows"),
        "macmahon.gen_direct.self_s": total("self_s", "macmahon.gen_direct"),
        "macmahon.gen_direct.total_s": total("total_s", "macmahon.gen_direct"),
        "macmahon.gen_explicit.self_s": total("self_s", "macmahon.gen_explicit"),
        "macmahon.gen_recurrence.self_s": total("self_s", "macmahon.gen_recurrence"),
        "macmahon.theta.self_s": total("self_s", "macmahon.theta"),
        "series.mul.calls": total("calls", "series.mul"),
        "series.mul.self_s": total("self_s", "series.mul"),
        "series.add.self_s": total("self_s", "series.add"),
        "series.eisenstein.self_s": total("self_s", "series.eisenstein"),
        "series.pochhammer.self_s": total("self_s", "series.pochhammer"),
        "kernels.conv_trunc.calls": total("calls", "kernels.conv_trunc"),
        "kernels.conv_trunc.self_s": total("self_s", "kernels.conv_trunc"),
        "kernels.conv_trunc.terms": terms,
        "kernels.conv_trunc.nonzero_products": products,
        "kernels.conv_trunc.density": products / terms if terms else 0.0,
        "kernels.conv_trunc.max_bits": max((row["counts"].get("conv.max_bits", 0) for row in rows), default=0),
        "kernels.conv_trunc.bytes_computed": total("counts", "conv.bits") / 8,
        "kernels.inverse_trunc.calls": total("calls", "kernels.inverse_trunc"),
        "kernels.inverse_trunc.self_s": total("self_s", "kernels.inverse_trunc"),
        "quasimodular.decompose.calls": total("calls", "quasimodular.decompose"),
        "quasimodular.decompose.self_s": total("self_s", "quasimodular.decompose"),
        "quasimodular.columns.total_s": total("total_s", "quasimodular.columns"),
        "linalg.add_equation.calls": total("calls", "linalg.add_equation"),
        "linalg.self_s": total("self_s", "linalg.add_equation") + total("self_s", "linalg.solution"),
        "verify.self_s": total("self_s", "verify"),
        "cli.self_s": total("self_s", "cli"),
        "traced_wall_s": total("traced_wall_s"),
        "unattributed_s": total("unattributed_s"),
        "tracing_overhead_s": total("tracing_overhead_s"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def run_traced(jobs: list, src: str, out_dir: str, record: dict, tally: Tally) -> dict:
    """Run each job untraced and then traced in this process; return the metrics.

    Both runs of every job go through the output gate and are counted in
    `tally`.  Spans go to out_dir/spans-<workload>-seed<n>.csv.gz and the
    per-job breakdown to out_dir/layers-<workload>-seed<n>.json.
    """
    sys.path.insert(0, src)
    import qdiv
    import qdiv.cli as cli

    if not os.path.abspath(qdiv.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"error: imported qdiv from {qdiv.__file__}, not from {src}")
    os.environ["QDIV_MAX_ORDER"] = str(max(job.order for job in jobs))

    tracer = Tracer()
    root = tracer.wrap("cli", cli.main)
    rows = []
    for job in jobs:
        reference = None
        if job.is_coeffs:
            reference = coeffs_of(*call_cli(cli.main, job.explicit_argv()))

        t0 = time.perf_counter()
        rc, out = call_cli(cli.main, job.argv)
        untraced = time.perf_counter() - t0
        tally.add(job.name, untraced, 0.0, check_output(job, rc, out, reference))

        stats = tracer.begin_job(job.name)
        with tracer.installed():
            r0, v0 = time.perf_counter(), tracer.clock()
            rc, out = call_cli(root, job.argv)
            traced, real = tracer.clock() - v0, time.perf_counter() - r0
        tally.add(job.name, real, 0.0, check_output(job, rc, out, reference))
        row = job_breakdown(stats, traced, real, untraced)
        rows.append(row)
        print(
            f"job {job.name}: traced {traced:.4f} s = layer self {row['layer_self_sum_s']:.4f} s"
            f" + unattributed {row['unattributed_s']:.6f} s; untraced {untraced:.4f} s;"
            f" tracing overhead {row['tracing_overhead_s']:.4f} s"
            f" (counter bookkeeping {stats.bookkeeping_s:.4f} s)"
        )
        for name, value in sorted(stats.self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<26} self {value:9.4f} s  {100 * value / traced:5.1f}%  calls {stats.calls[name]}")

    metrics = layer_metrics(rows)
    stem = f"{record['workload']}-seed{record['seed']}"
    tracer.write_spans(os.path.join(out_dir, f"spans-{stem}.csv.gz"))
    with open(os.path.join(out_dir, f"layers-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"run_record": record, "jobs": rows, "metrics": metrics}, fh, indent=2)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    return metrics
