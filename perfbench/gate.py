"""Output gate: a job's time counts only when its output is right.

A job passes when it exits 0, its JSON parses, every verify report says
"pass" at the requested order, a coeffs table equals the same table by the
explicit route, and (for seed 0) the canonical digest matches the recorded
one in digests.json.  `Tally` drops the time of every job that fails.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict
from typing import Optional


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def canonical_digest(obj) -> str:
    """sha256 of the parsed CLI JSON with every `elapsed` field removed."""
    text = json.dumps(_strip_elapsed(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(job, rc: int, stdout: str, reference=None) -> Optional[str]:
    """None when the output of `job` (a run.Job) is right, else the reason it is not.

    `reference` is the coefficient list of the explicit route for coeffs
    jobs (None when that run failed).
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        obj = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if job.is_coeffs:
        if not isinstance(obj, dict) or obj.get("order") != job.order:
            return "coeffs output lacks the requested order"
        if len(obj.get("coeffs", ())) != job.order + 1:
            return "coeffs output has the wrong length"
        if reference is None:
            return "explicit-route reference run failed"
        if obj["coeffs"] != reference:
            return "coefficients differ from the explicit route"
    else:
        if not isinstance(obj, list) or len(obj) != job.spec.reports:
            return f"expected {job.spec.reports} reports"
        for report in obj:
            if not isinstance(report, dict) or report.get("status") != "pass":
                return f"report {report.get('identity_name')} is not a pass"
            if report.get("checked_order") != job.order:
                return f"report {report.get('identity_name')} checked the wrong order"
    if job.digest is not None and canonical_digest(obj) != job.digest:
        return "output differs from the recorded digest"
    return None


def coeffs_of(rc: int, stdout: str):
    """Coefficient list of a coeffs run, or None when it did not succeed."""
    if rc != 0:
        return None
    try:
        return json.loads(stdout)["coeffs"]
    except (ValueError, KeyError, TypeError):
        return None


class Tally:
    """Times of passing jobs; failed jobs are counted and never timed."""

    def __init__(self):
        self.walls = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0

    def add(self, name: str, wall: float, rss_mb: float, reason: Optional[str]) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            print(f"FAILED {name}: {reason}", file=sys.stderr)
            return False
        self.walls[name].append(wall)
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        return True

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


