#!/usr/bin/env python3
"""Gate self-test: a corrupted output is counted as failed and never timed.

Runs two seed-0 jobs once each as CLI children, `coeffs_C2000` and
`verify_o200`, and feeds the gate and the tally five outputs:

  1. the true coeffs output               -> pass
  2. the true verify output               -> pass
  3. coeffs with one coefficient flipped  -> fail (explicit route, digest)
  4. verify with one report set to "fail" -> fail
  5. the true coeffs output checked against a wrong recorded digest -> fail

It then requires jobs_failed_ratio = 3/5 and that only the two passing
runs were timed.  Exits 0 when every expectation holds.

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run
from gate import Tally, check_output, coeffs_of


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    jobs = run.plan(0)
    env = run.child_env(max(job.order for job in jobs.values()))
    coeffs, verify = jobs["coeffs_C2000"], jobs["verify_o200"]

    _, rc, out, _ = run.run_cli(coeffs.explicit_argv(), env)
    reference = coeffs_of(rc, out)
    c_wall, c_rc, c_out, c_rss = run.run_cli(coeffs.argv, env)
    v_wall, v_rc, v_out, v_rss = run.run_cli(verify.argv, env)

    flipped = json.loads(c_out)
    flipped["coeffs"][1000] = str(int(flipped["coeffs"][1000]) + 1)
    failed_report = json.loads(v_out)
    failed_report[0]["status"] = "fail"
    wrong_digest = dataclasses.replace(coeffs, digest="0" * 64)

    cases = [
        ("true coeffs output", coeffs, c_out, c_wall, True),
        ("true verify output", verify, v_out, v_wall, True),
        ("coeffs with one coefficient flipped", coeffs, json.dumps(flipped), 1001.0, False),
        ("verify with one failing report", verify, json.dumps(failed_report), 1002.0, False),
        ("coeffs against a wrong digest", wrong_digest, c_out, 1003.0, False),
    ]
    tally = Tally()
    ok = True
    for label, job, stdout, wall, should_pass in cases:
        reason = check_output(job, 0, stdout, reference if job.is_coeffs else None)
        passed = tally.add(job.name, wall, c_rss, reason)
        verdict = "ok" if passed == should_pass else "WRONG"
        ok &= passed == should_pass
        print(f"{verdict:5} {label}: {'pass' if passed else 'fail (' + reason + ')'}")

    timed = sorted(w for walls in tally.walls.values() for w in walls)
    print(f"jobs_failed_ratio {tally.failed_ratio} ({tally.failed} of {tally.attempted}); timed runs {timed}")
    ok &= tally.failed_ratio == 3 / 5 and timed == sorted([c_wall, v_wall])
    print("gate self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
