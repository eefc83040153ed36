"""The benchmark's known defects, run in tier-1.

`bench/checks.defect_checks` lists fixed inputs the package is known to get
wrong.  Each case here runs that check's own package route on its ladder of
grid sizes, at its tolerance, against its exact value from `bench/oracles`,
and passes as the benchmark's check does: at the first size within
tolerance.  A case that fails today is xfail(strict=True) and names the
ROADMAP item that should fix it, so a fix turns it into an XPASS, which
fails the suite until the marker goes.  The name check keeps this list and
the benchmark's the same.
"""

import os
import sys
from pathlib import Path

import pytest

from hardy_rellich.errors import HardyRellichError

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import checks  # bench/checks.py, importable once bench/ is on the path

# check name -> why it fails and the ROADMAP item that should fix it; None
# for the checks that pass
KNOWN = {
    "quadrature": {
        "birman_gamma n=26 p=27 c=1": None,
        "birman_gamma n=8 p=8 c=2": "item 18/14: p = n, the error plateaus near 4e-10",
        "glazman_gamma n=2 alpha=-1/2 p=2 c=1": "item 18/14: p = n, the error plateaus",
        "probe_route n=3 sigma=0 a=10": "item 1/14: f^(n) jumps at x = a, first order",
        "probe_route n=7 sigma=2 a=10": "item 1/14: f^(n) jumps at x = a, first order",
        "interval n=5 (0,1) both degree=0": "item 10: the expanded bridge cancels near its ends",
        "interval n=2 (2,2.5) right degree=2":
            "item 10: the expanded bridge cancels near its ends",
    },
    "cli": {
        "cli_interval interval --n 5": "item 10: prints 7222.14 against the exact 7203.52",
        "cli_ratio ratio --n 26 --function gamma:p=27": None,
    },
}


def _defects(workload):
    runner = checks.CliRunner(ROOT, dict(os.environ), in_process=True)
    return {f"{c.family} {c.label}": c for c in checks.defect_checks(workload, runner)}


def _passes(check):
    """The benchmark's verdict: within tolerance at some size of the ladder.

    A typed refusal, or a CLI exit 2 or 3, fails the check as it fails the
    benchmark's; any other exception propagates."""
    for size in check.sizes:
        try:
            if check.score(check.run(size)) <= check.tol:
                return True
        except (HardyRellichError, ValueError, checks.CheckFailed):
            return False
    return False


@pytest.mark.parametrize("workload", sorted(KNOWN))
def test_the_known_defects_are_the_benchmarks(workload):
    assert sorted(_defects(workload)) == sorted(KNOWN[workload])


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("workload,name", [
    pytest.param(workload, name, marks=[pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=reason)] if reason else [])
    for workload, cases in KNOWN.items() for name, reason in cases.items()])
def test_known_defect(workload, name):
    assert _passes(_defects(workload)[name])
