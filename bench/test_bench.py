"""Tests of the benchmark itself: its exact oracles and its smoke mode.

Each oracle is compared with a high-resolution package run on a family the
package gets right, so a wrong oracle cannot hide behind a package defect.
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from hardy_rellich import analytic, constants, functional, grid, interval, operators, spectral

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _rel(value, exact):
    return abs(value - exact) / abs(exact)


@pytest.mark.parametrize("n, power, rate", [(1, 1.5, 1), (3, 4.5, 2), (6, 7.0, 0.5)])
def test_gamma_oracle_matches_birman_ratio(n, power, rate):
    f = analytic.gamma_class(power, rate)
    report = functional.birman_ratio(n, f, grid.LogGrid.default(2**14))
    exact = oracles.powerexp_ratio(n, [([(1, Fraction(power))], Fraction(rate))])
    assert _rel(report.ratio, exact) < 1e-10


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_gamma_oracle_matches_glazman_ratio(alpha):
    f = analytic.gamma_class(3.5, 1.0)
    report = functional.glazman_ratio(3, float(alpha), f, grid.LogGrid.default(2**14))
    exact = oracles.powerexp_ratio(3, [([(1, Fraction(7, 2))], 1)], alpha)
    assert _rel(report.ratio, exact) < 1e-10


def test_gamma_oracle_is_exact_for_a_monomial_hardy_ratio():
    # f = x e^{-x}: int (f')^2 = 1/4, int f^2/x^2 = 1/2, so the ratio is 1/2
    assert oracles.powerexp_ratio(1, [([(1, 1)], 1)]) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("side", ["left", "right", "both"])
@pytest.mark.parametrize("n", [1, 2])
def test_bridge_oracle_matches_interval_ratio(n, side):
    f = analytic.PowerExp([(1.0, 1), (-1.0, 2)] if n == 1 else
                          [(1.0, 2), (-2.0, 3), (1.0, 4)], 0.0)  # x^n (1-x)^n
    report = interval.interval_ratio(interval.IntervalProblem(n, 0.0, 1.0, side), f,
                                     panels=2**16)
    exact = oracles.bridge_ratio(n, 0, 1, side)
    assert _rel(report.ratio, float(exact)) < 1e-8


@pytest.mark.parametrize("n", [1, 3, 6])
def test_bridge_oracle_splits_at_the_midpoint(n):
    # for (x(1-x))^n the left denominator is 1/(2n+1) and the split one is
    # 2 int_{1/2}^1 x^(2n) dx, so the two ratios differ by 2 (1 - 2^-(2n+1))
    both = oracles.bridge_ratio(n, 0, 1, "both")
    left = oracles.bridge_ratio(n, 0, 1, "left")
    assert left / both == 2 * (1 - Fraction(1, 2 ** (2 * n + 1)))
    assert oracles.bridge_ratio(n, 0, 1, "right") == left


def test_cut_window_oracle_matches_power_iteration():
    lg = grid.LogGrid.default(2**14)
    estimate = operators.estimate_operator_norm(
        operators.DiscreteCesaro(1, lg, "cut"), lg, tol=1e-10)
    exact = oracles.cut_window_norm(0.5, float(lg.u[-1] - lg.u[0]))
    assert exact == pytest.approx(1.956414283, abs=1e-9)
    assert _rel(estimate, exact) < 1e-6


@pytest.mark.parametrize("j", [0, 1])
def test_cut_window_oracle_matches_pairs(j):
    lg = grid.LogGrid(1e-4, 1e4, 2**13)
    op = operators.DiscreteWeightedPair(operators.power_weight_pair(j), lg, "A", power=j,
                                        boundary="cut")
    estimate = operators.estimate_operator_norm(op, lg, tol=1e-9)
    assert _rel(estimate, oracles.cut_window_norm(j + 0.5, float(lg.u[-1] - lg.u[0]))) < 2e-6


def test_norm_oracles_match_constants_and_curves():
    for n in range(1, 31):
        assert oracles.cesaro_norm(n) == constants.cesaro_norm(n)
        assert oracles.birman_c(n) == constants.birman_constant(n).c
        for alpha in (-0.5, 1.0, 2.5):
            assert oracles.glazman_c(n, alpha) == constants.glazman_constant(n, alpha)
    for n in (1, 4, 9):
        peak = spectral.curve_max_modulus(spectral.spectrum_curve(n, 64))
        assert _rel(peak, float(oracles.cesaro_norm(n))) < 1e-12
    lg = grid.LogGrid.default(2**12)
    for j in range(2):
        op = operators.DiscreteWeightedPair(operators.power_weight_pair(j), lg, "B", power=j)
        estimate = operators.estimate_operator_norm(op, lg, tol=1e-9)
        assert _rel(estimate, float(oracles.pair_norm(j))) < 2e-5


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("sigma", [Fraction(-1, 4), Fraction(0), Fraction(3, 2)])
def test_probe_oracle_matches_closed_form(n, sigma):
    exact = float(oracles.probe_ratio(n, sigma))
    for a in (2.0, 10.0):
        numerator, denominator = functional.probe_ratio_closed_form(
            functional.ProbeSpec(n, float(sigma), a))
        assert _rel(numerator / denominator, exact) < 1e-12


def test_probe_oracle_decreases_to_the_sharp_constant():
    ratios = [oracles.probe_ratio(3, Fraction(-1, 2) + Fraction(1, 2**k)) for k in range(1, 12)]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
    assert float(ratios[-1]) == pytest.approx(float(oracles.birman_c(3)), rel=1e-2)


# ---------------------------------------------------------------------------
# smoke mode: every workload, both modes, every metric with its unit
# ---------------------------------------------------------------------------


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m["unit"] for m in spec[kind]}


def _run(cwd, *args):
    return subprocess.run([sys.executable, str(Path("bench") / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["quadrature", "averaging", "norms", "cli"])
def test_smoke_reports_every_metric(workload, trace):
    spec, declared = _declared("per_layer" if trace == "1" else "end_to_end")
    assert workload in {w["name"] for w in spec["workloads"]}
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    reported = {name: m["unit"] for name, m in out["metrics"].items()}
    assert reported == declared
    for metric in out["metrics"].values():
        assert math.isfinite(metric["value"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "quadrature", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
