"""Seeded checks for the four workloads.

A check is one public call whose exact answer is known, a relative
tolerance, and a ladder of grid sizes.  The benchmark calls ``run(size)``
on each rung, smallest first, and stops at the first rung whose
``score(output)`` (an error measure) is within tolerance; the check's time
is the sum of its ``run`` calls.  ``score`` is never timed.

Each workload is generated in cycles.  A cycle holds one check per cell, a
cell being the family plus the parameter that decides most of its cost and
outcome (derivative order, kernel power).  The seed shuffles the order
inside each cycle, deals the other discrete parameters from balanced decks
(see Sampler) and draws the continuous ones.  Every run therefore sees the
same mix of families, which keeps medians steady from seed to seed while
the inputs themselves change.

The timed cells hold only inputs the package answers within tolerance, so
a failure there is a regression.  The inputs on which the package is
known to be wrong (see ``defect_checks``) are a fixed list that the
benchmark runs outside the timing and reports on its own, so that a fix
shows as a drop in ``defects.failed``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import oracles
from hardy_rellich import analytic, cli, functional, grid, interval, operators, spectral

__all__ = ["Check", "CheckFailed", "CliRunner", "Sampler", "WORKLOADS", "cycles",
           "defect_checks"]


class CheckFailed(Exception):
    """The output exists but does not answer the question (e.g. a CLI exit 2)."""


@dataclass
class Check:
    family: str
    label: str
    sizes: tuple
    ref_size: int
    tol: float
    run: Callable
    score: Callable
    digits: bool = True   # False for checks with a bracket and no exact answer


def _ladder(start: int, cap: int) -> tuple:
    return tuple(2**k for k in range(start.bit_length() - 1, cap.bit_length()))


def _rel(exact: float) -> Callable:
    return lambda value: abs(value - exact) / abs(exact)


class Sampler:
    """Seeded draws that keep discrete parameters balanced.

    ``pick(key, values)`` deals from successive seeded shuffles of
    ``values``, one deck per call site, so over a run every value comes up
    equally often and only the order depends on the seed.  Continuous
    parameters come straight from ``rng``.
    """

    def __init__(self, rng):
        self.rng = rng
        self._decks = {}

    def pick(self, key: str, values):
        values = tuple(values)
        deck = self._decks.get(key)
        if not deck:
            deck = [values[i] for i in self.rng.permutation(len(values))]
            self._decks[key] = deck
        return deck.pop()


# ---------------------------------------------------------------------------
# quadrature: half-line and interval ratios
# ---------------------------------------------------------------------------

QUAD_LADDER, QUAD_REF = _ladder(2**8, 2**17), 2**12
INTERVAL_LADDER, INTERVAL_REF = _ladder(2**6, 2**16), 2**12
RATES = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


@functools.lru_cache(maxsize=None)
def _gamma_ratio(n: int, p: Fraction, rate: Fraction, alpha: Fraction) -> float:
    return oracles.powerexp_ratio(n, [([(1, p)], rate)], alpha)


@functools.lru_cache(maxsize=None)
def _bridge(n: int, a: float, c: float, side: str, degree: int) -> float:
    return float(oracles.bridge_ratio(n, a, c, side, degree))


def _halfline_check(family, label, n, f, exact, alpha=None):
    def run(size):
        lg = grid.LogGrid.default(size)
        if alpha is None:
            return functional.birman_ratio(n, f, lg).ratio
        return functional.glazman_ratio(n, alpha, f, lg).ratio
    return Check(family, label, QUAD_LADDER, QUAD_REF, 1e-10, run, _rel(exact))


def _gamma_check(family, n, p, rate, alpha=None):
    f = analytic.gamma_class(float(p), float(rate))
    if alpha is None:
        return _halfline_check(family, f"n={n} p={p} c={rate}", n, f,
                               _gamma_ratio(n, p, rate, Fraction(0)))
    return _halfline_check(family, f"n={n} alpha={alpha} p={p} c={rate}", n, f,
                           _gamma_ratio(n, p, rate, alpha), alpha=float(alpha))


# Powers p > n only: with p = n, f^(n)(0) != 0 and the ratio plateaus above
# tolerance, and with n >= 26 the weight overflows; both are known defects.
def _birman_gamma(s, n_lo, n_hi, integer_power):
    cell = f"birman.{n_lo}.{integer_power}"
    n = s.pick(cell + ".n", range(n_lo, n_hi + 1))
    p = n + (1 if integer_power else Fraction(s.pick(cell + ".p", (1, 3)), 2))
    return _gamma_check("birman_gamma", n, p, s.pick(cell + ".rate", RATES))


def _glazman_gamma(s):
    n = s.pick("glazman.n", range(1, 13))
    alpha = s.pick("glazman.alpha", (Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1),
                                     Fraction(3, 2), Fraction(2)))
    p = n + Fraction(s.pick("glazman.p", (1, 2)), 2)
    return _gamma_check("glazman_gamma", n, p, s.pick("glazman.rate", RATES), alpha)


def _terms(f):
    return [(Fraction(c), Fraction(p)) for p, c in f.terms], Fraction(f.rate)


def _random_poly(s, n_lo, n_hi):
    n = s.pick(f"poly.{n_lo}", range(n_lo, n_hi + 1))
    f = functional.random_polynomial_probe(n, s.rng)
    exact = oracles.powerexp_ratio(n, [_terms(f)])
    return _halfline_check("random_poly", f"n={n}", n, f, exact)


def _vector(s):
    n = s.pick("vector.n", range(1, 9))
    m = s.pick("vector.m", (2, 3, 4))
    comps = []
    for _ in range(m):
        if s.pick("vector.kind", ("gamma", "poly")) == "gamma":
            comps.append(analytic.gamma_class(n + 0.5 * s.pick("vector.p", (1, 2, 3)),
                                              float(s.pick("vector.rate", RATES))))
        else:
            comps.append(functional.random_polynomial_probe(n, s.rng))
    exact = oracles.powerexp_ratio(n, [_terms(f) for f in comps])

    def run(size):
        return interval.vector_birman_ratio(n, comps, grid.LogGrid.default(size)).ratio
    return Check("vector", f"n={n} m={m}", QUAD_LADDER, QUAD_REF, 1e-10, run, _rel(exact))


def _probe_route(n, sigma, a):
    """The grid route glazman_ratio(n, 0, ProbeSpec), against the closed form."""
    spec = functional.ProbeSpec(n, float(sigma), a)
    exact = float(oracles.probe_ratio(n, sigma))

    def run(size):
        return functional.glazman_ratio(n, 0.0, spec, grid.LogGrid.default(size)).ratio
    return Check("probe_route", f"n={n} sigma={sigma} a={a:g}", QUAD_LADDER, QUAD_REF,
                 1e-5, run, _rel(exact))


# (a, c - a) of the bridges.  The monomial-expanded bridge cancels near its
# ends once n >= 3, or n = 2 with a > c - a: known defects, left out here.
BRIDGE_SPANS = tuple((a, length) for a in (0.0, 0.5, 1.0, 2.0) for length in (0.5, 1.0, 2.0))
BRIDGE_SPANS_N2 = tuple((a, length) for a, length in BRIDGE_SPANS if a <= length)


def _bridge_params(s, cell, spans=BRIDGE_SPANS):
    a, length = s.pick(cell + ".span", spans)
    return a, a + length, s.pick(cell + ".side", interval.SIDES), s.pick(cell + ".degree", (0, 1, 2))


def _interval_check(n, a, c, side, degree):
    f = cli.parse_function(f"bridge:degree={degree}", n, bounds=(a, c))
    problem = interval.IntervalProblem(n, a, c, side)
    exact = _bridge(n, a, c, side, degree)

    def run(panels):
        return interval.interval_ratio(problem, f, panels=panels).ratio
    return Check("interval", f"n={n} ({a:g},{c:g}) {side} degree={degree}",
                 INTERVAL_LADDER, INTERVAL_REF, 1e-8, run, _rel(exact))


def _interval(s, n):
    spans = BRIDGE_SPANS if n == 1 else BRIDGE_SPANS_N2
    return _interval_check(n, *_bridge_params(s, f"interval.{n}", spans))


def quadrature_cycle(s) -> list:
    out = []
    for lo, hi in ((1, 6), (7, 12), (13, 18), (19, 25)):
        out.append(_birman_gamma(s, lo, hi, integer_power=True))
        out.append(_birman_gamma(s, lo, hi, integer_power=False))
    out += [_glazman_gamma(s), _glazman_gamma(s)]
    out += [_random_poly(s, 1, 4), _random_poly(s, 5, 8), _vector(s)]
    out += [_interval(s, 1), _interval(s, 1), _interval(s, 2), _interval(s, 2)]
    return out


# ---------------------------------------------------------------------------
# averaging: operator round trips
# ---------------------------------------------------------------------------

AVG_LADDER, AVG_REF = _ladder(2**8, 2**17), 2**12


# The round trips draw every parameter from decks.  The grid a round trip
# needs (2^15 or 2^16 nodes for the same n and rate) turned on the cubic's
# coefficients and on z; drawn afresh for each check, the share of 2^16
# ladders varied so much between seeds that check_p90_ms and checks_per_s
# did too.  Eight fixed cubics, one deck of all 56 functions per cell (a
# run deals it through at least once) and z at the midpoints of six equal
# strata of each range keep that share, and the largest grid a run reaches,
# steady; the ends of the ranges, 0.2 from the spectrum of T_1, needed
# 2^17 nodes and 18 MB more, in some runs and not in others.
def _cubics(count: int) -> tuple:
    """Coefficients of x (c1 + c2 x + c3 x^2) with |c3| >= 0.2, from a fixed seed."""
    rng = np.random.default_rng(1710)
    out = []
    for _ in range(count):
        c1, c2 = rng.uniform(-1.0, 1.0, 2)
        c3 = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0)
        out.append((0.0, float(c1), float(c2), float(c3)))
    return tuple(out)


def _midpoints(lo: float, hi: float, count: int) -> tuple:
    step = (hi - lo) / count
    return tuple(lo + (k + 0.5) * step for k in range(count))


CUBICS = _cubics(8)
FUNCTIONS = tuple(("gamma", k, rate) for k in range(1, 7) for rate in RATES) + \
    tuple(("poly", k, rate) for k in range(len(CUBICS)) for rate in RATES)
Z_RIGHT = _midpoints(2.2, 6.0, 6)
Z_LEFT = tuple(-z for z in _midpoints(0.2, 4.0, 6))
Z_RADII = _midpoints(1.2, 3.0, 4)
Z_ANGLES = _midpoints(0.1, math.pi - 0.1, 6)


def _smooth_function(s, cell):
    """A PowerExp that vanishes at 0 and decays, with a numpy evaluator."""
    kind, k, rate = s.pick(cell + ".function", FUNCTIONS)
    rate = float(rate)
    if kind == "gamma":
        p = 0.5 * k
        return (analytic.gamma_class(p, rate), lambda x: x**p * np.exp(-rate * x),
                f"x^{p:g} e^-{rate:g}x")
    coeffs = np.array(CUBICS[k])
    return (analytic.polynomial_times_exp(coeffs, rate),
            lambda x: np.polynomial.polynomial.polyval(x, coeffs) * np.exp(-rate * x),
            f"cubic{k} e^-{rate:g}x")


def _max_rel(values, exact_values) -> float:
    return float(np.max(np.abs(values - exact_values)) / np.max(np.abs(exact_values)))


def _cesaro_roundtrip(s, n):
    f, exact_fn, desc = _smooth_function(s, f"cesaro.{n}")

    def run(size):
        lg = grid.LogGrid.default(size)
        inverse = operators.apply_inverse_cesaro(n, f)
        return operators.apply_cesaro(n, grid.GridFunction.from_callable(lg, inverse))

    def score(out):
        return _max_rel(out.values, exact_fn(out.grid.x))
    return Check("cesaro_roundtrip", f"n={n} {desc}", AVG_LADDER, AVG_REF, 1e-7, run, score)


def _resolvent_roundtrip(s, complex_z):
    cell = f"resolvent.{complex_z}"
    f, exact_fn, desc = _smooth_function(s, cell)
    if complex_z:
        theta = s.pick(cell + ".angle", Z_ANGLES) * s.pick(cell + ".half", (-1.0, 1.0))
        z = 1.0 + s.pick(cell + ".radius", Z_RADII) * complex(math.cos(theta), math.sin(theta))
    elif s.pick(cell + ".half", ("right", "left")) == "right":
        z = s.pick(cell + ".right", Z_RIGHT)
    else:
        z = s.pick(cell + ".left", Z_LEFT)

    def run(size):
        sampled = grid.GridFunction.from_callable(grid.LogGrid.default(size), f.deriv(0))
        g = operators.resolvent_T1(z, sampled)
        return g, operators.apply_cesaro(1, g)

    def score(out):
        g, t1g = out
        return _max_rel(t1g.values - z * g.values, exact_fn(g.grid.x))
    return Check("resolvent_roundtrip", f"z={z:.3g} {desc}", AVG_LADDER, AVG_REF, 1e-7,
                 run, score)


def averaging_cycle(s) -> list:
    out = [_cesaro_roundtrip(s, n) for n in range(1, 7)]
    for _ in range(2):
        out += [_resolvent_roundtrip(s, False), _resolvent_roundtrip(s, True)]
    return out


# ---------------------------------------------------------------------------
# norms: power iteration, Mellin diagonalization, spectral curves
# ---------------------------------------------------------------------------

NORM_LADDER, NORM_REF = _ladder(2**10, 2**14), 2**12
MELLIN_LADDER, MELLIN_REF = _ladder(2**10, 2**16), 2**14
CURVE_LADDER, CURVE_REF = _ladder(2**4, 2**13), 2**13
CUT_WINDOWS = ((1e-6, 1e6), (1e-5, 1e5), (1e-4, 1e4), (1e-4, 1e6))
POWER_TOL_FACTOR = 1e-2  # power-iteration stopping tolerance per unit of check tolerance


# Power iterations start from the package's default vector, as a user's do,
# so the cost of a check depends only on its operator, window and grid.
def _norm_check(family, label, make_op, window, exact, tol):
    def run(size):
        lg = grid.LogGrid(window[0], window[1], size)
        return operators.estimate_operator_norm(make_op(lg), lg, tol=tol * POWER_TOL_FACTOR)
    return Check(family, label, NORM_LADDER, NORM_REF, tol, run, _rel(exact))


def _pair_op(j, side, boundary):
    spec = operators.power_weight_pair(j)
    return lambda lg: operators.DiscreteWeightedPair(spec, lg, side, power=j,
                                                     boundary=boundary)


def _window_length(window) -> float:
    lg = grid.LogGrid(window[0], window[1], 8)
    return float(lg.u[-1] - lg.u[0])


def norms_cycle(s) -> list:
    out = []
    for n in range(1, 5):
        out.append(_norm_check(
            "wrap_cesaro", f"n={n}",
            lambda lg, n=n: operators.DiscreteCesaro(n, lg, "wrap"),
            grid.DEFAULT_WINDOW, float(oracles.cesaro_norm(n)), 1e-5))
    for j in range(3):
        side = s.pick(f"wrap_pair.{j}.side", ("A", "B"))
        out.append(_norm_check("wrap_pair", f"j={j} side={side}", _pair_op(j, side, "wrap"),
                               grid.DEFAULT_WINDOW, float(oracles.pair_norm(j)), 1e-5))
    window = s.pick("cut_cesaro.window", CUT_WINDOWS)
    out.append(_norm_check(
        "cut_cesaro", f"n=1 window={window}", lambda lg: operators.DiscreteCesaro(1, lg, "cut"),
        window, oracles.cut_window_norm(0.5, _window_length(window)), 1e-6))
    for j in range(3):
        side = s.pick(f"cut_pair.{j}.side", ("A", "B"))
        window = s.pick(f"cut_pair.{j}.window", CUT_WINDOWS)
        out.append(_norm_check(
            "cut_pair", f"j={j} side={side} window={window}", _pair_op(j, side, "cut"), window,
            oracles.cut_window_norm(j + 0.5, _window_length(window)), 1e-6))
    out.append(_cut_bracket(s.pick("cut_bracket.n", (2, 3, 4))))
    # 14 checks put the median inside the 10-20 ms cluster of small power
    # iterations rather than on its edge, where it would jump from run to run
    out += [_mellin(s), _curve(s.pick("curve.n", range(1, 13)))]
    return out


def _cut_bracket(n):
    """Cut with n >= 2 has no closed form: fixed size, 0 < estimate < b_n."""
    upper = float(oracles.cesaro_norm(n))

    def run(size):
        lg = grid.LogGrid.default(size)
        return operators.estimate_operator_norm(operators.DiscreteCesaro(n, lg, "cut"), lg)
    return Check("cut_bracket", f"n={n}", (NORM_REF,), NORM_REF, 0.5, run,
                 lambda est: 0.0 if 0.0 < est < upper else 1.0, digits=False)


# Bump centres and log-widths at stratum midpoints, dealt from decks: the
# width decides the Mellin ladder, and drawn afresh it moved enough checks
# across the median to shift check_p50_ms from run to run.
MELLIN_CENTRES = _midpoints(-4.0, 4.0, 8)
MELLIN_WIDTHS = tuple(math.exp(v) for v in _midpoints(math.log(0.003), math.log(0.3), 6))


def _mellin(s):
    mu = s.pick("mellin.centre", MELLIN_CENTRES)
    width = s.pick("mellin.width", MELLIN_WIDTHS)
    f = analytic.LogGaussian(mu, width)
    return Check("mellin", f"mu={mu:.3f} s={width:.4f}", MELLIN_LADDER, MELLIN_REF, 1e-9,
                 lambda size: spectral.verify_diagonalization(f, count=size), abs)


def _curve(n):
    def run(size):
        return spectral.curve_max_modulus(spectral.spectrum_curve(n, size))
    return Check("curve", f"n={n}", CURVE_LADDER, CURVE_REF, 1e-12, run,
                 _rel(float(oracles.cesaro_norm(n))))


# ---------------------------------------------------------------------------
# cli: one command per check, every output checked against the oracles
# ---------------------------------------------------------------------------


class CliRunner:
    """Runs one CLI command: a fresh interpreter, or cli.main in this process."""

    def __init__(self, root, env, in_process: bool = False):
        self.root = str(root)
        self.env = env
        self.in_process = in_process

    def __call__(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # argparse rejects bad flags this way
                    code = exc.code
            return code, out.getvalue(), err.getvalue()
        # no timeout: with one, the final wait polls the child in growing sleeps
        proc = subprocess.run([sys.executable, "-m", "hardy_rellich.cli", *argv],
                              cwd=self.root, env=self.env, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr


def _cli_payload(result) -> dict:
    code, out, err = result
    if code in (2, 3):
        raise CheckFailed(f"exit {code}: {err.strip().splitlines()[-1][:160]}")
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.strip()[-200:]}")
    return json.loads(out)


def _cli_check(runner, family, argv, tol, score):
    return Check(family, " ".join(argv), (0,), 0, tol, lambda _size: runner(argv),
                 lambda result: score(_cli_payload(result)))


def _cli_constants(s, runner):
    n_max = s.pick("constants.n_max", range(4, 31))
    alphas = sorted({s.pick("constants.alpha", (-0.5, 0.5, 1.0, 1.5, 2.5)) for _ in range(2)})
    # "--alpha=" form: argparse reads a bare "-0.5,1.5" as an option name
    argv = ["constants", "--n-max", str(n_max), "--alpha=" + ",".join(map(repr, alphas))]

    def score(payload):
        rows = payload["rows"]
        if len(rows) != n_max:
            raise RuntimeError(f"{len(rows)} rows for --n-max {n_max}")
        err = 0.0
        for row in rows:
            n = row["n"]
            if row["c_n"] != str(oracles.birman_c(n)) or row["b_n"] != str(oracles.cesaro_norm(n)):
                return math.inf
            err = max(err, abs(row["c_n_float"] - float(oracles.birman_c(n))),
                      abs(row["b_n_float"] - float(oracles.cesaro_norm(n))))
            glazman = {k: v for k, v in row.items() if k.startswith("glazman(alpha=")}
            if len(glazman) != len(alphas):
                raise RuntimeError(f"glazman columns {sorted(glazman)} for {alphas}")
            for key, value in glazman.items():
                alpha = Fraction(float(key[len("glazman(alpha="):-1]))
                exact = float(oracles.glazman_c(n, alpha))
                err = max(err, abs(value - exact) / max(abs(exact), 1e-300))
        return err
    return _cli_check(runner, "cli_constants", argv, 1e-15, score)


def _cli_ratio(s, runner):
    # n <= 24: at 16384 points n = 25 with p = n + 3/2 ends just above tolerance
    n = s.pick("ratio.n", range(1, 25))
    p = n + Fraction(s.pick("ratio.p", (1, 2, 3)), 2)
    rate = s.pick("ratio.rate", RATES)
    argv = ["ratio", "--n", str(n), "--function", f"gamma:p={float(p)!r},c={float(rate)!r}",
            "--points", "16384"]
    alpha = Fraction(0)
    if n <= 12 and s.pick("ratio.weighted", (True, False, False)):
        alpha = s.pick("ratio.alpha", (Fraction(1, 2), Fraction(1), Fraction(2)))
        argv += ["--alpha", repr(float(alpha))]
    exact = _gamma_ratio(n, p, rate, alpha)
    return _cli_check(runner, "cli_ratio", argv, 1e-10,
                      lambda payload: _rel(exact)(payload["report"]["ratio"]))


def _cli_sharpness(s, runner):
    n = s.pick("sharpness.n", range(1, 9))
    eps = sorted({Fraction(1, 2 ** s.pick("sharpness.eps", range(1, 7))) for _ in range(3)},
                 reverse=True)
    argv = ["sharpness", "--n", str(n), "--eps", ",".join(repr(float(e)) for e in eps),
            "--cutoff", repr(s.pick("sharpness.cutoff", (2.0, 10.0, 50.0)))]
    exact = [float(oracles.probe_ratio(n, e - Fraction(1, 2))) for e in eps]

    def score(payload):
        ratios = [r["ratio"] for r in payload["reports"]]
        if len(ratios) != len(exact):
            raise RuntimeError("report count does not match --eps")
        return max(_rel(x)(r) for x, r in zip(exact, ratios))
    return _cli_check(runner, "cli_sharpness", argv, 1e-10, score)


def _cli_norm(s, runner):
    kind = s.pick("norm.kind", range(4))
    points = 4096
    if kind == 0:
        n = s.pick("norm.n", range(1, 5))
        argv = ["norm", "--n", str(n), "--operator", "cesaro", "--boundary", "wrap"]
        exact, tol = float(oracles.cesaro_norm(n)), 1e-5
    elif kind == 1:
        argv = ["norm", "--operator", s.pick("norm.pair", ("pair-a", "pair-b")),
                "--boundary", "wrap"]
        exact, tol = float(oracles.pair_norm(0)), 1e-5
    else:
        window = (1e-4, 1e4)
        op = "cesaro" if kind == 2 else s.pick("norm.pair", ("pair-a", "pair-b"))
        argv = ["norm", "--operator", op, "--boundary", "cut",
                "--x-min", repr(window[0]), "--x-max", repr(window[1])]
        exact, tol = oracles.cut_window_norm(0.5, _window_length(window)), 1e-6
    # the default --seed, as in norms_cycle
    argv += ["--points", str(points), "--tol", repr(tol * POWER_TOL_FACTOR)]
    return _cli_check(runner, "cli_norm", argv, tol,
                      lambda payload: _rel(exact)(payload["estimate"]))


def _cli_spectrum(s, runner):
    n = s.pick("spectrum.n", range(1, 13))
    argv = ["spectrum", "--n", str(n), "--theta-count",
            str(s.pick("spectrum.theta", (64, 256, 1024)))]
    return _cli_check(runner, "cli_spectrum", argv, 1e-12,
                      lambda payload: _rel(float(oracles.cesaro_norm(n)))(payload["max_modulus"]))


def _cli_mellin(s, runner):
    argv = ["mellin-check", "--points", str(s.pick("mellin.points", (4096, 8192))),
            "--center", repr(round(s.rng.uniform(-3.0, 3.0), 3)),
            "--width", repr(round(math.exp(s.rng.uniform(math.log(0.05), math.log(0.5))), 4))]

    def score(payload):
        if not payload["parseval_relative_error"] <= 1e-12:
            return math.inf
        return payload["residual"]
    return _cli_check(runner, "cli_mellin", argv, 1e-9, score)


def _cli_interval_check(runner, argv, exact):
    return _cli_check(runner, "cli_interval", argv, 1e-8,
                      lambda payload: _rel(exact)(payload["report"]["ratio"]))


def _cli_interval(s, runner):
    # n = 1: with n = 2 some bridges stay above tolerance even at 2^16 panels
    a, c, side, degree = _bridge_params(s, "cli_interval")
    argv = ["interval", "--n", "1", "--a", repr(a), "--c", repr(c), "--side", side,
            "--function", f"bridge:degree={degree}", "--panels", "65536"]
    return _cli_interval_check(runner, argv, _bridge(1, a, c, side, degree))


def cli_cycle(s, runner) -> list:
    return [make(s, runner) for make in (_cli_constants, _cli_ratio, _cli_sharpness,
                                           _cli_norm, _cli_spectrum, _cli_mellin,
                                           _cli_interval)]


# ---------------------------------------------------------------------------
# known defects: fixed inputs the package answers wrongly
# ---------------------------------------------------------------------------


def defect_checks(workload: str, runner: Optional[CliRunner] = None) -> list:
    """Fixed checks of the known defects of the workload's layers (may be empty).

    They are not part of the timed stream: a run reports how many of them
    still fail, so a fix shows as a drop rather than as a change of mix.
    """
    one = Fraction(1)
    if workload == "quadrature":
        return [
            # x^(-2n) at x_min = 1e-6 overflows a double once 2n > 308/6
            _gamma_check("birman_gamma", 26, Fraction(27), one),
            # p = n: f^(n)(0) != 0, the error plateaus near 4e-10 from 2^11 nodes
            _gamma_check("birman_gamma", 8, Fraction(8), Fraction(2)),
            _gamma_check("glazman_gamma", 2, Fraction(2), one, Fraction(-1, 2)),
            # f^(n) jumps at x = a, so the grid route is first order
            _probe_route(3, Fraction(0), 10.0),
            _probe_route(7, Fraction(2), 10.0),
            # the monomial-expanded bridge cancels near its ends
            _interval_check(5, 0.0, 1.0, "both", 0),
            _interval_check(2, 2.0, 2.5, "right", 2),
        ]
    if workload == "cli":
        ratio_26 = _gamma_ratio(26, Fraction(27), one, Fraction(0))
        return [
            _cli_interval_check(runner, ["interval", "--n", "5"], _bridge(5, 0.0, 1.0, "both", 0)),
            _cli_check(runner, "cli_ratio", ["ratio", "--n", "26", "--function", "gamma:p=27"],
                       1e-10, lambda payload: _rel(ratio_26)(payload["report"]["ratio"])),
        ]
    return []


WORKLOADS = {
    "quadrature": quadrature_cycle,
    "averaging": averaging_cycle,
    "norms": norms_cycle,
    "cli": cli_cycle,
}


def cycles(workload: str, rng, runner: Optional[CliRunner] = None):
    """Endless stream of shuffled cycles for one workload."""
    make = WORKLOADS[workload]
    sampler = Sampler(rng)
    while True:
        cycle = make(sampler, runner) if workload == "cli" else make(sampler)
        order = rng.permutation(len(cycle))
        yield [cycle[i] for i in order]
