"""Command-line surface with reproducible JSON/CSV/SVG outputs.

Every command is deterministic given its flags and seed: floating values
are serialized with fixed 17-significant-digit formatting and dictionary
keys keep a fixed order, so identical invocations produce byte-identical
output.  Exit codes: 0 success, 2 validation error, 3 numerical
non-convergence.

The only environment-variable configuration is HARDY_RELLICH_OUTDIR, which
prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from . import analytic, constants, functional, grid, interval, operators, spectral
from .errors import ConvergenceError, HardyRellichError

DEFAULT_SEED = 1729
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def format_float(value: float) -> str:
    """Fixed 17-significant-digit decimal form; round-trips any double."""
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return format(float(value), ".17g")


def to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}"{key}": {to_json(val, indent + 1)}' for key, val in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{to_json(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, Fraction):
        return f'"{obj}"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, complex):
        return f'{{"re": {format_float(obj.real)}, "im": {format_float(obj.imag)}}}'
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _resolve_path(path: str) -> str:
    outdir = os.environ.get("HARDY_RELLICH_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def emit(payload: dict, output: Optional[str]) -> None:
    text = to_json(payload) + "\n"
    if output:
        with open(_resolve_path(output), "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# test-function registry
# ---------------------------------------------------------------------------

REGISTRY_HELP = (
    "built-in analytic test functions: "
    "'gamma:p=1.5,c=1' for x^p e^(-c x); "
    "'polyexp:coeffs=0:0:1,rate=1' for (sum_k c_k x^k) e^(-rate x); "
    "'probe:sigma=0,a=10' for the optimality probe (closed forms); "
    "'bridge:degree=0' for (x-a)^n (c-x)^n x^degree on an interval; "
    "'zero' for the zero function; "
    "'csv:PATH' for sampled data (numerical derivatives, degraded accuracy); "
    "'vec:SPEC|SPEC|...' for a vector of components"
)


def _parse_kv(body: str) -> dict:
    out = {}
    if body:
        for chunk in body.split(","):
            key, _, val = chunk.partition("=")
            if not _:
                raise ValueError(f"malformed function argument {chunk!r}")
            out[key.strip()] = val.strip()
    return out


def parse_function(spec: str, n: int, bounds: Optional[tuple] = None):
    """Build a test function from its registry string."""
    name, _, body = spec.partition(":")
    name = name.strip().lower()
    if name == "zero":
        return analytic.zero_function()
    if name == "gamma":
        kv = _parse_kv(body)
        power = float(kv.get("p", n + 0.5))
        rate = float(kv.get("c", 1.0))
        return analytic.gamma_class(power, rate)
    if name == "polyexp":
        kv = _parse_kv(body)
        coeffs = [float(c) for c in kv.get("coeffs", "0:1").split(":")]
        return analytic.polynomial_times_exp(coeffs, float(kv.get("rate", 1.0)))
    if name == "probe":
        kv = _parse_kv(body)
        return functional.ProbeSpec(n=n, sigma=float(kv.get("sigma", 0.0)),
                                    a=float(kv.get("a", 10.0)))
    if name == "bridge":
        if bounds is None:
            raise ValueError("'bridge' functions need an interval")
        kv = _parse_kv(body)
        degree = int(kv.get("degree", 0))
        a, c = bounds
        # (x-a)^n (c-x)^n x^degree expanded into a plain polynomial
        poly = np.polynomial.Polynomial([1.0])
        poly = poly * np.polynomial.Polynomial([-a, 1.0]) ** n
        poly = poly * np.polynomial.Polynomial([c, -1.0]) ** n
        poly = poly * np.polynomial.Polynomial([0.0, 1.0]) ** degree
        return analytic.PowerExp([(coef, k) for k, coef in enumerate(poly.coef)], 0.0)
    if name == "csv":
        return grid.read_csv(_resolve_path(body))
    if name == "vec":
        return [parse_function(part, n, bounds) for part in body.split("|")]
    raise ValueError(f"unknown test function {spec!r}; {REGISTRY_HELP}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_constants(args) -> int:
    alphas = [float(v) for v in args.alpha.split(",")] if args.alpha else []
    rows = []
    for n in range(1, args.n_max + 1):
        sharp = constants.birman_constant(n)
        row = {
            "n": n,
            "c_n": sharp.c,
            "b_n": sharp.b,
            "c_n_float": float(sharp.c),
            "b_n_float": float(sharp.b),
        }
        for alpha in alphas:
            row[f"glazman(alpha={format_float(alpha)})"] = \
                float(constants.glazman_constant(n, alpha))
        rows.append(row)
    emit({"command": "constants", "n_max": args.n_max, "rows": rows}, args.output)
    return 0


def cmd_ratio(args) -> int:
    f = parse_function(args.function, args.n)
    lg = grid.LogGrid(args.x_min, args.x_max, args.points)
    if isinstance(f, list):
        report = interval.vector_birman_ratio(args.n, f, lg)
    elif isinstance(f, grid.GridFunction):
        report = functional.birman_ratio_sampled(args.n, f, args.alpha or 0.0)
    elif args.alpha is not None:
        report = functional.glazman_ratio(args.n, args.alpha, f, lg)
    else:
        report = functional.birman_ratio(args.n, f, lg)
    emit({"command": "ratio", "function": args.function,
          "window": [args.x_min, args.x_max], "points": args.points,
          "report": report.to_dict()}, args.output)
    return 0


def cmd_sharpness(args) -> int:
    eps = tuple(float(v) for v in args.eps.split(","))
    sweep = functional.sharpness_sweep(args.n, eps, args.cutoff)
    emit({
        "command": "sharpness",
        "n": args.n,
        "cutoff": args.cutoff,
        "eps": list(eps),
        "constant": sweep.constant,
        "extrapolated_limit": sweep.extrapolated_limit,
        "reports": [r.to_dict() for r in sweep.reports],
    }, args.output)
    return 0


def cmd_norm(args) -> int:
    lg = grid.LogGrid(args.x_min, args.x_max, args.points)
    if args.operator == "cesaro":
        op = operators.DiscreteCesaro(args.n, lg, boundary=args.boundary)
        target = float(constants.cesaro_norm(args.n))
    else:
        spec = operators.power_weight_pair(args.pair_power)
        side = "A" if args.operator == "pair-a" else "B"
        op = operators.DiscreteWeightedPair(spec, lg, side,
                                            power=args.pair_power,
                                            boundary=args.boundary)
        target = 2.0 * spec.K
    estimate = operators.estimate_operator_norm(
        op, lg, max_iter=args.max_iter, tol=args.tol, seed=args.seed)
    emit({
        "command": "norm",
        "operator": args.operator,
        "n": args.n,
        "boundary": args.boundary,
        "window": [args.x_min, args.x_max],
        "points": args.points,
        "seed": args.seed,
        "estimate": estimate,
        "target": target,
        "relative_deviation": (estimate - target) / target,
    }, args.output)
    return 0


def cmd_spectrum(args) -> int:
    curve = spectral.spectrum_curve(args.n, args.theta_count)
    peak = spectral.curve_max_modulus(curve)
    target = float(constants.cesaro_norm(args.n))
    if args.csv:
        spectral.curve_to_csv(curve, _resolve_path(args.csv))
    if args.svg:
        with open(_resolve_path(args.svg), "w") as handle:
            handle.write(spectral.curve_to_svg(curve))
    emit({
        "command": "spectrum",
        "n": args.n,
        "theta_count": args.theta_count,
        "max_modulus": peak,
        "norm": target,
        "deviation": abs(peak - target),
        "csv": args.csv,
        "svg": args.svg,
    }, args.output)
    return 0


def cmd_mellin_check(args) -> int:
    if args.points & (args.points - 1):
        raise ValueError(f"--points must be a power of two, got {args.points}")
    f = analytic.LogGaussian(args.center, args.width)
    residual = spectral.verify_diagonalization(
        f, count=args.points, window=(args.x_min, args.x_max))
    doubled = spectral.verify_diagonalization(
        f, count=2 * args.points, window=(args.x_min, args.x_max))
    lg = grid.LogGrid(args.x_min, args.x_max, args.points)
    sampled = grid.GridFunction.from_callable(lg, f.deriv(0))
    data = spectral.mellin_forward(sampled)
    parseval = abs(data.norm() ** 2 - grid.norm_sq(sampled)) / grid.norm_sq(sampled)
    emit({
        "command": "mellin-check",
        "points": args.points,
        "window": [args.x_min, args.x_max],
        "center": args.center,
        "width": args.width,
        "residual": residual,
        "residual_doubled": doubled,
        "parseval_relative_error": parseval,
    }, args.output)
    return 0


def cmd_interval(args) -> int:
    problem = interval.IntervalProblem(args.n, args.a, args.c, args.side)
    f = parse_function(args.function, args.n, bounds=(args.a, args.c))
    if isinstance(f, (list, grid.GridFunction, functional.ProbeSpec)):
        raise ValueError("interval ratios need a scalar analytic test function")
    report = interval.interval_ratio(problem, f, panels=args.panels)
    emit({
        "command": "interval",
        "function": args.function,
        "panels": args.panels,
        "report": report.to_dict(),
    }, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_window(p: argparse.ArgumentParser, points: int = grid.DEFAULT_POINTS) -> None:
    p.add_argument("--x-min", type=float, default=grid.DEFAULT_WINDOW[0],
                   help="lower edge of the log-grid window")
    p.add_argument("--x-max", type=float, default=grid.DEFAULT_WINDOW[1],
                   help="upper edge of the log-grid window")
    p.add_argument("--points", type=int, default=points,
                   help="number of log-grid nodes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardy-rellich",
        description=(
            "Numerical toolkit for the sharp Hardy-Rellich-type inequality "
            "sequence and the generalized continuous Cesaro averaging "
            "operators: exact constants, inequality ratios, sharpness "
            "sweeps, operator norms, spectra, and the Mellin diagonalization."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants",
                       help="exact sharp constants c_n, operator norms b_n, "
                            "and optional power-weighted constants")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--alpha", type=str, default=None,
                   help="comma-separated weight powers for extra columns")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("ratio",
                       help="derivative-energy to weighted-mass ratio of a "
                            "test function, with its sharp constant and slack")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--function", type=str, required=True, help=REGISTRY_HELP)
    p.add_argument("--alpha", type=float, default=None,
                   help="power weight for the weighted (Glazman-type) ratio")
    _add_window(p)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("sharpness",
                       help="probe ratios descending toward the sharp "
                            "constant as sigma approaches -1/2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=str, default="0.5,0.25,0.1,0.05,0.01,0.001",
                   help="comma-separated positive offsets from -1/2")
    p.add_argument("--cutoff", type=float, default=10.0,
                   help="probe cutoff a (tail becomes subdominant for large a)")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_sharpness)

    p = sub.add_parser("norm",
                       help="operator norm by Golub-Kahan-Lanczos "
                            "bidiagonalization of the discretized averaging "
                            "operator or weighted pair")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--operator", choices=("cesaro", "pair-a", "pair-b"),
                   default="cesaro")
    p.add_argument("--pair-power", type=int, default=0,
                   help="j in the built-in pair phi=x^j, psi=x^(-j-1)")
    p.add_argument("--boundary", choices=("wrap", "cut"), default="wrap",
                   help="periodic wrap in ln x (default) or hard window cut")
    _add_window(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="stop when the estimate moves by at most this "
                        "(relative) in one step")
    p.add_argument("--max-iter", type=int, default=10000,
                   help="most bidiagonalization steps, each one operator "
                        "application and one adjoint application; restarts "
                        "replay their cycle on top")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("spectrum",
                       help="sampled spectral curve of the n-th averaging "
                            "operator (CSV canonical, SVG optional)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta-count", type=int, default=8192)
    p.add_argument("--csv", type=str, default=None)
    p.add_argument("--svg", type=str, default=None)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("mellin-check",
                       help="residual of the transformed scaling identity "
                            "(the transform diagonalizes the generator)")
    p.add_argument("--points", type=int, default=2**14)
    p.add_argument("--center", type=float, default=0.0,
                   help="center of the log-Gaussian test bump in ln x")
    p.add_argument("--width", type=float, default=0.003,
                   help="width of the log-Gaussian test bump")
    p.add_argument("--x-min", type=float, default=grid.DEFAULT_WINDOW[0])
    p.add_argument("--x-max", type=float, default=grid.DEFAULT_WINDOW[1])
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_mellin_check)

    p = sub.add_parser("interval",
                       help="finite-interval ratio with boundary-distance "
                            "weight (left, right, or both-sided)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--side", choices=interval.SIDES, default="both")
    p.add_argument("--function", type=str, default="bridge:degree=0",
                   help=REGISTRY_HELP)
    p.add_argument("--panels", type=int, default=4096)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_interval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (HardyRellichError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
