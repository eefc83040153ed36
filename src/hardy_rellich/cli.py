"""Command-line surface with reproducible JSON/CSV/SVG outputs.

Every command is deterministic given its flags and seed: floating values
are serialized with fixed 17-significant-digit formatting and dictionary
keys keep a fixed order, so identical invocations produce byte-identical
output.  Exit codes: 0 success, 2 validation error, 3 numerical
non-convergence.  An error prints one stderr line, ``error: message``, and
each distinct warning one, ``warning: Category: message``, however often
and from wherever in the package it was raised.

Each ``cmd_*`` function maps parsed arguments to its payload dict and writes
nothing to stdout; ``main`` alone serializes the payload and writes it, to
stdout or to ``--output``.  The only environment-variable configuration is
HARDY_RELLICH_OUTDIR, which prefixes relative output paths (``--output``,
``--csv``, ``--svg``); input paths such as ``csv:PATH`` are read as given.

Commands pass their inputs on unchecked, and the package refuses what it
cannot take: ``ratio`` hands any registry function to birman_ratio, or to
glazman_ratio with ``--alpha``; ``interval`` to interval_ratio.

Each command imports the numeric modules it runs inside its own function,
so building the parser and running ``constants`` never import numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from fractions import Fraction
from numbers import Integral, Real
from typing import Optional

from . import constants
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
    if isinstance(obj, Integral):
        return str(int(obj))
    if isinstance(obj, Real):
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
    "'csv:PATH' for sampled data (numerical derivatives, degraded accuracy), "
    "a vector if the file has several re/im column pairs; "
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
    from . import analytic, functional, grid

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
        import numpy as np

        kv = _parse_kv(body)
        text = kv.get("degree", "0")
        # numpy's polynomial power stops at 100
        if not text.isdecimal() or int(text) > 100:
            raise ValueError(f"bridge degree must be an integer from 0 to 100, got {text!r}")
        degree = int(text)
        a, c = bounds
        # (x-a)^n (c-x)^n x^degree expanded into a plain polynomial
        poly = np.polynomial.Polynomial([1.0])
        poly = poly * np.polynomial.Polynomial([-a, 1.0]) ** n
        poly = poly * np.polynomial.Polynomial([c, -1.0]) ** n
        poly = poly * np.polynomial.Polynomial([0.0, 1.0]) ** degree
        return analytic.polynomial_times_exp(poly.coef, 0.0)
    if name == "csv":
        components = grid.read_csv(body)
        return components[0] if len(components) == 1 else components
    if name == "vec":  # a several-column CSV part adds each of its components
        parts = [parse_function(part, n, bounds) for part in body.split("|")]
        return [c for part in parts for c in (part if isinstance(part, list) else [part])]
    raise ValueError(f"unknown test function {spec!r}; {REGISTRY_HELP}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_constants(args) -> dict:
    if args.n_max < 1:
        raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
    alphas = [float(v) for v in args.alpha.split(",")] if args.alpha else []
    rows = []
    for n in range(1, args.n_max + 1):
        sharp = constants.birman_constant(n)
        row = {
            "n": n,
            "c_n": sharp.c,
            "b_n": sharp.b,
            "c_n_float": constants._float_constant("c_n", n),
            "b_n_float": constants._float_constant("b_n", n),
        }
        for alpha in alphas:
            row[f"glazman(alpha={format_float(alpha)})"] = \
                constants._float_weighted_constant(n, alpha)
        rows.append(row)
    return {"command": "constants", "n_max": args.n_max, "rows": rows}


def cmd_ratio(args) -> dict:
    from . import functional, grid

    f = parse_function(args.function, args.n)
    lg = grid.LogGrid(args.x_min, args.x_max, args.points)
    report = (functional.birman_ratio(args.n, f, lg) if args.alpha is None
              else functional.glazman_ratio(args.n, args.alpha, f, lg))
    return {"command": "ratio", "function": args.function,
            "window": [args.x_min, args.x_max], "points": args.points,
            "report": report.to_dict()}


def cmd_sharpness(args) -> dict:
    from . import functional

    eps = tuple(float(v) for v in args.eps.split(","))
    sweep = functional.sharpness_sweep(args.n, eps, args.cutoff)
    return {
        "command": "sharpness",
        "n": args.n,
        "cutoff": args.cutoff,
        "eps": list(eps),
        "constant": sweep.constant,
        "extrapolated_limit": sweep.extrapolated_limit,
        "reports": [r.to_dict() for r in sweep.reports],
    }


def cmd_norm(args) -> dict:
    from . import grid, operators

    lg = grid.LogGrid(args.x_min, args.x_max, args.points)
    if args.operator == "cesaro":
        target = constants._float_constant("b_n", args.n)
        if target < sys.float_info.min:  # b_171 = 1.9e-308 is the first subnormal
            raise ValueError(f"b_n = {target:.3g} for n = {args.n} is below the normal float "
                             "range, where the norm estimate loses its digits; "
                             "the largest n it answers for is 170")
        op = operators.DiscreteCesaro(args.n, lg, boundary=args.boundary)
    else:
        spec = operators.power_weight_pair(args.pair_power)
        side = "A" if args.operator == "pair-a" else "B"
        op = operators.DiscreteWeightedPair(spec, lg, side, boundary=args.boundary)
        target = 2.0 * spec.K
    estimate = operators.estimate_operator_norm(
        op, lg, max_iter=args.max_iter, tol=args.tol, seed=args.seed)
    return {
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
    }


def cmd_spectrum(args) -> dict:
    from . import spectral

    target = constants._float_constant("b_n", args.n)
    curve = spectral.spectrum_curve(args.n, args.theta_count)
    peak = spectral.curve_max_modulus(curve)
    if args.csv:
        spectral.curve_to_csv(curve, _resolve_path(args.csv))
    if args.svg:
        with open(_resolve_path(args.svg), "w") as handle:
            handle.write(spectral.curve_to_svg(curve))
    return {
        "command": "spectrum",
        "n": args.n,
        "theta_count": args.theta_count,
        "max_modulus": peak,
        "norm": target,
        "deviation": abs(peak - target),
        "csv": args.csv,
        "svg": args.svg,
    }


def cmd_mellin_check(args) -> dict:
    from . import analytic, grid, spectral

    f = analytic.LogGaussian(args.center, args.width)
    # refuses a grid that is no power of two, and a bump that samples to zero
    residual = spectral.verify_diagonalization(
        f, count=args.points, window=(args.x_min, args.x_max))
    doubled = spectral.verify_diagonalization(
        f, count=2 * args.points, window=(args.x_min, args.x_max))
    lg = grid.LogGrid(args.x_min, args.x_max, args.points)
    sampled = grid.GridFunction.from_callable(lg, f.deriv(0))
    mass = grid.norm_sq(sampled)
    data = spectral.mellin_forward(sampled)
    parseval = abs(data.norm() ** 2 - mass) / mass
    return {
        "command": "mellin-check",
        "points": args.points,
        "window": [args.x_min, args.x_max],
        "center": args.center,
        "width": args.width,
        "residual": residual,
        "residual_doubled": doubled,
        "parseval_relative_error": parseval,
    }


def cmd_interval(args) -> dict:
    from . import interval

    problem = interval.IntervalProblem(args.n, args.a, args.c, args.side)
    f = parse_function(args.function, args.n, bounds=(args.a, args.c))
    report = interval.interval_ratio(problem, f, panels=args.panels)
    return {
        "command": "interval",
        "function": args.function,
        "panels": args.panels,
        "report": report.to_dict(),
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_window(p: argparse.ArgumentParser, points: int = constants.DEFAULT_POINTS) -> None:
    p.add_argument("--x-min", type=float, default=constants.DEFAULT_WINDOW[0],
                   help="lower edge of the log-grid window")
    p.add_argument("--x-max", type=float, default=constants.DEFAULT_WINDOW[1],
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", type=str, default=None,
                        help="write the JSON payload to this file instead of stdout")

    p = sub.add_parser("constants", parents=[common],
                       help="exact sharp constants c_n, operator norms b_n, "
                            "and optional power-weighted constants")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--alpha", type=str, default=None,
                   help="comma-separated weight powers for extra columns")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("ratio", parents=[common],
                       help="derivative-energy to weighted-mass ratio of a "
                            "test function, with its sharp constant and slack")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--function", type=str, required=True, help=REGISTRY_HELP)
    p.add_argument("--alpha", type=float, default=None,
                   help="power weight for the weighted (Glazman-type) ratio")
    _add_window(p)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("sharpness", parents=[common],
                       help="probe ratios descending toward the sharp "
                            "constant as sigma approaches -1/2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=str, default="0.5,0.25,0.1,0.05,0.01,0.001",
                   help="comma-separated positive offsets from -1/2")
    p.add_argument("--cutoff", type=float, default=10.0,
                   help="probe cutoff a (tail becomes subdominant for large a)")
    p.set_defaults(func=cmd_sharpness)

    p = sub.add_parser("norm", parents=[common],
                       help="operator norm of the discretized averaging "
                            "operator or weighted pair: the largest multiplier "
                            "on the wrap boundary, Golub-Kahan-Lanczos "
                            "bidiagonalization on the cut boundary")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--operator", choices=("cesaro", "pair-a", "pair-b"),
                   default="cesaro")
    p.add_argument("--pair-power", type=int, default=0,
                   help="j in the built-in pair phi=x^j, psi=x^(-j-1)")
    p.add_argument("--boundary", choices=("wrap", "cut"), default="wrap",
                   help="periodic wrap in ln x (default) or hard window cut")
    _add_window(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="cut boundary: seeded start, drawn in the frame GKL runs in")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="cut boundary: stop when the estimate moves by at most "
                        "this (relative) in one step")
    p.add_argument("--max-iter", type=int, default=10000,
                   help="cut boundary: most bidiagonalization steps, each one "
                        "operator application and one adjoint application; "
                        "restarts replay their cycle on top")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("spectrum", parents=[common],
                       help="sampled spectral curve of the n-th averaging "
                            "operator (CSV canonical, SVG optional)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta-count", type=int, default=8192)
    p.add_argument("--csv", type=str, default=None)
    p.add_argument("--svg", type=str, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("mellin-check", parents=[common],
                       help="residual of the transformed scaling identity "
                            "(the transform diagonalizes the generator)")
    _add_window(p, points=2**14)
    p.add_argument("--center", type=float, default=0.0,
                   help="center of the log-Gaussian test bump in ln x")
    p.add_argument("--width", type=float, default=0.003,
                   help="width of the log-Gaussian test bump")
    p.set_defaults(func=cmd_mellin_check)

    p = sub.add_parser("interval", parents=[common],
                       help="finite-interval ratio with boundary-distance "
                            "weight (left, right, or both-sided)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--side", choices=constants.SIDES, default="both")
    p.add_argument("--function", type=str, default="bridge:degree=0",
                   help=REGISTRY_HELP)
    p.add_argument("--panels", type=int, default=4096)
    p.set_defaults(func=cmd_interval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    shown = set()

    def show_warning(message, category, *_):  # once per message, wherever it was raised
        line = f"warning: {category.__name__}: {message}"
        if line not in shown:
            shown.add(line)
            print(line, file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show_warning
        try:
            emit(args.func(args), args.output)
            return 0
        except ConvergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        except (HardyRellichError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
