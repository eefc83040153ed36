#!/usr/bin/env python3
"""Time-to-accuracy benchmark for the hardy_rellich package.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload quadrature --seed 1 --seconds 27 --trace 0

Workloads: quadrature, averaging, norms, cli (see BENCHMARK.json for why
each was chosen).  The benchmark is closed loop: one process, one client,
no worker threads; BLAS/OpenMP pools are pinned to one thread.  It draws
checks from the seed (see checks.py), runs each check's grid ladder until
the answer is within tolerance of its exact oracle, and keeps doing so for
``--seconds`` seconds of checking.  A check that misses tolerance at the
ladder cap, or raises, is a failure; failures are counted, never dropped.
The timed checks are inputs the package gets right, so ``failed`` stays 0
unless it regresses; the inputs it is known to get wrong are a fixed list of
checks (checks.defect_checks) run after the timing, listed on stderr and
counted in the traced run's ``defects.failed``.
End-to-end times are wall-clock times scaled to a reference host speed
(see SpeedProbe; the raw figures go to stderr), and ``setup_s`` is the
median of fresh-interpreter imports sampled at even intervals through the
run.  Per-layer times of the traced run are raw.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run over a fixed, seed-determined list of checks (the spans are
also written to ``.bench_out/``).  ``--smoke`` runs four checks and one
repeat of every timing, for the benchmark's own tests.

``correct`` is false when a timed check fails, or when any check ends in an
unexpected way: an exception that is not one of the package's typed
errors, a CLI exit code other than 0, 2 or 3, or output that does not
parse.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}
WORKLOAD_NAMES = ("quadrature", "averaging", "norms", "cli")
SETUP_SAMPLES = 9
PROBE_WINDOW = 5           # probe samples whose median scales the checks near them
# speed-probe kernel per workload (see SpeedProbe), with the seconds of
# checking between its samples
PROBE_KERNEL = {"quadrature": ("arrays", 0.2), "averaging": ("arrays", 0.2),
                "norms": ("arrays", 0.2), "cli": ("process", 1.0)}
PROBE_REFERENCE_S = {"arrays": 3.0e-3, "process": 60e-3}  # kernel time at reference speed
SMOKE_CHECKS = 4
DIGITS_CAP = 13.0
# cycles whose checks are rerun at the reference size for digits_p50; the
# single-shot CLI checks are all reused as they ran
DIGITS_CYCLES = {"quadrature": 4, "averaging": 6, "norms": 2, "cli": None}
# traced-run length in cycles per second of --seconds, so that the untraced
# reference pass over the same checks takes about a third of --seconds
TRACE_CYCLES_PER_SECOND = {"quadrature": 7.0, "averaging": 1.0, "norms": 0.22, "cli": 6.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "check_p50_ms": "ms",
    "check_p90_ms": "ms",
    "checks_per_s": "1/s",
    "digits_p50": "digits",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# running checks
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    family: str
    label: str
    passed: bool
    seconds: float          # sum of the package calls on the ladder
    levels: int             # ladder rungs run
    size: int               # last rung
    err: float
    cause: str = ""         # why it failed: exception type, CLI exit, "miss at cap"
    unexpected: bool = False


class SpeedProbe:
    """Times a fixed kernel that never calls the package, between checks.

    The host is shared, and its speed changes by up to a fifth within
    seconds and by a third over minutes, more for some kinds of work than
    for others.  Reported times are scaled to a reference speed, at which
    the kernel takes its PROBE_REFERENCE_S: a time measured at checking
    time t is multiplied by that reference over the median of the
    PROBE_WINDOW kernel times nearest to t.  Each workload uses the kernel
    that tracked its own checks best: "arrays" (FFTs and array passes of
    2^15 doubles) for the in-process numerics, and "process" (a fresh
    interpreter that runs nothing) for the CLI, whose checks are mostly
    interpreter start-up.  A kernel of small arrays and a bytecode loop
    tracked neither as well: it slowed less than the power iterations did,
    and left about twice the spread in the CLI medians.  A slower package
    still reads slower; a slower host does not.
    """

    def __init__(self, np, kind: str):
        self.np = np
        self.kind = kind
        self.reference = PROBE_REFERENCE_S[kind]
        self.signal = np.random.default_rng(20171019).random(1 << 15)
        self.at = []        # checking time of each sample
        self.samples = []   # kernel seconds
        for _ in range(PROBE_WINDOW):
            self.sample(0.0)

    def sample(self, at: float) -> None:
        np = self.np
        start = time.perf_counter()
        if self.kind == "arrays":
            for _ in range(2):
                np.fft.irfft(np.fft.rfft(self.signal), len(self.signal))
            np.cumsum(np.exp(-self.signal))
        else:
            subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True)
        self.samples.append(time.perf_counter() - start)
        self.at.append(at)

    def scale(self, at: float) -> float:
        i = bisect.bisect_left(self.at, at)
        lo = max(0, min(i - PROBE_WINDOW // 2, len(self.at) - PROBE_WINDOW))
        return self.reference / statistics.median(self.samples[lo:lo + PROBE_WINDOW])


def digits(err: float) -> float:
    """Correct significant digits of a relative error, capped at DIGITS_CAP."""
    if not err >= 0.0 or err >= 1.0:   # nan, or no correct digit
        return 0.0
    if err == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err))


class Harness:
    """Imports the package from the checkout and runs one workload."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        import numpy as np

        import checks
        from hardy_rellich.errors import HardyRellichError

        self.np = np
        self.checks = checks
        self.typed = (HardyRellichError, ValueError)
        self.workload = workload
        self.seed = seed
        self.smoke = smoke

    def stream(self, in_process: bool):
        runner = self.checks.CliRunner(ROOT, child_env(), in_process)
        rng = self.np.random.default_rng(self.seed)
        stream = self.checks.cycles(self.workload, rng, runner)
        if self.smoke:
            return (cycle[:SMOKE_CHECKS] for cycle in stream)
        return stream

    def run_check(self, check, sizes=None) -> Outcome:
        """Walk the ladder until the score is within tolerance."""
        seconds, err, levels, size = 0.0, math.nan, 0, None

        def outcome(passed, cause="", unexpected=False):
            return Outcome(check.family, check.label, passed, seconds, levels, size, err,
                           cause, unexpected)

        for size in sizes or check.sizes:
            levels += 1
            start = time.perf_counter()
            try:
                out = check.run(size)
            except self.typed as exc:
                seconds += time.perf_counter() - start
                return outcome(False, type(exc).__name__)
            except Exception as exc:  # anything untyped is a defect of its own
                seconds += time.perf_counter() - start
                return outcome(False, f"{type(exc).__name__}: {exc}", unexpected=True)
            seconds += time.perf_counter() - start
            try:
                err = float(check.score(out))
            except self.checks.CheckFailed as exc:
                return outcome(False, str(exc))
            except Exception as exc:
                return outcome(False, f"{type(exc).__name__}: {exc}", unexpected=True)
            if err <= check.tol:
                return outcome(True)
        return outcome(False, "miss at cap")

    def defects(self, in_process: bool) -> list:
        """Run the fixed known-defect checks, untimed, and list them on stderr."""
        runner = self.checks.CliRunner(ROOT, child_env(), in_process)
        outcomes = [self.run_check(c) for c in self.checks.defect_checks(self.workload, runner)]
        if outcomes:
            print(f"known defects: {sum(not o.passed for o in outcomes)} of {len(outcomes)} "
                  "still fail", file=sys.stderr)
        for o in outcomes:
            state = f"fails: {o.cause}" if not o.passed else "passes"
            print(f"  {o.family} {o.label}: {state} (err {o.err:.2e} at {o.size})",
                  file=sys.stderr)
        return outcomes

    def check_once(self, check, recorder=None) -> Outcome:
        if recorder is None:
            return self.run_check(check)
        recorder.enter("bench.check")
        try:
            outcome = self.run_check(check)
        finally:
            recorder.exit()
        recorder.counts["ladder.levels"] += outcome.levels
        return outcome

    def reference(self, check, outcome) -> Outcome:
        """The check's call at its fixed reference size (reused when single-shot)."""
        if check.sizes == (check.ref_size,):
            return outcome
        return self.run_check(check, sizes=(check.ref_size,))

    # -- untraced run --------------------------------------------------------

    def timed(self, seconds: float) -> dict:
        # set-up samples are spread over the run, so one slow spell of a
        # shared machine cannot decide the median
        warm_up_import()
        setup = [(0.0, time_import())]
        setup_every = seconds / SETUP_SAMPLES
        kind, probe_every = PROBE_KERNEL[self.workload]
        probe = SpeedProbe(self.np, kind)
        stream = self.stream(in_process=False)
        # only the checks of the first cycles are kept, for digits_p50: keeping
        # all of them would make peak memory grow with the number checked
        keep = DIGITS_CYCLES[self.workload]
        outcomes, digit_checks, cycles, checking, probed = [], [], 0, 0.0, 0.0
        timeline = []   # (checking time at the middle of each check, its wall time)
        while True:
            cycle = next(stream)
            cycles += 1
            for check in cycle:
                start = time.perf_counter()
                outcome = self.check_once(check)
                elapsed = time.perf_counter() - start
                timeline.append((checking + elapsed / 2, elapsed))
                checking += elapsed
                outcomes.append(outcome)
                if keep is None or cycles <= keep:
                    digit_checks.append((check, outcome))
                if checking - probed >= probe_every:
                    probe.sample(checking)
                    probed = checking
                if not self.smoke and checking >= len(setup) * setup_every \
                        and len(setup) < SETUP_SAMPLES:
                    setup.append((checking, time_import()))
                if checking >= seconds and not self.smoke:
                    break
            if checking >= seconds or self.smoke:
                break
        scales = [probe.scale(at) for at, _ in timeline]

        refs = [self.reference(c, o) for c, o in digit_checks if c.digits]
        ref_digits = [digits(r.err) if r.cause in ("", "miss at cap") else 0.0 for r in refs]

        times_ms = [1e3 * o.seconds * k for o, k in zip(outcomes, scales)]
        scaled_checking = sum(elapsed * k for (_, elapsed), k in zip(timeline, scales))
        passed = sum(o.passed for o in outcomes)
        who = resource.RUSAGE_CHILDREN if self.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": statistics.median(t * probe.scale(at) for at, t in setup),
            "check_p50_ms": float(self.np.percentile(times_ms, 50)),
            "check_p90_ms": float(self.np.percentile(times_ms, 90)),
            "checks_per_s": passed / scaled_checking,
            "digits_p50": float(statistics.median(ref_digits)),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        report_outcomes(outcomes, checking)
        defects = self.defects(in_process=False)
        print(f"speed probe: {len(probe.samples)} samples, median "
              f"{1e3 * statistics.median(probe.samples):.4f} ms, time scale "
              f"{scaled_checking / checking:.4f}; raw setup "
              f"{statistics.median(t for _, t in setup):.4f} s, raw p50 "
              f"{self.np.percentile([1e3 * o.seconds for o in outcomes], 50):.4f} ms",
              file=sys.stderr)
        return result(outcomes, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
                      unexpected=any(o.unexpected for o in refs + defects))

    # -- traced run ----------------------------------------------------------

    def traced(self, seconds: float) -> dict:
        import spans

        stream = self.stream(in_process=True)
        rate = TRACE_CYCLES_PER_SECOND[self.workload]
        count = 1 if self.smoke else max(1, round(seconds * rate))
        work = [check for _ in range(count) for check in next(stream)]

        # every check runs twice, untraced and traced; which pass goes first
        # alternates, so that warm caches favour neither side of the overhead
        recorder = spans.SpanRecorder()
        outcomes, untraced, wall, unexpected = [], 0.0, 0.0, False
        origin = time.perf_counter()
        for i, check in enumerate(work):
            for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_pass:
                    recorder.install()
                start = time.perf_counter()
                try:
                    outcome = self.check_once(check, recorder if traced_pass else None)
                finally:
                    elapsed = time.perf_counter() - start
                    if traced_pass:
                        recorder.uninstall()
                if traced_pass:
                    outcomes.append(outcome)
                    wall += elapsed
                else:
                    untraced += elapsed
                    unexpected = unexpected or outcome.unexpected

        defects = self.defects(in_process=True)
        unexpected = unexpected or any(o.unexpected for o in defects)
        layer_ms = recorder.layer_self_ms()
        layer_calls = recorder.layer_calls()
        sizes = [o.size for o in outcomes]
        cli_compute = [1e3 * o.seconds for o in outcomes] if self.workload == "cli" else [0.0]
        imports = import_split(1 if self.smoke else 3)
        m = {
            "grid.integrate.calls": (recorder.calls["grid.integrate"], "count"),
            "grid.integrate.self_ms": (recorder.self_ms("grid.integrate"), "ms"),
            "grid.cumulative_integral.calls": (
                recorder.calls["grid.cumulative_integral"], "count"),
            "grid.cumulative_integral.self_ms": (
                recorder.self_ms("grid.cumulative_integral"), "ms"),
            "grid.nodes": (recorder.counts["grid.nodes"], "count"),
            "grid.errors": (recorder.errors["grid"], "count"),
            "grid.self_ms": (layer_ms["grid"], "ms"),
            "analytic.calls": (recorder.calls["analytic.closure"], "count"),
            "analytic.self_ms": (layer_ms["analytic"], "ms"),
            "analytic.points": (recorder.counts["analytic.points"], "count"),
            "ladder.levels": (recorder.counts["ladder.levels"], "count"),
            "ladder.final_nodes_p50": (float(statistics.median(sizes)), "count"),
            "operators.apply_cesaro.self_ms": (recorder.self_ms("operators.apply_cesaro"), "ms"),
            "operators.resolvent.self_ms": (
                recorder.self_ms("operators.resolvent_T1", "operators.apply_T1z"), "ms"),
            "operators.norm.self_ms": (recorder.self_ms("operators.estimate_operator_norm"), "ms"),
            "operators.norm.applies": (recorder.counts["operators.norm.applies"], "count"),
            "operators.errors": (recorder.errors["operators"], "count"),
            "defects.failed": (sum(not o.passed for o in defects), "count"),
            "operators.self_ms": (layer_ms["operators"], "ms"),
            "spectral.mellin_forward.self_ms": (recorder.self_ms("spectral.mellin_forward"), "ms"),
            "spectral.verify_diagonalization.self_ms": (
                recorder.self_ms("spectral.verify_diagonalization"), "ms"),
            "spectral.curve.self_ms": (
                recorder.self_ms("spectral.spectrum_curve", "spectral.curve_max_modulus"), "ms"),
            "spectral.self_ms": (layer_ms["spectral"], "ms"),
            "interval.calls": (layer_calls["interval"], "count"),
            "interval.self_ms": (layer_ms["interval"], "ms"),
            "interval.nodes": (recorder.counts["interval.nodes"], "count"),
            "functional.calls": (layer_calls["functional"], "count"),
            "functional.self_ms": (layer_ms["functional"], "ms"),
            "constants.calls": (layer_calls["constants"], "count"),
            "constants.self_ms": (layer_ms["constants"], "ms"),
            "cli.import_ms": (imports[0], "ms"),
            "cli.numpy_import_ms": (imports[1], "ms"),
            "cli.compute_ms": (float(statistics.median(cli_compute)), "ms"),
            "cli.self_ms": (layer_ms["cli"], "ms"),
            "bench.self_ms": (layer_ms["bench"], "ms"),
            "trace.wall_ms": (1e3 * wall, "ms"),
            "trace.overhead_frac": (wall / untraced - 1.0, "fraction"),
            "trace.layer_sum_frac": (sum(layer_ms.values()) / (1e3 * wall), "fraction"),
        }
        for name, value in spans.scale_table(1 if self.smoke else 3).items():
            m[name] = (value, "ms")
        write_spans(self.workload, self.seed, recorder, origin)
        report_outcomes(outcomes, wall)
        return result(outcomes, m, unexpected)


def result(outcomes, metrics, unexpected: bool) -> dict:
    failed = sum(not o.passed for o in outcomes)
    return {
        "correct": not (failed or unexpected or any(o.unexpected for o in outcomes)),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# set-up and import timings (fresh interpreters)
# ---------------------------------------------------------------------------

IMPORT_CLI = [sys.executable, "-c", "import hardy_rellich.cli"]


def warm_up_import() -> None:
    """One untimed import compiles the bytecode, which users pay once."""
    subprocess.run(IMPORT_CLI, cwd=ROOT, env=child_env(), check=True)


def time_import() -> float:
    """Wall time of a fresh interpreter importing hardy_rellich.cli."""
    env = child_env()
    start = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to 50 ms
    subprocess.run(IMPORT_CLI, cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def import_split(repeats: int) -> tuple:
    """(package import ms, numpy import ms) from ``-X importtime``, medians."""
    package, numpy_ms = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", *IMPORT_CLI[1:]], cwd=ROOT,
                              env=child_env(), check=True, capture_output=True, text=True)
        total = numpy_total = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2][1:]
            if name.startswith("hardy_rellich"):   # top level: not indented
                total += int(parts[1])
            elif name.strip() == "numpy" and not numpy_total:
                numpy_total = int(parts[1])
        package.append(total / 1e3)
        numpy_ms.append(numpy_total / 1e3)
    return statistics.median(package), statistics.median(numpy_ms)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def report_outcomes(outcomes, wall: float) -> None:
    """Per-family summary with failure causes, on stderr."""
    families = defaultdict(list)
    for o in outcomes:
        families[o.family].append(o)
    print(f"{len(outcomes)} checks in {wall:.2f} s", file=sys.stderr)
    for family, group in sorted(families.items()):
        failed = [o for o in group if not o.passed]
        causes = Counter(o.cause.split(":")[0] for o in failed)
        print(f"  {family:20s} {len(group):5d} attempted {len(failed):5d} failed "
              f"{dict(causes) if causes else ''}", file=sys.stderr)
        for o in failed[:3]:
            print(f"      {o.label}: {o.cause} (err {o.err:.2e} at {o.size})",
                  file=sys.stderr)


def write_spans(workload, seed, recorder, origin) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    spans = [(i, name, round(1e6 * (s - origin)), round(1e6 * (e - origin)), parent)
             for i, name, s, e, parent in recorder.spans]
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed, "time_unit": "us",
                   "fields": ["id", "name", "start", "end", "parent"], "spans": spans},
                  handle, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="four checks and one repeat of each timing")
    args = parser.parse_args(argv)

    if not (SRC / "hardy_rellich" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is imported
    sys.path.insert(0, str(SRC))
    import hardy_rellich

    if Path(hardy_rellich.__file__).resolve().parent != SRC / "hardy_rellich":
        print(f"error: imported {hardy_rellich.__file__}, not the checkout", file=sys.stderr)
        return 2

    harness = Harness(args.workload, args.seed, args.smoke)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if args.trace:
            out = harness.traced(args.seconds)
        else:
            out = harness.timed(args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
