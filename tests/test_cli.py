"""Command-line front end: byte-identical output and exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardy_rellich import cli

EPS = np.finfo(float).eps

COMMANDS = {
    "constants": ["constants", "--n-max", "4", "--alpha", "1.5"],
    "ratio": ["ratio", "--n", "2", "--function", "gamma:p=2.5", "--points", "1024"],
    "sharpness": ["sharpness", "--n", "2", "--eps", "0.5,0.1,0.01"],
    # the cut boundary runs GKL from the seeded start
    "norm": ["norm", "--n", "2", "--points", "1024", "--boundary", "cut"],
    "spectrum": ["spectrum", "--n", "3", "--theta-count", "256"],
    "mellin-check": ["mellin-check", "--points", "1024", "--width", "0.3"],
    "interval": ["interval", "--n", "1", "--panels", "256"],
}


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_showing_warnings(capsys, argv):
    """_run with every warning shown, each time it is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        return _run(capsys, argv)


SAMPLED_WARNING = ("warning: UserWarning: computing an order-1 derivative numerically "
                   "from samples; expect degraded accuracy")


def test_every_command_is_covered():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(COMMANDS) == set(sub.choices)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_is_byte_identical(capsys, name):
    first = _run(capsys, COMMANDS[name])
    second = _run(capsys, COMMANDS[name])
    assert first[0] == 0 and second[0] == 0
    assert first[1] == second[1]
    assert json.loads(first[1])["command"] == name


def test_ratio_for_n_26_runs(capsys):
    # x^(-52) overflows at x_min = 1e-6; norm_sq takes it before squaring
    code, out, err = _run(capsys, ["ratio", "--n", "26", "--function", "gamma:p=27"])
    assert code == 0 and err == ""
    assert json.loads(out)["report"]["ratio"] == pytest.approx(4.835622412747675e53,  # exact
                                                               rel=1e-10)


def test_interval_ratio_below_the_constant_exits_3(capsys):
    # on 16384 panels the n = 5 bridge's quadrature reads a ratio below c_5
    # (ROADMAP item 2): a discretization failure, reported as such, not a
    # violated theorem
    code, out, err = _run(capsys, ["interval", "--n", "5", "--panels", "16384"])
    assert code == cli.EXIT_NO_CONVERGENCE
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.filterwarnings("ignore:integrand does not decay", "ignore:stub model diverges")
@pytest.mark.parametrize("argv", [
    ["ratio", "--n", "1", "--function", "gamma:p=0"],
    ["ratio", "--n", "2", "--function", "polyexp:coeffs=1,rate=1"],
    ["ratio", "--n", "2", "--alpha", "0.5", "--function", "gamma:p=1"],
])
def test_halfline_ratio_below_the_constant_exits_3(capsys, argv):
    # f does not vanish at 0 to order n: inadmissible, and the grid reads a
    # ratio below the constant, which is refused rather than printed
    code, out, err = _run(capsys, argv)
    assert code == cli.EXIT_NO_CONVERGENCE
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:")


# exact probe ratios (bench/oracles.probe_ratio), keyed by (n, sigma); the
# ratio does not depend on the cutoff.  At these n a tail written in powers
# of x cancels every digit
EXACT_PROBE_RATIOS = {
    (34, 0): 1.8296944281757793e75,
    (60, 0): 8.274263573558746e161,
    (98, 0): 6.51712282745829e305,
    (98, 2): 2.3361339956807865e306,
}


@pytest.mark.parametrize("n,sigma", sorted(EXACT_PROBE_RATIOS))
@pytest.mark.parametrize("cutoff", ["2", "10", "50"])
def test_probe_ratio_matches_the_exact_ratio(capsys, n, sigma, cutoff):
    code, out, err = _run(capsys, ["ratio", "--n", str(n),
                                   "--function", f"probe:sigma={sigma},a={cutoff}"])
    assert code == 0 and err == ""
    report = json.loads(out)["report"]
    assert report["ratio"] == pytest.approx(EXACT_PROBE_RATIOS[n, sigma], rel=1e-12)
    assert report["slack"] > 0


@pytest.mark.parametrize("n,sigma", sorted(EXACT_PROBE_RATIOS))
@pytest.mark.parametrize("cutoff", ["2", "10", "50"])
def test_sharpness_matches_the_exact_ratio(capsys, n, sigma, cutoff):
    code, out, err = _run(capsys, ["sharpness", "--n", str(n), "--eps", str(sigma + 0.5),
                                   "--cutoff", cutoff])
    assert code == 0 and err == ""
    (report,) = json.loads(out)["reports"]
    assert report["ratio"] == pytest.approx(EXACT_PROBE_RATIOS[n, sigma], rel=1e-12)


@pytest.mark.parametrize("n", [34, 97, 98])
def test_sharpness_slacks_are_positive_up_to_the_float_limit(capsys, n):
    # n = 97 and 98 have denominators below 1e-300 at the default cutoff
    code, out, err = _run(capsys, ["sharpness", "--n", str(n)])
    assert code == 0 and err == ""
    assert all(report["slack"] > 0 for report in json.loads(out)["reports"])


@pytest.mark.parametrize("argv", [
    ["ratio", "--n", "2", "--function", "probe:sigma=-0.5"],
    ["ratio", "--n", "2", "--function", "probe:sigma=-0.4999999999999999"],
    ["sharpness", "--n", "2", "--cutoff", "0"],
])
def test_invalid_probes_exit_2_with_one_error_line(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == cli.EXIT_VALIDATION and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_non_convergence_exits_3(capsys):
    # the wrap boundary reads its norm without iterating; the cut boundary iterates
    code, out, err = _run(capsys, ["norm", "--points", "256", "--boundary", "cut",
                                   "--max-iter", "1", "--tol", "1e-16"])
    assert code == cli.EXIT_NO_CONVERGENCE == 3
    assert out == "" and "error:" in err


@pytest.mark.parametrize("argv", [
    ["mellin-check", "--points", "1000"],
    ["mellin-check", "--points", "8"],
    ["mellin-check", "--points", "16"],
    ["mellin-check", "--width", "0"],
    ["mellin-check", "--width", "-1"],
    ["interval", "--n", "1", "--a", "2", "--c", "1"],
    ["interval", "--n", "1", "--panels", "0"],
    ["interval", "--n", "1", "--panels", "-5"],
    ["constants", "--n-max", "0"],
    ["constants", "--n-max", "-3"],
])
def test_validation_errors_exit_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == cli.EXIT_VALIDATION == 2
    assert out == "" and "error:" in err


def test_sharpness_threads_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sharpness", "--n", "2", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--max-iter", "0"], ["--tol", "nan"], ["--tol=-1e-6"]])
def test_norm_argument_errors_exit_2(capsys, option):
    code, out, err = _run(capsys, ["norm", "--points", "256"] + option)
    assert code == cli.EXIT_VALIDATION == 2
    assert out == "" and "error:" in err


def test_high_power_pair_norm_is_quiet(capsys):
    # x^60 overflows on the default window inside the pair's spec check only
    code, out, err = _run(capsys, ["norm", "--operator", "pair-a", "--pair-power", "60",
                                   "--points", "1024"])
    assert code == 0 and err == ""
    assert json.loads(out)["estimate"] == pytest.approx(2.0 / 121.0, rel=2 * EPS)


# fresh interpreters: the -m entry path, and what each import pulls in

SRC = str(Path(cli.__file__).resolve().parents[1])

RUN_CONSTANTS = """
import runpy, sys
sys.argv = ["hardy_rellich.cli", "constants", "--n-max", "3"]
try:
    runpy.run_module("hardy_rellich.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print("exit", exc.code, "numpy" in sys.modules, file=sys.stderr)
"""


def _python(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_package_and_parser_import_without_numpy(tmp_path):
    proc = _python(tmp_path, "-c", "import sys, hardy_rellich, hardy_rellich.cli; "
                   "hardy_rellich.cli.build_parser(); print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_constants_command_runs_without_numpy(tmp_path):
    proc = _python(tmp_path, "-c", RUN_CONSTANTS)
    assert proc.stderr.splitlines()[-1] == "exit 0 False", proc.stderr
    assert [row["n"] for row in json.loads(proc.stdout)["rows"]] == [1, 2, 3]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_module_entry_matches_in_process_run(capsys, tmp_path, name):
    code, out, _ = _run(capsys, COMMANDS[name])
    proc = _python(tmp_path, "-m", "hardy_rellich.cli", *COMMANDS[name])
    assert code == proc.returncode == 0, proc.stderr
    assert proc.stdout == out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_fresh_processes_print_the_same_bytes_under_any_hash_seed(tmp_path, name):
    # two interpreters at once, each with its own string-hash seed: no output
    # may depend on the iteration order of a set or of hashed keys
    procs = [subprocess.Popen([sys.executable, "-m", "hardy_rellich.cli", *COMMANDS[name]],
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC,
                                                     PYTHONHASHSEED=seed),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for seed in ("1", "2")]
    (first, first_err), (second, second_err) = (proc.communicate(timeout=120) for proc in procs)
    assert [proc.returncode for proc in procs] == [0, 0], first_err + second_err
    assert first == second and first.startswith(b"{")


# output files: HARDY_RELLICH_OUTDIR prefixes relative output paths, not inputs

@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_lands_in_the_outdir_as_stdout_would_read(capsys, tmp_path, monkeypatch, name):
    code, out, _ = _run(capsys, COMMANDS[name])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HARDY_RELLICH_OUTDIR", "out")
    (tmp_path / "out").mkdir()
    code_to_file, printed, _ = _run(capsys, COMMANDS[name] + ["--output", "payload.json"])
    assert code == code_to_file == 0 and printed == ""
    assert (tmp_path / "out" / "payload.json").read_text() == out
    assert not (tmp_path / "payload.json").exists()


def test_spectrum_writes_its_curve_to_the_outdir(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HARDY_RELLICH_OUTDIR", "out")
    (tmp_path / "out").mkdir()
    code, out, _ = _run(capsys, ["spectrum", "--n", "3", "--theta-count", "256",
                                 "--csv", "curve.csv", "--svg", "curve.svg"])
    assert code == 0 and json.loads(out)["csv"] == "curve.csv"
    lines = (tmp_path / "out" / "curve.csv").read_text().splitlines()
    assert lines[0] == "theta,re,im" and len(lines) == 256 + 2
    assert (tmp_path / "out" / "curve.svg").read_text().startswith("<svg")


def test_csv_input_is_read_from_the_working_directory(capsys, tmp_path, monkeypatch):
    _write_pair(tmp_path / "pair.csv")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HARDY_RELLICH_OUTDIR", "out")
    code, out, err = _run_showing_warnings(capsys, ["ratio", "--n", "1",
                                                    "--function", "csv:one.csv"])
    assert code == 0 and err.splitlines() == [SAMPLED_WARNING]
    assert json.loads(out)["report"]["slack"] > 0


# vector-valued functions: sampled, analytic, and mixed

def _write_pair(path):
    """Samples of x^2.5 e^(-x) and x^3 e^(-2x) as a two-component CSV, and each alone."""
    from hardy_rellich import grid

    lg = grid.LogGrid(1e-4, 60.0, 2048)
    pair = [grid.GridFunction(lg, lg.x**2.5 * np.exp(-lg.x)),
            grid.GridFunction(lg, lg.x**3 * np.exp(-2.0 * lg.x))]
    grid.write_csv(pair, path)
    grid.write_csv(pair[:1], path.parent / "one.csv")
    grid.write_csv(pair[1:], path.parent / "two.csv")


def test_ratio_of_a_two_component_csv(capsys, tmp_path):
    path = tmp_path / "pair.csv"
    _write_pair(path)
    code, out, err = _run_showing_warnings(capsys, ["ratio", "--n", "1", "--function",
                                                    f"csv:{path}"])
    assert code == 0, err
    exact = json.loads(_run(capsys, ["ratio", "--n", "1", "--x-min", "1e-4", "--x-max", "60",
                                     "--points", "2048", "--function",
                                     "vec:gamma:p=2.5|polyexp:coeffs=0:0:0:1,rate=2"])[1])
    report = json.loads(out)["report"]
    assert report["m"] == 2
    assert report["ratio"] == pytest.approx(exact["report"]["ratio"], rel=1e-4)


def test_two_component_csv_is_the_vector_of_its_columns(capsys, tmp_path):
    _write_pair(tmp_path / "pair.csv")
    whole = _run_showing_warnings(capsys, ["ratio", "--n", "1", "--function",
                                           f"csv:{tmp_path / 'pair.csv'}"])
    split = _run_showing_warnings(capsys, [
        "ratio", "--n", "1", "--function",
        f"vec:csv:{tmp_path / 'one.csv'}|csv:{tmp_path / 'two.csv'}"])
    assert whole[0] == split[0] == 0, whole[2] + split[2]
    whole, split = (json.loads(out)["report"] for _, out, _ in (whole, split))
    for key in ("m", "numerator", "denominator", "ratio"):
        assert whole[key] == split[key], key


def test_ratio_of_a_vector_with_a_sampled_component(capsys, tmp_path):
    _write_pair(tmp_path / "pair.csv")
    code, out, err = _run_showing_warnings(capsys, ["ratio", "--n", "1", "--function",
                                                    f"vec:csv:{tmp_path / 'one.csv'}|gamma"])
    assert code == 0, err
    report = json.loads(out)["report"]
    assert report["m"] == 2 and report["slack"] > 0


@pytest.mark.parametrize("spec", ["csv:{dir}/one.csv", "csv:{dir}/pair.csv",
                                  "vec:csv:{dir}/one.csv|gamma",
                                  "vec:csv:{dir}/one.csv|csv:{dir}/two.csv"])
def test_sampled_ratios_print_one_warning(capsys, tmp_path, spec):
    # one line per ratio, however many of its components are sampled
    _write_pair(tmp_path / "pair.csv")
    code, out, err = _run_showing_warnings(capsys, ["ratio", "--n", "1", "--function",
                                                    spec.format(dir=tmp_path)])
    assert code == 0 and json.loads(out)["report"]["slack"] > 0
    assert err.splitlines() == [SAMPLED_WARNING]


def test_ratio_of_uniform_samples_from_zero(capsys, tmp_path):
    # a uniform CSV takes the LinearGrid branches of integrate, norm_sq and
    # differentiate; x^2 e^-x has the exact ratio 1 for n = 1
    from hardy_rellich import grid

    lg = grid.LinearGrid(0.0, 40.0, 4097)
    grid.write_csv([grid.GridFunction(lg, lg.x**2 * np.exp(-lg.x))], tmp_path / "uniform.csv")
    code, out, err = _run_showing_warnings(capsys, ["ratio", "--n", "1", "--function",
                                                    f"csv:{tmp_path / 'uniform.csv'}"])
    assert code == 0 and err.splitlines() == [SAMPLED_WARNING]
    report = json.loads(out)["report"]
    assert abs(report["ratio"] - 1.0) <= 2e-4 and report["slack"] > 0


@pytest.mark.parametrize("count,bound", [(1025, 5e-3), (4097, 3e-4), (16385, 2e-5)])
def test_uniform_samples_from_zero_converge_at_second_order(capsys, tmp_path, count, bound):
    # x e^-x has the exact ratio 1/2 for n = 1; its denominator's integrand
    # e^(-2x) is 1 at x = 0, where the samples of f are 0
    from hardy_rellich import grid

    lg = grid.LinearGrid(0.0, 40.0, count)
    grid.write_csv([grid.GridFunction(lg, lg.x * np.exp(-lg.x))], tmp_path / "uniform.csv")
    code, out, err = _run_showing_warnings(capsys, ["ratio", "--n", "1", "--function",
                                                    f"csv:{tmp_path / 'uniform.csv'}"])
    assert code == 0 and err.splitlines() == [SAMPLED_WARNING]
    assert abs(json.loads(out)["report"]["ratio"] - 0.5) <= bound * 0.5


def test_ratio_of_a_vector_with_alpha_sums_its_components(capsys):
    # --alpha weights every component alike: the vector's sums are its components'
    specs = ["gamma:p=2.5", "polyexp:coeffs=0:0:1:1,rate=2"]
    options = ["--n", "2", "--alpha", "1.5", "--points", "1024"]
    code, out, err = _run(capsys, ["ratio", *options, "--function", "vec:" + "|".join(specs)])
    assert code == 0 and err == ""
    vector = json.loads(out)["report"]
    parts = [json.loads(_run(capsys, ["ratio", *options, "--function", spec])[1])["report"]
             for spec in specs]
    assert vector["m"] == 2 and vector["alpha"] == 1.5
    for key in ("numerator", "denominator"):
        assert vector[key] == sum(part[key] for part in parts), key
    assert vector["constant"] == parts[0]["constant"] == parts[1]["constant"]


def test_non_finite_samples_give_one_error_line(tmp_path):
    # x^53 overflows at x = 1e6 where e^(-x) is 0: the samples are nan there
    proc = _python(tmp_path, "-m", "hardy_rellich.cli", "ratio", "--n", "52",
                   "--function", "gamma:p=53", "--points", "256")
    assert proc.returncode == cli.EXIT_VALIDATION and proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: grid samples contain non-finite values"]


def test_interval_samples_past_the_float_range_give_one_error_line(tmp_path):
    proc = _python(tmp_path, "-m", "hardy_rellich.cli", "interval", "--n", "1",
                   "--function", "gamma:p=400", "--c", "10", "--side", "left")
    assert proc.returncode == cli.EXIT_VALIDATION and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error:") and "float range" in line


@pytest.mark.parametrize("argv,warned", [
    (["ratio", "--n", "1", "--function", "gamma:p=0"],
     ["warning: UserWarning: integrand does not decay at the window ends; "
      "truncation error may dominate",
      "warning: UserWarning: stub model diverges; using flat fallback"]),
    # e^((j+1/2) s) overflows in the hard window's scalings for n = 52
    (["norm", "--n", "52", "--boundary", "cut"], None),
])
def test_warnings_take_one_line_each(tmp_path, argv, warned):
    proc = _python(tmp_path, "-m", "hardy_rellich.cli", *argv)
    assert proc.returncode == cli.EXIT_NO_CONVERGENCE and proc.stdout == ""
    *lines, last = proc.stderr.splitlines()
    assert last.startswith("error:")
    assert lines and all(line.startswith("warning: ") for line in lines)
    if warned is not None:
        assert lines == warned


MELLIN_WARNINGS = [
    "warning: UserWarning: integrand does not decay at the window ends; "
    "truncation error may dominate",
    "warning: UserWarning: samples do not decay at the window ends; "
    "the windowed transform will be inaccurate"]


def test_each_distinct_warning_takes_one_line(capsys, tmp_path):
    # a bump too wide for the window warns from three norms and five
    # transforms, at several depths: each message prints once, in the order
    # first raised, in-process under any filter and as a fresh process
    argv = ["mellin-check", "--points", "1024", "--width", "30"]
    code, out, err = _run_showing_warnings(capsys, argv)
    assert code == 0 and json.loads(out)["command"] == "mellin-check"
    assert err.splitlines() == MELLIN_WARNINGS
    proc = _python(tmp_path, "-m", "hardy_rellich.cli", *argv)
    assert proc.returncode == 0 and proc.stdout == out
    assert proc.stderr.splitlines() == MELLIN_WARNINGS


@pytest.mark.parametrize("function", ["gamma", "probe", "probe:sigma=1"])
def test_ratio_refuses_a_bad_index_alike_for_every_function(capsys, function):
    code, out, err = _run(capsys, ["ratio", "--n", "0", "--function", function])
    assert code == cli.EXIT_VALIDATION and out == ""
    assert err.splitlines() == ["error: index n must be a positive integer, got 0"]


# the largest n whose constant fits in a float: 98 for c_n, 178 for b_n (170 for
# the norm estimate, which needs b_n in the normal range)

@pytest.mark.parametrize("argv,limit", [
    (["constants", "--n-max", "99"], 98),
    (["ratio", "--n", "99", "--function", "gamma"], 98),
    (["sharpness", "--n", "99"], 98),
    (["interval", "--n", "99"], 98),
    (["norm", "--n", "179", "--points", "256"], 178),
    (["spectrum", "--n", "179"], 178),
    # b_171 .. b_178 are subnormal: the norm estimate would lose its digits there
    (["norm", "--n", "171", "--points", "256"], 170),
    (["norm", "--n", "175", "--points", "256"], 170),
    (["norm", "--n", "178", "--points", "256"], 170),
])
def test_n_past_the_float_range_exits_2(capsys, argv, limit):
    code, out, err = _run(capsys, argv)
    assert code == cli.EXIT_VALIDATION
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error:") and f"is {limit}" in err


def test_norm_at_the_last_normal_b_n(capsys):
    code, out, err = _run(capsys, ["norm", "--n", "170", "--points", "256"])
    assert code == 0 and err == ""
    assert abs(json.loads(out)["relative_deviation"]) <= 2 * 170 * EPS


@pytest.mark.parametrize("n", [1, 2, 4, 12, 60, 170])
def test_wrap_norm_is_b_n_to_rounding(capsys, n):
    # the largest multiplier of the periodized chain of n steps is b_n to n roundings
    code, out, err = _run(capsys, ["norm", "--n", str(n), "--points", "256"])
    assert code == 0 and err == ""
    assert abs(json.loads(out)["relative_deviation"]) <= 2 * n * EPS


def test_constants_reach_the_float_limit(capsys):
    code, out, _ = _run(capsys, ["constants", "--n-max", "98"])
    assert code == 0
    last = json.loads(out)["rows"][-1]
    assert last["n"] == 98 and math.isfinite(last["c_n_float"]) and last["b_n_float"] > 0


# the weighted constant for alpha = -3 is [(n + 1)!]^2, a float up to n = 97

@pytest.mark.parametrize("argv", [
    ["constants", "--n-max", "98", "--alpha=-3"],
    ["ratio", "--n", "98", "--function", "gamma", "--alpha", "-3"],
])
def test_weighted_constant_past_the_float_range_exits_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == cli.EXIT_VALIDATION and out == ""
    assert err.splitlines() == [
        "error: the weighted constant (alpha = -3) does not fit in a float for n = 98; "
        "the largest n it fits for is 97"]


def test_weighted_constant_at_the_float_limit(capsys):
    code, out, _ = _run(capsys, ["constants", "--n-max", "97", "--alpha=-3"])
    assert code == 0
    last = json.loads(out)["rows"][-1]
    assert last["n"] == 97 and last["glazman(alpha=-3)"] == float(math.factorial(98) ** 2)
    # the ratio at the limit gets past the constant; x^97.5 e^-x has no
    # finite 97th-derivative samples on the default window (ROADMAP item 2)
    code, out, err = _run(capsys, ["ratio", "--n", "97", "--function", "gamma", "--alpha", "-3"])
    assert code == cli.EXIT_VALIDATION and "fit in a float" not in err


@pytest.mark.parametrize("n", [151, 152, 178])
def test_spectrum_reaches_the_float_limit_of_b_n(capsys, n):
    code, out, err = _run(capsys, ["spectrum", "--n", str(n), "--theta-count", "256"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert math.isfinite(payload["max_modulus"]) and math.isfinite(payload["deviation"])
    assert payload["deviation"] <= n * np.finfo(float).eps * payload["norm"] + 2 * 5e-324


@pytest.mark.parametrize("argv", [
    ["ratio", "--n", "2", "--function", "probe:sigma=200"],
    ["sharpness", "--n", "2", "--cutoff", "1e300", "--eps", "3,0.5"],
])
def test_probe_scale_past_the_float_range_reads_infinity(capsys, argv):
    # a^(1 + 2 sigma) overflows; the ratio does not involve it
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    reports = payload["reports"] if "reports" in payload else [payload["report"]]
    assert reports[0]["numerator"] == reports[0]["denominator"] == math.inf
    assert all(r["slack"] > 0 and math.isfinite(r["ratio"]) for r in reports)


@pytest.mark.parametrize("argv,message", [
    # the probe's bracket underflows to 0: an infinite ratio has no sign
    (["ratio", "--n", "2", "--function", "probe:sigma=1e300"], "ratio too large"),
    (["sharpness", "--n", "2", "--eps", "1e300"], "ratio too large"),
    # two equal offsets leave the extrapolation without a slope
    (["sharpness", "--n", "2", "--eps", "0.1,0.1"], "distinct"),
    # x^(10^300) is built by squaring, one step per bit of the power
    (["ratio", "--n", "2", "--function", "gamma:p=1e300", "--points", "256"],
     "grid samples contain non-finite values"),
    (["mellin-check", "--width", "1e300"], "width"),
    (["ratio", "--n", "1", "--function", "gamma", "--alpha=inf"], "alpha must be finite"),
    (["constants", "--alpha=inf"], "alpha must be finite"),
    # r h > 709 on a 64-node grid over 600 decades
    (["norm", "--n", "60", "--x-min", "1e-300", "--x-max", "1e300", "--points", "64"],
     "r*h = "),
    (["ratio", "--n", "1", "--function", "gamma:p=nan"], "power nan is not a finite"),
    (["interval", "--n", "1", "--function", "gamma:p=nan"], "power nan is not a finite"),
    (["ratio", "--n", "2", "--function", "vec:gamma:p=3|gamma:p=-inf"], "power -inf"),
    # the registry's refusals
    (["ratio", "--n", "1", "--function", "zero"], "numerically zero"),
    (["ratio", "--n", "1", "--function", "nosuch"], "unknown test function 'nosuch'"),
    (["ratio", "--n", "1", "--function", "gamma:p"], "malformed function argument 'p'"),
    (["ratio", "--n", "1", "--function", "bridge"], "need an interval"),
    # an infinite cutoff leaves the probe with no tail and an infinite norm
    (["sharpness", "--n", "3", "--cutoff", "inf"], "cutoff must be positive and finite"),
    (["ratio", "--n", "2", "--function", "probe:a=inf"], "cutoff must be positive and finite"),
    # the package validates a bridge's degree, not numpy
    (["interval", "--n", "1", "--function", "bridge:degree=-1"], "bridge degree"),
    (["interval", "--n", "1", "--function", "bridge:degree=1.5"], "bridge degree"),
    (["interval", "--n", "1", "--function", "bridge:degree=400"], "bridge degree"),
])
def test_extreme_inputs_exit_2_with_one_error_line(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == cli.EXIT_VALIDATION and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and message in err


# In-process CLI fuzz: command lines built from extreme float values.  Every
# line must end in exit 0, 2 or 3 without an exception, and every report
# printed with exit 0 must have a positive slack.  Grids stay at 256 nodes or
# panels at most, and norm runs at most 30 steps, which keeps each line cheap.

# in-range values first: hypothesis draws the first entries most often
FUZZ_FLOATS = ("0.5", "3", "1e-8", "60", "0", "-1", "1e-300", "1e300", "inf", "-inf", "nan")

fuzz_float = st.sampled_from(FUZZ_FLOATS)
fuzz_n = st.sampled_from([1, 2, 3, 5, 8, 26, 98, 99, 0, -1])
fuzz_size = st.sampled_from(["256", "64", "8", "3", "0"])


def _optional(values):
    return st.one_of(st.just(None), values)


def _flag(name, values):
    """An optional ``--name=value`` argument, drawn from values."""
    return _optional(values).map(lambda v: [] if v is None else [f"--{name}={v}"])


def _joined(sep, count):
    return st.lists(fuzz_float, min_size=1, max_size=count).map(sep.join)


def _spec(name, **keys):
    """A registry string ``name:key=value,...``, each key present or left at its default."""
    pairs = [_optional(values).map(lambda v, key=key: None if v is None else f"{key}={v}")
             for key, values in keys.items()]
    return st.tuples(*pairs).map(lambda kv: f"{name}:" + ",".join(p for p in kv if p))


_scalar_function = st.one_of(
    _spec("gamma", p=fuzz_float, c=fuzz_float),
    _spec("polyexp", coeffs=_joined(":", 3), rate=fuzz_float),
    _spec("probe", sigma=fuzz_float, a=fuzz_float),
)
_function = st.one_of(
    _scalar_function,
    st.lists(_scalar_function, min_size=1, max_size=3).map(lambda fs: "vec:" + "|".join(fs)),
)


def _command(name, *parts):
    return st.tuples(*parts).map(lambda drawn: [name] + sum(drawn, []))


def _single(name, values):
    return values.map(lambda v: [f"--{name}={v}"])


# the default window, or one with either edge drawn
_window = (_optional(st.tuples(_flag("x-min", fuzz_float), _flag("x-max", fuzz_float)))
           .map(lambda edges: sum(edges or ([], []), [])),
           _single("points", fuzz_size))

fuzz_argv = st.one_of(
    _command("ratio", _single("n", fuzz_n), _single("function", _function),
             _flag("alpha", fuzz_float), *_window),
    _command("sharpness", _single("n", fuzz_n), _flag("eps", _joined(",", 3)),
             _flag("cutoff", fuzz_float)),
    _command("interval", _single("n", fuzz_n), _flag("a", fuzz_float), _flag("c", fuzz_float),
             _flag("side", st.sampled_from(["left", "right", "both"])),
             _flag("function", _spec("bridge", degree=st.sampled_from("012"))
                   | _spec("gamma", p=fuzz_float, c=fuzz_float)),
             _single("panels", fuzz_size)),
    _command("mellin-check", _single("points", fuzz_size), _flag("center", fuzz_float),
             _flag("width", fuzz_float), _flag("x-min", fuzz_float), _flag("x-max", fuzz_float)),
    _command("norm", _single("n", fuzz_n),
             _flag("operator", st.sampled_from(["cesaro", "pair-a", "pair-b"])),
             _flag("pair-power", st.integers(-2, 60)),
             _flag("boundary", st.sampled_from(["wrap", "cut"])), *_window,
             _flag("tol", fuzz_float), _single("max-iter", st.sampled_from(["1", "30"]))),
    _command("spectrum", _single("n", fuzz_n), _single("theta-count", fuzz_size)),
    _command("constants", _flag("n-max", st.integers(-1, 30)), _flag("alpha", _joined(",", 3))),
)


@settings(max_examples=300, deadline=None)
@given(argv=fuzz_argv)
def test_cli_fuzz_exits_cleanly_with_positive_slacks(argv):
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    assert code in (0, cli.EXIT_VALIDATION, cli.EXIT_NO_CONVERGENCE), argv
    if code == 0:
        payload = json.loads(out.getvalue())
        reports = payload.get("reports", [payload["report"]] if "report" in payload else [])
        assert all(report["slack"] > 0 for report in reports), argv
