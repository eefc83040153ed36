"""Command-line front end: byte-identical output and exit codes."""

import argparse
import json

import pytest

from hardy_rellich import cli

COMMANDS = {
    "constants": ["constants", "--n-max", "4", "--alpha", "1.5"],
    "ratio": ["ratio", "--n", "2", "--function", "gamma:p=2.5", "--points", "1024"],
    "sharpness": ["sharpness", "--n", "2", "--eps", "0.5,0.1,0.01"],
    "norm": ["norm", "--n", "2", "--points", "1024"],
    "spectrum": ["spectrum", "--n", "3", "--theta-count", "256"],
    "mellin-check": ["mellin-check", "--points", "1024", "--width", "0.3"],
    "interval": ["interval", "--n", "1", "--panels", "256"],
}


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_non_convergence_exits_3(capsys):
    code, out, err = _run(capsys, ["norm", "--points", "256", "--max-iter", "1",
                                   "--tol", "1e-16"])
    assert code == cli.EXIT_NO_CONVERGENCE == 3
    assert out == "" and "error:" in err


@pytest.mark.parametrize("argv", [
    ["mellin-check", "--points", "1000"],
    ["interval", "--n", "1", "--a", "2", "--c", "1"],
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
