"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_analyse_takes_spec(self):
        args = build_parser().parse_args(["analyse", "1-3-5", "--p", "0.8"])
        assert args.spec == "1-3-5"
        assert args.p == 0.8

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.n == 48 and args.read_fraction == 0.5


class TestCommands:
    def test_example_prints_table1(self, capsys):
        assert main(["example"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "0.9706" in output      # RD_availability(0.7)
        assert "0.7733" in output     # E[L_WR] (paper rounds to 0.775)

    def test_fig2(self, capsys):
        assert main(["fig2", "--p", "0.7"]) == 0
        output = capsys.readouterr().out
        assert "read_cost" in output and "MOSTLY-READ" in output

    def test_fig3_and_fig4(self, capsys):
        assert main(["fig3"]) == 0
        assert "read_load" in capsys.readouterr().out
        assert main(["fig4"]) == 0
        assert "write_load" in capsys.readouterr().out

    def test_survey(self, capsys):
        assert main(["survey", "--n", "121"]) == 0
        output = capsys.readouterr().out
        assert "HQC" in output and "ROWA" in output

    def test_analyse(self, capsys):
        assert main(["analyse", "1-3-5", "--p", "0.7"]) == 0
        output = capsys.readouterr().out
        assert "0.4534" in output      # write availability

    def test_tune(self, capsys):
        assert main(["tune", "--n", "24", "--read-fraction", "1.0"]) == 0
        output = capsys.readouterr().out
        assert "1-24" in output        # pure reads -> one wide level

    def test_simulate(self, capsys):
        assert main([
            "simulate", "1-3-5", "--operations", "200", "--seed", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "simulated" in output
        assert "messages" in output

    def test_simulate_with_failures(self, capsys):
        assert main([
            "simulate", "1-3-5", "--operations", "300", "--p", "0.8",
        ]) == 0
        assert "availability" in capsys.readouterr().out


def _commands_taking(flag: str) -> list[str]:
    """Every command whose parser declares ``flag``."""
    import argparse

    parser = build_parser()
    (sub,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return [
        name for name, command in sub.choices.items()
        if flag in command._option_string_actions
    ]


_OUT_OF_RANGE = [
    (flag, value)
    for flag, values in (
        ("--p", ("1.5", "-0.1", "nan")),
        ("--drop", ("2",)),
        ("--read-fraction", ("2",)),
        ("--repeats", ("0", "-3")),
        ("--jobs", ("0",)),
    )
    for value in values
]


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value)
    for flag, value in _OUT_OF_RANGE
    for command in _commands_taking(flag)
])
def test_an_out_of_range_option_is_refused(command, flag, value, capsys):
    """A probability outside [0, 1] or a count below 1 exits 2 naming the
    option: it must not run a different experiment (``--p 1.5`` as
    failure-free, ``--repeats 0`` as one repeat) or end in a traceback."""
    with pytest.raises(SystemExit) as stop:
        main([command, flag, value])
    assert stop.value.code == 2
    assert f"repro {command}: error: argument {flag}: " in (
        capsys.readouterr().err
    )


def test_every_range_checked_option_is_taken_somewhere():
    for flag, _value in _OUT_OF_RANGE:
        assert _commands_taking(flag), flag
    assert "simulate" in _commands_taking("--p")
    assert "simulate" in _commands_taking("--repeats")
    assert "availability" in _commands_taking("--p")


@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "0", "--operations", "10"],
    ["simulate", "--p", "1", "--operations", "10", "--repeats", "1"],
    ["shard", "--drop", "1", "--read-fraction", "0", "--operations", "10"],
    ["availability", "--p", "0", "1", "--jobs", "1"],
])
def test_the_edges_of_each_range_are_accepted(argv, capsys):
    assert main(argv) == 0
