"""Golden CLI parses: help, usage errors and parsed namespaces of ``dss``.

``golden_cli.json`` holds, for each argv, what ``dss.cli.main`` printed,
its exit status and the namespace it handed to the command handler (with
``func`` stored by name).  The handlers are replaced by stubs, so no file
is read.  To record it again from a source tree::

    PYTHONPATH=<tree>/src python tests/test_golden_cli.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from dss import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")
COLUMNS = "80"  # help text wraps at the terminal width

GENERATORS = ["clique", "hard-maximal", "independent-set", "subset-sum", "random"]
COMMANDS = ["solve", "check", "classify", "generate", "bench"]

ARGVS = (
    # help at every level
    [["-h"], ["--help"], ["--he"], ["-h", "solve"]]
    + [[c, "-h"] for c in COMMANDS]
    + [["generate", g, "--help"] for g in GENERATORS]
    + [["solve", "x", "-h"], ["generate", "random", "-h", "--bogus"]]
    # missing, unknown and abbreviated names
    + [[], ["generate"], ["bogus"], ["generate", "bogus"], ["--bogus"]]
    + [["sol", "x"], ["gen", "random"], ["generate", "rand", "--n", "3"], ["generate", "sub"]]
    + [["--", "solve", "x"], ["generate", "--", "random"]]
    # unrecognized arguments after a valid leaf
    + [
        ["solve", "x", "--bogus"],
        ["classify", "x", "extra"],
        ["check", "a", "b", "c"],
        ["generate", "random", "--n", "3", "--bogus"],
        ["generate", "random", "--n", "3", "extra"],
        ["generate", "random", "--n", "3", "--bud", "4"],
    ]
    # bad choices and bad ints
    + [
        ["solve", "x", "--algorithm", "magic"],
        ["solve", "x", "--algorithm", "eulerian"],  # retired row
        ["solve", "x", "--k", "two"],
        ["generate", "random", "--n", "3", "--graph-class", "blob"],
        ["generate", "random", "--n", "three"],
        ["generate", "independent-set", "--edges", "e", "--kind", "ssg"],
        ["generate", "clique", "--edges", "e", "--clique-size", "1.5"],
    ]
    # leaves with no arguments
    + [["solve"], ["check"], ["classify"]]
    + [["generate", g] for g in GENERATORS]
    # valid calls
    + [
        ["solve", "i.txt"],
        ["solve", "i.txt", "--algorithm", "ptas", "--k", "3", "--out", "o.txt"],
        ["solve", "--alg", "brute", "--", "x"],
        ["check", "i.txt", "s.txt"],
        ["classify", "i.txt"],
        ["bench"],
        ["bench", "--sizes", "6", "--k-list=0,1", "--classes", "tournament"],
        ["generate", "random", "--n", "5", "--graph-class", "tournament", "--budget", "7"],
        ["generate", "random", "--n", "5", "--budget-f", "0.25", "--kind", "maximal-ssg"],
        ["generate", "subset-sum", "--values", "1,2", "--budget", "3"],
        ["generate", "clique", "--edges", "e.txt", "--clique-size", "3", "--out", "o"],
        ["generate", "hard-maximal", "--instance", "i.txt", "--p", "2"],
        ["generate", "independent-set", "--edges", "e.txt", "--kind", "maximal-ssgw"],
    ]
)


def capture(argv: list[str]) -> dict:
    """Run ``cli.main(argv)`` with every ``cmd_*`` handler stubbed out."""
    seen = []

    def stub(name):
        def handler(args):
            ns = dict(vars(args))
            ns["func"] = name
            seen.append(ns)
            return 0

        return handler

    names = [name for name in vars(cli) if name.startswith("cmd_")]
    saved = {name: getattr(cli, name) for name in names}
    out, err = io.StringIO(), io.StringIO()
    try:
        for name in names:
            setattr(cli, name, stub(name))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
    return {
        "argv": list(argv),
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "exit": code,
        "namespace": seen[0] if seen else None,
    }


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("i", range(len(ARGVS)), ids=lambda i: " ".join(ARGVS[i]) or "<empty>")
def test_matches_golden(i, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    entry = _golden()[i]
    assert capture(entry["argv"]) == entry


def test_golden_covers_every_argv():
    assert [e["argv"] for e in _golden()] == ARGVS


def _registered(parser, dest):
    action = next(a for a in parser._actions if getattr(a, "dest", None) == dest)
    return action, list(action.choices)


class TestBuildsOneBranch:
    def test_solve_registers_only_solve(self):
        action, names = _registered(cli._build_parser(["solve", "x", "--k", "1"]), "command")
        assert names == ["solve"]
        assert action.metavar == "{solve,check,classify,generate,bench}"

    def test_generate_registers_only_its_generator(self):
        action, names = _registered(cli._build_parser(["generate", "random", "--n", "3"]), "command")
        assert names == ["generate"]
        gen_action, gen_names = _registered(action.choices["generate"], "generator")
        assert gen_names == ["random"]
        assert gen_action.metavar == "{" + ",".join(GENERATORS) + "}"

    @pytest.mark.parametrize("argv", [[], ["-h"], ["sol"], ["--", "solve"]])
    def test_no_command_word_registers_all(self, argv):
        action, names = _registered(cli._build_parser(argv), "command")
        assert names == COMMANDS
        assert action.metavar is None
        _, gen_names = _registered(action.choices["generate"], "generator")
        assert gen_names == GENERATORS

    def test_no_parser_kept_between_calls(self):
        assert cli._build_parser(["solve"]) is not cli._build_parser(["solve"])
        assert not any(
            isinstance(v, cli.argparse.ArgumentParser) for v in vars(cli).values()
        )


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(
        sys, "argv", ["dss", "generate", "subset-sum", "--values", "3,5", "--budget", "8"]
    )
    assert cli.main() == 0
    out = capsys.readouterr().out
    assert out.startswith("problem ssg\nbudget 8\n")
    monkeypatch.setattr(sys, "argv", ["dss", "generate", "rand"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert "invalid choice: 'rand'" in capsys.readouterr().err


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    entries = [capture(argv) for argv in ARGVS]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
