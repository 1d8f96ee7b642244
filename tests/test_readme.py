"""Every `rbt-lab` command in README's `sh` blocks runs with its documented exit code.

With `--output json` each prints its document as json.dumps(doc, indent=2) writes it.
"""

import io
import json
import re
import shlex
from pathlib import Path

import pytest

from rbt_lab.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.startswith("rbt-lab") or "| rbt-lab" in line]


COMMANDS = readme_commands()


def test_readme_shows_every_subcommand():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    shown = {shlex.split(line.split("| ")[-1])[1] for line in COMMANDS}
    assert shown == set(subparsers.choices)


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses_as_in_the_full_parser(line):
    argv = shlex.split(line.split("| ")[-1])[1:]
    args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
    full = vars(build_parser().parse_args(argv))
    assert full.pop("command") == argv[0]
    assert (vars(args), rest) == (full, [])


def readme_argv(line, monkeypatch):
    """The argv of a README line, with the text it echoes put on stdin."""
    stdin = ""
    if " | " in line:
        echo, line = line.split(" | ", 1)
        stdin = shlex.split(echo)[1]
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    return shlex.split(line)[1:]


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exit_code(line, monkeypatch, capsys):
    argv = readme_argv(line, monkeypatch)
    # the README's check-rbt example is a rainbow triangle, reported with exit 1
    expected = 1 if argv[0] == "check-rbt" else 0
    assert main(argv) == expected
    out = capsys.readouterr().out
    assert out


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_json_is_json_dumps_indent_2(line, monkeypatch, capsys):
    argv = readme_argv(line, monkeypatch)
    if "--output" not in argv:
        argv += ["--output", "json"]
    main(argv)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
