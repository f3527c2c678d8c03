"""The README's examples run as written: the library quick tour, and every
``bfw ...`` line of its CLI block through :func:`bfw.cli.main`."""

import re
import shlex
from pathlib import Path

import pytest

from bfw.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def fenced_block(heading, language):
    """The first ```language block after the line ``heading``."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [line.split("#", 1)[0].strip()
             for line in fenced_block("## CLI", "sh").splitlines()
             if line.startswith("bfw ")]


def test_quick_tour_runs():
    exec(compile(fenced_block("## Library quick tour", "python"), "README.md", "exec"), {})


def test_cli_block_is_read():
    assert len(CLI_LINES) >= 6


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_exits_zero(capsys, line):
    argv = shlex.split(line)[1:]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out and not captured.err
