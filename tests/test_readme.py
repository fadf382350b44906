"""The README's examples run: the Library tour's python block, and each
``derange`` line of the Command line block, in-process."""

import re
import shlex
from pathlib import Path

import pytest

from derange import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ```lang block of the README section under ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs():
    exec(compile(_block("Library tour", "python"), "README.md", "exec"), {})


# each line's words, its comment dropped
COMMAND_LINES = [shlex.join(shlex.split(line, comments=True))
                 for line in _block("Command line", "sh").splitlines()
                 if line.startswith("derange ")]


def test_command_line_block_is_found():
    assert len(COMMAND_LINES) >= 7


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_example_exits_0(line, capsys):
    assert cli.run_command(shlex.split(line)[1:]) == 0, \
        capsys.readouterr().err
