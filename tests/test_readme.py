"""The README's examples run and give the values their comments state."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from ghzmeter.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# a decimal such as 0.648148 or a fraction such as -35/27
NUMBER = r"-?\d+(?:/\d+|\.\d+)?"


def block(heading, language):
    """The first fenced block of `language` under the README's `heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1).splitlines()


def close(value, stated):
    return abs(float(value) - float(Fraction(stated))) < 1e-6


def test_library_example_gives_its_commented_values():
    namespace, checked = {}, 0
    for line in block("Library", "python"):
        code, _, comment = line.partition("#")
        stated = re.findall(NUMBER, comment)
        if not stated:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        assert all(close(value, s) for s in stated), (line, value)
        checked += 1
    assert checked == 3  # 2.0, 0.0, and 0.648148 = 35/54


CLI_LINES = [line for line in block("CLI", "bash") if line.startswith("ghzmeter ")]


def run(capsys, line):
    code = main(shlex.split(line.partition("#")[0])[1:])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("line", CLI_LINES, ids=[line.split()[1] for line in CLI_LINES])
def test_cli_example_exits_0_with_its_commented_value(capsys, monkeypatch, line):
    monkeypatch.delenv("GHZMETER_SEED", raising=False)
    code, out = run(capsys, line)
    assert code == 0
    # a comment `NAME = value` is a line of the output
    for name, stated in re.findall(rf"(\S+) = ({NUMBER})", line.partition("#")[2]):
        printed = re.search(rf"^{re.escape(name)}\s*=\s*(\S+)", out, re.M).group(1)
        assert close(printed, stated), (name, printed, stated)


def test_cli_block_lists_seven_examples_two_with_values():
    assert len(CLI_LINES) == 7
    valued = [line for line in CLI_LINES if re.search(rf"\S+ = {NUMBER}", line.partition("#")[2])]
    assert len(valued) == 2


def test_notes_qudit_maximum_is_the_scan_value(capsys):
    stated = re.search(rf"`\|I_3\| = ({NUMBER})`", README).group(1)
    (line,) = [line for line in CLI_LINES if " qudit " in line and "--d 3" in line]
    code, out = run(capsys, line)
    assert code == 0
    assert close(re.search(r"max \|I_d\| = (\S+)", out).group(1), stated)
