"""The README's code runs as written and states what it computes."""

import os
import re
import shlex

import pytest

from netdos.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _block(heading, lang=""):
    """The first ``` block after the README heading `heading`."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(f"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_library_block():
    # its comment: r = 917 of the 2000 dimensions are deflated; the masses
    # then total d0 (n - r)/n + r/n (the README's KPM paragraph)
    scope = {}
    exec(compile(_block("Library", "python"), README, "exec"), scope)
    g, q, moments, hist = (scope[k] for k in ("g", "q", "moments", "hist"))
    r = moments.adjustment.deflated_dim
    assert (g.n, r, q.n) == (2000, 917, 1083)
    d0 = moments.values[0]
    assert hist.masses.sum() == pytest.approx(d0 * (g.n - r) / g.n + r / g.n,
                                              abs=1e-12)


def test_readme_command_line_block(tmp_path, monkeypatch):
    # every command exits 0 and writes the files it names
    monkeypatch.chdir(tmp_path)
    commands = _block("Command line").replace("\\\n", " ").splitlines()
    assert len(commands) == 9
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "netdos"
        assert main(argv[1:]) == 0, line
        for flag in ("--out", "--save-partition"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).is_file(), line
