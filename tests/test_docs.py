"""The README's code runs as written and states what it computes."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _library_block():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block():
    # its comment: r = 917 of the 2000 dimensions are deflated; the masses
    # then total d0 (n - r)/n + r/n (the README's KPM paragraph)
    scope = {}
    exec(compile(_library_block(), README, "exec"), scope)
    g, q, moments, hist = (scope[k] for k in ("g", "q", "moments", "hist"))
    r = moments.adjustment.deflated_dim
    assert (g.n, r, q.n) == (2000, 917, 1083)
    d0 = moments.values[0]
    assert hist.masses.sum() == pytest.approx(d0 * (g.n - r) / g.n + r / g.n,
                                              abs=1e-12)
