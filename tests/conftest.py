import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from netdos import build_csr, build_operator, detect_motifs
from netdos.operators import OPERATOR
from netdos.testkit import erdos_renyi, preferential_attachment, small_world

# On a failing property test, hypothesis's pytest plugin imports this module
# to print the falsifying example; its import of libcst raises a
# DeprecationWarning, which the pyproject filters turn into an error, and
# pytest then reports an INTERNALERROR instead of the example. Imported here
# once with that warning ignored, it is already loaded when a test fails.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin prints no patch at all
        pass


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's `workloads` module, imported from perfbench/ without
    writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import workloads
    return workloads


@pytest.fixture
def triangle():
    return build_csr([(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def path3():
    return build_csr([(0, 1), (1, 2)])


@pytest.fixture
def star4():
    """Star K_{1,3}: hub 0, leaves 1..3."""
    return build_csr([(0, 1), (0, 2), (0, 3)])


def grid_graph(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((i * cols + j, i * cols + j + 1))
            if i + 1 < rows:
                edges.append((i * cols + j, (i + 1) * cols + j))
    return build_csr(edges)


def motifs_of(g, kind=OPERATOR, kinds=None):
    """`detect_motifs` with eigenvalues read from the operator of `kind`."""
    return detect_motifs(g, build_operator(g, kind), kinds)


def dense_from_graph(g, kind):
    """Independent dense construction of each operator family."""
    a = np.zeros((g.n, g.n))
    for i in range(g.n):
        sl = g.neighbor_slice(i)
        for j, w in zip(g.col_idx[sl].tolist(), g.weights[sl].tolist()):
            a[i, j] = w
    deg = a.sum(axis=1)
    if kind == "adjacency":
        return a
    if kind == "laplacian":
        return np.diag(deg) - a
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    na = dinv[:, None] * a * dinv[None, :]
    if kind == "normalized-adjacency":
        return na
    return np.eye(g.n) - na


@st.composite
def small_models(draw):
    """A seeded ER, PA or WS graph of 20-60 nodes with at least one edge."""
    n, seed = draw(st.integers(20, 60)), draw(st.integers(0, 1 << 16))
    model = draw(st.sampled_from(["er", "pa", "ws"]))
    if model == "er":
        g = erdos_renyi(n, draw(st.sampled_from([0.05, 0.1, 0.3])), seed=seed)
    elif model == "pa":
        g = preferential_attachment(n, draw(st.integers(1, 3)), seed=seed)
    else:
        g = small_world(n, draw(st.sampled_from([2, 4])),
                        draw(st.sampled_from([0.0, 0.1, 0.5])), seed=seed)
    assume(g.nnz)
    return g
