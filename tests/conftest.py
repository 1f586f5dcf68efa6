import numpy as np
import pytest

from netdos import build_csr


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
