import numpy as np
import pytest

from netdos import GraphError, build_csr


def test_two_edge_path():
    g = build_csr([(0, 1), (1, 2)])
    assert g.n == 3
    assert g.nnz == 4
    assert g.num_edges == 2
    assert np.all(g.weights == 1.0)
    assert np.array_equal(g.degrees(), [1.0, 2.0, 1.0])


def test_reversed_duplicate_kept_once():
    g = build_csr([(0, 1), (1, 0)])
    assert g.n == 2
    assert g.nnz == 2
    assert np.array_equal(g.weights, [1.0, 1.0])


def test_same_direction_duplicates_sum():
    g = build_csr([(0, 1, 2.0), (0, 1, 3.0)])
    assert g.num_edges == 1
    assert np.array_equal(np.unique(g.weights), [5.0])
    assert not np.any(g.weights == 1.0)


def test_conflicting_bidirectional_weights_rejected():
    with pytest.raises(GraphError, match="conflicting"):
        build_csr([(0, 1, 2.0), (1, 0, 3.0)])


def test_symmetry_and_sorted_columns():
    rng = np.random.default_rng(0)
    edges = set()
    while len(edges) < 60:
        u, v = rng.integers(0, 30, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = build_csr([(int(u), int(v), float(1 + (u + v) % 3)) for u, v in edges])
    dense = np.zeros((g.n, g.n))
    for i in range(g.n):
        sl = g.neighbor_slice(i)
        cols = g.col_idx[sl]
        assert np.all(np.diff(cols) > 0)  # sorted, no duplicates
        dense[i, cols] = g.weights[sl]
    assert np.array_equal(dense, dense.T)
    assert np.all(g.weights > 0)


def test_rejects_bad_input():
    with pytest.raises(GraphError, match="non-positive"):
        build_csr([(0, 1, 0.0)])
    with pytest.raises(GraphError, match="non-positive"):
        build_csr([(0, 1, -2.0)])
    with pytest.raises(GraphError, match="self-loop at node 3"):
        build_csr([(0, 1), (3, 3)])
    with pytest.raises(GraphError, match="nonnegative"):
        build_csr([(-1, 2)])
    with pytest.raises(GraphError, match=r"edge \(1, 2\) has non-finite weight nan"):
        build_csr([(0, 1, 1.0), (1, 2, float("nan"))])
    with pytest.raises(GraphError, match=r"edge \(0, 1\) has non-finite weight inf"):
        build_csr([(0, 1, float("inf"))])
    with pytest.raises(GraphError, match="non-positive weight -inf"):
        build_csr([(0, 1, float("-inf"))])


def test_self_loop_allowed_with_flag():
    g = build_csr([(0, 1), (1, 1, 2.0)], allow_self_loops=True)
    assert g.nnz == 3  # loop stored once
    assert g.degrees()[1] == 3.0  # loop weight counted once


def test_explicit_n_allows_isolated_tail():
    g = build_csr([(0, 1)], n=5)
    assert g.n == 5
    assert np.array_equal(g.degrees(), [1, 1, 0, 0, 0])
    with pytest.raises(GraphError, match="smaller than"):
        build_csr([(0, 9)], n=5)


def test_empty_graph():
    g = build_csr([], n=4)
    assert g.n == 4
    assert g.nnz == 0
