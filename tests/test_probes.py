import numpy as np
import pytest

from netdos import (OperatorKind, ProbeKind, build_csr, build_operator,
                    estimate_diagonal, estimate_trace, make_probes)
from netdos.testkit import dense_matrix, erdos_renyi, exact_spectrum


class _DenseOp:
    def __init__(self, h):
        self.h = np.asarray(h, dtype=np.float64)
        self.n = self.h.shape[0]

    def apply(self, x, out=None):
        return self.h @ x


def test_rademacher_entries_are_signs():
    p = make_probes(4, 2, ProbeKind.RADEMACHER, seed=5)
    assert set(np.unique(p.columns)) <= {-1.0, 1.0}


def test_standard_basis_columns():
    p = make_probes(4, 4, ProbeKind.STANDARD_BASIS, seed=0)
    assert np.array_equal(p.columns, np.eye(4))
    with pytest.raises(ValueError, match="nz <= n"):
        make_probes(3, 4, ProbeKind.STANDARD_BASIS, seed=0)


def test_hadamard_entries_and_orthogonality():
    p = make_probes(1024, 8, ProbeKind.HADAMARD, seed=1)
    assert set(np.unique(p.columns)) <= {-1.0, 1.0}
    gram = p.columns.T @ p.columns
    assert np.array_equal(gram, 1024 * np.eye(8))  # full-size: exactly orthogonal


def test_gaussian_column_means():
    p = make_probes(1000, 20, ProbeKind.GAUSSIAN, seed=42)
    assert np.all(np.abs(p.columns.mean(axis=0)) < 4 / np.sqrt(1000))
    assert np.all(np.abs(p.columns.std(axis=0) - 1.0) < 0.2)


def test_probes_deterministic_and_column_stable():
    a = make_probes(64, 6, ProbeKind.GAUSSIAN, seed=9)
    b = make_probes(64, 6, ProbeKind.GAUSSIAN, seed=9)
    assert np.array_equal(a.columns, b.columns)
    # column j does not depend on how many later columns were requested
    c = make_probes(64, 3, ProbeKind.GAUSSIAN, seed=9)
    assert np.array_equal(a.columns[:, :3], c.columns)


def test_trace_of_identity_rademacher_exact():
    op = _DenseOp(np.eye(17))
    p = make_probes(17, 5, ProbeKind.RADEMACHER, seed=3)
    assert estimate_trace(op, p) == pytest.approx(17.0, abs=1e-12)


def test_trace_standard_basis_diag():
    op = _DenseOp(np.diag([1.0, 2.0, 3.0]))
    p = make_probes(3, 3, ProbeKind.STANDARD_BASIS, seed=0)
    assert estimate_trace(op, p) == pytest.approx(6.0, abs=1e-12)


def test_trace_er_normalized_adjacency_within_noise():
    g = erdos_renyi(200, 0.05, seed=13)
    op = build_operator(g, OperatorKind.NORMALIZED_ADJACENCY)
    p = make_probes(200, 20, ProbeKind.RADEMACHER, seed=17)
    # per-probe values z^T H z; the oracle trace is exactly 0
    vals = np.einsum("ij,ij->j", p.columns, op.apply(p.columns))
    stderr = vals.std(ddof=1) / np.sqrt(20)
    assert abs(estimate_trace(op, p)) < 5 * stderr


def test_diagonal_exact_for_diagonal_matrix():
    op = _DenseOp(np.diag([2.0, -1.0, 0.5, 4.0]))
    p = make_probes(4, 3, ProbeKind.RADEMACHER, seed=2)
    assert np.allclose(estimate_diagonal(op, p), [2.0, -1.0, 0.5, 4.0], atol=1e-12)


def test_diagonal_of_identity_any_kind():
    for kind in (ProbeKind.GAUSSIAN, ProbeKind.RADEMACHER, ProbeKind.HADAMARD):
        op = _DenseOp(np.eye(12))
        p = make_probes(12, 4, kind, seed=8)
        assert np.allclose(estimate_diagonal(op, p), np.ones(12), atol=1e-12)


def test_diagonal_p4_gaussian_close_to_zero():
    g = build_csr([(0, 1), (1, 2), (2, 3)])
    op = build_operator(g, OperatorKind.NORMALIZED_ADJACENCY)
    p = make_probes(4, 200, ProbeKind.GAUSSIAN, seed=21)
    est = estimate_diagonal(op, p)
    assert np.abs(est).max() < 0.2  # oracle diagonal is all zeros


def test_standard_basis_exactness_trace_and_diagonal():
    g = erdos_renyi(60, 0.1, seed=1)
    op = build_operator(g, OperatorKind.LAPLACIAN)
    h = dense_matrix(op)
    p = make_probes(60, 60, ProbeKind.STANDARD_BASIS, seed=0)
    assert abs(estimate_trace(op, p) - np.trace(h)) < 1e-12 * max(1, abs(np.trace(h)))
    assert np.abs(estimate_diagonal(op, p) - np.diag(h)).max() < 1e-12


def test_unbiasedness_rate_over_seeds():
    g = erdos_renyi(100, 0.08, seed=3)
    op = build_operator(g, OperatorKind.ADJACENCY)
    h = dense_matrix(op)
    target = np.trace(h)  # 0 for a simple graph
    few = np.mean([estimate_trace(op, make_probes(100, 4, ProbeKind.RADEMACHER, seed=s))
                   for s in range(4)])
    many = np.mean([estimate_trace(op, make_probes(100, 4, ProbeKind.RADEMACHER, seed=s))
                    for s in range(64)])
    assert abs(many - target) < abs(few - target) + 1e-9


def test_diagonal_raw_form_flag():
    op = _DenseOp(np.diag([3.0, 5.0]))
    p = make_probes(2, 50, ProbeKind.GAUSSIAN, seed=4)
    norm = estimate_diagonal(op, p, normalized=True)
    raw = estimate_diagonal(op, p, normalized=False)
    assert np.allclose(norm, [3.0, 5.0], atol=1e-12)  # exact for diagonal H
    assert not np.allclose(raw, norm)  # raw keeps chi-square noise
    assert np.allclose(raw, [3.0, 5.0], atol=1.5)


def test_zero_denominator_rejected():
    op = _DenseOp(np.eye(5))
    p = make_probes(5, 2, ProbeKind.STANDARD_BASIS, seed=0)
    with pytest.raises(ValueError, match="zero probe mass"):
        estimate_diagonal(op, p)


def test_dimension_mismatch_rejected():
    op = _DenseOp(np.eye(5))
    p = make_probes(4, 2, ProbeKind.RADEMACHER, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        estimate_trace(op, p)
