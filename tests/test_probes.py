import math

import numpy as np
import pytest

from netdos import (OperatorKind, ProbeKind, RecurrenceBlowupError,
                    SymmetricCSROperator, build_csr, build_operator,
                    dos_moments, make_probes, pdos_moments)
from netdos.testkit import dense_matrix, erdos_renyi

from conftest import traced_peak


def _dense_op(h):
    """The dense matrix h as the CSR operator the probe recurrence reads."""
    h = np.asarray(h, dtype=np.float64)
    rows, cols = np.nonzero(h)
    indptr = np.zeros(h.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=h.shape[0]), out=indptr[1:])
    return SymmetricCSROperator(h.shape[0], indptr, cols, h[rows, cols], None)


def _in_unit_range(op):
    """op divided by a power of two at least its absolute entry sum, which
    bounds its spectrum, so the recurrence's certificate holds; and that
    power. Both the division and the multiplication back are exact."""
    scale = 2.0 ** math.frexp(float(np.abs(op.data).sum()))[1]
    return SymmetricCSROperator(op.n, op.indptr, op.indices, op.data / scale,
                                op.kind), scale


def _trace(op, probes):
    """Hutchinson trace estimate: n times the m = 1 global moment."""
    h, scale = _in_unit_range(op)
    return float(dos_moments(h, probes, 1).values[1] * op.n * scale)


def _diagonal(op, probes):
    """Diagonal estimate (sum_j z_j * H z_j) / (sum_j z_j * z_j), elementwise:
    the m = 1 per-node moments."""
    h, scale = _in_unit_range(op)
    return pdos_moments(h, probes, 1).values[:, 1] * scale


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


def _philox(seed_sequence):
    return np.random.Generator(np.random.Philox(seed_sequence))


# (n, nz): n not a multiple of the period 2^ceil(log2 nz), nz a power of two
# and not, nz at the column cap 2^ceil(log2 n), and n = 1
@pytest.mark.parametrize("n, nz", [(1001, 20), (1000, 8), (1000, 3), (37, 1),
                                   (1000, 1024), (12, 16), (1, 2), (257, 100)])
def test_hadamard_probes_match_their_definition(n, nz):
    # row flips drawn from child nz of SeedSequence(seed), times
    # (-1)^popcount(i & j)
    seed = 11
    rng = _philox(np.random.SeedSequence(seed).spawn(nz + 1)[nz])
    flips = 1 - 2 * rng.integers(0, 2, size=n)
    signs = np.array([[(-1) ** (i & j).bit_count() for j in range(nz)]
                      for i in range(n)])
    got = make_probes(n, nz, ProbeKind.HADAMARD, seed).columns
    assert got.flags.c_contiguous and got.dtype == np.float64
    assert np.array_equal(got, flips[:, None] * signs)


@pytest.mark.parametrize("kind", [ProbeKind.RADEMACHER, ProbeKind.GAUSSIAN])
def test_random_columns_are_the_spawned_streams(kind):
    # column j is drawn from child j of SeedSequence(seed), whatever nz is
    want = []
    for ss in np.random.SeedSequence(7).spawn(4):
        rng = _philox(ss)
        want.append(rng.standard_normal(50) if kind is ProbeKind.GAUSSIAN
                    else 1 - 2 * rng.integers(0, 2, size=50))
    for nz in (1, 4):
        got = make_probes(50, nz, kind, seed=7).columns
        assert np.array_equal(got, np.column_stack(want[:nz]))


def test_hadamard_probes_build_only_their_block():
    # the sign pattern repeats with period 32 down the rows; only that
    # period and the row flips are built beside the block
    block = 200_000 * 20 * 8
    assert traced_peak(make_probes, 200_000, 20, ProbeKind.HADAMARD) <= 1.2 * block


@pytest.mark.parametrize("n, nz, cap", [(1000, 1025, 1024), (100, 100_000, 128)])
def test_hadamard_column_cap_is_checked_first(n, nz, cap):
    def over_cap():
        with pytest.raises(ValueError, match=f"at most {cap} columns for n={n}$"):
            make_probes(n, nz, ProbeKind.HADAMARD)
    assert traced_peak(over_cap) < 1 << 20


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
    op = _dense_op(np.eye(17))
    p = make_probes(17, 5, ProbeKind.RADEMACHER, seed=3)
    assert _trace(op, p) == pytest.approx(17.0, abs=1e-12)


def test_trace_standard_basis_diag():
    op = _dense_op(np.diag([1.0, 2.0, 3.0]))
    p = make_probes(3, 3, ProbeKind.STANDARD_BASIS, seed=0)
    assert _trace(op, p) == pytest.approx(6.0, abs=1e-12)


def test_trace_er_normalized_adjacency_within_noise():
    g = erdos_renyi(200, 0.05, seed=13)
    op = build_operator(g, OperatorKind.NORMALIZED_ADJACENCY)
    p = make_probes(200, 20, ProbeKind.RADEMACHER, seed=17)
    # per-probe values z^T H z; the oracle trace is exactly 0
    vals = np.einsum("ij,ij->j", p.columns, op.apply(p.columns))
    stderr = vals.std(ddof=1) / np.sqrt(20)
    assert abs(_trace(op, p)) < 5 * stderr


def test_diagonal_exact_for_diagonal_matrix():
    op = _dense_op(np.diag([2.0, -1.0, 0.5, 4.0]))
    p = make_probes(4, 3, ProbeKind.RADEMACHER, seed=2)
    assert np.allclose(_diagonal(op, p), [2.0, -1.0, 0.5, 4.0], atol=1e-12)


def test_diagonal_of_identity_any_kind():
    for kind in (ProbeKind.GAUSSIAN, ProbeKind.RADEMACHER, ProbeKind.HADAMARD):
        op = _dense_op(np.eye(12))
        p = make_probes(12, 4, kind, seed=8)
        assert np.allclose(_diagonal(op, p), np.ones(12), atol=1e-12)


def test_diagonal_p4_gaussian_close_to_zero():
    g = build_csr([(0, 1), (1, 2), (2, 3)])
    op = build_operator(g, OperatorKind.NORMALIZED_ADJACENCY)
    p = make_probes(4, 200, ProbeKind.GAUSSIAN, seed=21)
    est = _diagonal(op, p)
    assert np.abs(est).max() < 0.2  # oracle diagonal is all zeros


def test_standard_basis_exactness_trace_and_diagonal():
    g = erdos_renyi(60, 0.1, seed=1)
    op = build_operator(g, OperatorKind.LAPLACIAN)
    h = dense_matrix(op)
    p = make_probes(60, 60, ProbeKind.STANDARD_BASIS, seed=0)
    assert abs(_trace(op, p) - np.trace(h)) < 1e-12 * max(1, abs(np.trace(h)))
    assert np.abs(_diagonal(op, p) - np.diag(h)).max() < 1e-12


def test_unbiasedness_rate_over_seeds():
    g = erdos_renyi(100, 0.08, seed=3)
    op = build_operator(g, OperatorKind.ADJACENCY)
    h = dense_matrix(op)
    target = np.trace(h)  # 0 for a simple graph
    few = np.mean([_trace(op, make_probes(100, 4, ProbeKind.RADEMACHER, seed=s))
                   for s in range(4)])
    many = np.mean([_trace(op, make_probes(100, 4, ProbeKind.RADEMACHER, seed=s))
                    for s in range(64)])
    assert abs(many - target) < abs(few - target) + 1e-9


def test_diagonal_exact_for_gaussian_probes():
    op = _dense_op(np.diag([3.0, 5.0]))
    p = make_probes(2, 50, ProbeKind.GAUSSIAN, seed=4)
    # dividing by each row's probe mass makes it exact for diagonal H
    assert np.allclose(_diagonal(op, p), [3.0, 5.0], atol=1e-12)


def test_zero_denominator_rejected():
    op = _dense_op(np.eye(5))
    p = make_probes(5, 2, ProbeKind.STANDARD_BASIS, seed=0)
    with pytest.raises(ValueError, match="zero probe mass"):
        _diagonal(op, p)


def test_dimension_mismatch_rejected():
    op = _dense_op(np.eye(5))
    p = make_probes(4, 2, ProbeKind.RADEMACHER, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        _trace(op, p)


def test_unscaled_operator_is_refused():
    # K5's Laplacian has eigenvalue 5; unscaled, T_m(5) breaks |T_m| <= 1
    k5 = build_csr([(i, j) for i in range(5) for j in range(i + 1, 5)])
    op = build_operator(k5, OperatorKind.LAPLACIAN)
    p = make_probes(5, 4, ProbeKind.RADEMACHER, seed=0)
    with pytest.raises(RecurrenceBlowupError, match="--range"):
        dos_moments(op, p, 10)
    with pytest.raises(RecurrenceBlowupError, match="--range"):
        pdos_moments(op, p, 10)


def test_standard_basis_trace_averages_the_sampled_diagonal():
    # nz < n: the estimate is n times the mean of the sampled entries, so
    # the density has total mass d_0 = 1 and its moments are the mean of
    # those nodes' exact local moments
    g = erdos_renyi(60, 0.1, seed=1)
    op = build_operator(g, OperatorKind.LAPLACIAN)
    h, _ = _in_unit_range(op)
    p = make_probes(60, 5, ProbeKind.STANDARD_BASIS, seed=0)
    got = dos_moments(h, p, 6).values
    exact = pdos_moments(h, make_probes(60, 60, ProbeKind.STANDARD_BASIS), 6)
    assert got[0] == 1.0
    assert np.abs(got - exact.values[:5].mean(axis=0)).max() < 1e-12
