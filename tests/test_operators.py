import numpy as np
import pytest

from netdos import (OperatorKind, ScaleMap, SpectralRangeError,
                    SymmetricCSROperator, build_csr, build_operator,
                    estimate_spectral_range, rescale_operator)
from netdos.testkit import dense_matrix, erdos_renyi, exact_spectrum

from conftest import dense_from_graph

ALL_KINDS = list(OperatorKind)


def test_operator_matches_dense_definition_entrywise():
    rng = np.random.default_rng(3)
    graphs = []
    for trial in range(6):
        n = int(rng.integers(5, 40))
        edges = set()
        target = min(int(rng.integers(n, 3 * n)), n * (n - 1) // 2)
        while len(edges) < target:
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        weighted = trial % 2
        graphs.append(build_csr(
            [(int(u), int(v), 1.0 + weighted * float((u * v) % 4)) for u, v in edges],
            n=n))
    for g in graphs:
        for kind in ALL_KINDS:
            op = build_operator(g, kind)
            assert np.allclose(dense_matrix(op), dense_from_graph(g, kind.value),
                               atol=1e-14)


def test_isolated_node_conventions():
    g = build_csr([(0, 1)], n=3)
    na = dense_matrix(build_operator(g, OperatorKind.NORMALIZED_ADJACENCY))
    nl = dense_matrix(build_operator(g, OperatorKind.NORMALIZED_LAPLACIAN))
    assert np.array_equal(na[2], np.zeros(3))  # zero row: eigenvalue 0
    assert np.array_equal(nl[2], np.array([0, 0, 1.0]))  # identity term survives


def test_k3_normalized_adjacency_spectrum(triangle):
    spec = exact_spectrum(build_operator(triangle, OperatorKind.NORMALIZED_ADJACENCY))
    assert np.allclose(spec.eigenvalues, [-0.5, -0.5, 1.0], atol=1e-12)


def test_p3_normalized_adjacency_spectrum(path3):
    spec = exact_spectrum(build_operator(path3, OperatorKind.NORMALIZED_ADJACENCY))
    assert np.allclose(spec.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)


def test_star_laplacian_spectrum(star4):
    spec = exact_spectrum(build_operator(star4, OperatorKind.LAPLACIAN))
    assert np.allclose(spec.eigenvalues, [0.0, 1.0, 1.0, 4.0], atol=1e-12)


def test_apply_is_linear():
    g = erdos_renyi(60, 0.1, seed=2)
    rng = np.random.default_rng(4)
    for kind in ALL_KINDS:
        op = build_operator(g, kind)
        x, y = rng.standard_normal((2, g.n))
        a, b = 0.7, -1.3
        lhs = op.apply(a * x + b * y)
        rhs = a * op.apply(x) + b * op.apply(y)
        scale = max(np.abs(rhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_normalized_adjacency_range_is_analytic(star4):
    op = build_operator(star4, OperatorKind.NORMALIZED_ADJACENCY)
    assert estimate_spectral_range(op) == (-1.0, 1.0)


def test_k3_adjacency_exact_krylov_range(triangle):
    op = build_operator(triangle, OperatorKind.ADJACENCY)
    lo, hi = estimate_spectral_range(op, probe_seed=1, steps=3, margin=0.0)
    assert abs(lo - (-1.0)) < 1e-9
    assert abs(hi - 2.0) < 1e-9


def test_estimated_range_contains_oracle_spectrum():
    g = erdos_renyi(500, 0.05, seed=11)
    for kind in (OperatorKind.ADJACENCY, OperatorKind.LAPLACIAN,
                 OperatorKind.NORMALIZED_LAPLACIAN):
        op = build_operator(g, kind)
        lo, hi = estimate_spectral_range(op, probe_seed=0)
        ev = exact_spectrum(op).eigenvalues
        assert lo <= ev[0] and ev[-1] <= hi


def test_range_requires_two_steps(triangle):
    op = build_operator(triangle, OperatorKind.ADJACENCY)
    with pytest.raises(ValueError, match="steps"):
        estimate_spectral_range(op, steps=1)


def test_rescale_identity_when_range_is_unit(path3):
    op = build_operator(path3, OperatorKind.NORMALIZED_ADJACENCY)
    sop = rescale_operator(op, (-1.0, 1.0))
    x = np.linspace(0, 1, path3.n)
    assert np.allclose(sop.apply(x), op.apply(x))
    assert sop.scale_map.to_scaled(0.5) == 0.5


def test_rescale_maps_endpoints(path3, triangle):
    lap = build_operator(path3, OperatorKind.LAPLACIAN)
    sop = rescale_operator(lap, (0.0, 3.0))
    assert sop.scale_map.to_scaled(0.0) == -1.0
    assert sop.scale_map.to_scaled(3.0) == 1.0
    adj = build_operator(triangle, OperatorKind.ADJACENCY)
    sop2 = rescale_operator(adj, (-1.0, 2.0))
    assert sop2.scale_map.to_scaled(2.0) == 1.0
    assert sop2.scale_map.to_scaled(-1.0) == -1.0
    ev = exact_spectrum(sop2).eigenvalues
    assert np.all(ev >= -1.0 - 1e-12) and np.all(ev <= 1.0 + 1e-12)


def test_rescale_rejects_degenerate_range(path3):
    op = build_operator(path3, OperatorKind.ADJACENCY)
    with pytest.raises(ValueError, match="degenerate"):
        rescale_operator(op, (1.0, 1.0))


def test_scaled_spectrum_in_unit_interval_with_exact_bounds():
    g = erdos_renyi(120, 0.06, seed=7)
    for kind in ALL_KINDS:
        op = build_operator(g, kind)
        ev = exact_spectrum(op).eigenvalues
        sop = rescale_operator(op, (float(ev[0]), float(ev[-1])))
        scaled = exact_spectrum(sop).eigenvalues
        assert scaled[0] >= -1.0 - 1e-12
        assert scaled[-1] <= 1.0 + 1e-12


def test_rescale_folds_shift_and_scale_into_csr():
    # node 4 is isolated and node 3 carries a self-loop, so the fold both adds
    # diagonal entries and merges into stored ones
    g = build_csr([(0, 1), (1, 2), (0, 2), (2, 3), (3, 3, 2.0), (3, 5)], n=6,
                  allow_self_loops=True)
    for kind in ALL_KINDS:
        op = build_operator(g, kind)
        for spectral_range in (estimate_spectral_range(op, probe_seed=3),
                               (-2.0, 2.0), (-0.5, 3.25)):
            sop = rescale_operator(op, spectral_range)
            assert isinstance(sop, SymmetricCSROperator)
            assert sop.kind is op.kind
            assert sop.spectral_range == spectral_range
            lo, hi = spectral_range
            shift, scale = 0.5 * (hi + lo), 0.5 * (hi - lo)
            assert sop.scale_map == ScaleMap(shift, scale)
            want = (dense_matrix(op) - shift * np.eye(g.n)) / scale
            assert np.allclose(dense_matrix(sop), want, rtol=0, atol=1e-14)


def test_entrywise_equality_at_500_nodes():
    g = erdos_renyi(500, 0.01, seed=31)
    for kind in ALL_KINDS:
        op = build_operator(g, kind)
        assert np.allclose(dense_matrix(op), dense_from_graph(g, kind.value),
                           atol=1e-14)


def test_range_estimation_flags_nan_with_iteration_count():
    from netdos.operators import SymmetricCSROperator
    bad = SymmetricCSROperator(3, np.array([0, 1, 2, 3]), np.array([1, 0, 2]),
                               np.array([1.0, np.nan, 1.0]), OperatorKind.ADJACENCY)
    with pytest.raises(SpectralRangeError) as err:
        estimate_spectral_range(bad, steps=3)
    assert err.value.iterations is not None
