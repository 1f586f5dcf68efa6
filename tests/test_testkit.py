import numpy as np
import pytest

from netdos import (MotifKind, OperatorKind, build_operator, detect_motifs,
                    erdos_renyi, exact_spectrum, generate_graph,
                    preferential_attachment, small_world)
from netdos.testkit import dense_matrix, oracle_histogram

from oracles import check_interlacing, semicircle_bin_masses, wasserstein1


def test_exact_spectrum_small_graphs(triangle, path3, star4):
    na = OperatorKind.NORMALIZED_ADJACENCY
    assert np.allclose(exact_spectrum(build_operator(triangle, na)).eigenvalues,
                       [-0.5, -0.5, 1.0], atol=1e-12)
    assert np.allclose(exact_spectrum(build_operator(path3, na)).eigenvalues,
                       [-1.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(exact_spectrum(build_operator(star4, na)).eigenvalues,
                       [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_exact_spectrum_residuals():
    g = erdos_renyi(80, 0.1, seed=5)
    op = build_operator(g, OperatorKind.LAPLACIAN)
    spec = exact_spectrum(op, want_vectors=True)
    h = dense_matrix(op)
    hnorm = np.linalg.norm(h, 2)
    res = h @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
    assert np.abs(res).max() <= 1e-8 * max(hnorm, 1.0)
    assert np.all(np.diff(spec.eigenvalues) >= -1e-12)


def test_exact_spectrum_cap():
    g = erdos_renyi(30, 0.2, seed=1)
    op = build_operator(g, OperatorKind.ADJACENCY)
    with pytest.raises(ValueError, match="capped"):
        exact_spectrum(op, cap=20)


def test_wasserstein_basics():
    assert wasserstein1([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert wasserstein1([0.0], [1.0]) == 1.0
    assert wasserstein1([0.0, 1.0], [1.0, 2.0]) == 1.0
    with pytest.raises(ValueError, match="cardinality"):
        wasserstein1([0.0], [1.0, 2.0])


def test_interlacing_k3_minus_node():
    ok, violation = check_interlacing(np.array([-1.0, -1.0, 2.0]),
                                      np.array([-1.0, 1.0]), r=1)
    assert ok and violation is None


def test_interlacing_self():
    ev = np.sort(np.random.default_rng(0).standard_normal(10))
    ok, _ = check_interlacing(ev, ev, r=0)
    assert ok


def test_interlacing_detects_violation():
    ok, violation = check_interlacing(np.array([0.0, 1.0, 2.0]),
                                      np.array([5.0, 6.0]), r=1)
    assert not ok
    assert violation[0] == 0


def test_interlacing_random_deletions():
    rng = np.random.default_rng(8)
    g = erdos_renyi(100, 0.08, seed=2)
    op = build_operator(g, OperatorKind.ADJACENCY)
    h = dense_matrix(op)
    full = np.linalg.eigvalsh(h)
    for _ in range(10):
        drop = rng.choice(100, size=5, replace=False)
        keep = np.setdiff1d(np.arange(100), drop)
        reduced = np.linalg.eigvalsh(h[np.ix_(keep, keep)])
        ok, violation = check_interlacing(full, reduced, r=5)
        assert ok, violation


def test_er_p_zero_is_empty():
    g = erdos_renyi(100, 0.0, seed=0)
    assert g.n == 100 and g.nnz == 0


def test_er_edge_count_near_expectation():
    g = erdos_renyi(500, 0.05, seed=4)
    expect = 0.05 * 500 * 499 / 2
    assert abs(g.num_edges - expect) < 4 * np.sqrt(expect)


def test_generators_deterministic():
    for make in (lambda s: erdos_renyi(200, 0.03, seed=s),
                 lambda s: preferential_attachment(200, 2, seed=s),
                 lambda s: small_world(200, 4, 0.3, seed=s)):
        a, b = make(9), make(9)
        assert np.array_equal(a.col_idx, b.col_idx)
        assert np.array_equal(a.row_ptr, b.row_ptr)


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        erdos_renyi(10, 1.5)
    with pytest.raises(ValueError):
        preferential_attachment(10, 10)
    with pytest.raises(ValueError):
        small_world(10, 3, 0.5)  # odd k
    with pytest.raises(ValueError):
        small_world(10, 4, -0.1)
    with pytest.raises(ValueError, match="unknown graph model"):
        generate_graph("mystery", n=5)


def test_pa_plants_detectable_spikes():
    g = preferential_attachment(5000, 1, seed=12)
    assert g.num_edges == 4999  # tree plus the K_2 seed
    insts = detect_motifs(g, build_operator(g, "normalized-adjacency"))
    lams = {round(i.eigenvalue, 6) for i in insts}
    assert 0.0 in lams
    assert round(1 / np.sqrt(2), 6) in lams
    assert round(-1 / np.sqrt(2), 6) in lams


def test_small_world_support_narrows_with_density():
    def iqr(g):
        ev = exact_spectrum(build_operator(g, OperatorKind.NORMALIZED_ADJACENCY),
                            cap=5000).eigenvalues
        return np.quantile(ev, 0.95) - np.quantile(ev, 0.05)

    sparse = small_world(1000, 2, 0.5, seed=3)   # |E| = 1000
    dense = small_world(1000, 20, 0.5, seed=3)   # |E| = 10000
    assert dense.num_edges == 10 * sparse.num_edges
    assert iqr(dense) < iqr(sparse)


def test_semicircle_sanity():
    g = erdos_renyi(2000, 0.05, seed=21)
    op = build_operator(g, OperatorKind.ADJACENCY)
    ev = exact_spectrum(op).eigenvalues
    radius = 2 * np.sqrt(2000 * 0.05 * 0.95)
    edges = np.linspace(-radius, radius, 51)
    got = oracle_histogram(ev, edges)
    want = semicircle_bin_masses(edges, radius)
    assert np.abs(got - want).sum() < 0.1


def test_perturbation_bound_sample():
    rng = np.random.default_rng(42)
    g = erdos_renyi(120, 0.08, seed=7)
    h = dense_matrix(build_operator(g, OperatorKind.NORMALIZED_ADJACENCY))
    ev = np.linalg.eigvalsh(h)
    hnorm = np.linalg.norm(h, "fro")
    for _ in range(20):
        d = rng.standard_normal(h.shape)
        d = (d + d.T) / 2
        d *= 0.01 * hnorm / np.linalg.norm(d, "fro")
        ev2 = np.linalg.eigvalsh(h + d)
        assert wasserstein1(ev, ev2) <= np.linalg.norm(d, "fro") + 1e-8
