import numpy as np
import pytest

from netdos import (OperatorKind, ProbeKind, build_csr, build_operator,
                    chebyshev_values, dos_moments, gql_dos, gql_pdos,
                    lanczos_quadrature, make_probes, rescale_operator)
from netdos.pipeline import gql_dos_pipeline, scaled_operator_for
from netdos.testkit import dense_matrix, erdos_renyi, exact_spectrum, oracle_histogram


def test_single_step_is_rayleigh_quotient(path3):
    op = build_operator(path3, OperatorKind.LAPLACIAN)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(3)
    quad = lanczos_quadrature(op, z, 1)
    h = dense_matrix(op)
    assert quad.nodes.shape == (1,)
    assert quad.nodes[0] == pytest.approx(z @ h @ z / (z @ z), abs=1e-12)
    assert quad.weights[0] == 1.0


def test_eigenvector_start_breaks_down_immediately(triangle):
    op = build_operator(triangle, OperatorKind.ADJACENCY)
    z = np.ones(3)  # Perron eigenvector of K3, eigenvalue 2
    quad = lanczos_quadrature(op, z, 5)
    assert quad.exhausted
    assert quad.nodes.shape == (1,)
    assert quad.nodes[0] == pytest.approx(2.0, abs=1e-12)


def test_p4_two_step_rule_matches_low_moments():
    g = build_csr([(0, 1), (1, 2), (2, 3)])
    op = build_operator(g, OperatorKind.NORMALIZED_ADJACENCY)
    h = dense_matrix(op)
    rng = np.random.default_rng(5)
    z = rng.standard_normal(4)
    quad = lanczos_quadrature(op, z, 2)
    for k in range(4):  # exact to degree 2M - 1 = 3
        want = z @ np.linalg.matrix_power(h, k) @ z / (z @ z)
        assert quad.weights @ quad.nodes ** k == pytest.approx(want, abs=1e-10)


def test_gauss_exactness_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(8, 40))
        g = erdos_renyi(n, 0.25, seed=int(rng.integers(1 << 30)))
        op = build_operator(g, OperatorKind.ADJACENCY)
        h = dense_matrix(op)
        z = rng.standard_normal(n)
        m = int(rng.integers(2, 7))
        quad = lanczos_quadrature(op, z, m)
        assert quad.weights.sum() == pytest.approx(1.0, abs=1e-10)
        powers = np.linalg.matrix_power
        for k in range(2 * m):
            want = z @ powers(h, k) @ z / (z @ z)
            got = quad.weights @ quad.nodes ** k
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_ritz_interlacing_in_step_count():
    g = erdos_renyi(60, 0.1, seed=4)
    op = build_operator(g, OperatorKind.LAPLACIAN)
    rng = np.random.default_rng(11)
    z = rng.standard_normal(60)
    for m in range(2, 8):
        a = lanczos_quadrature(op, z, m).nodes
        b = lanczos_quadrature(op, z, m + 1).nodes
        for i in range(m):
            assert b[i] <= a[i] + 1e-9
            assert a[i] <= b[i + 1] + 1e-9


def test_gql_dos_pure_point_spectrum():
    # 3 isolated self-loop nodes: H = I, every probe sees the single node 1
    g = build_csr([(0, 0), (1, 1), (2, 2)], allow_self_loops=True)
    op = build_operator(g, OperatorKind.ADJACENCY)
    probes = make_probes(3, 10, ProbeKind.RADEMACHER, seed=1)
    hist = gql_dos(op, probes, steps=3, bins=5, spectral_range=(0.0, 2.0))
    assert hist.masses[2] == pytest.approx(1.0, abs=1e-12)  # bin [0.8, 1.2)


def test_gql_dos_k3_masses(triangle):
    op = build_operator(triangle, OperatorKind.NORMALIZED_ADJACENCY)
    probes = make_probes(3, 50, ProbeKind.RADEMACHER, seed=2)
    hist = gql_dos(op, probes, steps=3, bins=5, spectral_range=(-1.0, 1.0))
    # eigenvalue -1/2 lies in bin 1 ([-0.6,-0.2)), eigenvalue 1 in the last bin
    assert hist.masses[1] == pytest.approx(2 / 3, abs=0.05)
    assert hist.masses[4] == pytest.approx(1 / 3, abs=0.05)


def test_gql_dos_bins_must_be_positive(triangle):
    op = build_operator(triangle, OperatorKind.ADJACENCY)
    probes = make_probes(3, 2, ProbeKind.RADEMACHER, seed=2)
    with pytest.raises(ValueError, match="bins"):
        gql_dos(op, probes, steps=3, bins=0)


def test_gql_dos_er_close_to_oracle():
    # A 50-node Gauss rule binned into 50 bins resolves this spectrum to an
    # L1 of ~0.14; the error keeps dropping as the rule grows.
    g = erdos_renyi(1000, 0.01, seed=31)
    op = build_operator(g, OperatorKind.NORMALIZED_ADJACENCY)
    ev = exact_spectrum(op).eigenvalues
    probes = make_probes(g.n, 20, ProbeKind.HADAMARD, seed=3)
    errs = {}
    for steps in (50, 120):
        hist = gql_dos(op, probes, steps=steps, bins=50, spectral_range=(-1.0, 1.0))
        errs[steps] = np.abs(hist.masses - oracle_histogram(ev, hist.edges)).sum()
    assert errs[50] < 0.2
    assert errs[120] < errs[50]


def test_gql_pdos_isolated_node():
    g = build_csr([(0, 1), (2, 2, 3.0)], allow_self_loops=True)
    op = build_operator(g, OperatorKind.ADJACENCY)
    quad = gql_pdos(op, 2, steps=4)
    assert quad.exhausted
    assert quad.nodes.tolist() == [3.0]
    assert quad.weights.tolist() == [1.0]
    assert quad.z_norm_sq == 1.0


def test_gql_pdos_p3_center(path3):
    op = build_operator(path3, OperatorKind.NORMALIZED_ADJACENCY)
    quad = gql_pdos(op, 1, steps=2)
    h = dense_matrix(op)
    for k in range(4):
        want = np.linalg.matrix_power(h, k)[1, 1]
        assert quad.weights @ quad.nodes ** k == pytest.approx(want, abs=1e-10)
    assert np.allclose(np.sort(quad.nodes), [-1.0, 1.0], atol=1e-10)
    assert np.allclose(quad.weights, [0.5, 0.5], atol=1e-10)


def test_gql_pdos_star_leaf(star4):
    op = build_operator(star4, OperatorKind.NORMALIZED_ADJACENCY)
    quad = gql_pdos(op, 1, steps=2)
    assert quad.weights @ quad.nodes == pytest.approx(0.0, abs=1e-12)
    assert quad.weights @ quad.nodes ** 2 == pytest.approx(1 / 3, abs=1e-12)


def test_quadrature_to_moments_point_masses():
    # a Gauss rule's Chebyshev moments are d_m = sum_i w_i T_m(x_i)
    from netdos.lanczos import RitzQuadrature
    q = RitzQuadrature(nodes=np.array([0.0]), weights=np.array([1.0]), z_norm_sq=1.0)
    mom = chebyshev_values(5, q.nodes) @ q.weights
    assert np.allclose(mom, [1, 0, -1, 0, 1, 0], atol=1e-15)
    q2 = RitzQuadrature(nodes=np.array([-1.0, 1.0]), weights=np.array([0.5, 0.5]),
                        z_norm_sq=1.0)
    mom2 = chebyshev_values(5, q2.nodes) @ q2.weights
    assert np.allclose(mom2, [1, 0, 1, 0, 1, 0], atol=1e-15)


def test_quadrature_moments_match_kpm_single_probe():
    g = build_csr([(0, 1), (1, 2), (2, 3)])
    sop = scaled_operator_for(g, "normalized-adjacency")
    probes = make_probes(4, 1, ProbeKind.RADEMACHER, seed=6)
    # the rule is for the scaled operator, so its nodes are already in [-1, 1]
    quad = lanczos_quadrature(sop, probes.columns[:, 0], 4)
    mom_q = chebyshev_values(7, quad.nodes) @ quad.weights
    mom_k = dos_moments(sop, probes, 7)
    # full Krylov space on 4 nodes: both equal z^T T_m z / ||z||^2
    assert np.abs(mom_q - mom_k.values).max() < 1e-8


def test_zero_start_vector_rejected(path3):
    op = build_operator(path3, OperatorKind.ADJACENCY)
    with pytest.raises(ValueError, match="nonzero"):
        lanczos_quadrature(op, np.zeros(3), 2)


def test_factorization_basis_orthonormal():
    from netdos import lanczos_factorize
    g = erdos_renyi(200, 0.04, seed=14)
    op = build_operator(g, OperatorKind.NORMALIZED_ADJACENCY)
    z = np.random.default_rng(3).standard_normal(200)
    fact = lanczos_factorize(op, z, 60, keep_basis=True)
    gram = fact.basis.T @ fact.basis
    assert np.abs(gram - np.eye(fact.steps)).max() <= 1e-8
    assert np.all(fact.betas > 0) or fact.exhausted


def test_dense_eigensolver_matches_tridiagonal_solver():
    # Ritz nodes and Gauss weights come from numpy's dense eigh of the k x k
    # tridiagonal; scipy's dedicated tridiagonal solver must agree to roundoff
    from scipy.linalg import eigh_tridiagonal

    from netdos.lanczos import lanczos_factorize

    er = erdos_renyi(150, 0.05, seed=12)
    star = build_csr([(0, i) for i in range(1, 7)])  # Laplacian: 3 eigenvalues
    cases = []
    for kind in (OperatorKind.ADJACENCY, OperatorKind.LAPLACIAN,
                 OperatorKind.NORMALIZED_LAPLACIAN):
        z = np.random.default_rng(4).standard_normal(er.n)
        cases += [(build_operator(er, kind), z, 40),
                  (build_operator(er, kind), z, 2)]
    cases.append((build_operator(star, OperatorKind.LAPLACIAN), np.ones(7) +
                  np.arange(7), 6))
    exhausted = 0
    for op, z, steps in cases:
        fact = lanczos_factorize(op, z, steps)
        exhausted += fact.exhausted
        nodes, vecs = eigh_tridiagonal(fact.alphas, fact.betas)
        spread = nodes[-1] - nodes[0]
        assert np.abs(fact.ritz_values() - nodes).max() <= 1e-12 * spread
        quad = lanczos_quadrature(op, z, steps)
        assert quad.exhausted == fact.exhausted
        assert np.abs(quad.nodes - nodes).max() <= 1e-12 * spread
        assert np.abs(quad.weights - vecs[0] ** 2).max() <= 1e-13
    assert exhausted == 1


def test_gql_dos_memory_is_one_basis_at_a_time():
    # probes are run one after another: the peak is at most the probe block
    # plus one probe's steps x n basis, not a basis per probe at once
    import tracemalloc

    from netdos.testkit import preferential_attachment

    g = preferential_attachment(5000, 1, seed=2)
    op = build_operator(g, OperatorKind.LAPLACIAN)
    probes = make_probes(g.n, 20, ProbeKind.HADAMARD, seed=1)
    steps = 50
    gql_dos(op, probes, steps=3, bins=10)  # the kernel's one-time set-up
    tracemalloc.start()
    try:
        hist = gql_dos(op, probes, steps=steps, bins=50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = probes.columns.nbytes + steps * g.n * 8 + (1 << 20)
    assert peak <= bound, f"peak {peak} B vs bound {bound} B"
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_gql_keeps_mass_at_the_range_edge():
    # the normalized adjacency has eigenvalue 1 on the analytic range edge;
    # Ritz values land a few ulps either side of it and must stay counted
    g = erdos_renyi(500, 0.02, seed=7)
    hist = gql_dos_pipeline(g, operator="normalized-adjacency", steps=40,
                            nz=10, seed=1)
    assert hist.normalization == pytest.approx(1.0, abs=1e-12)
    assert abs(hist.masses.sum() - 1.0) <= 1e-12
    # a window narrower than the spectrum still leaves the outside out
    narrow = gql_dos_pipeline(g, operator="normalized-adjacency", steps=40,
                              nz=10, seed=1, range_=(-0.5, 0.5))
    assert narrow.masses.sum() < 0.99
