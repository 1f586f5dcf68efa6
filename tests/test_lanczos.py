import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdos import (OperatorKind, ProbeKind, build_csr, build_operator,
                    chebyshev_values, dos_moments, gql_dos, gql_pdos,
                    lanczos, lanczos_quadrature, make_probes, rescale_operator)
from netdos.density import SNAP_TOL
from netdos.fileio import parse_graph_file
from netdos.lanczos import _lanczos
from netdos.operators import OPERATOR
from netdos.pipeline import gql_dos_pipeline, scaled_operator_for
from netdos.testkit import (dense_matrix, erdos_renyi, exact_spectrum,
                            oracle_histogram, preferential_attachment,
                            small_world)

from conftest import small_models
from oracles import oracle_gauss_rule, oracle_lanczos


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


def _check_gauss_rule(op, z, steps):
    """The M-step rule's ||z||^2 sum_i w_i T_p(x_i), p <= 2M - 1, against the
    dense z^T T_p(H) z and against the two-pass reference rule, with H the
    operator rescaled just past its exact spectrum."""
    ev = exact_spectrum(op).eigenvalues
    pad = 0.01 * (ev[-1] - ev[0]) + 1e-3
    sop = rescale_operator(op, (ev[0] - pad, ev[-1] + pad))
    h = dense_matrix(sop)
    degree = 2 * steps - 1
    quad = lanczos_quadrature(sop, z, steps)
    got = quad.z_norm_sq * (chebyshev_values(degree, quad.nodes) @ quad.weights)
    want = np.empty(degree + 1)  # z^T T_p(H) z by the recurrence on z
    prev, cur = z, h @ z
    want[0], want[1] = z @ z, z @ cur
    for p in range(2, degree + 1):
        prev, cur = cur, 2.0 * (h @ cur) - prev
        want[p] = z @ cur
    nodes, weights = oracle_gauss_rule(h, z, steps)
    ref = (z @ z) * (chebyshev_values(degree, nodes) @ weights)
    tol = 1e-10 * (z @ z)
    assert np.abs(got - want).max() <= tol
    assert np.abs(got - ref).max() <= tol


@st.composite
def _starts(draw):
    """A Gaussian start or a standard basis vector e_k, as a function of n."""
    seed = draw(st.integers(0, 1 << 16))
    if draw(st.booleans()):
        return lambda n: np.random.default_rng(seed).standard_normal(n)
    return lambda n: np.eye(n)[seed % n]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(g=small_models(), kind=st.sampled_from(list(OperatorKind)),
       steps=st.integers(1, 8), start=_starts())
def test_gauss_rule_is_exact_to_degree_2m_minus_1(g, kind, steps, start):
    _check_gauss_rule(build_operator(g, kind), start(g.n), steps)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(g=small_models(), kind=st.sampled_from(list(OperatorKind)),
       data=st.data(), start=_starts())
def test_gauss_rule_stays_exact_where_partial_reorthogonalization_fires(
        g, kind, data, start):
    # n steps down to 9: long enough for the estimates of q_{j+1}^T q_k to
    # pass PRO_DELTA, and up to where the Krylov space runs out
    steps = g.n - data.draw(st.integers(0, g.n - 9), label="n - steps")
    _check_gauss_rule(build_operator(g, kind), start(g.n), steps)


def test_partial_reorthogonalization_on_the_benchmark_tree(tmp_path, monkeypatch,
                                                           workloads):
    # The benchmark's gql: its seed-1 8,000-node tree under the Laplacian,
    # 20 Hadamard probes x 50 steps. Of the 980 steps that can make a
    # Gram-Schmidt pass (a probe's last makes none), at most a third do, and
    # the masses match those of rules built with two full passes on every
    # step. A pass on every step makes 980.
    w = workloads.WORKLOADS["laplacian-tree"]
    p = w.params
    graph = tmp_path / "tree.txt"
    w.make_input(1, graph)
    g, _ = parse_graph_file(graph)
    passes = []
    one_pass = lanczos._project_out

    def counted(q_block, w):
        passes.append(q_block.shape[0])
        one_pass(q_block, w)

    monkeypatch.setattr(lanczos, "_project_out", counted)
    hist, _ = gql_dos_pipeline(g, operator="laplacian", steps=p["steps"],
                               nz=p["probes"], probe_kind=ProbeKind.HADAMARD,
                               seed=1, bins=p["bins"])
    steps_with_pass = p["probes"] * (p["steps"] - 1)
    assert 0 < len(passes) <= steps_with_pass // 3, len(passes)

    from scipy.sparse import csr_array
    op = build_operator(g, OperatorKind.LAPLACIAN)
    lap = csr_array((op.data, op.indices, op.indptr), shape=(g.n, g.n))
    probes = make_probes(g.n, p["probes"], ProbeKind.HADAMARD, seed=1)
    rules = [oracle_gauss_rule(lap, probes.columns[:, j], p["steps"])
             for j in range(p["probes"])]
    nodes = np.concatenate([r[0] for r in rules])
    weights = np.concatenate([r[1] for r in rules]) / p["probes"]
    want, _ = np.histogram(nodes, bins=hist.edges, weights=weights)
    assert np.abs(hist.masses - want).max() <= 1e-12


def test_second_gram_schmidt_pass_keeps_the_rule_exact(monkeypatch):
    # Run to exhaustion from e_1, the last residual is roundoff that one pass
    # mostly removes, so the DGKS test asks for a second pass over the same
    # basis; the rule stays exact.
    passes = []
    one_pass = lanczos._project_out

    def counted(q_block, w):
        passes.append(q_block.shape[0])
        one_pass(q_block, w)

    monkeypatch.setattr(lanczos, "_project_out", counted)
    g = preferential_attachment(30, 1, seed=1)
    _check_gauss_rule(build_operator(g, OperatorKind.ADJACENCY), np.eye(g.n)[1],
                      g.n)
    assert len(passes) > len(set(passes)), "no step made a second pass"


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
    hist = gql_dos(rescale_operator(op, (0.0, 2.0)), probes, steps=3, bins=5)
    assert hist.masses[2] == pytest.approx(1.0, abs=1e-12)  # bin [0.8, 1.2)


def test_gql_dos_k3_masses(triangle):
    op = build_operator(triangle, OperatorKind.NORMALIZED_ADJACENCY)
    probes = make_probes(3, 50, ProbeKind.RADEMACHER, seed=2)
    hist = gql_dos(rescale_operator(op, (-1.0, 1.0)), probes, steps=3, bins=5)
    # eigenvalue -1/2 lies in bin 1 ([-0.6,-0.2)), eigenvalue 1 in the last bin
    assert hist.masses[1] == pytest.approx(2 / 3, abs=0.05)
    assert hist.masses[4] == pytest.approx(1 / 3, abs=0.05)


def test_gql_dos_bins_must_be_positive(triangle):
    op = build_operator(triangle, OperatorKind.ADJACENCY)
    probes = make_probes(3, 2, ProbeKind.RADEMACHER, seed=2)
    with pytest.raises(ValueError, match="bins"):
        gql_dos(rescale_operator(op, (-2.0, 2.0)), probes, steps=3, bins=0)


def test_gql_dos_er_close_to_oracle():
    # A 50-node Gauss rule binned into 50 bins resolves this spectrum to an
    # L1 of ~0.14; the error keeps dropping as the rule grows.
    g = erdos_renyi(1000, 0.01, seed=31)
    op = build_operator(g, OperatorKind.NORMALIZED_ADJACENCY)
    ev = exact_spectrum(op).eigenvalues
    sop = rescale_operator(op, (-1.0, 1.0))
    probes = make_probes(g.n, 20, ProbeKind.HADAMARD, seed=3)
    errs = {}
    for steps in (50, 120):
        hist = gql_dos(sop, probes, steps=steps, bins=50)
        errs[steps] = np.abs(hist.masses - oracle_histogram(ev, hist.edges)).sum()
    assert errs[50] < 0.2
    assert errs[120] < errs[50]


def test_gql_zero_spike_on_a_bin_edge_lands_in_one_bin():
    # under the default operator with 50 bins, 0 is the middle edge: the
    # zero spike of a tree goes to the bin above it whatever the sign of
    # its Ritz values' roundoff, as the oracle puts it
    g = preferential_attachment(300, 1, seed=1)
    hist, _ = gql_dos_pipeline(g, steps=50, nz=20, probe_kind="hadamard",
                               seed=1, bins=50)
    op = build_operator(g, OPERATOR)
    assert hist.edges[25] == 0.0
    assert hist.masses[24] < 1e-9
    oracle = oracle_histogram(exact_spectrum(op).eigenvalues, hist.edges)
    assert np.abs(hist.masses - oracle).sum() < 0.2


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


def test_tridiagonal_matches_an_independent_lanczos():
    # the routine's alpha/beta against a dense, vector-by-vector
    # Gram-Schmidt Lanczos with full reorthogonalization. 40 steps: past
    # about 43 the Laplacian's coefficients on this graph depend on roundoff
    # (a 1e-15 relative change of z moves them by 1e-3 in the oracle alone).
    g = erdos_renyi(200, 0.04, seed=14)
    z = np.random.default_rng(3).standard_normal(200)
    steps = 40
    for kind in OperatorKind:
        op = build_operator(g, kind)
        t, z_norm, exhausted = _lanczos(op, z, steps)
        alphas, betas = oracle_lanczos(dense_matrix(op), z, steps)
        assert not exhausted and t.shape == (steps, steps)
        assert z_norm == pytest.approx(np.linalg.norm(z), rel=1e-15)
        assert np.abs(np.diag(t) - alphas).max() <= 1e-10
        assert np.abs(np.diag(t, 1) - betas).max() <= 1e-10
        assert np.array_equal(np.diag(t, -1), np.diag(t, 1))
        assert np.count_nonzero(t) == steps + 2 * (steps - 1)


def test_dense_eigensolver_matches_tridiagonal_solver():
    # Ritz nodes and Gauss weights come from numpy's dense eigh of the k x k
    # tridiagonal; scipy's dedicated tridiagonal solver must agree to roundoff
    from scipy.linalg import eigh_tridiagonal

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
        t, _, fact_exhausted = _lanczos(op, z, steps)
        exhausted += fact_exhausted
        nodes, vecs = eigh_tridiagonal(np.diag(t), np.diag(t, 1))
        spread = nodes[-1] - nodes[0]
        assert np.abs(np.linalg.eigvalsh(t) - nodes).max() <= 1e-12 * spread
        quad = lanczos_quadrature(op, z, steps)
        assert quad.exhausted == fact_exhausted
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
    # Gershgorin: the Laplacian's spectrum lies in [0, 2 * max degree]
    sop = rescale_operator(op, (0.0, 2.0 * float(g.degrees().max())))
    gql_dos(sop, probes, steps=3, bins=10)  # kernel set-up
    tracemalloc.start()
    try:
        hist = gql_dos(sop, probes, steps=steps, bins=50)
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
    hist, _ = gql_dos_pipeline(g, operator="normalized-adjacency", steps=40,
                               nz=10, seed=1)
    assert hist.normalization == pytest.approx(1.0, abs=1e-12)
    assert abs(hist.masses.sum() - 1.0) <= 1e-12
    # a window narrower than the spectrum still leaves the outside out
    narrow, _ = gql_dos_pipeline(g, operator="normalized-adjacency", steps=40,
                                 nz=10, seed=1, range_=(-0.5, 0.5))
    assert narrow.masses.sum() < 0.99
    # the Ritz value at 1 counts within SNAP_TOL of the span beyond the top
    # edge, as a re-inserted spike does (`histogram_from_moments`), and is
    # left out three times that far
    for share, kept in [(0.9, True), (3.0, False)]:
        top = 1.0 - share * SNAP_TOL * 2.0
        hist, _ = gql_dos_pipeline(g, operator="normalized-adjacency", steps=40,
                                   nz=10, seed=1, range_=(-1.0, top))
        assert bool(abs(hist.masses.sum() - 1.0) <= 1e-12) is kept, share


def test_gql_refuses_a_range_too_narrow_for_its_bins(path3, monkeypatch):
    # (0, 1e-323) splits into 4 bins with repeated edges, and (0, 5e-324)
    # has a half-span that underflows to 0: each is refused before any
    # Lanczos step, as `main` refuses such a --range, not binned to zeros.
    # Divided by 5e-324, path3's unit entries overflow, so `rescale_operator`
    # refuses the first range itself; the edgeless graph's adjacency scales
    # to a finite operator that only its bins refuse.
    def no_lanczos(*args, **kwargs):
        raise AssertionError("ran Lanczos over a range that bins nothing")

    monkeypatch.setattr(lanczos, "lanczos_quadrature", no_lanczos)
    edgeless = build_operator(build_csr([], n=3), OperatorKind.ADJACENCY)
    probes = make_probes(3, 2, ProbeKind.RADEMACHER, seed=0)
    with pytest.raises(ValueError, match="too narrow for --bins 4"):
        gql_dos(rescale_operator(edgeless, (0.0, 1e-323)), probes, steps=3,
                bins=4)
    for spectral_range, message in [((0.0, 1e-323), "too narrow for this operator"),
                                    ((0.0, 5e-324), "degenerate spectral range")]:
        with pytest.raises(ValueError, match=message):
            gql_dos_pipeline(path3, operator="adjacency", steps=3, nz=2,
                             bins=4, range_=spectral_range)


def test_gql_refuses_an_operator_never_scaled(path3, monkeypatch):
    # its bins are the scaled operator's: an unscaled one has no range to
    # bin over, and is refused before any Lanczos step
    def no_lanczos(*args, **kwargs):
        raise AssertionError("ran Lanczos on an unscaled operator")

    monkeypatch.setattr(lanczos, "lanczos_quadrature", no_lanczos)
    probes = make_probes(3, 2, ProbeKind.RADEMACHER, seed=0)
    for kind in OperatorKind:
        with pytest.raises(ValueError, match="rescale_operator"):
            gql_dos(build_operator(path3, kind), probes, steps=3)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("model", ["pa", "ws"])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(steps=st.integers(1, 50), seed=st.integers(0, 1 << 16))
def test_ritz_values_of_the_scaled_operator_map_back_to_the_graph_operators(
        model, kind, steps, seed):
    # The Gauss rule is affine-equivariant: on H = (op - shift) / scale the
    # Ritz values, mapped back through H's scale map, and their weights are
    # those of an independent Lanczos with full reorthogonalization on op.
    # Up to gql's 50 steps they agreed to 1e-14; at 80 steps on the PA tree
    # the two runs' roundoff alone moved them by 1e-10 of the span.
    g = (preferential_attachment(300, 1, seed=1) if model == "pa"
         else small_world(60, 4, 0.3, seed=2))
    sop = scaled_operator_for(g, kind)
    z = np.random.default_rng(seed).standard_normal(g.n)
    quad = lanczos_quadrature(sop, z, steps)
    nodes, weights = oracle_gauss_rule(dense_matrix(build_operator(g, kind)),
                                       z, steps)
    span = sop.spectral_range[1] - sop.spectral_range[0]
    assert quad.nodes.shape == nodes.shape
    assert np.abs(sop.scale_map.from_scaled(quad.nodes) - nodes).max() <= 1e-10 * span
    assert np.abs(quad.weights - weights).max() <= 1e-10
