"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured figures (run with -s to see them inline).
"""

import json
import time
import tracemalloc

import numpy as np

import netdos as nd
from netdos import pipeline, testkit
from netdos.cli import main as cli_main
from netdos.density import evaluate_density, point_masses
from netdos.kpm import chebyshev_values
from netdos.probes import ProbeKind

import oracles


def _report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


def test_criterion_01_kpm_histogram_matches_oracle():
    g = testkit.erdos_renyi(2000, 0.01, seed=1)
    t0 = time.perf_counter()
    res = pipeline.kpm_dos(g, operator="normalized-adjacency", m_max=500,
                           nz=20, probe_kind=ProbeKind.HADAMARD, seed=7,
                           bins=50, damping=True)
    elapsed = time.perf_counter() - t0
    ev = testkit.exact_spectrum(nd.build_operator(g, "normalized-adjacency")).eigenvalues
    oracle = testkit.oracle_histogram(ev, res.histogram.edges)
    l1 = float(np.abs(res.histogram.masses - oracle).sum())
    assert l1 < 0.05
    assert elapsed < 60.0
    _report(1, f"ER(2000, 0.01) KPM M=500 nz=20 B=50: L1={l1:.4f} (<0.05), "
               f"runtime={elapsed:.2f}s (<60s)")


def test_criterion_02_motif_filtering_improves_and_trace_identity():
    g = testkit.preferential_attachment(3000, 1, seed=0)
    kinds = ("open-twin", "closed-twin", "dangling-two-chain")
    ev = testkit.exact_spectrum(nd.build_operator(g, "normalized-adjacency")).eigenvalues
    unf = pipeline.kpm_dos(g, m_max=100, nz=20, seed=11, bins=50)
    fil = pipeline.kpm_dos(g, m_max=100, nz=20, seed=11, bins=50,
                           filter_kinds=kinds)
    oracle = testkit.oracle_histogram(ev, unf.histogram.edges)
    e_unf = float(np.abs(unf.histogram.masses - oracle).sum())
    e_fil = float(np.abs(fil.histogram.masses - oracle).sum())
    assert e_fil < e_unf

    # trace decomposition with exact probes: N d_m = (N-r) d_m' + spikes
    sop = pipeline.scaled_operator_for(g, "normalized-adjacency")
    probes = nd.make_probes(g.n, g.n, ProbeKind.STANDARD_BASIS, seed=0)
    insts = nd.detect_motifs(g, nd.build_operator(g, "normalized-adjacency"))
    m_unf = nd.dos_moments(sop, probes, 100)
    (q, filtered), adj = nd.filter_probes(sop, probes, insts)
    m_fil = nd.dos_moments(q, filtered, 100, adj)
    r = m_fil.adjustment.deflated_dim
    removed = np.zeros(101)
    for lam, cnt in m_fil.adjustment.removed.items():
        removed += cnt * chebyshev_values(
            100, sop.scale_map.to_scaled(np.array([lam])))[:, 0]
    gap = float(np.abs(g.n * m_unf.values -
                       ((g.n - r) * m_fil.values + removed)).max())
    assert gap < 1e-8
    _report(2, f"PA(3000,1) M=100: L1 filtered {e_fil:.4f} < unfiltered "
               f"{e_unf:.4f}; trace identity gap {gap:.2e} (<1e-8), r={r}")


def test_criterion_03_moment_exactness_suite():
    rng = np.random.default_rng(2024)
    worst_dm, worst_nd = 0.0, 0.0
    kinds = ["normalized-adjacency", "adjacency", "laplacian",
             "normalized-laplacian"]
    for trial in range(25):
        n = int(rng.integers(40, 301))
        g = testkit.erdos_renyi(n, float(rng.uniform(0.02, 0.1)),
                                seed=int(rng.integers(1 << 30)))
        kind = kinds[trial % 4]
        sop = pipeline.scaled_operator_for(g, kind)
        spec = testkit.exact_spectrum(nd.build_operator(g, kind), want_vectors=True)
        scaled_ev = sop.scale_map.to_scaled(spec.eigenvalues)

        probes = nd.make_probes(n, n, ProbeKind.STANDARD_BASIS, seed=0)
        mom = nd.dos_moments(sop, probes, 50)
        want = oracles.oracle_moments(scaled_ev, 50)
        worst_dm = max(worst_dm, float(np.abs(mom.values - want).max()))

        tree = nd.build_partition_tree(g, leaf_size=64)
        got = nd.nd_pdos_moments(sop, tree, 30)
        want_nd = (spec.eigenvectors ** 2) @ chebyshev_values(30, scaled_ev).T
        worst_nd = max(worst_nd, float(np.abs(got.values - want_nd).max()))
    assert worst_dm < 1e-10
    assert worst_nd < 1e-9
    _report(3, f"25 graphs <=300 nodes: max |d_m - oracle| = {worst_dm:.2e} "
               f"(<1e-10, m<=50); max ND error = {worst_nd:.2e} (<1e-9, m<=30)")


def test_criterion_04_gql_quadrature_exactness():
    rng = np.random.default_rng(7)
    worst_rel, worst_wsum = 0.0, 0.0
    for trial in range(100):
        n = int(rng.integers(12, 60))
        g = testkit.erdos_renyi(n, float(rng.uniform(0.1, 0.3)),
                                seed=int(rng.integers(1 << 30)))
        kind = ["adjacency", "normalized-adjacency"][trial % 2]
        op = nd.build_operator(g, kind)
        h = testkit.dense_matrix(op)
        z = rng.standard_normal(n)
        m = 2 + trial % 9  # M in 2..10
        quad = nd.lanczos_quadrature(op, z, m)
        worst_wsum = max(worst_wsum, abs(float(quad.weights.sum()) - 1.0))
        zz = z @ z
        vec = z.copy()
        for k in range(2 * m):  # moments 0 .. 2M-1
            want = float(z @ vec) / zz
            got = float(quad.weights @ quad.nodes ** k)
            worst_rel = max(worst_rel, abs(got - want) / max(abs(want), 1.0))
            vec = h @ vec
    assert worst_rel < 1e-9
    assert worst_wsum < 1e-10
    _report(4, f"100 (graph, probe) pairs, M in 2..10: max relative moment "
               f"error {worst_rel:.2e} (<1e-9 for k<=2M-1), max |sum w - 1| "
               f"= {worst_wsum:.2e} (<1e-10)")


def test_criterion_05_perturbation_bound():
    rng = np.random.default_rng(99)
    worst_margin = -np.inf
    for trial in range(200):
        n = int(rng.integers(40, 201))
        g = testkit.erdos_renyi(n, float(rng.uniform(0.05, 0.15)),
                                seed=int(rng.integers(1 << 30)))
        h = testkit.dense_matrix(nd.build_operator(g, "normalized-adjacency"))
        d = rng.standard_normal((n, n))
        d = (d + d.T) / 2
        target = float(rng.uniform(0.2, 1.0)) * 0.01 * np.linalg.norm(h, "fro")
        d *= target / np.linalg.norm(d, "fro")
        w1 = oracles.wasserstein1(np.linalg.eigvalsh(h), np.linalg.eigvalsh(h + d))
        margin = w1 - np.linalg.norm(d, "fro")
        worst_margin = max(worst_margin, margin)
        assert margin <= 1e-8
    _report(5, f"200 perturbation trials (n<=200, |dH|_F <= 0.01|H|_F): "
               f"max W1 - |dH|_F = {worst_margin:.2e} (<=1e-8)")


def test_criterion_06_interlacing():
    rng = np.random.default_rng(55)
    for trial in range(100):
        n = int(rng.integers(30, 120))
        g = testkit.erdos_renyi(n, float(rng.uniform(0.08, 0.25)),
                                seed=int(rng.integers(1 << 30)))
        h = testkit.dense_matrix(nd.build_operator(g, "adjacency"))
        r = int(rng.integers(1, 6))
        keep = np.sort(rng.choice(n, size=n - r, replace=False))
        ok, violation = oracles.check_interlacing(
            np.linalg.eigvalsh(h), np.linalg.eigvalsh(h[np.ix_(keep, keep)]), r)
        assert ok, violation
    _report(6, "100 random node-deletion trials (r<=5): interlacing holds in all")


def test_criterion_07_jackson_convergence():
    g = testkit.erdos_renyi(500, 0.02, seed=17)
    sop = pipeline.scaled_operator_for(g, "normalized-adjacency")
    ev = testkit.exact_spectrum(nd.build_operator(g, "normalized-adjacency")).eigenvalues
    grid = np.linspace(-1.0, 1.0, 200)
    oracle = oracles.oracle_smoothed_density(ev, 0.05, grid)
    probes = nd.make_probes(g.n, g.n, ProbeKind.STANDARD_BASIS, seed=0)
    sup = {}
    for m in (50, 400):
        mom = nd.dos_moments(sop, probes, m)
        est = evaluate_density(mom, 0.05, grid)
        sup[m] = float(np.abs(est - oracle).max())
    assert sup[400] <= sup[50] / 2.0
    _report(7, f"sigma=0.05 smoothed density sup error: M=50 -> {sup[50]:.4f}, "
               f"M=400 -> {sup[400]:.4f} (ratio {sup[50]/sup[400]:.1f}x >= 2x)")


def test_criterion_08_model_verification():
    g_pa = testkit.preferential_attachment(5000, 5, seed=2)
    res = pipeline.kpm_dos(g_pa, m_max=500, nz=20, seed=3, bins=51)
    assert oracles.is_unimodal(res.histogram.masses)
    assert oracles.spike_bins(res.histogram.masses) == []

    g_sparse = testkit.small_world(5000, 2, 0.5, seed=5)     # |E| = 5000
    g_dense = testkit.small_world(5000, 20, 0.5, seed=5)     # |E| = 50000
    assert g_sparse.num_edges == 5000 and g_dense.num_edges == 50000
    r_sparse = pipeline.kpm_dos(g_sparse, m_max=2000, nz=20, seed=3, bins=201)
    r_dense = pipeline.kpm_dos(g_dense, m_max=2000, nz=20, seed=3, bins=201)
    edges = r_sparse.histogram.edges
    targets = set(np.flatnonzero(point_masses(edges, [-1.0, 0.0, 1.0], 1.0)[0]).tolist())
    sparse_spikes = set(oracles.spike_bins(r_sparse.histogram.masses))
    dense_spikes = set(oracles.spike_bins(r_dense.histogram.masses))
    assert targets <= sparse_spikes
    assert sparse_spikes <= targets
    assert not dense_spikes
    _report(8, "PA(5000,5) unimodal with no spikes; small-world spikes at "
               f"{{-1, 0, +1}} bins {sorted(targets)} in the sparse case only")


def test_criterion_09_scaling_and_memory():
    def graph_with_edges(edges_target, n, seed):
        p = edges_target / (n * (n - 1) / 2)
        return testkit.erdos_renyi(n, p, seed=seed)

    def per_moment_seconds(sop, probes):
        t0 = time.perf_counter()
        nd.dos_moments(sop, probes, 10)
        return (time.perf_counter() - t0) / 10

    g_small = graph_with_edges(1e5, 20_000, seed=1)
    g_big = graph_with_edges(1e6, 200_000, seed=1)
    assert 0.8e5 < g_small.num_edges < 1.2e5
    assert 0.8e6 < g_big.num_edges < 1.2e6
    # best of 3 each, taken small, big, small, big, ... so that a drift in
    # the host's speed reaches both sizes alike
    runs = [(pipeline.scaled_operator_for(g, "normalized-adjacency"),
             nd.make_probes(g.n, 20, ProbeKind.HADAMARD, seed=1))
            for g in (g_small, g_big)]
    best = [np.inf, np.inf]
    for _ in range(3):
        for i, run in enumerate(runs):
            best[i] = min(best[i], per_moment_seconds(*run))
    t_small, t_big = best
    ratio = t_big / t_small
    assert ratio <= 30.0

    sop = pipeline.scaled_operator_for(g_big, "normalized-adjacency")
    probes = nd.make_probes(g_big.n, 20, ProbeKind.HADAMARD, seed=1)
    tracemalloc.start()
    tracemalloc.reset_peak()
    nd.dos_moments(sop, probes, 10)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    budget = 8 * g_big.n * 20 * 8 + (1 << 26)  # few recurrence blocks + slack
    assert peak < budget
    _report(9, f"per-moment time {t_small*1e3:.1f}ms @1e5 edges vs "
               f"{t_big*1e3:.1f}ms @1e6 edges: ratio {ratio:.1f} (<=30); "
               f"moment-loop peak memory {peak/1e6:.0f}MB within "
               f"{budget/1e6:.0f}MB O(n nz) budget")


def test_criterion_10_byte_identical_reruns(tmp_path):
    gpath = str(tmp_path / "g.txt")
    assert cli_main(["generate", "--model", "pa", "--n", "400", "--m", "1",
                     "--seed", "3", "--out", gpath]) == 0
    runs = {
        "dos": ["dos", "--input", gpath, "--moments", "150", "--probes", "12",
                "--seed", "9", "--bins", "40", "--filter-motifs", "all",
                "--out"],
        "pdos": ["pdos", "--input", gpath, "--moments", "60", "--probes", "8",
                 "--seed", "9", "--out"],
        "gql": ["gql", "--input", gpath, "--moments", "20", "--probes", "6",
                "--seed", "9", "--bins", "30", "--out"],
        "nd": ["nd-pdos", "--input", gpath, "--moments", "25",
               "--leaf-size", "64", "--out"],
        "motifs": ["motifs", "--input", gpath, "--seed", "9", "--out"],
    }
    for name, argv in runs.items():
        blobs = []
        for attempt in ("a", "b"):
            out = str(tmp_path / f"{name}-{attempt}.json")
            assert cli_main(argv + [out]) == 0, name
            blobs.append(open(out, "rb").read())
        assert blobs[0] == blobs[1], f"{name} output changed between reruns"
        json.loads(blobs[0])  # outputs stay valid JSON
    _report(10, "dos/pdos/gql/nd-pdos/motifs reruns are byte-identical")
