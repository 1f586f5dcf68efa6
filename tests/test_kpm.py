import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdos import (MotifKind, OperatorKind, ProbeKind, RecurrenceBlowupError,
                    build_csr, build_operator, chebyshev_values,
                    detect_motifs, dos_moments, filter_probes,
                    jackson_coefficients, make_probes, pdos_moments,
                    rescale_operator, write_graph_edgelist)
from netdos import _kernels, pipeline
from netdos.cli import main
from netdos.pipeline import scaled_operator_for
from netdos.testkit import erdos_renyi, exact_spectrum, preferential_attachment

from conftest import small_models
from oracles import oracle_moments


def _scaled(g, kind=OperatorKind.NORMALIZED_ADJACENCY):
    return scaled_operator_for(g, kind)


def test_jackson_j0_is_one():
    for m in (0, 1, 7, 500):
        assert jackson_coefficients(m)[0] == 1.0


def test_jackson_m1_second_coefficient_vanishes():
    j = jackson_coefficients(1)
    assert j[1] == pytest.approx(0.0, abs=1e-15)


def test_jackson_monotone_nonincreasing_in_unit_interval():
    j = jackson_coefficients(100)
    assert np.all(np.diff(j) <= 1e-15)
    assert np.all(j[:-1] > 0) and np.all(j <= 1.0)
    assert j[-1] == pytest.approx(0.0, abs=1e-15)  # analytically exact zero


def test_jackson_kernel_is_nonnegative():
    # The damped delta approximation must be a positive kernel.
    for m in (8, 64, 301):
        j = jackson_coefficients(m)
        u = np.linspace(0, np.pi, 4001)
        k = j[0] + 2 * np.sum(j[1:, None] * np.cos(
            np.arange(1, m + 1)[:, None] * u[None, :]), axis=0)
        assert k.min() > -1e-10


def test_dos_moment_zero_is_one(star4):
    sop = _scaled(star4)
    p = make_probes(4, 3, ProbeKind.RADEMACHER, seed=1)
    mom = dos_moments(sop, p, 0)
    assert mom.values.shape == (1,)
    assert mom.values[0] == pytest.approx(1.0, abs=1e-14)


def test_k3_first_two_moments_vanish(triangle):
    sop = _scaled(triangle)
    p = make_probes(3, 3, ProbeKind.STANDARD_BASIS, seed=0)
    mom = dos_moments(sop, p, 2)
    # spectrum {1, -1/2, -1/2}: mean T_1 = 0 and mean T_2 = 0
    assert mom.values[1] == pytest.approx(0.0, abs=1e-14)
    assert mom.values[2] == pytest.approx(0.0, abs=1e-14)


def test_p3_moments_match_closed_form(path3):
    sop = _scaled(path3)
    p = make_probes(3, 3, ProbeKind.STANDARD_BASIS, seed=0)
    mom = dos_moments(sop, p, 4)
    want = chebyshev_values(4, np.array([-1.0, 0.0, 1.0])).mean(axis=1)
    assert np.abs(mom.values - want).max() < 1e-13


# m_max 0..3 reach every edge case of the doubled moments (no step, one
# step, the first doubled moment, the first moment from t_m+1 and t_m);
# 50 and 51 end on an even and an odd moment
EXACTNESS_M_MAX = (0, 1, 2, 3, 50, 51)


def test_moment_exactness_against_eigenvalue_oracle():
    rng = np.random.default_rng(100)
    for kind in (OperatorKind.NORMALIZED_ADJACENCY, OperatorKind.LAPLACIAN):
        n = int(rng.integers(40, 120))
        g = erdos_renyi(n, 0.08, seed=int(rng.integers(1 << 30)))
        sop = _scaled(g, kind)
        p = make_probes(n, n, ProbeKind.STANDARD_BASIS, seed=0)
        ev = exact_spectrum(build_operator(g, kind)).eigenvalues
        want = oracle_moments(sop.scale_map.to_scaled(ev), 51)
        for m_max in EXACTNESS_M_MAX:
            mom = dos_moments(sop, p, m_max)
            assert mom.values.shape == (m_max + 1,)
            assert np.abs(mom.values - want[: m_max + 1]).max() < 1e-10, m_max
    # deflated probes: the moments of the density over the complement of
    # the motif eigenvectors, i.e. the spectrum without the removed spikes
    for kind in (OperatorKind.NORMALIZED_ADJACENCY, OperatorKind.LAPLACIAN):
        n = int(rng.integers(60, 120))
        g = preferential_attachment(n, 1, seed=int(rng.integers(1 << 30)))
        sop = _scaled(g, kind)
        probes, adj = filter_probes(
            make_probes(n, n, ProbeKind.STANDARD_BASIS, seed=0),
            detect_motifs(g, operator=kind))
        r = adj.deflated_dim
        assert r > 0
        ev = exact_spectrum(build_operator(g, kind)).eigenvalues
        spikes = np.repeat(list(adj.removed), list(adj.removed.values()))
        to_scaled = sop.scale_map.to_scaled
        want = (n * oracle_moments(to_scaled(ev), 51)
                - chebyshev_values(51, to_scaled(spikes)).sum(axis=1)) / (n - r)
        for m_max in EXACTNESS_M_MAX:
            mom = dos_moments(sop, probes, m_max, adj)
            assert mom.values.shape == (m_max + 1,)
            assert np.abs(mom.values - want[: m_max + 1]).max() < 1e-10, m_max


def test_pdos_zero_degree_moment_is_one(star4):
    sop = _scaled(star4)
    for kind in (ProbeKind.RADEMACHER, ProbeKind.GAUSSIAN, ProbeKind.HADAMARD):
        mom = pdos_moments(sop, make_probes(4, 3, kind, seed=2), 3)
        assert np.abs(mom.values[:, 0] - 1.0).max() < 1e-12


def test_p3_center_second_moment(path3):
    sop = _scaled(path3)
    p = make_probes(3, 3, ProbeKind.STANDARD_BASIS, seed=0)
    mom = pdos_moments(sop, p, 2)
    assert mom.values[1, 2] == pytest.approx(1.0, abs=1e-13)  # 2*(A~^2)_cc - 1


def test_star_leaf_first_moment_zero(star4):
    sop = _scaled(star4)
    p = make_probes(4, 4, ProbeKind.STANDARD_BASIS, seed=0)
    mom = pdos_moments(sop, p, 1)
    assert np.abs(mom.values[1:, 1]).max() < 1e-14  # no self-loops


def test_pdos_rows_average_to_global_moments():
    g = erdos_renyi(80, 0.06, seed=6)
    sop = _scaled(g)
    for kind in (ProbeKind.RADEMACHER, ProbeKind.HADAMARD, ProbeKind.STANDARD_BASIS):
        nz = g.n if kind is ProbeKind.STANDARD_BASIS else 12
        p = make_probes(g.n, nz, kind, seed=5)
        per_node = pdos_moments(sop, p, 25)
        global_ = dos_moments(sop, p, 25)
        assert np.abs(per_node.values.mean(axis=0) - global_.values).max() < 1e-10


def test_pdos_exact_probes_match_node_oracle():
    g = erdos_renyi(70, 0.08, seed=8)
    sop = _scaled(g, OperatorKind.NORMALIZED_LAPLACIAN)
    p = make_probes(g.n, g.n, ProbeKind.STANDARD_BASIS, seed=0)
    mom = pdos_moments(sop, p, 30)
    spec = exact_spectrum(build_operator(g, OperatorKind.NORMALIZED_LAPLACIAN),
                          want_vectors=True)
    t = chebyshev_values(30, sop.scale_map.to_scaled(spec.eigenvalues))
    want = (spec.eigenvectors ** 2) @ t.T
    assert np.abs(mom.values - want).max() < 1e-10


def test_polynomial_integration_exactness():
    # sum_m c_m d_m must equal tr(f(H))/N for Chebyshev-coefficient f.
    g = erdos_renyi(50, 0.1, seed=12)
    sop = _scaled(g)
    p = make_probes(g.n, g.n, ProbeKind.STANDARD_BASIS, seed=0)
    m_max = 24
    mom = dos_moments(sop, p, m_max)
    rng = np.random.default_rng(3)
    coef = rng.standard_normal(m_max + 1)
    ev = sop.scale_map.to_scaled(
        exact_spectrum(build_operator(g, OperatorKind.NORMALIZED_ADJACENCY)).eigenvalues)
    f_vals = coef @ chebyshev_values(m_max, ev)
    want = f_vals.mean()
    # the dual-basis pairing carries a factor (2 - delta_m0)/2 ... the plain
    # coefficient pairing is sum_m coef_m * mean T_m(lambda_i)
    got = coef @ mom.values
    assert got == pytest.approx(want, abs=1e-8)


def test_statistical_moment_bound():
    g = erdos_renyi(300, 0.03, seed=2)
    sop = _scaled(g)
    for kind in (ProbeKind.RADEMACHER, ProbeKind.HADAMARD, ProbeKind.GAUSSIAN):
        nz = 16
        mom = dos_moments(sop, make_probes(g.n, nz, kind, seed=3), 200)
        assert np.abs(mom.values).max() <= 1.0 + 5.0 / np.sqrt(nz)


def test_recurrence_blowup_detected(path3):
    op = build_operator(path3, OperatorKind.LAPLACIAN)
    bad = rescale_operator(op, (0.0, 1.5))  # true range is [0, 3]
    p = make_probes(3, 2, ProbeKind.RADEMACHER, seed=0)
    with pytest.raises(RecurrenceBlowupError, match="wider --range"):
        dos_moments(bad, p, 600)


# Each Chebyshev command, through the library and the CLI, at 60 moments,
# and the recurrence degree that completes moment k
CERTIFIED = {
    "dos": (lambda g, range_: pipeline.kpm_dos(
        g, "laplacian", m_max=60, damping=False, range_=range_),
        ["dos", "--no-damping"], lambda k: (k + 1) // 2),
    "pdos": (lambda g, range_: pipeline.kpm_pdos(
        g, "laplacian", m_max=60, range_=range_), ["pdos"], lambda k: k),
    "nd-pdos": (lambda g, range_: pipeline.nd_pdos_pipeline(
        g, "laplacian", m_max=60, range_=range_), ["nd-pdos"], lambda k: k),
}


@pytest.mark.parametrize("command", sorted(CERTIFIED))
def test_finite_moments_past_their_bound_are_refused(command, tmp_path,
                                                     capsys, monkeypatch):
    # a range 2 % short of the Laplacian's largest eigenvalue: the moments
    # grow past their bound but stay far from overflowing in 60 steps
    g = preferential_attachment(400, 2, seed=1)
    lam_max = exact_spectrum(build_operator(g, "laplacian")).eigenvalues[-1]
    hi = 0.98 * float(lam_max)
    run, argv, degree = CERTIFIED[command]
    calls = []
    matvec = _kernels.csr_matvec
    monkeypatch.setattr(_kernels, "csr_matvec",
                        lambda *a, **kw: calls.append(1) or matvec(*a, **kw))
    with pytest.raises(RecurrenceBlowupError,
                       match=r"bound at moment \d+: .* wider --range") as err:
        run(g, (0.0, hi))
    refused = len(calls)
    # the run stops at the degree that completes the failing moment: it
    # makes that many of the kernel calls that a full run makes per degree
    failing = degree(int(re.search(r"moment (\d+)", str(err.value))[1]))
    calls.clear()
    run(g, (0.0, 1.01 * float(lam_max)))
    assert 0 < failing < degree(60)
    assert refused * degree(60) == failing * len(calls)

    gpath, out = tmp_path / "g.txt", tmp_path / "out.json"
    write_graph_edgelist(g, gpath)
    assert main([*argv, "--input", str(gpath), "--operator", "laplacian",
                 "--moments", "60", f"--range=0,{hi!r}",
                 "--out", str(out)]) == 1
    assert "overflowed its bound" in capsys.readouterr().err
    assert not out.exists()


MOTIF_KINDS = [k.value for k in MotifKind]


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(g=small_models(), filtered=st.booleans())
def test_no_run_at_the_preset_range_is_refused(g, filtered):
    # the estimated range (the analytic one for the normalized adjacency)
    # holds the spectrum, so the certificate passes every preset run;
    # undamped, so that only the certificate can refuse a dos run
    for kind in OperatorKind:
        pipeline.kpm_dos(g, kind, damping=False,
                         filter_kinds=MOTIF_KINDS if filtered else ())
        pipeline.kpm_pdos(g, kind)
        pipeline.nd_pdos_pipeline(g, kind)


def test_hadamard_not_worse_than_rademacher_for_trace_noise():
    # the sign-flipped orthogonal construction should estimate global
    # moments at least as well as i.i.d. signs, on average over seeds
    g = erdos_renyi(256, 0.05, seed=4)
    sop = _scaled(g)
    exact = dos_moments(sop, make_probes(g.n, g.n, ProbeKind.STANDARD_BASIS, 0), 60)
    errs = {}
    for kind in (ProbeKind.HADAMARD, ProbeKind.RADEMACHER):
        e = []
        for seed in range(8):
            mom = dos_moments(sop, make_probes(g.n, 8, kind, seed=seed), 60)
            e.append(np.abs(mom.values - exact.values).max())
        errs[kind] = np.mean(e)
    assert errs[ProbeKind.HADAMARD] < 2.0 * errs[ProbeKind.RADEMACHER]


def test_per_node_statistical_moment_bound():
    g = erdos_renyi(150, 0.05, seed=8)
    sop = _scaled(g)
    nz = 16
    mom = pdos_moments(sop, make_probes(g.n, nz, ProbeKind.HADAMARD, seed=4), 120)
    assert np.abs(mom.values).max() <= 1.0 + 5.0 / np.sqrt(nz)


def test_per_node_moments_fill_one_block():
    # the recurrence writes into the one (n, M + 1) result block and the
    # probe mass divides it in place: no (M + 1, n) rows, quotient or
    # transposed copy beside it
    g = preferential_attachment(3000, 2, seed=1)
    sop = _scaled(g)
    probes = make_probes(g.n, 4, ProbeKind.RADEMACHER, seed=0)
    m_max = 200
    block = g.n * (m_max + 1) * 8
    # the recurrence's blocks: a copy of z, t_prev and t_cur, plus 2·H's values
    work = 3 * probes.columns.nbytes + sop.data.nbytes
    tracemalloc.start()
    try:
        mom = pdos_moments(sop, probes, m_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mom.values.shape == (g.n, m_max + 1) and mom.values.flags.c_contiguous
    assert peak <= 1.25 * block + work, (peak / block, work)
