import numpy as np
import pytest

from netdos import (ProbeKind, SmoothedDensity, build_operator, dos_moments,
                    evaluate_density, histogram_from_moments, make_probes)
from netdos.density import bin_index, cheb_bin_masses
from netdos.kpm import MODE_GLOBAL, ChebMoments, chebyshev_values
from netdos.motifs import FilterAdjustment
from netdos.operators import IDENTITY_MAP
from netdos.pipeline import scaled_operator_for
from netdos.testkit import erdos_renyi, exact_spectrum, oracle_histogram

from oracles import oracle_smoothed_density


def _point_mass_moments(x0, m_max):
    return ChebMoments(MODE_GLOBAL, chebyshev_values(m_max, np.array([x0]))[:, 0],
                       IDENTITY_MAP, {"kind": "exact"})


def test_single_bin_carries_all_mass():
    mom = ChebMoments(MODE_GLOBAL, np.array([1.0, 0.0, 0.0]), IDENTITY_MAP, {})
    hist = histogram_from_moments(mom, bins=1, damping=False)
    assert hist.edges.tolist() == [-1.0, 1.0]
    assert hist.masses[0] == pytest.approx(1.0, abs=1e-14)


def test_bin_table_telescopes_to_unit_mass():
    edges = np.linspace(-1, 1, 33)
    table = cheb_bin_masses(40, edges)
    sums = table.sum(axis=1)
    assert sums[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(sums[1:]).max() < 1e-12


def test_bin_table_matches_quadrature():
    # independent check of the closed form on an uneven bin
    edges = np.array([-0.83, 0.21])
    table = cheb_bin_masses(6, edges)
    theta = np.linspace(np.arccos(edges[1]), np.arccos(edges[0]), 200001)
    for m in range(7):
        w = 1.0 if m == 0 else 2.0
        integrand = (w / np.pi) * np.cos(m * theta)
        assert table[m, 0] == pytest.approx(np.trapezoid(integrand, theta), abs=1e-9)


def test_p3_exact_moments_recover_thirds(path3):
    sop = scaled_operator_for(path3, "normalized-adjacency")
    probes = make_probes(3, 3, ProbeKind.STANDARD_BASIS, seed=0)
    mom = dos_moments(sop, probes, 200)
    hist = histogram_from_moments(mom, bins=4, damping=True)
    # eigenvalues {-1, 0, 1}; 0 sits exactly on the shared edge of the two
    # middle bins, so its smoothed spike splits evenly between them
    assert hist.masses[0] == pytest.approx(1 / 3, abs=0.02)
    assert hist.masses[3] == pytest.approx(1 / 3, abs=0.02)
    assert hist.masses[1] + hist.masses[2] == pytest.approx(1 / 3, abs=0.02)
    assert hist.masses[1] == pytest.approx(hist.masses[2], abs=1e-10)
    # with an odd bin count the middle eigenvalue is interior and resolved
    hist5 = histogram_from_moments(mom, bins=5, damping=True)
    assert hist5.masses[2] == pytest.approx(1 / 3, abs=0.02)


def test_er_histogram_close_to_oracle():
    g = erdos_renyi(1000, 0.01, seed=19)
    sop = scaled_operator_for(g, "normalized-adjacency")
    mom = dos_moments(sop, make_probes(g.n, 20, ProbeKind.HADAMARD, seed=5), 500)
    hist = histogram_from_moments(mom, bins=50, damping=True)
    ev = exact_spectrum(build_operator(g, "normalized-adjacency")).eigenvalues
    want = oracle_histogram(ev, hist.edges)
    assert np.abs(hist.masses - want).sum() < 0.05


def test_total_mass_equals_normalization():
    g = erdos_renyi(150, 0.05, seed=3)
    sop = scaled_operator_for(g, "laplacian", seed=1)
    mom = dos_moments(sop, make_probes(g.n, 8, ProbeKind.RADEMACHER, seed=2), 120)
    for damping in (True, False):
        hist = histogram_from_moments(mom, bins=37, damping=damping,
                                      negativity_tol=np.inf)
        assert hist.masses.sum() == pytest.approx(hist.normalization, abs=1e-8)


def test_jackson_positivity_default_tolerance():
    for seed in range(3):
        g = erdos_renyi(300, 0.04, seed=seed)
        sop = scaled_operator_for(g, "normalized-adjacency")
        mom = dos_moments(sop, make_probes(g.n, 20, ProbeKind.HADAMARD, seed=seed), 500)
        hist = histogram_from_moments(mom, bins=50, damping=True)  # raises if < -1e-3
        assert hist.masses.min() > -1e-3


def test_negativity_rejected_without_damping_guard():
    mom = _point_mass_moments(0.0, 400)
    with pytest.raises(ValueError, match="below"):
        histogram_from_moments(mom, bins=50, damping=False, negativity_tol=1e-12)
    hist = histogram_from_moments(mom, bins=50, damping=False)  # no default check
    assert hist.masses.min() < 0  # Gibbs ringing is real


def test_spike_reinsertion_bookkeeping():
    mom = ChebMoments(MODE_GLOBAL, np.zeros(3), IDENTITY_MAP, {})
    mom.values[0] = 1.0
    adj = FilterAdjustment(removed={0.0: 5, 0.5: 3}, total_dim=20)
    hist = histogram_from_moments(mom, bins=4, damping=False, filter_adjustment=adj)
    # remaining 12/20 of mass spread uniformly, spikes in bins 2 ([0,.5)) and 3
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert hist.masses[2] >= 5 / 20
    assert hist.masses[3] >= 3 / 20


def test_bin_index_matches_numpy_histogram_conventions():
    edges = np.linspace(-1, 1, 6)
    for x in (-1.0, -0.999, -0.6, 0.0, 0.2, 0.6, 1.0):
        want = np.histogram([x], bins=edges)[0].argmax()
        assert bin_index(edges, x) == want


def test_per_node_histograms():
    g = erdos_renyi(40, 0.15, seed=2)
    sop = scaled_operator_for(g, "normalized-adjacency")
    from netdos import pdos_moments
    mom = pdos_moments(sop, make_probes(g.n, g.n, ProbeKind.STANDARD_BASIS, 0), 80)
    hist = histogram_from_moments(mom, bins=16, damping=True)
    assert hist.masses.shape == (g.n, 16)
    assert np.allclose(hist.masses.sum(axis=1), hist.normalization, atol=1e-8)


def test_per_node_default_check_uses_node_average():
    from netdos import pdos_moments
    from netdos.testkit import preferential_attachment
    g = preferential_attachment(300, 2, seed=1)
    sop = scaled_operator_for(g, "normalized-adjacency")
    mom = pdos_moments(sop, make_probes(g.n, 20, ProbeKind.HADAMARD, 0), 100)
    hist = histogram_from_moments(mom, bins=50)
    assert hist.masses.min() < -1e-3  # probe noise in single rows
    assert hist.masses.mean(axis=0).min() > -1e-3
    with pytest.raises(ValueError, match="^bin mass"):
        histogram_from_moments(mom, bins=50, negativity_tol=1e-3)
    bad = ChebMoments(mom.mode, mom.values.copy(), mom.scale_map, {})
    bad.values[:, 1] += 1.0  # a bias shared by every row shows in the average
    with pytest.raises(ValueError, match="node-averaged bin mass"):
        histogram_from_moments(bad, bins=50)


def test_delta_density_peak_height():
    sd = SmoothedDensity(_point_mass_moments(0.0, 800), sigma=0.1)
    peak = evaluate_density(sd, [0.0])[0]
    assert peak == pytest.approx(1.0 / (0.1 * np.sqrt(2 * np.pi)), rel=2e-3)


def test_density_symmetry(path3):
    sop = scaled_operator_for(path3, "normalized-adjacency")
    mom = dos_moments(sop, make_probes(3, 3, ProbeKind.STANDARD_BASIS, 0), 120)
    sd = SmoothedDensity(mom, sigma=0.08)
    lam = np.linspace(0.05, 0.9, 9)
    left = evaluate_density(sd, -lam)
    right = evaluate_density(sd, lam)
    assert np.abs(left - right).max() < 1e-6


def test_density_integrates_to_one(path3):
    sop = scaled_operator_for(path3, "normalized-adjacency")
    mom = dos_moments(sop, make_probes(3, 3, ProbeKind.STANDARD_BASIS, 0), 300)
    sd = SmoothedDensity(mom, sigma=0.05)
    grid = np.linspace(-2, 2, 8001)
    total = np.trapezoid(evaluate_density(sd, grid), grid)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_density_tracks_oracle():
    g = erdos_renyi(200, 0.05, seed=9)
    sop = scaled_operator_for(g, "normalized-adjacency")
    mom = dos_moments(sop, make_probes(g.n, g.n, ProbeKind.STANDARD_BASIS, 0), 300)
    sd = SmoothedDensity(mom, sigma=0.05)
    grid = np.linspace(-1, 1, 101)
    ev = exact_spectrum(build_operator(g, "normalized-adjacency")).eigenvalues
    want = oracle_smoothed_density(ev, 0.05, grid)
    assert np.abs(evaluate_density(sd, grid) - want).max() < 0.02


def test_sigma_must_be_positive():
    with pytest.raises(ValueError, match="sigma"):
        SmoothedDensity(_point_mass_moments(0.0, 10), sigma=0.0)


def test_bins_must_be_positive():
    mom = _point_mass_moments(0.0, 10)
    with pytest.raises(ValueError, match="bins"):
        histogram_from_moments(mom, bins=0)


def test_monotone_refinement_in_moment_count():
    g = erdos_renyi(400, 0.03, seed=23)
    sop = scaled_operator_for(g, "normalized-adjacency")
    ev = exact_spectrum(build_operator(g, "normalized-adjacency")).eigenvalues
    probes = make_probes(g.n, g.n, ProbeKind.STANDARD_BASIS, seed=0)
    errs = []
    for m in (20, 100, 500):
        mom = dos_moments(sop, probes, m)
        hist = histogram_from_moments(mom, bins=50, damping=True)
        errs.append(np.abs(hist.masses - oracle_histogram(ev, hist.edges)).sum())
    assert errs[2] <= errs[1] <= errs[0]
