import numpy as np
import pytest

from netdos import (MotifError, ProbeKind, SmoothedDensity, build_operator,
                    dos_moments, evaluate_density, histogram_from_moments,
                    make_probes)
from netdos.density import SNAP_TOL, bin_edges, cheb_bin_masses, point_masses
from netdos.kpm import MODE_GLOBAL, MODE_PER_NODE, ChebMoments, chebyshev_values
from netdos.motifs import FilterAdjustment
from netdos.operators import IDENTITY_MAP, ScaleMap
from netdos.pipeline import scaled_operator_for
from netdos.testkit import erdos_renyi, exact_spectrum, oracle_histogram

from oracles import brute_force_bin, oracle_smoothed_density


def _point_mass_moments(x0, m_max):
    return ChebMoments(chebyshev_values(m_max, np.array([x0]))[:, 0],
                       IDENTITY_MAP, {"kind": "exact"})


def test_single_bin_carries_all_mass():
    mom = ChebMoments(np.array([1.0, 0.0, 0.0]), IDENTITY_MAP, {})
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
    sop = scaled_operator_for(g, "laplacian")
    mom = dos_moments(sop, make_probes(g.n, 8, ProbeKind.RADEMACHER, seed=2), 120)
    for damping in (True, False):
        hist = histogram_from_moments(mom, bins=37, damping=damping,
                                      negativity_tol=np.inf)
        assert hist.masses.sum() == pytest.approx(hist.normalization, abs=1e-8)


def test_total_mass_is_d0_when_the_range_does_not_round_trip():
    # mapped to this range and back, the top edge of 50 bins lands an ulp
    # inside 1, which the arcsine weight turned into 6.7e-9 of lost mass
    lo, hi = -4.4065358636884495, 256.35325277182267
    smap = ScaleMap(0.5 * (hi + lo), 0.5 * (hi - lo))
    assert smap.to_scaled(smap.from_scaled(np.linspace(-1.0, 1.0, 51)))[-1] < 1.0
    values = np.zeros(100)
    values[0] = 1.0
    for damping in (True, False):
        hist = histogram_from_moments(ChebMoments(values, smap, {}),
                                      bins=50, damping=damping)
        assert hist.masses.sum() == pytest.approx(1.0, abs=1e-14)


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


def _deflated(values, removed, total_dim):
    return ChebMoments(np.asarray(values, dtype=np.float64), IDENTITY_MAP, {},
                       FilterAdjustment(removed=removed, total_dim=total_dim))


def test_spike_reinsertion_bookkeeping():
    mom = _deflated([1.0, 0.0, 0.0], {0.0: 5, 0.5: 3}, 20)
    hist = histogram_from_moments(mom, bins=4, damping=False)
    # without re-insertion the series is binned as it stands
    bare = histogram_from_moments(mom, bins=4, damping=False,
                                  reinsert_spikes=False)
    assert np.allclose(bare.masses, [1 / 3, 1 / 6, 1 / 6, 1 / 3], rtol=0, atol=1e-15)
    # with it, the series keeps 12/20 of the mass and the spikes land in
    # bins 2 ([0, .5)) and 3
    want = bare.masses * 12 / 20 + [0.0, 0.0, 5 / 20, 3 / 20]
    assert np.allclose(hist.masses, want, rtol=0, atol=1e-15)
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_spike_outside_the_bins_is_refused():
    # within SNAP_TOL of the span beyond an edge, a spike lands in the edge bin
    mom = _deflated([1.0, 0.0, 0.0], {1.0 + SNAP_TOL: 1}, 4)
    hist = histogram_from_moments(mom, bins=4, damping=False)
    assert hist.masses[3] >= 1 / 4
    for lam in (5.0, -1.0 - 3 * SNAP_TOL):
        mom = _deflated([1.0, 0.0, 0.0], {0.0: 2, lam: 1}, 4)
        with pytest.raises(ValueError, match="outside the bins.*--range"):
            histogram_from_moments(mom, bins=4, damping=False)
        # the spikes are not binned at all without re-insertion
        histogram_from_moments(mom, bins=4, damping=False, reinsert_spikes=False)


def test_adjustment_checks_itself():
    for removed, total_dim, what in [
            ({0.5: -3}, 10, "positive int"), ({0.5: 0}, 10, "positive int"),
            ({0.5: 2.0}, 10, "positive int"), ({0.5: True}, 10, "positive int"),
            ({float("nan"): 1}, 10, "finite"), ({float("inf"): 1}, 10, "finite"),
            ({0.5: 3}, 0, "deflated_dim 3"), ({0.5: 3}, 3, "deflated_dim 3"),
            ({}, 0, "deflated_dim 0"), ({0.5: 3}, 10.7, "total_dim must be an integer"),
            ({0.5: 3}, 10.0, "total_dim must be an integer"),
            ({0.5: 3}, "10", "total_dim must be an integer")]:
        with pytest.raises(MotifError, match=what):
            FilterAdjustment(removed=removed, total_dim=total_dim)
    assert FilterAdjustment(removed={0.5: 3}, total_dim=4).deflated_dim == 3
    # a numpy int total_dim, as a caller may pass, is kept as a Python int
    assert type(FilterAdjustment(removed={}, total_dim=np.int64(4)).total_dim) is int


def test_per_node_series_carries_no_adjustment():
    adj = FilterAdjustment(removed={0.0: 1}, total_dim=2)
    with pytest.raises(ValueError, match="global"):
        ChebMoments(np.ones((2, 3)), IDENTITY_MAP, {}, adj)
    assert ChebMoments(np.ones((2, 3)), IDENTITY_MAP, {}).mode == MODE_PER_NODE
    assert ChebMoments(np.ones(3), IDENTITY_MAP, {}, adj).mode == MODE_GLOBAL


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 214.0199364540),
                                     (-7.25, -0.5)],
                         ids=["unit", "laplacian-range", "negative"])
def test_point_masses_match_the_per_point_rule(lo, hi):
    edges = bin_edges(lo, hi, 50)
    tol = SNAP_TOL * (edges[-1] - edges[0])
    rng = np.random.default_rng(5)
    offsets = np.array([0.0, 0.5, -0.5, 3.0, -3.0]) * tol
    points = np.concatenate([
        (edges[:, None] + offsets).ravel(),
        # anywhere in the bins, and well outside them
        rng.uniform(lo, hi, 200),
        lo - rng.uniform(1e-6, 10.0, 20) * (hi - lo),
        hi + rng.uniform(1e-6, 10.0, 20) * (hi - lo)])
    weights = rng.uniform(0.5, 2.0, points.shape)
    masses, outside = point_masses(edges, points, weights)
    want = np.zeros(50)
    for x, w, out in zip(points.tolist(), weights, outside):
        b = brute_force_bin(edges.tolist(), x, tol)
        assert out == (b is None), x
        if b is not None:
            want[b] += w
    assert np.allclose(masses, want, rtol=1e-14, atol=0.0)


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
    bad = ChebMoments(mom.values.copy(), mom.scale_map, {})
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
