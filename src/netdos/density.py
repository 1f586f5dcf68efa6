"""Spectral histograms and mollified densities from Chebyshev moments.

Bin masses use the closed-form integral of the weighted Chebyshev dual basis
over each bin: with theta = arccos(x),

    int_a^b w_0(x) T_0(x) dx = (theta_a - theta_b) / pi
    int_a^b w_m(x) T_m(x) dx = (2/pi) (sin(m theta_a) - sin(m theta_b)) / m

The 1/sqrt(1-x^2) weight makes pointwise sampling of the series unstable at
the endpoints, while these integrals are exact; per-bin masses also telescope
so the total mass is d_0 regardless of damping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kpm import MODE_GLOBAL, MODE_PER_NODE, ChebMoments, jackson_coefficients
from .operators import ScaleMap

# Histogram bins unless told otherwise.
BINS = 50

# Every histogram here places its point masses (a re-inserted spike, a Ritz
# value in `lanczos.gql_dos`, an eigenvalue in `testkit.oracle_histogram`) by
# one rule, `point_masses`: a point within this share of the bins' span of an
# edge counts as on that edge, so an exact eigenvalue such as 0 or an
# analytic range edge, moved by roundoff, lands in one bin.
SNAP_TOL = 1e-9


@dataclass
class SpectralHistogram:
    """Bin edges in original eigenvalue units plus bin masses.

    masses is (B,) for a global density or (n, B) for per-node rows;
    normalization is the mass they place (scalar or per-row array): d_0, or
    under spike re-insertion d_0 (N - r) / N + r / N, or the weight of the
    Ritz values inside the edges.
    """

    edges: np.ndarray
    masses: np.ndarray
    normalization: object = 1.0

    @property
    def bins(self) -> int:
        return int(self.edges.shape[0] - 1)


def _unit_bins(smap, bins):
    """(scaled, edges): `bins` equal bins of [-1, 1] and their image under
    `smap`. Edges that do not increase raise ValueError naming `smap`, the
    range judged: this is the one too-narrow check."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    scaled = np.linspace(-1.0, 1.0, bins + 1)
    edges = smap.from_scaled(scaled)
    if not np.all(np.diff(edges) > 0.0):
        raise ValueError(f"the scale map (shift {float(smap.shift)!r}, scale "
                         f"{float(smap.scale)!r}) is too narrow for --bins "
                         f"{bins}: its bin edges do not increase")
    return scaled, edges


def bin_edges(lo, hi, bins) -> np.ndarray:
    """The bins + 1 edges of `bins` equal bins over [lo, hi], built as every
    histogram here builds them: equal bins of [-1, 1] mapped back by
    ScaleMap.onto_unit((lo, hi)), so a KPM series scaled by that map and a
    histogram over the range share their edges. A range that ScaleMap
    refuses, or one too narrow for the bins, whose edges do not increase,
    raises ValueError, and so does bins < 1."""
    return _unit_bins(ScaleMap.onto_unit((lo, hi)), bins)[1]


def point_masses(edges, points, weights):
    """(masses, outside): the `weights` of `points` (one each, or one for
    all) summed into the bins of the increasing `edges`, and the mask of the
    points that lie outside them.

    A point within SNAP_TOL of the span of an edge counts as on that edge. A
    point on an inner edge falls in the bin above it and one on the top edge
    in the last bin, as in np.histogram; a point farther out than SNAP_TOL
    beyond the outer edges is outside and carries no mass.
    """
    edges = np.asarray(edges, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    last = edges.shape[0] - 2
    # the nearest edge, the lower one on a tie
    above = np.clip(np.searchsorted(edges, points), 1, last + 1)
    near = above - (points - edges[above - 1] <= edges[above] - points)
    on = np.abs(points - edges[near]) <= SNAP_TOL * (edges[-1] - edges[0])
    index = np.where(on, np.minimum(near, last), above - 1)
    inside = on | ((points > edges[0]) & (points < edges[-1]))
    weights = np.broadcast_to(weights, points.shape)[inside]
    return np.bincount(index[inside], weights, minlength=last + 1), ~inside


def cheb_bin_masses(m_max, scaled_edges) -> np.ndarray:
    """Closed-form table W[m, b] = integral of the dual basis over bin b."""
    theta = np.arccos(np.clip(scaled_edges, -1.0, 1.0))
    out = np.empty((m_max + 1, len(scaled_edges) - 1))
    out[0] = (theta[:-1] - theta[1:]) / np.pi
    if m_max >= 1:
        m = np.arange(1, m_max + 1, dtype=np.float64)[:, None]
        s = np.sin(m * theta[None, :])
        out[1:] = (2.0 / np.pi) * (s[:, :-1] - s[:, 1:]) / m
    return out


def histogram_from_moments(moments: ChebMoments, bins=BINS, damping=True,
                           reinsert_spikes=True,
                           negativity_tol=None) -> SpectralHistogram:
    """Integrate the (optionally Jackson-damped) moment series over bins.

    The edges split the operator's scaled domain [-1, 1] into equal bins,
    reported in original eigenvalue units, as `bin_edges` builds them; a
    scale map too narrow for `bins` raises ValueError. A series of deflated
    probes carries its `adjustment`; with reinsert_spikes its masses are
    rescaled from the N - r deflated dimensions to all N, and the removed
    spike mass is re-inserted at its eigenvalues by `point_masses`, so
    displayed mass still totals the normalization. A removed eigenvalue
    outside the edges raises ValueError.

    A mass below -negativity_tol raises ValueError. With damping the
    tolerance defaults to 1e-3, checked on the node-averaged masses for
    per-node moments; an explicit tolerance is checked on every row.
    """
    # the table is built on the scaled edges themselves: mapped out and
    # back, an outer edge can land an ulp inside ±1, which arccos turns
    # into about 1e-8 of lost mass
    scaled, edges = _unit_bins(moments.scale_map, bins)
    table = cheb_bin_masses(moments.m_max, scaled)
    coef = moments.values
    if damping:
        coef = coef * jackson_coefficients(moments.m_max)
    masses = coef @ table

    if moments.mode == MODE_GLOBAL:
        normalization = float(coef[0])
    else:
        normalization = coef[..., 0].copy()

    adjustment = moments.adjustment
    if reinsert_spikes and adjustment is not None:
        n_total, r = adjustment.total_dim, adjustment.deflated_dim
        lams, counts = np.array(sorted(adjustment.removed.items())).reshape(-1, 2).T
        spikes, outside = point_masses(edges, lams, counts / n_total)
        if outside.any():
            raise ValueError(f"removed eigenvalue {lams[outside][0]:g} lies "
                             f"outside the bins [{edges[0]:g}, {edges[-1]:g}]; "
                             "pass a --range that holds it")
        share = (n_total - r) / n_total
        masses = masses * share + spikes
        normalization = normalization * share + r / n_total

    checked, what = masses, "bin mass"
    if negativity_tol is None and damping:
        negativity_tol = 1e-3
        if moments.mode == MODE_PER_NODE:
            # single rows carry probe noise well below -1e-3 while their
            # average, the global density, stays non-negative
            checked, what = masses.mean(axis=0), "node-averaged bin mass"
    if negativity_tol is not None and checked.min() < -negativity_tol:
        raise ValueError(
            f"{what} {checked.min():.3e} below -{negativity_tol:g}; "
            "series is not a valid density at this resolution")
    return SpectralHistogram(edges=edges, masses=masses, normalization=normalization)


@dataclass
class SmoothedDensity:
    """Moment series convolved with a Gaussian mollifier of width sigma."""

    moments: ChebMoments
    sigma: float
    damping: bool = True

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.moments.mode != MODE_GLOBAL:
            raise ValueError("smoothed densities are defined for global moments")


def evaluate_density(sd: SmoothedDensity, at) -> np.ndarray:
    """Evaluate (K_sigma * mu)(lambda) at the given original-unit points.

    Substituting x = cos(theta) removes the endpoint weight singularity, so
    the series integrand is smooth and Gauss-Legendre quadrature in theta
    converges quickly; the node count scales with the series degree.
    """
    moments = sd.moments
    m_max = moments.m_max
    coef = moments.values.copy()
    if sd.damping:
        coef = coef * jackson_coefficients(m_max)
    coef *= 2.0 / np.pi
    coef[0] = moments.values[0] / np.pi

    nodes, weights = np.polynomial.legendre.leggauss(max(4 * (m_max + 1), 512))
    theta = 0.5 * np.pi * (nodes + 1.0)
    weights = 0.5 * np.pi * weights
    series = coef @ np.cos(np.arange(m_max + 1)[:, None] * theta[None, :])

    smap = moments.scale_map
    lam_nodes = smap.from_scaled(np.cos(theta))
    at = np.atleast_1d(np.asarray(at, dtype=np.float64))
    diff = (at[:, None] - lam_nodes[None, :]) / sd.sigma
    kern = np.exp(-0.5 * diff * diff) / (sd.sigma * np.sqrt(2.0 * np.pi))
    return kern @ (weights * series)
