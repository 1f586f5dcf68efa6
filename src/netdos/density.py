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

# Histogram bins unless told otherwise.
BINS = 50

# A point mass within this share of the bins' span outside an outer edge
# (an eigenvalue on an analytic range edge, moved by roundoff) counts in that
# edge's bin: a re-inserted spike here, a Ritz value in `lanczos.gql_dos`.
SNAP_TOL = 1e-9


@dataclass
class SpectralHistogram:
    """Bin edges in original eigenvalue units plus bin masses.

    masses is (B,) for a global density or (n, B) for per-node rows;
    normalization is the corresponding total mass (scalar or per-row array).
    """

    edges: np.ndarray
    masses: np.ndarray
    normalization: object = 1.0

    @property
    def bins(self) -> int:
        return int(self.edges.shape[0] - 1)


def bin_edges(lo, hi, bins) -> np.ndarray:
    """The bins + 1 edges of `bins` equal bins over [lo, hi]. A range too
    narrow for them, whose edges do not increase, raises ValueError."""
    edges = np.linspace(lo, hi, bins + 1)
    if not np.all(np.diff(edges) > 0.0):
        raise ValueError(f"--range {lo!r},{hi!r} is too narrow for --bins "
                         f"{bins}: its bin edges do not increase")
    return edges


def bin_index(edges, lam) -> int:
    """Bin receiving a point mass at lam (matches np.histogram conventions)."""
    i = int(np.searchsorted(edges, lam, side="right")) - 1
    return min(max(i, 0), len(edges) - 2)


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
    reported in original eigenvalue units. A series of deflated probes
    carries its `adjustment`; with reinsert_spikes its masses are rescaled
    from the N - r deflated dimensions to all N, and the removed spike mass
    is re-inserted at its eigenvalues, so displayed mass still totals the
    normalization. A removed eigenvalue outside the edges (beyond SNAP_TOL of
    their span) raises ValueError.

    A mass below -negativity_tol raises ValueError. With damping the
    tolerance defaults to 1e-3, checked on the node-averaged masses for
    per-node moments; an explicit tolerance is checked on every row.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    # the table is built on the scaled edges themselves: mapped out and
    # back, an outer edge can land an ulp inside ±1, which arccos turns
    # into about 1e-8 of lost mass
    scaled = np.linspace(-1.0, 1.0, bins + 1)
    edges = moments.scale_map.from_scaled(scaled)
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
        masses = masses * ((n_total - r) / n_total)
        snap = SNAP_TOL * (edges[-1] - edges[0])
        for lam, count in sorted(adjustment.removed.items()):
            if not edges[0] - snap <= lam <= edges[-1] + snap:
                raise ValueError(f"removed eigenvalue {lam:g} lies outside the "
                                 f"bins [{edges[0]:g}, {edges[-1]:g}]; pass a "
                                 "--range that holds it")
            masses[bin_index(edges, lam)] += count / n_total

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
