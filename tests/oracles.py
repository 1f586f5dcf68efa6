"""Validation oracles the tests compare netdos against: moments and
smoothed densities straight from eigenvalues, spectral metrics, shape
checks on histograms, and a reader for the CSV histograms the CLI writes.

None of these is on a command's path, so they live with the tests.
"""

import numpy as np

from netdos import FileFormatError, SpectralHistogram
from netdos.kpm import chebyshev_values


def oracle_moments(eigenvalues_scaled, m_max) -> np.ndarray:
    """d_m = mean_i T_m(lambda_i) straight from eigenvalues in [-1, 1]."""
    return chebyshev_values(m_max, eigenvalues_scaled).mean(axis=1)


def oracle_smoothed_density(eigenvalues, sigma, at) -> np.ndarray:
    """(K_sigma * mu)(lambda) for the exact point-mass spectrum."""
    at = np.atleast_1d(np.asarray(at, dtype=np.float64))
    diff = (at[:, None] - np.asarray(eigenvalues)[None, :]) / sigma
    kern = np.exp(-0.5 * diff * diff) / (sigma * np.sqrt(2.0 * np.pi))
    return kern.mean(axis=1)


def wasserstein1(spec_a, spec_b) -> float:
    """Earth-mover distance between two equal-cardinality uniform spectra.

    For equal-mass 1-D measures this is the mean absolute difference of the
    sorted eigenvalue lists; unequal sizes need general transport, which is
    out of scope.
    """
    a = np.sort(np.asarray(spec_a, dtype=np.float64))
    b = np.sort(np.asarray(spec_b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError(f"spectra have different cardinality ({a.size} vs {b.size})")
    return float(np.abs(a - b).mean())


def check_interlacing(full, reduced, r, slack=1e-10):
    """Cauchy interlacing: lam_i(H) <= lam_i(H~) <= lam_{i+r}(H).

    Returns (ok, first_violation) where the violation is (index, lo, val, hi).
    """
    lam = np.sort(np.asarray(getattr(full, "eigenvalues", full), dtype=np.float64))
    mu = np.sort(np.asarray(getattr(reduced, "eigenvalues", reduced), dtype=np.float64))
    n = lam.shape[0]
    if mu.shape[0] != n - r:
        raise ValueError(f"reduced spectrum must have {n - r} eigenvalues, got {mu.shape[0]}")
    for i in range(n - r):
        lo, hi = lam[i], lam[i + r]
        if mu[i] < lo - slack or mu[i] > hi + slack:
            return False, (i, float(lo), float(mu[i]), float(hi))
    return True, None


def spike_bins(masses, factor=3.0, min_mass=0.01):
    """Indices of bins exceeding `factor` times their largest neighbor.

    Bins below `min_mass` never count: a spike must carry real mass, not
    just dominate an empty stretch of the spectrum.
    """
    m = np.asarray(masses, dtype=np.float64)
    out = []
    for i in range(m.shape[0]):
        if m[i] < min_mass:
            continue
        nbrs = []
        if i > 0:
            nbrs.append(m[i - 1])
        if i + 1 < m.shape[0]:
            nbrs.append(m[i + 1])
        if m[i] > factor * max(nbrs):
            out.append(i)
    return out


def is_unimodal(masses, rel_tol=0.05) -> bool:
    """True when masses rise to a single peak then fall, up to wiggles of
    rel_tol times the peak mass."""
    m = np.asarray(masses, dtype=np.float64)
    slack = rel_tol * float(m.max())
    peak = int(np.argmax(m))
    rising = m[: peak + 1]
    falling = m[peak:]
    ok_up = np.all(np.diff(rising) >= -slack)
    ok_down = np.all(np.diff(falling) <= slack)
    return bool(ok_up and ok_down)


def semicircle_bin_masses(edges, radius) -> np.ndarray:
    """Bin masses of the semicircle law of the given radius."""

    def cdf(x):
        x = np.clip(x / radius, -1.0, 1.0)
        return 0.5 + (x * np.sqrt(1.0 - x * x) + np.arcsin(x)) / np.pi

    e = np.asarray(edges, dtype=np.float64)
    return cdf(e[1:]) - cdf(e[:-1])


def read_histogram_csv(path) -> SpectralHistogram:
    edges = []
    masses = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "bin_lo,bin_hi,mass":
            raise FileFormatError(f"{path}: unexpected CSV header {header!r}")
        for lineno, line in enumerate(fh, 2):
            s = line.strip()
            if not s:
                continue
            try:
                lo, hi, m = (float(x) for x in s.split(","))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
            if not edges:
                edges.append(lo)
            edges.append(hi)
            masses.append(m)
    return SpectralHistogram(edges=np.array(edges), masses=np.array(masses),
                             normalization=float(np.sum(masses)))
