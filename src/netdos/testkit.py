"""Desk-scale ground truth: dense spectra, exact histograms, spectral
metrics, and the random-graph generators used for model studies.

Everything here is an oracle or a data source for validation; nothing is
meant for million-node graphs (the dense eigensolve is capped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphCSR, _csr_from_canonical
from .kpm import chebyshev_values

DENSE_ORACLE_CAP = 5000


@dataclass
class ExactSpectrum:
    """Full eigendecomposition; eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None


def dense_matrix(op) -> np.ndarray:
    """Materialize an operator by applying it to the identity."""
    return np.asarray(op.apply(np.eye(op.n)))


def exact_spectrum(op, want_vectors=False, cap=DENSE_ORACLE_CAP) -> ExactSpectrum:
    """Dense symmetric eigensolve of the materialized operator."""
    if op.n > cap:
        raise ValueError(f"oracle capped at {cap} nodes (got {op.n}); "
                         "it exists for validation, not production")
    from scipy.linalg import eigh  # only the oracle needs scipy.linalg

    h = dense_matrix(op)
    if want_vectors:
        vals, vecs = eigh(h)
        return ExactSpectrum(eigenvalues=vals, eigenvectors=vecs)
    return ExactSpectrum(eigenvalues=eigh(h, eigvals_only=True))


def oracle_histogram(eigenvalues, edges, snap=1e-9) -> np.ndarray:
    """Bin masses of the empirical spectral measure (total mass 1).

    Eigenvalues within `snap` of a bin edge are moved onto it, so spikes at
    exact values (0, +-1, ...) land deterministically instead of splitting
    across two bins on eigensolver roundoff.
    """
    ev = np.asarray(eigenvalues, dtype=np.float64).copy()
    edges = np.asarray(edges, dtype=np.float64)
    if snap:
        pos = np.searchsorted(edges, ev)
        for cand in (np.clip(pos - 1, 0, len(edges) - 1),
                     np.clip(pos, 0, len(edges) - 1)):
            near = np.abs(ev - edges[cand]) <= snap
            ev[near] = edges[cand[near]]
    masses, _ = np.histogram(ev, bins=edges)
    return masses / float(len(ev))


def oracle_moments(eigenvalues_scaled, m_max) -> np.ndarray:
    """d_m = mean_i T_m(lambda_i) straight from eigenvalues in [-1, 1]."""
    return chebyshev_values(m_max, eigenvalues_scaled).mean(axis=1)


def oracle_node_moments(spectrum: ExactSpectrum, scale_map, m_max) -> np.ndarray:
    """c_mk = sum_i q_i(k)^2 T_m(lambda_i), shape (n, m_max + 1)."""
    if spectrum.eigenvectors is None:
        raise ValueError("need eigenvectors; call exact_spectrum(want_vectors=True)")
    t = chebyshev_values(m_max, scale_map.to_scaled(spectrum.eigenvalues))
    return (spectrum.eigenvectors ** 2) @ t.T


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


def _pairs_from_linear(t, n):
    """Map linear indices over {(u, v): u < v} back to pairs."""
    t = t.astype(np.float64)
    u = np.floor((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * t)) / 2).astype(np.int64)
    base = u * (2 * n - u - 1) // 2
    too_big = base > t.astype(np.int64)
    while np.any(too_big):  # float sqrt can land one row off
        u[too_big] -= 1
        base = u * (2 * n - u - 1) // 2
        too_big = base > t.astype(np.int64)
    nxt = (u + 1) * (2 * n - u - 2) // 2
    too_small = nxt <= t.astype(np.int64)
    while np.any(too_small):
        u[too_small] += 1
        nxt = (u + 1) * (2 * n - u - 2) // 2
        too_small = nxt <= t.astype(np.int64)
    base = u * (2 * n - u - 1) // 2
    v = t.astype(np.int64) - base + u + 1
    return u, v


def erdos_renyi(n, p, seed=0) -> GraphCSR:
    """G(n, p): a binomial edge count, then a uniform subset of node pairs."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    k = int(rng.binomial(total, p)) if total else 0
    if k == 0:
        return _csr_from_canonical(n, np.zeros(0, dtype=np.int64),
                                   np.zeros(0, dtype=np.int64), np.zeros(0), False)
    # First k distinct values of an i.i.d. uniform stream form a uniform
    # k-subset of the pair indices.
    seen = set()
    while len(seen) < k:
        need = k - len(seen)
        for t in rng.integers(0, total, size=need + max(16, need // 8)).tolist():
            if len(seen) == k:
                break
            seen.add(t)
    chosen = np.fromiter(seen, dtype=np.int64, count=k)
    u, v = _pairs_from_linear(np.sort(chosen), n)
    return _csr_from_canonical(n, u, v, np.ones(k), False)


def preferential_attachment(n, m, seed=0) -> GraphCSR:
    """Growth model: complete seed on m + 1 nodes, then one node and m
    degree-proportional edges per step (distinct targets)."""
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    us, vs = [], []
    endpoints = []
    for a in range(m + 1):
        for b in range(a + 1, m + 1):
            us.append(a)
            vs.append(b)
            endpoints.extend((a, b))
    for v in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(endpoints[rng.integers(0, len(endpoints))])
        for t in sorted(targets):
            us.append(t)
            vs.append(v)
            endpoints.extend((t, v))
    u = np.array(us, dtype=np.int64)
    v = np.array(vs, dtype=np.int64)
    return _csr_from_canonical(n, u, v, np.ones(u.shape[0]), False)


def small_world(n, k, p, seed=0) -> GraphCSR:
    """Ring lattice with k neighbors per node, each edge rewired with
    probability p (edge count n * k / 2 is preserved).

    A rewired edge is replaced by a uniformly random absent pair. Freeing
    both endpoints lets sparse graphs shed isolated nodes and small
    components, which is what puts the characteristic spikes at 0 and +-1
    into the sparse regime's spectrum.
    """
    if k < 2 or k % 2 or k >= n:
        raise ValueError(f"need even 2 <= k < n, got k={k}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    present = set()
    for lane in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + lane) % n
            present.add((min(i, j), max(i, j)))
    for lane in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + lane) % n
            edge = (min(i, j), max(i, j))
            if edge not in present or rng.random() >= p:
                continue
            for _ in range(4 * n):
                a = int(rng.integers(0, n))
                b = int(rng.integers(0, n))
                cand = (min(a, b), max(a, b))
                if a != b and cand not in present:
                    present.discard(edge)
                    present.add(cand)
                    break
    pairs = np.array(sorted(present), dtype=np.int64)
    return _csr_from_canonical(n, pairs[:, 0], pairs[:, 1],
                               np.ones(pairs.shape[0]), False)


_MODEL_ALIASES = {
    "er": "erdos_renyi", "erdos_renyi": "erdos_renyi", "erdos-renyi": "erdos_renyi",
    "pa": "preferential_attachment", "ba": "preferential_attachment",
    "preferential_attachment": "preferential_attachment",
    "ws": "small_world", "sw": "small_world", "small_world": "small_world",
}


def generate_graph(model, seed=0, **params) -> GraphCSR:
    """Dispatch on model name: erdos_renyi(n, p), preferential_attachment(n, m),
    small_world(n, k, p)."""
    name = _MODEL_ALIASES.get(str(model).lower())
    if name is None:
        raise ValueError(f"unknown graph model {model!r}")
    fn = {"erdos_renyi": erdos_renyi,
          "preferential_attachment": preferential_attachment,
          "small_world": small_world}[name]
    return fn(seed=seed, **params)
