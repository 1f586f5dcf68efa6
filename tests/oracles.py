"""Validation oracles the tests compare netdos against: moments and
smoothed densities straight from eigenvalues, spectral metrics, shape
checks on histograms, a reference Lanczos and its Gauss rule, and a reader
for the CSV histograms the CLI writes.

None of these is on a command's path, so they live with the tests.
"""

import numpy as np

from netdos import FileFormatError, SpectralHistogram
from netdos.kpm import chebyshev_values


def oracle_moments(eigenvalues_scaled, m_max) -> np.ndarray:
    """d_m = mean_i T_m(lambda_i) straight from eigenvalues in [-1, 1]."""
    return chebyshev_values(m_max, eigenvalues_scaled).mean(axis=1)


def oracle_node_moments(eigenvalues_scaled, eigenvectors, m_max) -> np.ndarray:
    """c_mk = T_m(H)_kk = sum_i v_ki^2 T_m(lambda_i), shape (n, m_max + 1)."""
    return (eigenvectors ** 2) @ chebyshev_values(m_max, eigenvalues_scaled).T


def oracle_smoothed_density(eigenvalues, sigma, at) -> np.ndarray:
    """(K_sigma * mu)(lambda) for the exact point-mass spectrum."""
    at = np.atleast_1d(np.asarray(at, dtype=np.float64))
    diff = (at[:, None] - np.asarray(eigenvalues)[None, :]) / sigma
    kern = np.exp(-0.5 * diff * diff) / (sigma * np.sqrt(2.0 * np.pi))
    return kern.mean(axis=1)


def oracle_lanczos(a, z, steps):
    """(alphas, betas) of Lanczos on the dense symmetric matrix `a` from z.

    Each new vector is orthogonalized against every earlier one in turn
    (modified Gram-Schmidt), twice. Stops early when the residual vanishes
    relative to the largest coefficient so far.
    """
    basis = [z / np.linalg.norm(z)]
    alphas, betas = [], []
    for j in range(min(steps, z.shape[0])):
        w = a @ basis[j]
        alphas.append(float(basis[j] @ w))
        if j == steps - 1:
            break
        for _ in range(2):
            for q in basis:
                w = w - (q @ w) * q
        beta = float(np.linalg.norm(w))
        if beta <= 1e-12 * max(np.abs(alphas).max(), *betas, 1e-300):
            break
        betas.append(beta)
        basis.append(w / beta)
    return np.array(alphas), np.array(betas)


def oracle_gauss_rule(a, z, steps):
    """(nodes, weights) of the Gauss rule for z^T f(a) z / z^T z: the
    tridiagonal of `oracle_lanczos`, which runs two Gram-Schmidt passes on
    every step, eigensolved densely."""
    alphas, betas = oracle_lanczos(a, z, steps)
    t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    nodes, vecs = np.linalg.eigh(t)
    return nodes, vecs[0] ** 2


def oracle_probe_moments(h, z, m_max) -> np.ndarray:
    """sum_j z_j^T T_m(h) z_j for m = 0..m_max, by the plain three-term
    recurrence on the dense symmetric matrix `h`."""
    out = np.empty(m_max + 1)
    prev, cur = z, h @ z
    out[0] = np.sum(z * z)
    for m in range(1, m_max + 1):
        out[m] = np.sum(z * cur)
        prev, cur = cur, 2.0 * (h @ cur) - prev
    return out


def motif_eigenvectors(inst, h) -> list:
    """Per eigenvalue of an instance, in its order, orthonormal rows of
    length n spanning its eigenvectors, built from its classes alone. A
    twin's one class takes the Helmert rows (orthonormal, summing to zero)
    on its nodes. A hub's chains, classes (leaves, middles), take for each
    stated eigenvalue the Helmert rows on the leaves times the leaf and
    middle amplitudes of the eigenvector of the dense 2x2 restriction of the
    operator `h` to one path (leaf, middle) whose eigenvalue is nearest."""
    first = inst.classes[0]
    size = len(first)
    amp = np.zeros((size - 1, size))
    for k in range(1, size):
        amp[k - 1, :k] = 1.0
        amp[k - 1, k] = -float(k)
        amp[k - 1] /= np.sqrt(k * (k + 1.0))
    if len(inst.classes) == 1:
        out = np.zeros((size - 1, h.shape[0]))
        out[:, list(first)] = amp
        return [out]
    leaves, middles = inst.classes
    path = [leaves[0], middles[0]]
    lam, vec = np.linalg.eigh(h[np.ix_(path, path)])
    blocks = []
    for stated in inst.eigenvalues:
        leaf_amp, middle_amp = vec[:, np.argmin(np.abs(lam - stated))]
        out = np.zeros((size - 1, h.shape[0]))
        out[:, list(leaves)] = leaf_amp * amp
        out[:, list(middles)] = middle_amp * amp
        blocks.append(out)
    return blocks


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


def brute_force_bin(edges, point, tol):
    """The bin of `point` under the point-mass rule, one point at a time:
    moved onto the nearest edge when within `tol` of it, then the first
    half-open bin [e_b, e_b+1) that holds it, the last bin for the top edge,
    and None when no bin holds it."""
    gaps = [abs(point - e) for e in edges]
    nearest = gaps.index(min(gaps))
    if gaps[nearest] <= tol:
        point = edges[nearest]
    for b in range(len(edges) - 1):
        if edges[b] <= point < edges[b + 1]:
            return b
    return len(edges) - 2 if point == edges[-1] else None


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


def brute_force_motifs(g):
    """The motifs of `g` straight from their definitions, pair by pair:
    sorted (kind, nodes, multiplicity) triples, one per instance that
    `detect_motifs` reports (one per hub of dangling two-chains)."""
    rows = [dict(zip(g.neighbors(i).tolist(),
                     g.weights[g.neighbor_slice(i)].tolist())) for i in range(g.n)]
    loop_free = [i for i in range(g.n) if i not in rows[i]]

    def outside(i, j):
        return {k: w for k, w in rows[i].items() if k != j}

    def classes(related):
        label = {i: i for i in loop_free}
        for a in loop_free:
            for b in loop_free:
                if a < b and related(a, b) and label[a] != label[b]:
                    old = label[b]
                    label.update({k: label[a] for k, v in label.items() if v == old})
        members = {}
        for i in loop_free:
            members.setdefault(label[i], []).append(i)
        return [tuple(m) for m in members.values() if len(m) >= 2]

    out = [("open-twin", c, len(c) - 1)
           for c in classes(lambda a, b: rows[a] == rows[b])]
    out += [("closed-twin", c, len(c) - 1) for c in classes(
        lambda a, b: b in rows[a] and outside(a, b) == outside(b, a))]
    chains = {}  # hub -> nodes of its pendant paths leaf - middle - hub
    for leaf in range(g.n):
        if len(rows[leaf]) != 1:
            continue
        (mid, w), = rows[leaf].items()
        if w == 1.0 and len(rows[mid]) == 2 and set(rows[mid].values()) == {1.0}:
            hub, = set(rows[mid]) - {leaf}
            chains.setdefault(hub, []).append((leaf, mid))
    for paths in chains.values():
        if len(paths) >= 2:
            nodes = tuple(sorted(x for path in paths for x in path))
            out.append(("dangling-two-chain", nodes, len(paths) - 1))
    return sorted(out)
