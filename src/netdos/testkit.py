"""Desk-scale ground truth and model graphs: the dense spectrum and exact
histogram behind `netdos exact`, and the seeded random-graph generators
behind `netdos generate`.

Nothing here is meant for million-node graphs (the dense eigensolve is
capped). The metrics that only validation needs (Wasserstein-1 distance,
Cauchy interlacing, spike and unimodality checks) live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphCSR, _csr_from_canonical

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
