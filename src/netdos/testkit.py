"""Desk-scale ground truth and model graphs: the dense spectrum and exact
histogram behind `netdos exact`, and the seeded random-graph generators
behind `netdos generate`.

Nothing here is meant for million-node graphs (the dense eigensolve is
capped). The eigensolve is the tests' independent reference; only the rule
that bins its eigenvalues, `density.point_masses`, is shared with the
estimators, so comparing their histograms measures the estimate, not two
conventions for a spike on an edge. The metrics that only validation needs
(Wasserstein-1 distance, Cauchy interlacing, spike and unimodality checks)
live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import point_masses
from .graph import GraphCSR, _csr_from_arrays

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


def oracle_histogram(eigenvalues, edges) -> np.ndarray:
    """Bin masses of the empirical spectral measure: weight 1/n on each of
    the n eigenvalues, placed by `density.point_masses`, so a spike at an
    exact value (0, +-1, ...) lands in one bin whatever its roundoff."""
    return point_masses(edges, eigenvalues, 1.0 / len(eigenvalues))[0]


def _pairs_from_linear(t, n):
    """Map linear indices over {(u, v): u < v} back to pairs.

    Row u starts at index u·(2n - u - 1)/2; each t falls in the last row
    that starts at or before it.
    """
    u = np.arange(n, dtype=np.int64)
    starts = u * (2 * n - u - 1) // 2
    u = np.searchsorted(starts, t, side="right") - 1
    return u, t - starts[u] + u + 1


def erdos_renyi(n, p, seed=0) -> GraphCSR:
    """G(n, p): a binomial edge count, then a uniform subset of node pairs."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    k = int(rng.binomial(total, p)) if total else 0
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
    return _csr_from_arrays(u, v, np.ones(k), n)


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
    return _csr_from_arrays(u, v, np.ones(u.shape[0]), n)


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
    return _csr_from_arrays(pairs[:, 0], pairs[:, 1], np.ones(pairs.shape[0]), n)


# Each model `generate_graph` and `netdos generate --model` accept: its
# generator and the parameters it needs beside n and seed ("ba" is a second
# name for preferential attachment).
MODELS = {"er": (erdos_renyi, ("p",)), "pa": (preferential_attachment, ("m",)),
          "ba": (preferential_attachment, ("m",)), "ws": (small_world, ("k", "p"))}


def generate_graph(model, seed=0, **params) -> GraphCSR:
    """Dispatch on model name through MODELS: er -> erdos_renyi(n, p), pa or
    ba -> preferential_attachment(n, m), ws -> small_world(n, k, p)."""
    fn, _ = MODELS.get(str(model).lower(), (None, ()))
    if fn is None:
        raise ValueError(f"unknown graph model {model!r}")
    return fn(seed=seed, **params)
