"""Gauss quadrature via Lanczos: per-probe tridiagonalization whose Ritz
values and first-row weights form a Gauss rule for z^T f(H) z.

Full reorthogonalization is always on: desk-scale step counts make the
O(n M^2) cost acceptable and it eliminates the ghost eigenvalues that would
otherwise corrupt spike estimates. A vanishing residual is treated as an
exhausted Krylov space (the truncated rule is then exact), not a failure.

The Krylov basis is stored row-major, one row q_j per step, so each q_j and
each leading block Q[:j+1] is contiguous and both classical Gram-Schmidt
passes, w -= (Q w) Q, run as two contiguous matrix-vector products. That
reorthogonalization, not the matvec, is most of the cost of a step.

Probes are run one after another, not in lockstep as one block. A lockstep
batch keeps a basis per probe alive at once, nz times the memory, and its
Gram-Schmidt work stays one matrix-vector product per probe, so it buys
nothing back: on an 8,000-node tree, 20 probes x 50 steps took 0.26-0.29 s
in lockstep against 0.22 s one probe at a time (2-CPU x86 host).

The k x k tridiagonal (k is the step count, at most a few hundred) is
eigensolved densely by ``numpy.linalg``, so Lanczos needs no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import BINS, SpectralHistogram
from .errors import SpectralRangeError
from .probes import ProbeMatrix

BREAKDOWN_RTOL = 1e-12


@dataclass
class LanczosFactorization:
    """Tridiagonal coefficients of H restricted to a Krylov space."""

    alphas: np.ndarray
    betas: np.ndarray
    z_norm: float
    basis: np.ndarray | None
    exhausted: bool

    @property
    def steps(self) -> int:
        return int(self.alphas.shape[0])

    def tridiagonal(self) -> np.ndarray:
        """The dense steps x steps tridiagonal matrix T."""
        return (np.diag(self.alphas) + np.diag(self.betas, 1)
                + np.diag(self.betas, -1))

    def ritz_values(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.tridiagonal())


def lanczos_factorize(op, z, steps, keep_basis=False) -> LanczosFactorization:
    """Run `steps` Lanczos iterations from z with full reorthogonalization."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z = np.asarray(z, dtype=np.float64)
    z_norm = float(np.linalg.norm(z))
    if z_norm == 0.0:
        raise ValueError("starting vector must be nonzero")

    n = z.shape[0]
    steps = min(steps, n)
    basis = np.empty((steps, n))  # row j is q_j
    basis[0] = z / z_norm
    w = np.empty(n)  # the one matvec buffer, reused every step
    alphas = np.empty(steps)
    betas = np.empty(max(steps - 1, 0))
    exhausted = False
    hnorm = 0.0
    k = 0
    for j in range(steps):
        q = basis[j]
        op.apply(q, out=w)
        alphas[j] = float(q @ w)
        if not np.isfinite(alphas[j]):
            raise SpectralRangeError("NaN in Lanczos coefficients", iterations=j + 1)
        hnorm = max(hnorm, abs(alphas[j]) + (betas[j - 1] if j > 0 else 0.0))
        k = j + 1
        if j == steps - 1:
            break
        # Two classical Gram-Schmidt passes against the whole basis.
        q_block = basis[: j + 1]
        for _ in range(2):
            w -= (q_block @ w) @ q_block
        beta = float(np.linalg.norm(w))
        if not np.isfinite(beta):
            raise SpectralRangeError("NaN in Lanczos residual", iterations=j + 1)
        if beta <= BREAKDOWN_RTOL * max(hnorm, 1e-300):
            exhausted = True
            break
        betas[j] = beta
        hnorm = max(hnorm, beta)
        np.divide(w, beta, out=basis[j + 1])

    return LanczosFactorization(alphas=alphas[:k].copy(), betas=betas[: k - 1].copy(),
                                z_norm=z_norm,
                                basis=basis[:k].T.copy() if keep_basis else None,
                                exhausted=exhausted)


@dataclass
class RitzQuadrature:
    """Gauss rule: z^T f(H) z ~= z_norm_sq * sum_i weights_i f(nodes_i)."""

    nodes: np.ndarray
    weights: np.ndarray
    z_norm_sq: float
    exhausted: bool = False


def lanczos_quadrature(op, z, steps) -> RitzQuadrature:
    """M-step Gauss rule for the spectral measure of H weighted by z.

    Exact for polynomials of degree <= 2M - 1; on breakdown the truncated
    rule is returned (exact, Krylov space exhausted).
    """
    fact = lanczos_factorize(op, z, steps)
    nodes, vecs = np.linalg.eigh(fact.tridiagonal())
    weights = vecs[0, :] ** 2
    return RitzQuadrature(nodes=nodes, weights=weights,
                          z_norm_sq=fact.z_norm ** 2, exhausted=fact.exhausted)


def gql_dos(op, probes: ProbeMatrix, steps, bins=BINS, *,
            spectral_range) -> SpectralHistogram:
    """Average per-probe Ritz point masses into a histogram of the density
    over `spectral_range`, (lo, hi), split into `bins` equal bins."""
    if op.n != probes.n:
        raise ValueError("probe dimension does not match operator")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    all_nodes = []
    all_weights = []
    for j in range(probes.nz):
        quad = lanczos_quadrature(op, probes.columns[:, j], steps)
        all_nodes.append(quad.nodes)
        all_weights.append(quad.weights / probes.nz)
    nodes = np.concatenate(all_nodes)
    weights = np.concatenate(all_weights)
    lo, hi = spectral_range
    edges = np.linspace(lo, hi, bins + 1)
    # A Ritz value within roundoff outside an edge (an eigenvalue sitting on
    # an analytic range edge) counts in that edge's bin; farther out, as for
    # a narrower user window, it is left out.
    snap = 1e-9 * (hi - lo)
    near = (nodes >= lo - snap) & (nodes <= hi + snap)
    nodes = np.where(near, np.clip(nodes, lo, hi), nodes)
    masses, _ = np.histogram(nodes, bins=edges, weights=weights)
    return SpectralHistogram(edges=edges, masses=masses,
                             normalization=float(weights.sum()))


def gql_pdos(op, node, steps) -> RitzQuadrature:
    """Quadrature for the per-node density (start vector e_node)."""
    if not 0 <= node < op.n:
        raise ValueError(f"node {node} out of range")
    z = np.zeros(op.n)
    z[node] = 1.0
    return lanczos_quadrature(op, z, steps)
