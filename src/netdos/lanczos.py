"""Lanczos tridiagonalization and the Gauss rule read from it.

`_lanczos` reduces an operator to the tridiagonal T of its Krylov space from
a start vector z. The eigenvalues and first-row weights of T form a Gauss
rule for z^T f(H) z (`lanczos_quadrature`, behind GQL). The spectral range
that KPM scales by is not read from here: `operators.estimate_spectral_range`
takes a guaranteed bound instead of a Ritz interval.

GQL runs on the operator KPM runs on, H = (op - shift) / scale from
`rescale_operator`, and bins its Ritz values through H's scale map, by the
one call `density.histogram_from_moments` bins a series with. The Gauss
rule is affine-equivariant (Ubaru, Chen & Saad, SIMAX 38(4), 2017): H's
Ritz values are op's mapped by the scale map, and its weights are op's. A
one-node rule (`gql_pdos`) needs no range, so it runs on op unscaled.

The Gauss rule keeps its basis semi-orthogonal, every |q_i^T q_k| below
sqrt(eps), by partial reorthogonalization (Simon, "The Lanczos algorithm
with partial reorthogonalization", Math. Comp. 42, 1984). Semi-orthogonality
is enough for T to be the projection of H onto an orthonormal basis of the
Krylov space to working precision, so its Ritz values hold no ghost
eigenvalues, which would otherwise corrupt spike estimates. Each step removes
the three-term recurrence first (beta_{j-1} q_{j-1}, then alpha_j q_j), then
updates estimates omega_{j+1,k} of q_{j+1}^T q_k from alpha and beta alone,
in O(j) scalar work: Simon's recurrence plus a rounding term of
0.3 eps (beta_k + beta_j), and omega_{j+1,j} = eps n ||H|| / beta_j. Only when
one estimate exceeds sqrt(eps) does it make one classical Gram-Schmidt pass
against the whole basis, and the same pass on the next step, whose vector
inherits the loss through the recurrence; both estimates are then reset to
eps. A second pass follows only when the first shrank the residual below
1/sqrt(2) of its norm (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30,
1976). On the benchmark's 8,000-node tree under the scaled Laplacian, 20
probes x 50 steps made passes on 240 of the 980 steps that can make one
(200-240 over seeds 1-3), and on a 20,000-node preferential-attachment
graph 160 (Laplacian) and 80 (normalized adjacency) at 50 steps, 681 and
240 of 2,980 at 150. A vanishing residual makes omega_{j+1,j} exceed
sqrt(eps), so the breakdown test only ever judges a reorthogonalized
residual; it is then treated as an exhausted Krylov space (the truncated
rule is exact), not a failure.

The Krylov basis is stored row-major, one row q_j per step, so each q_j and
each leading block Q[:j+1] is contiguous and a Gram-Schmidt pass,
w -= (Q w) Q, runs as two contiguous matrix-vector products. No sum here
follows the BLAS thread count, so a Gauss rule is the same to the bit at
any count: dots and norms are numpy's pairwise sums and Q w is an einsum,
each in an order fixed by the lengths, and (Q w) Q, the one BLAS product
left, gives each entry of w to one thread. On the 8,000-node tree, 20
probes x 50 steps took 0.126 s against 0.114 s with BLAS dots, norms and
Q w (best of 15, one BLAS thread, 2-CPU x86 host).

Probes are run one after another, not in lockstep as one block. A lockstep
batch keeps a basis per probe alive at once, nz times the memory, and its
Gram-Schmidt work stays one matrix-vector product per probe, so it buys
nothing back: on an 8,000-node tree, 20 probes x 50 steps took 0.26-0.29 s
in lockstep against 0.22 s one probe at a time (2-CPU x86 host).

The k x k tridiagonal (k is the step count, at most a few hundred) is
eigensolved densely by ``numpy.linalg.eigh``, so Lanczos needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import BINS, SpectralHistogram, point_masses, unit_bins
from .errors import SpectralRangeError
from .probes import ProbeMatrix

BREAKDOWN_RTOL = 1e-12

# A second Gram-Schmidt pass runs when the first left less than this share
# of the residual's norm (the DGKS test).
REORTH_ETA = 1.0 / np.sqrt(2.0)

# Partial reorthogonalization (Simon 1984): the estimates of q_{j+1}^T q_k
# carry a rounding term of PRO_ROUND * EPS * (beta_k + beta_j) per step, and
# a Gram-Schmidt pass runs when one of them exceeds PRO_DELTA = sqrt(EPS).
EPS = float(np.finfo(np.float64).eps)
PRO_DELTA = float(np.sqrt(EPS))
PRO_ROUND = 0.3


def _dot(x, y):
    """x^T y by numpy's pairwise sum, whose order is fixed by the length
    alone; BLAS's dot may split the sum by thread."""
    return float(np.add.reduce(x * y))


def _project_out(q_block, w):
    """One classical Gram-Schmidt pass: w -= (Q w) Q over the rows Q of
    q_block. Q w is summed in a fixed order by einsum, not BLAS; (Q w) Q
    gives each entry of w to one BLAS thread, so its order is fixed already."""
    w -= np.einsum("ji,i->j", q_block, w) @ q_block


def _lanczos(op, z, steps):
    """Run `steps` Lanczos iterations from z, keeping the basis semi-orthogonal.

    Returns the k x k tridiagonal T (k <= steps; fewer when the Krylov space
    is exhausted first), ||z|| and whether it was exhausted.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z = np.asarray(z, dtype=np.float64)
    z_norm = math.sqrt(_dot(z, z))
    if z_norm == 0.0:
        raise ValueError("starting vector must be nonzero")

    n = z.shape[0]
    steps = min(steps, n)
    basis = np.empty((steps, n))  # row j is q_j
    basis[0] = z / z_norm
    w = np.empty(n)  # the one matvec buffer, reused every step
    alphas = np.empty(steps)
    betas = np.empty(max(steps - 1, 0))
    # omega[k] estimates q_j^T q_k and omega_prev[k] estimates q_{j-1}^T q_k
    omega, omega_prev = np.zeros(steps + 1), np.zeros(steps + 1)
    omega[0] = 1.0
    force = False  # the step after a triggered pass makes one too
    exhausted = False
    hnorm = 0.0
    k = 0
    for j in range(steps):
        q = basis[j]
        op.apply(q, out=w)
        alphas[j] = _dot(q, w)
        if not np.isfinite(alphas[j]):
            raise SpectralRangeError("NaN in Lanczos coefficients", iterations=j + 1)
        hnorm = max(hnorm, abs(alphas[j]) + (betas[j - 1] if j > 0 else 0.0))
        k = j + 1
        if j == steps - 1:
            break
        # The local recurrence, then the estimates of q_{j+1}^T q_k from the
        # coefficients alone; a Gram-Schmidt pass runs only when one exceeds
        # PRO_DELTA, or on the step after such a pass.
        if j > 0:
            w -= betas[j - 1] * basis[j - 1]
        w -= alphas[j] * q
        beta = math.sqrt(_dot(w, w))
        if not np.isfinite(beta):
            raise SpectralRangeError("NaN in Lanczos residual", iterations=j + 1)
        floor = max(hnorm, 1e-300)
        # psi, the estimate against q_j: it exceeds PRO_DELTA whenever beta
        # is at the breakdown test's tolerance, so that test below only ever
        # judges a reorthogonalized residual
        reorth = force or PRO_DELTA * beta <= EPS * n * floor
        new = omega_prev
        if not reorth:
            new[j] = EPS * n * floor / beta
            if j > 0:
                _omega_step(new, omega, alphas, betas, j, beta)
            reorth = np.abs(new[: j + 1]).max() > PRO_DELTA
        if reorth:
            # one pass against the whole basis, and a second only if the
            # first shrank w below REORTH_ETA of its norm
            before = beta
            q_block = basis[: j + 1]
            _project_out(q_block, w)
            beta = math.sqrt(_dot(w, w))
            if beta < REORTH_ETA * before:
                _project_out(q_block, w)
                beta = math.sqrt(_dot(w, w))
            new[: j + 1] = EPS
            force = not force
        if beta <= BREAKDOWN_RTOL * floor:
            exhausted = True
            break
        new[j + 1] = 1.0
        omega_prev, omega = omega, new
        betas[j] = beta
        hnorm = max(hnorm, beta)
        np.divide(w, beta, out=basis[j + 1])

    alphas, betas = alphas[:k], betas[: k - 1]
    t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    return t, z_norm, exhausted


def _omega_step(new, omega, alphas, betas, j, beta):
    """Simon's recurrence: new[k] ~ q_{j+1}^T q_k for k < j, given
    omega[k] ~ q_j^T q_k and new[k] ~ q_{j-1}^T q_k on entry (j >= 1) and
    beta = beta_j, the norm of q_{j+1}'s residual.

    beta_j omega_{j+1,k} = beta_k omega_{j,k+1} + (alpha_k - alpha_j) omega_{j,k}
                           + beta_{k-1} omega_{j,k-1} - beta_{j-1} omega_{j-1,k},
    plus the rounding term PRO_ROUND * EPS * (beta_k + beta_j) with the sign
    of the sum.
    """
    b = betas[:j]
    t = b * omega[1 : j + 1] + (alphas[:j] - alphas[j]) * omega[:j]
    t -= betas[j - 1] * new[:j]
    t[1:] += b[:-1] * omega[: j - 1]
    t += np.copysign(PRO_ROUND * EPS * (b + beta), t)
    np.divide(t, beta, out=new[:j])


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
    t, z_norm, exhausted = _lanczos(op, z, steps)
    nodes, vecs = np.linalg.eigh(t)
    weights = vecs[0, :] ** 2
    return RitzQuadrature(nodes=nodes, weights=weights,
                          z_norm_sq=z_norm ** 2, exhausted=exhausted)


def gql_dos(op, probes: ProbeMatrix, steps, bins=BINS) -> SpectralHistogram:
    """Average per-probe Ritz point masses of a scaled operator H into a
    histogram of the density, in the `bins` bins of `density.unit_bins`
    under H's scale map, as `histogram_from_moments` bins a KPM series.

    The Gauss rule is affine-equivariant, so H's Ritz values are the graph
    operator's mapped onto [-1, 1], and are placed against the scaled edges
    by `density.point_masses`; those outside, as for a window narrower than
    the spectrum, are left out, and the normalization is the weight of those
    kept. An operator that `rescale_operator` never scaled, or a scale map
    too narrow for its bins, raises ValueError before any Lanczos step."""
    if op.spectral_range is None:
        raise ValueError("gql_dos needs an operator scaled by rescale_operator")
    if op.n != probes.n:
        raise ValueError("probe dimension does not match operator")
    scaled, edges = unit_bins(op.scale_map, bins)
    quads = [lanczos_quadrature(op, z, steps) for z in probes.columns.T]
    nodes = np.concatenate([quad.nodes for quad in quads])
    weights = np.concatenate([quad.weights for quad in quads]) / probes.nz
    masses, outside = point_masses(scaled, nodes, weights)
    return SpectralHistogram(edges=edges, masses=masses,
                             normalization=float(weights[~outside].sum()))


def gql_pdos(op, node, steps) -> RitzQuadrature:
    """Quadrature for the per-node density (start vector e_node)."""
    if not 0 <= node < op.n:
        raise ValueError(f"node {node} out of range")
    z = np.zeros(op.n)
    z[node] = 1.0
    return lanczos_quadrature(op, z, steps)
