"""Chebyshev moment computation for global and per-node spectral densities.

Moments are taken against H from `operators.rescale_operator`, a CSR
operator whose arrays already hold (op - shift·I) / scale, so each step is
one kernel call. The global sequence is d_m = trace(T_m(H)) / N and the
per-node sequence is c_mk = T_m(H)_kk, both estimated through probe vectors
with the three-term recurrence T_{m+1} = 2 H T_m - T_{m-1}.

`chebyshev_recurrence` is the one driver of that recurrence: it advances a
list of `ColumnBlock`s, here one block of probe columns and in
`nested_dissection` one block per tree node. Each step negates T_{m-1} in
place and accumulates (2·H) T_m into it with one kernel call, so only two
recurrence blocks are kept and memory is O(n * nz) independent of the
number of moments. The driver also certifies each moment as it is made:
while the spectrum of H lies in [-1, 1], |T_m| <= 1 bounds every moment by
its degree-0 value (z_j^T z_j per probe, 1 per exact diagonal entry), so a
moment past it means the range H was scaled by misses part of the
spectrum, and the run stops at that degree. The bound holds every
operator: an unscaled one whose spectrum leaves [-1, 1] is refused too.

Global moments use the doubling identity T_2m = 2 T_m^2 - T_0 and
T_2m+1 = 2 T_m+1 T_m - T_1: each step's block t_m = T_m(H) z yields two
moments, z^T T_2m z = 2 t_m^T t_m - z^T z and
z^T T_2m+1 z = 2 t_m+1^T t_m - z^T t_1, so M moments take M/2 matvecs.
Per-node moments keep the full recurrence, one moment per matvec: the
doubled diagonal (T_2m)_kk = 2 sum_l (T_m)_kl^2 - 1 needs the whole row k
of T_m, which a block of probes does not give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import RecurrenceBlowupError
from .motifs import FilterAdjustment
from .operators import ScaleMap
from .probes import ProbeMatrix

# The record's names for the two modes, which the rank of the values fixes
MODE_GLOBAL = "global"
MODE_PER_NODE = "per_node"


@dataclass
class ChebMoments:
    """Moment sequences plus the scale map needed to interpret them.

    values has shape (m_max + 1,) for a global series and (n, m_max + 1)
    for per-node rows. A global series of motif-deflated probes carries the
    deflation's `adjustment`; a per-node series carries none.
    """

    values: np.ndarray
    scale_map: ScaleMap
    probe_meta: dict
    adjustment: FilterAdjustment | None = None

    def __post_init__(self):
        if self.adjustment is not None and self.values.ndim != 1:
            raise ValueError("a deflation adjustment belongs to a global "
                             "moment series, not to per-node rows")

    @property
    def mode(self) -> str:
        return MODE_GLOBAL if self.values.ndim == 1 else MODE_PER_NODE

    @property
    def m_max(self) -> int:
        return int(self.values.shape[-1] - 1)


def jackson_coefficients(m_max: int) -> np.ndarray:
    """Damping factors J_0..J_M; J_0 = 1 and J_m decreases to ~0 at m = M."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    big_m = m_max + 1
    m = np.arange(big_m, dtype=np.float64)
    theta = np.pi * m / big_m
    out = ((big_m - m) * np.cos(theta) + np.sin(theta) / np.tan(np.pi / big_m)) / big_m
    out[0] = 1.0
    # the last factor is exactly 0 analytically; roundoff may dip below
    return np.maximum(out, 0.0)


def chebyshev_values(m_max: int, x) -> np.ndarray:
    """Matrix T[m, i] = T_m(x_i) by the scalar three-term recurrence."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty((m_max + 1, x.shape[0]))
    out[0] = 1.0
    if m_max >= 1:
        out[1] = x
    for m in range(2, m_max + 1):
        out[m] = 2.0 * x * out[m - 1] - out[m - 2]
    return out


def _moment_count(m_max):
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    return m_max + 1


# Roundoff allowance of the moment certificate |mu_m| <= bound·(1 + MOMENT_TOL).
# Rounding H's entries can move an eigenvalue at ±1 (the normalized
# adjacency's analytic ends) out by about 2·eps, which T_m amplifies by m^2:
# 1e-6 admits that up to about 4e4 moments, and an excess this small moves
# no moment by more than it.
MOMENT_TOL = 1e-6


@dataclass
class ColumnBlock:
    """Columns of T_m(H) advanced together: `twice_h` is (indptr, indices,
    data) of 2·H over the top `rows` rows; `cur` and `prev` hold T_m and
    T_{m-1} (T_0 and a spare to start). Before each step, every (source,
    pos, lo, hi) in `gathers` copies rows `pos` of an earlier block's T_m,
    in its `prev` once it has stepped, transposed into cur[lo:hi]."""

    twice_h: tuple
    cur: np.ndarray
    prev: np.ndarray
    rows: int
    gathers: list


def chebyshev_recurrence(blocks, steps, collect):
    """Step every block from T_0 to T_steps. collect(m) runs once all hold
    T_m and returns, in moment order, the moment rows that degree m
    completes. The first row that exceeds the absolute degree-0 row times
    1 + MOMENT_TOL, or holds NaN or inf, raises RecurrenceBlowupError
    before another step.

    T_1 = ½·(2·H)·T_0 is bit-equal to H·T_0 (doubling and halving are
    exact); T_m = 2·H·T_{m-1} - T_{m-2} overwrites T_{m-2}: negate it,
    then let the kernel accumulate (2·H)·T_{m-1} into it."""
    moment, bound = 0, None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for m in range(steps + 1):
            for b in blocks if m else ():
                for source, pos, lo, hi in b.gathers:
                    b.cur[lo:hi] = source.prev[pos].T
                top = b.prev[:b.rows]
                if m == 1:
                    _kernels.csr_matvec(*b.twice_h, b.cur, out=top)
                    top *= 0.5
                else:
                    np.negative(top, out=top)
                    _kernels.csr_matvec(*b.twice_h, b.cur, out=top,
                                        accumulate=True)
                b.prev, b.cur = b.cur, b.prev
            for row in collect(m):
                if bound is None:
                    bound = np.abs(row)
                    limit = bound * (1.0 + MOMENT_TOL)
                bad = ~(np.abs(row) <= limit)  # NaN compares False
                if bad.any():
                    ratio = np.max(np.abs(row[bad]) / bound[bad])
                    raise RecurrenceBlowupError(
                        "Chebyshev recurrence overflowed its bound at moment "
                        f"{moment}: |moment| / bound = {ratio:.3g}, above "
                        f"1 + {MOMENT_TOL:g}; the spectrum is not inside the "
                        "spectral range, so pass a wider --range")
                moment += 1


def _recurrence(sop, probes: ProbeMatrix, rows, steps, collect):
    """Fill `rows`, (m_max + 1, width), by collect from t_0 .. t_steps.

    The probe columns z are one block of every row, and
    collect(rows, z, m, t_{m-1}, t_m) runs once per m (t_{-1} is unset) and
    returns the per-probe moment rows that m completes.
    `rows` may be a view, such as the transpose of a result array.
    """
    z = probes.columns
    if sop.n != z.shape[0]:
        raise ValueError("probe dimension does not match operator")
    # Copy: the recurrence overwrites this buffer, and z must stay intact.
    t0 = np.array(z, dtype=np.float64, order="C", copy=True)
    block = ColumnBlock((sop.indptr, sop.indices, 2.0 * sop.data), t0,
                        np.empty_like(t0), sop.n, [])
    chebyshev_recurrence([block], steps, lambda m: collect(
        rows, z, m, block.prev, block.cur))


def _per_probe_doubled(rows, z, m, t_prev, t):
    """rows[m, j] = z_j^T T_m(H) z_j, two moments per step by doubling.

    T_2m = 2 T_m^2 - T_0 and T_2m+1 = 2 T_m+1 T_m - T_1 give
    mu_2m = 2 <t_m, t_m> - mu_0 and mu_2m+1 = 2 <t_m+1, t_m> - mu_1, so
    moments 0..M need t_0 .. t_ceil(M/2).
    """
    if m <= 1:
        rows[m] = np.einsum("ij,ij->j", z, t)
    else:
        rows[2 * m - 1] = 2.0 * np.einsum("ij,ij->j", t, t_prev) - rows[1]
    if 0 < 2 * m < rows.shape[0]:
        rows[2 * m] = 2.0 * np.einsum("ij,ij->j", t, t) - rows[0]
    return rows[max(2 * m - 1, 0):2 * m + 1]


def dos_moments(sop, probes: ProbeMatrix, m_max: int,
                adjustment: FilterAdjustment | None = None) -> ChebMoments:
    """Global moments d_m = tr(T_m(H)) / N via stochastic trace estimation.

    After `motifs.filter_probes`, pass the quotient operator, the quotient's
    probes and the adjustment it returned: N is then the quotient's order
    n - r, r the deflated dimension, so the moments describe the density
    over the complement of the removed eigenvectors, while the trace scale
    stays that of the n-row probes. The series carries the adjustment, from
    which `histogram_from_moments` re-inserts the removed spikes. Probes
    whose rows are not n - r raise ValueError. The doubling identity gives
    the M + 1 moments from ceil(M / 2) matvecs.
    """
    r = 0 if adjustment is None else adjustment.deflated_dim
    if probes.columns.shape[0] != probes.n - r:
        raise ValueError("deflated probes must come from filter_probes (n - r rows)")
    contrib = np.empty((_moment_count(m_max), probes.nz))
    _recurrence(sop, probes, contrib, (m_max + 1) // 2, _per_probe_doubled)
    values = contrib.sum(axis=1) * (probes.trace_scale / float(sop.n))
    return ChebMoments(values, sop.scale_map, probes.meta(), adjustment)


def pdos_moments(sop, probes: ProbeMatrix, m_max: int) -> ChebMoments:
    """Per-node moments c_mk ~= T_m(H)_kk via stochastic diagonal estimation.

    The estimator divides by the per-entry probe mass sum_j z_kj^2 (exact
    diagonal recovery for +-1 probes and for standard-basis probes at
    nz = n). A node with no probe mass, as standard-basis probes with
    nz < n leave, raises ValueError before the recurrence runs. The
    recurrence fills the transpose of the one (n, m_max + 1) result block,
    which is then divided in place.
    """
    z = probes.columns
    den = np.einsum("ij,ij->i", z, z)
    unprobed = np.count_nonzero(den == 0.0)
    if unprobed:
        raise ValueError(f"per-node moments need probe mass on every node, but "
                         f"{unprobed} of {probes.n} have zero probe mass: pass "
                         f"--probes {probes.n} (n), not {probes.nz}")
    values = np.empty((probes.n, _moment_count(m_max)))

    def per_node(rows, z, m, t_prev, t):
        # one moment per node; the per-probe sums are what the driver bounds
        rows[m] = np.einsum("ij,ij->i", z, t)
        return [np.einsum("ij,ij->j", z, t)]

    _recurrence(sop, probes, values.T, m_max, per_node)
    values /= den[:, None]
    return ChebMoments(values, sop.scale_map, probes.meta())
