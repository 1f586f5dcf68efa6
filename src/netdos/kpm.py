"""Chebyshev moment computation for global and per-node spectral densities.

Moments are taken against H from `operators.rescale_operator`, a CSR
operator whose arrays already hold (op - shift·I) / scale, so each step is
one kernel call. The global sequence is d_m = trace(T_m(H)) / N and the
per-node sequence is c_mk = T_m(H)_kk, both estimated through probe vectors
with the three-term recurrence T_{m+1} = 2 H T_m - T_{m-1} in one checked
loop. Only two recurrence blocks are kept, so memory is O(n * nz)
independent of the number of moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RecurrenceBlowupError
from .operators import ScaleMap
from .probes import ProbeMatrix

MODE_GLOBAL = "global"
MODE_PER_NODE = "per_node"


@dataclass
class ChebMoments:
    """Moment sequences plus the scale map needed to interpret them.

    values has shape (m_max + 1,) in global mode and (n, m_max + 1) in
    per-node mode.
    """

    mode: str
    values: np.ndarray
    scale_map: ScaleMap
    probe_meta: dict

    @property
    def m_max(self) -> int:
        return int(self.values.shape[-1] - 1)

    @property
    def global_values(self) -> np.ndarray:
        if self.mode == MODE_GLOBAL:
            return self.values
        return self.values.mean(axis=0)


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


def _recurrence(sop, probes: ProbeMatrix, m_max, subscripts):
    """Rows r_m = einsum(subscripts, z, T_m(H) z) for m = 0..m_max.

    Raises RecurrenceBlowupError when a row is not finite, which means the
    spectrum of H is not inside [-1, 1].
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if sop.n != probes.n:
        raise ValueError("probe dimension does not match operator")
    z = probes.columns
    # Copy: the rotation recycles this buffer, and z must stay intact.
    t_prev = np.array(z, dtype=np.float64, order="C", copy=True)
    first = np.einsum(subscripts, z, t_prev)
    rows = np.empty((m_max + 1,) + first.shape)
    rows[0] = first
    if m_max >= 1:
        t_cur = sop.apply(t_prev)
        rows[1] = np.einsum(subscripts, z, t_cur)
        scratch = np.empty_like(t_cur)
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(2, m_max + 1):
                t_next = sop.apply(t_cur, out=scratch)
                t_next *= 2.0
                t_next -= t_prev
                rows[m] = np.einsum(subscripts, z, t_next)
                t_prev, t_cur, scratch = t_cur, t_next, t_prev
    if not np.all(np.isfinite(rows)):
        raise RecurrenceBlowupError(
            "Chebyshev recurrence overflowed; re-estimate the spectral range "
            "with a larger margin")
    return rows


def dos_moments(sop, probes: ProbeMatrix, m_max: int,
                effective_dim=None) -> ChebMoments:
    """Global moments d_m = tr(T_m(H)) / N via stochastic trace estimation.

    With deflated probes pass effective_dim = N - r so the moments describe
    the density over the complement subspace.
    """
    contrib = _recurrence(sop, probes, m_max, "ij,ij->j")
    denom = float(effective_dim) if effective_dim is not None else float(sop.n)
    values = contrib.sum(axis=1) * (probes.trace_scale / denom)
    return ChebMoments(mode=MODE_GLOBAL, values=values,
                       scale_map=sop.scale_map, probe_meta=probes.meta())


def pdos_moments(sop, probes: ProbeMatrix, m_max: int,
                 normalized=True) -> ChebMoments:
    """Per-node moments c_mk ~= T_m(H)_kk via stochastic diagonal estimation.

    The normalized estimator divides by the per-entry probe mass sum_j z_kj^2
    (exact diagonal recovery for +-1 probes and for standard-basis probes at
    nz = n); normalized=False gives the raw 1/nz average.
    """
    num = _recurrence(sop, probes, m_max, "ij,ij->i")
    z = probes.columns
    if normalized:
        den = np.einsum("ij,ij->i", z, z)
        if np.any(den == 0.0):
            k = int(np.argmax(den == 0.0))
            raise ValueError(f"zero probe mass at node {k}; its moments are unrecoverable")
        values = (num / den).T
    else:
        values = (num * probes.trace_scale).T
    return ChebMoments(mode=MODE_PER_NODE, values=np.ascontiguousarray(values),
                       scale_map=sop.scale_map, probe_meta=probes.meta())
