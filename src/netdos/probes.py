"""Random probe vectors for the stochastic trace and diagonal estimates.

Probe columns are generated from per-column counter-based PRNG streams
(Philox keyed by (seed, column)), so column j is reproducible independently
of the other columns and generation order.

The estimates themselves are the m = 1 moments of the probe recurrence in
`kpm`: the Hutchinson trace of H is n times
`dos_moments(H, probes, 1).values[1]`, and the diagonal estimate
(sum_j z_j * H z_j) / (sum_j z_j * z_j), taken elementwise, is
`pdos_moments(H, probes, 1).values[:, 1]`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np


class ProbeKind(str, Enum):
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    HADAMARD = "hadamard"
    STANDARD_BASIS = "standard-basis"


@dataclass(frozen=True)
class ProbeMatrix:
    """n x nz block of probe columns plus the metadata that generated it."""

    n: int
    nz: int
    kind: ProbeKind
    seed: int
    columns: np.ndarray

    @property
    def deterministic(self) -> bool:
        return self.kind is ProbeKind.STANDARD_BASIS

    @property
    def trace_scale(self) -> float:
        """Multiplier turning sum_j z_j^T H z_j into a trace estimate.

        Mean-zero unit-variance probes estimate the full trace per column
        (average over columns); standard-basis columns each contribute one
        diagonal entry (plain sum, exact at nz = n).
        """
        return 1.0 if self.deterministic else 1.0 / self.nz

    def meta(self) -> dict:
        return {"kind": self.kind.value, "seed": self.seed, "nz": self.nz,
                "exact": bool(self.deterministic and self.nz == self.n)}


def _column_streams(seed, count):
    return [np.random.Generator(np.random.Philox(ss))
            for ss in np.random.SeedSequence(int(seed)).spawn(count)]


def _sylvester_columns(n, nz):
    """First nz columns of the 2^ceil(log2 n) Sylvester sign matrix, n rows."""
    size = 1 << max(1, int(np.ceil(np.log2(max(n, 2)))))
    if nz > size:
        raise ValueError(f"hadamard probes support at most {size} columns for n={n}")
    i = np.arange(n, dtype=np.uint64)[:, None]
    j = np.arange(nz, dtype=np.uint64)[None, :]
    parity = np.bitwise_count(i & j) & np.uint64(1)
    return 1.0 - 2.0 * parity.astype(np.float64)


def make_probes(n, nz, kind=ProbeKind.RADEMACHER, seed=0) -> ProbeMatrix:
    """Deterministic function of (n, nz, kind, seed)."""
    kind = ProbeKind(kind)
    if nz < 1:
        raise ValueError("nz must be >= 1")
    if kind is ProbeKind.STANDARD_BASIS:
        if nz > n:
            raise ValueError(f"standard-basis probes need nz <= n (got {nz} > {n})")
        cols = np.zeros((n, nz))
        cols[np.arange(nz), np.arange(nz)] = 1.0
    elif kind is ProbeKind.HADAMARD:
        streams = _column_streams(seed, nz + 1)
        flips = 1.0 - 2.0 * streams[nz].integers(0, 2, size=n).astype(np.float64)
        cols = flips[:, None] * _sylvester_columns(n, nz)
    else:
        streams = _column_streams(seed, nz)
        cols = np.empty((n, nz))
        for j, rng in enumerate(streams):
            if kind is ProbeKind.GAUSSIAN:
                cols[:, j] = rng.standard_normal(n)
            else:
                cols[:, j] = 1.0 - 2.0 * rng.integers(0, 2, size=n).astype(np.float64)
    return ProbeMatrix(n=n, nz=nz, kind=kind, seed=int(seed),
                       columns=np.ascontiguousarray(cols))


def with_columns(probes: ProbeMatrix, columns: np.ndarray) -> ProbeMatrix:
    """Copy of `probes` carrying replacement columns (e.g. after deflation)."""
    return replace(probes, columns=np.ascontiguousarray(columns))
