"""Random probe vectors for the stochastic trace and diagonal estimates.

Each random column is drawn from its own counter-based PRNG stream,
Philox keyed by (seed, column): column j of a Gaussian or Rademacher block
is stream (seed, j), the same as child j of `SeedSequence(seed).spawn`, so
it does not depend on nz or on the other columns. Hadamard probes draw
their row signs from stream (seed, nz) and multiply the first nz columns of
a Sylvester sign matrix, whose entry (i, j) = (-1)^popcount(i & j) repeats
down the rows with period s = 2^ceil(log2 nz).

The estimates themselves are the m = 1 moments of the probe recurrence in
`kpm`: for H with its spectrum in [-1, 1], such as `rescale_operator`
returns, the Hutchinson trace of H is n times
`dos_moments(H, probes, 1).values[1]`, and the diagonal estimate
(sum_j z_j * H z_j) / (sum_j z_j * z_j), taken elementwise, is
`pdos_moments(H, probes, 1).values[:, 1]`. The recurrence refuses an H
whose moments break that bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class ProbeKind(str, Enum):
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    HADAMARD = "hadamard"
    STANDARD_BASIS = "standard-basis"


@dataclass(frozen=True)
class ProbeMatrix:
    """nz probe columns plus the metadata that generated them.

    `n` is the order of the graph the probes were drawn for: the columns
    have n rows, or n - r once `motifs.filter_probes` has mapped them into
    the quotient left by r deflated dimensions.
    """

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
        (average over columns); standard-basis columns each give one
        diagonal entry, and n times their mean is the estimate (n/nz is
        exactly 1 at nz = n).
        """
        return self.n / self.nz if self.deterministic else 1.0 / self.nz

    def meta(self) -> dict:
        return {"kind": self.kind.value, "seed": self.seed, "nz": self.nz,
                "exact": bool(self.deterministic and self.nz == self.n)}


def _stream(seed, column):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(int(seed), spawn_key=(column,))))


def _signs(rng, n):
    return 1.0 - 2.0 * rng.integers(0, 2, size=n).astype(np.float64)


def _sylvester_columns(n, nz):
    """First nz columns of the 2^ceil(log2 n) Sylvester sign matrix, n rows.

    For j < s = 2^ceil(log2 nz), entry (i, j) depends on i mod s only, so
    the parity is taken for the first min(n, s) rows and repeated."""
    size = 1 << max(1, (int(n) - 1).bit_length())
    if nz > size:
        raise ValueError(f"hadamard probes support at most {size} columns for n={n}")
    i = np.arange(min(n, 1 << (int(nz) - 1).bit_length()), dtype=np.uint64)[:, None]
    parity = np.bitwise_count(i & np.arange(nz, dtype=np.uint64)) & np.uint64(1)
    return np.resize(1.0 - 2.0 * parity.astype(np.float64), (n, nz))


def make_probes(n, nz, kind, seed=0) -> ProbeMatrix:
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
        cols = _sylvester_columns(n, nz)
        cols *= _signs(_stream(seed, nz), n)[:, None]
    else:
        cols = np.empty((n, nz))
        for j in range(nz):
            rng = _stream(seed, j)
            cols[:, j] = (rng.standard_normal(n) if kind is ProbeKind.GAUSSIAN
                          else _signs(rng, n))
    return ProbeMatrix(n=n, nz=nz, kind=kind, seed=int(seed),
                       columns=np.ascontiguousarray(cols))
