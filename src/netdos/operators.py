"""Symmetric graph operators and their affine rescaling onto [-1, 1].

Four matrix families are supported: the adjacency A, the combinatorial
Laplacian L = D - A, the degree-normalized adjacency D^{-1/2} A D^{-1/2},
and the normalized Laplacian I - D^{-1/2} A D^{-1/2}. Each is materialized
as explicit CSR arrays so a single sparse kernel serves every family, and
block extraction (needed by the nested-dissection recurrence) is cheap.

The Chebyshev recurrences need H = (op - shift·I) / scale, with spectrum in
[-1, 1]. `rescale_operator` folds that map into the CSR arrays once, so KPM,
nested dissection, probes and Lanczos all see the same operator type, and a
matvec costs the same with or without a shift.

Isolated nodes under the normalized kinds use the convention D^{-1/2} = 0:
the node contributes eigenvalue 0 to the normalized adjacency and
eigenvalue 1 (the identity term) to the normalized Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .errors import SpectralRangeError
from .graph import GraphCSR


class OperatorKind(str, Enum):
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    NORMALIZED_ADJACENCY = "normalized-adjacency"
    NORMALIZED_LAPLACIAN = "normalized-laplacian"


@dataclass(frozen=True)
class ScaleMap:
    """The affine map lam -> (lam - shift) / scale and its inverse."""

    shift: float
    scale: float

    def to_scaled(self, lam):
        return (np.asarray(lam, dtype=np.float64) - self.shift) / self.scale

    def from_scaled(self, x):
        return self.shift + self.scale * np.asarray(x, dtype=np.float64)


IDENTITY_MAP = ScaleMap(0.0, 1.0)

# Defaults of the spectral-range estimate: Lanczos steps, and the widening of
# the Ritz interval as a fraction of its spread.
RANGE_STEPS = 100
RANGE_MARGIN = 0.01


class SymmetricCSROperator:
    """Explicit symmetric sparse matrix with an O(|E|) matvec.

    `scale_map` takes the graph operator's eigenvalues to this matrix's, and
    `spectral_range` is the (lo, hi) it was built from (None when unscaled).
    """

    def __init__(self, n, indptr, indices, data, kind, scale_map=IDENTITY_MAP,
                 spectral_range=None):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.kind = kind
        self.scale_map = scale_map
        self.spectral_range = spectral_range

    def apply(self, x, out=None):
        return _kernels.csr_matvec(self.indptr, self.indices, self.data, x,
                                   out=out)


def _assemble(n, rows, cols, vals, kind, scale_map=IDENTITY_MAP,
              spectral_range=None):
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        key = rows * np.int64(n) + cols
        uniq, first = np.unique(key, return_index=True)
        vals = np.add.reduceat(vals, first)
        rows, cols = (uniq // n).astype(np.int64), (uniq % n).astype(np.int64)
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return SymmetricCSROperator(n, indptr, np.ascontiguousarray(cols),
                                np.ascontiguousarray(vals), kind, scale_map,
                                spectral_range)


def build_operator(g: GraphCSR, kind: OperatorKind) -> SymmetricCSROperator:
    """Materialize the requested operator for g as explicit CSR arrays."""
    kind = OperatorKind(kind)
    n = g.n
    counts = np.diff(g.row_ptr)
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    cols = g.col_idx
    w = g.weights
    deg = g.degrees()
    loops = rows == cols

    if kind is OperatorKind.ADJACENCY:
        return _assemble(n, rows.copy(), cols.copy(), w.copy(), kind)

    if kind is OperatorKind.LAPLACIAN:
        # Off-diagonal -a_ij plus diagonal d_i (loop weight folds into both).
        diag = deg.copy()
        diag -= np.bincount(rows[loops], weights=w[loops], minlength=n)
        r = np.concatenate([rows[~loops], np.arange(n, dtype=np.int64)])
        c = np.concatenate([cols[~loops], np.arange(n, dtype=np.int64)])
        v = np.concatenate([-w[~loops], diag])
        return _assemble(n, r, c, v, kind)

    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    norm_w = w * dinv[rows] * dinv[cols]

    if kind is OperatorKind.NORMALIZED_ADJACENCY:
        return _assemble(n, rows.copy(), cols.copy(), norm_w, kind)

    # Normalized Laplacian: diagonal 1 - normalized loop weight, rest negated.
    diag = np.ones(n)
    diag -= np.bincount(rows[loops], weights=norm_w[loops], minlength=n)
    r = np.concatenate([rows[~loops], np.arange(n, dtype=np.int64)])
    c = np.concatenate([cols[~loops], np.arange(n, dtype=np.int64)])
    v = np.concatenate([-norm_w[~loops], diag])
    return _assemble(n, r, c, v, kind)


def rescale_operator(op: SymmetricCSROperator,
                     spectral_range) -> SymmetricCSROperator:
    """CSR arrays of (op - shift·I) / scale, mapping [lo, hi] onto [-1, 1].

    Every value is divided by scale and -shift/scale is added to the stored
    diagonal; a row with no stored diagonal gets one, inserted in column
    order. Entries that come out exactly 0.0 are dropped. The rows of `op`
    must hold each column at most once, as `build_operator` gives them; no
    entry is re-sorted.
    """
    lmin, lmax = float(spectral_range[0]), float(spectral_range[1])
    if not lmin < lmax:
        raise ValueError(f"degenerate spectral range ({lmin}, {lmax})")
    shift = 0.5 * (lmax + lmin)
    scale = 0.5 * (lmax - lmin)
    n = op.n
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(op.indptr))
    cols, vals = op.indices, op.data / scale
    if shift != 0.0:
        diag = cols == rows
        vals[diag] += -shift / scale
        missing = np.bincount(rows[diag], minlength=n) == 0
        # a new diagonal goes after the row's entries left of the diagonal
        at = op.indptr[:-1] + np.bincount(rows[cols < rows], minlength=n)
        new = np.flatnonzero(missing)
        rows = np.insert(rows, at[new], new)
        cols = np.insert(cols, at[new], new)
        vals = np.insert(vals, at[new], -shift / scale)
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return SymmetricCSROperator(n, indptr, cols, vals, op.kind,
                                ScaleMap(shift, scale), (lmin, lmax))


def estimate_spectral_range(op, probe_seed=0, steps=RANGE_STEPS,
                            margin=RANGE_MARGIN):
    """Estimate (lambda_min, lambda_max) by Lanczos extremal Ritz values.

    The Ritz interval is inflated symmetrically by `margin` times the Ritz
    spread so the Chebyshev recurrence sees a spectrum strictly inside
    [-1, 1]. The normalized adjacency returns its analytic bounds (-1, 1)
    without iteration.
    """
    if op.kind is OperatorKind.NORMALIZED_ADJACENCY:
        return (-1.0, 1.0)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    from .lanczos import lanczos_factorize  # local import: avoids a cycle

    n = op.n
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(probe_seed), 0x52414E47])))
    z = rng.standard_normal(n)
    fact = lanczos_factorize(op, z, min(steps, n))
    if not (np.all(np.isfinite(fact.alphas)) and np.all(np.isfinite(fact.betas))):
        raise SpectralRangeError("NaN breakdown during range estimation",
                                 iterations=len(fact.alphas))
    ritz = fact.ritz_values()
    lo, hi = float(ritz[0]), float(ritz[-1])
    spread = hi - lo
    pad = margin * (spread if spread > 0 else max(1.0, abs(hi)))
    return (lo - pad, hi + pad)
