"""Symmetric graph operators and affine rescaling onto [-1, 1].

Four matrix families are supported: the adjacency A, the combinatorial
Laplacian L = D - A, the degree-normalized adjacency D^{-1/2} A D^{-1/2},
and the normalized Laplacian I - D^{-1/2} A D^{-1/2}. Each is materialized
as explicit CSR arrays so a single sparse kernel serves every family, and
block extraction (needed by the nested-dissection recurrence) is cheap.

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


class SymmetricCSROperator:
    """Explicit symmetric sparse matrix with an O(|E|) matvec."""

    def __init__(self, n, indptr, indices, data, kind):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.kind = kind

    def apply(self, x, out=None):
        return _kernels.csr_matvec(self.indptr, self.indices, self.data, x,
                                   out=out)

    def csr_arrays(self):
        return self.indptr, self.indices, self.data


def _assemble(n, rows, cols, vals, kind):
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
                                np.ascontiguousarray(vals), kind)


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


@dataclass
class ScaledOperator:
    """Action of (H - shift) / scale with spectrum mapped into [-1, 1]."""

    base: SymmetricCSROperator
    shift: float
    scale: float
    lambda_min: float
    lambda_max: float

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def scale_map(self) -> ScaleMap:
        return ScaleMap(self.shift, self.scale)

    def apply(self, x, out=None):
        y = self.base.apply(x, out=out)
        if self.shift != 0.0:
            y -= self.shift * x
        if self.scale != 1.0:
            y /= self.scale
        return y

    def to_csr(self) -> SymmetricCSROperator:
        """Explicit CSR arrays of the scaled matrix (diagonal gets -shift)."""
        base = self.base
        n = base.n
        counts = np.diff(base.indptr)
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        cols = base.indices
        vals = base.data.copy()
        if self.shift != 0.0:
            rows = np.concatenate([rows, np.arange(n, dtype=np.int64)])
            cols = np.concatenate([cols, np.arange(n, dtype=np.int64)])
            vals = np.concatenate([vals, np.full(n, -self.shift)])
        else:
            cols = cols.copy()
        vals /= self.scale
        return _assemble(n, rows, cols, vals, base.kind)


def rescale_operator(op: SymmetricCSROperator, spectral_range) -> ScaledOperator:
    """Wrap op with the affine map sending [lambda_min, lambda_max] to [-1, 1]."""
    lmin, lmax = float(spectral_range[0]), float(spectral_range[1])
    if not lmin < lmax:
        raise ValueError(f"degenerate spectral range ({lmin}, {lmax})")
    shift = 0.5 * (lmax + lmin)
    scale = 0.5 * (lmax - lmin)
    return ScaledOperator(base=op, shift=shift, scale=scale,
                          lambda_min=lmin, lambda_max=lmax)


def estimate_spectral_range(op, probe_seed=0, steps=100, margin=0.01):
    """Estimate (lambda_min, lambda_max) by Lanczos extremal Ritz values.

    The Ritz interval is inflated symmetrically by `margin` times the Ritz
    spread so the Chebyshev recurrence sees a spectrum strictly inside
    [-1, 1]. The normalized adjacency returns its analytic bounds (-1, 1)
    without iteration.
    """
    if getattr(op, "kind", None) is OperatorKind.NORMALIZED_ADJACENCY:
        return (-1.0, 1.0)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    from .lanczos import lanczos_factorize  # local import: avoids a cycle

    n = op.n
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(probe_seed), 0x52414E47])))
    z = rng.standard_normal(n)
    fact = lanczos_factorize(op, z, min(steps, n), keep_basis=True)
    if not (np.all(np.isfinite(fact.alphas)) and np.all(np.isfinite(fact.betas))):
        raise SpectralRangeError("NaN breakdown during range estimation",
                                 iterations=len(fact.alphas))
    ritz = fact.ritz_values()
    lo, hi = float(ritz[0]), float(ritz[-1])
    spread = hi - lo
    pad = margin * (spread if spread > 0 else max(1.0, abs(hi)))
    return (lo - pad, hi + pad)
