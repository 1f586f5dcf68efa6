"""Symmetric graph operators and their affine rescaling onto [-1, 1].

Four matrix families are supported: the adjacency A, the combinatorial
Laplacian L = D - A, the degree-normalized adjacency D^{-1/2} A D^{-1/2},
and the normalized Laplacian I - D^{-1/2} A D^{-1/2}. Each is materialized
as explicit CSR arrays so a single sparse kernel serves every family, and
block extraction (needed by the nested-dissection recurrence) is cheap.

The Chebyshev recurrences need H = (op - shift·I) / scale, with spectrum in
[-1, 1]. `rescale_operator` folds that map into the CSR arrays once, so KPM,
nested dissection and Lanczos all see the same operator type, and a matvec
costs the same with or without a shift.

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

# The operator the command line and the pipelines use unless told otherwise.
OPERATOR = OperatorKind.NORMALIZED_ADJACENCY

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


def _sorted_csr(n, rows, cols, vals, diag=None):
    """(indptr, indices, data) of entries given in row-major order.

    Each row must hold each column at most once, sorted, as GraphCSR and
    SymmetricCSROperator store them. `diag` (length n), when given, is added
    to the diagonal: into a stored entry (`vals` is updated in place), else as
    a new entry inserted in column order. Entries that come out exactly 0.0
    are dropped; nothing is re-sorted.
    """
    if diag is not None:
        on = cols == rows
        vals[on] += diag[rows[on]]
        new = np.flatnonzero(np.bincount(rows[on], minlength=n) == 0)
        # a new diagonal goes after the row's entries left of the diagonal
        at = (np.searchsorted(rows, new)
              + np.bincount(rows[cols < rows], minlength=n)[new])
        rows = np.insert(rows, at, new)
        cols = np.insert(cols, at, new)
        vals = np.insert(vals, at, diag[new])
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols, vals


def build_operator(g: GraphCSR, kind: OperatorKind) -> SymmetricCSROperator:
    """Materialize the requested operator for g as explicit CSR arrays."""
    kind = OperatorKind(kind)
    n = g.n
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.row_ptr))
    # `eye` is the Laplacians' diagonal term: D, or I for the normalized kinds
    cols, vals, eye = g.col_idx, g.weights, g.degrees()
    if kind in (OperatorKind.NORMALIZED_ADJACENCY, OperatorKind.NORMALIZED_LAPLACIAN):
        with np.errstate(divide="ignore"):
            dinv = np.where(eye > 0, 1.0 / np.sqrt(np.maximum(eye, 1e-300)), 0.0)
        vals, eye = vals * dinv[rows] * dinv[cols], np.ones(n)

    if kind in (OperatorKind.ADJACENCY, OperatorKind.NORMALIZED_ADJACENCY):
        arrays = _sorted_csr(n, rows, cols, vals)
    else:
        # off-diagonal -a_ij; the loop weight moves from the adjacency part
        # into the diagonal
        loops = rows == cols
        diag = eye - np.bincount(rows[loops], weights=vals[loops], minlength=n)
        arrays = _sorted_csr(n, rows[~loops], cols[~loops], -vals[~loops], diag)
    return SymmetricCSROperator(n, *arrays, kind)


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
    diag = np.full(n, -shift / scale) if shift != 0.0 else None
    arrays = _sorted_csr(n, rows, op.indices, op.data / scale, diag)
    return SymmetricCSROperator(n, *arrays, op.kind, ScaleMap(shift, scale),
                                (lmin, lmax))


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
