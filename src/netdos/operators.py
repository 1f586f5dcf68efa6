"""Symmetric graph operators and their affine rescaling onto [-1, 1].

Four matrix families are supported: the adjacency A, the combinatorial
Laplacian L = D - A, the degree-normalized adjacency D^{-1/2} A D^{-1/2},
and the normalized Laplacian I - D^{-1/2} A D^{-1/2}. Each is materialized
as explicit CSR arrays so a single sparse kernel serves every family, and
block extraction (needed by the nested-dissection recurrence) is cheap.

The Chebyshev recurrences need H = (op - shift·I) / scale, with spectrum in
[-1, 1]. `rescale_operator` folds that map into the CSR arrays once, so KPM,
nested dissection and Lanczos all see the same operator type, and a matvec
costs the same with or without a shift. The range (lo, hi) itself is given
by the user, read from `ANALYTIC_RANGES` for the kinds whose bounds are known
in closed form, or estimated by `lanczos.estimate_spectral_range`, which
keeps the ends that `EXACT_BOUNDS` fixes.

Isolated nodes under the normalized kinds use the convention D^{-1/2} = 0:
the node contributes eigenvalue 0 to the normalized adjacency and
eigenvalue 1 (the identity term) to the normalized Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
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

    @classmethod
    def onto_unit(cls, spectral_range):
        """The map of [lo, hi] onto [-1, 1]: shift (lo + hi) / 2 and scale
        (hi - lo) / 2. A range whose shift is not finite, or whose scale is
        not finite and positive, raises ValueError."""
        lmin, lmax = float(spectral_range[0]), float(spectral_range[1])
        shift = 0.5 * (lmax + lmin)
        scale = 0.5 * (lmax - lmin)
        if not (np.isfinite(shift) and 0.0 < scale < np.inf):
            raise ValueError(f"degenerate spectral range ({lmin}, {lmax}): the "
                             "map onto [-1, 1] needs a finite shift and a "
                             f"finite positive scale, got {shift!r}, {scale!r}")
        return cls(shift, scale)

    def to_scaled(self, lam):
        return (np.asarray(lam, dtype=np.float64) - self.shift) / self.scale

    def from_scaled(self, x):
        return self.shift + self.scale * np.asarray(x, dtype=np.float64)


IDENTITY_MAP = ScaleMap(0.0, 1.0)

# The operator the command line and the pipelines use unless told otherwise.
OPERATOR = OperatorKind.NORMALIZED_ADJACENCY

# Spectral ranges known without computing: every normalized adjacency has
# its spectrum in [-1, 1].
ANALYTIC_RANGES = {OperatorKind.NORMALIZED_ADJACENCY: (-1.0, 1.0)}

# Spectral bounds that hold exactly where the range is estimated: (lower
# end, cap on the upper end). Both Laplacians are positive semidefinite and
# have the eigenvalue 0 (the normalized one once the graph has an edge), and
# the normalized Laplacian's spectrum lies in [0, 2].
EXACT_BOUNDS = {OperatorKind.LAPLACIAN: (0.0, np.inf),
                OperatorKind.NORMALIZED_LAPLACIAN: (0.0, 2.0)}


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
    entry is re-sorted. A range that `ScaleMap.onto_unit` refuses, or one so
    narrow that an entry divided by its scale is not finite, raises
    ValueError.
    """
    lmin, lmax = float(spectral_range[0]), float(spectral_range[1])
    smap = ScaleMap.onto_unit((lmin, lmax))
    shift, scale = smap.shift, smap.scale
    with np.errstate(over="ignore"):
        data = op.data / scale
    if not np.isfinite(data).all():
        raise ValueError(f"spectral range ({lmin}, {lmax}) is too narrow for "
                         f"this operator: its entries divided by the scale "
                         f"{scale!r} overflow")
    n = op.n
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(op.indptr))
    diag = np.full(n, -shift / scale) if shift != 0.0 else None
    arrays = _sorted_csr(n, rows, op.indices, data, diag)
    return SymmetricCSROperator(n, *arrays, op.kind, smap, (lmin, lmax))
