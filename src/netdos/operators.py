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
by the user, or `estimate_spectral_range` takes it: from `ANALYTIC_RANGES`
for the two normalized kinds, else from `spectral_radius_bound`, a
Collatz–Wielandt bound rho_hat >= rho(|H|) that holds by construction.
Every eigenvalue of H lies in [-rho(|H|), rho(|H|)], and a Laplacian's in
[0, rho(|H|)]; the bound is elementwise work plus `np.max`, so it depends
on neither a seed nor the BLAS thread count.

Isolated nodes under the normalized kinds use the convention D^{-1/2} = 0:
the node contributes eigenvalue 0 to the normalized adjacency and
eigenvalue 1 (the identity term) to the normalized Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .errors import GraphError, SpectralRangeError
from .graph import GraphCSR


class OperatorKind(str, Enum):
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    NORMALIZED_ADJACENCY = "normalized-adjacency"
    NORMALIZED_LAPLACIAN = "normalized-laplacian"


@dataclass(frozen=True)
class ScaleMap:
    """The affine map lam -> (lam - shift) / scale and its inverse, which
    takes [-1, 1] onto the spectral range shift ± scale.

    This is the one validity check of a spectral range: a shift that is not
    finite, or a scale that is not finite and positive, raises ValueError.
    """

    shift: float
    scale: float

    def __post_init__(self):
        if not (np.isfinite(self.shift) and 0.0 < self.scale < np.inf):
            raise ValueError(
                f"degenerate spectral range (shift {float(self.shift)!r}, "
                f"scale {float(self.scale)!r}): the map onto [-1, 1] needs "
                "a finite shift and a finite positive scale")

    @classmethod
    def onto_unit(cls, spectral_range):
        """The map of [lo, hi] onto [-1, 1]: shift (lo + hi) / 2 and scale
        (hi - lo) / 2."""
        lmin, lmax = float(spectral_range[0]), float(spectral_range[1])
        return cls(0.5 * (lmax + lmin), 0.5 * (lmax - lmin))

    def to_scaled(self, lam):
        return (np.asarray(lam, dtype=np.float64) - self.shift) / self.scale

    def from_scaled(self, x):
        return self.shift + self.scale * np.asarray(x, dtype=np.float64)


IDENTITY_MAP = ScaleMap(0.0, 1.0)

# The operator the command line and the pipelines use unless told otherwise.
OPERATOR = OperatorKind.NORMALIZED_ADJACENCY

# Spectral ranges known without computing: every normalized adjacency has
# its spectrum in [-1, 1], so every normalized Laplacian has its in [0, 2].
ANALYTIC_RANGES = {OperatorKind.NORMALIZED_ADJACENCY: (-1.0, 1.0),
                   OperatorKind.NORMALIZED_LAPLACIAN: (0.0, 2.0)}

# The preset range estimate: power iterations (one matvec each) behind the
# Collatz–Wielandt bound of `spectral_radius_bound`.
RANGE_STEPS = 40

# Iterates are kept at or above this, far above underflow: any positive
# vector gives a valid bound, and a vanishing entry would give none.
_ITERATE_FLOOR = 2.0 ** -500


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
    if kind is not OperatorKind.ADJACENCY and not np.isfinite(eye).all():
        raise GraphError(f"a node's weighted degree overflows (its weights "
                         f"sum past {np.finfo(np.float64).max:g}), and the "
                         f"{kind.value} operator is built from the degrees")
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
    entry is re-sorted. A range that `ScaleMap` refuses, or one so narrow
    that an entry divided by its scale is not finite, raises ValueError.
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


def quotient_operator(op: SymmetricCSROperator, label) -> SymmetricCSROperator:
    """P^T op P for the partition that puts node i in block label[i], where
    P has the orthonormal columns 1_C/sqrt|C|, one per block, and the labels
    are 0..q-1, each used.

    Entry (a, b) is the sum of op over block a x block b, in CSR order,
    divided by sqrt(|a|·|b|). It is summed once, for a <= b, and mirrored,
    so the quotient is symmetric bit for bit. Entries that come out exactly
    0.0 are dropped. Kind, scale map and spectral range are op's.
    """
    size = np.bincount(label)
    q = size.shape[0]
    rows = label[np.repeat(np.arange(op.n), np.diff(op.indptr))]
    cols = label[op.indices]
    upper = rows <= cols
    key = rows[upper] * q + cols[upper]
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    key = key[order][first]
    rows, cols = np.divmod(key, q)
    vals = (np.add.reduceat(op.data[upper][order], first)
            / np.sqrt(size[rows] * size[cols]))
    off = rows != cols  # each entry above the diagonal is mirrored below it
    key = np.concatenate([key, cols[off] * q + rows[off]])
    order = np.argsort(key)
    vals = np.concatenate([vals, vals[off]])[order]
    arrays = _sorted_csr(q, *np.divmod(key[order], q), vals)
    return SymmetricCSROperator(q, *arrays, op.kind, op.scale_map, op.spectral_range)


def spectral_radius_bound(op: SymmetricCSROperator) -> float:
    """rho_hat >= rho(|H|), the spectral radius of H with every stored entry
    made nonnegative, and so >= |lambda| for every eigenvalue of H.

    For a nonnegative B and any x > 0, rho(B) <= max_i (B x)_i / x_i
    (Collatz, Math. Z. 48, 1942; Wielandt, Math. Z. 52, 1950). RANGE_STEPS
    power iterations on |H| + I from the all-ones vector supply the x; the
    +I keeps them converging on bipartite graphs, and each gives a valid
    bound, of which the smallest is kept. It is then widened by the factor
    1 + 4·(k + 3)·eps, k the longest row: each computed (|H| x)_i sums k
    nonnegative products, so it is within k·eps (to first order) of the
    exact sum, and the division and the widening round once each, (k + 2)·eps
    in all; the factor leaves room for the higher-order terms. That holds
    wherever no product underflows. A zero operator (an edgeless
    graph's adjacency or Laplacian) gets 1. A bound that is not finite (an
    entry that is NaN, or row sums that overflow) raises SpectralRangeError
    with the iteration that met it.
    """
    data = np.abs(op.data)
    longest = int(np.diff(op.indptr).max(initial=0))
    x, y = np.ones(op.n), np.empty(op.n)
    best = np.inf
    with np.errstate(all="ignore"):  # a non-finite bound is raised below
        for step in range(1, RANGE_STEPS + 1):
            _kernels.csr_matvec(op.indptr, op.indices, data, x, out=y)
            bound = float(np.max(y / x, initial=0.0))
            if not np.isfinite(bound):
                raise SpectralRangeError(
                    f"the spectral-radius bound is not finite ({bound}) at "
                    f"iteration {step}: the operator's entries hold NaN or "
                    "its row sums overflow", iterations=step)
            best = min(best, bound)
            y += x
            np.divide(y, y.max(initial=0.0), out=x)
            np.maximum(x, _ITERATE_FLOOR, out=x)
    rho = best * (1.0 + 4.0 * (longest + 3) * float(np.finfo(np.float64).eps))
    return rho if rho > 0.0 else 1.0


def estimate_spectral_range(op: SymmetricCSROperator):
    """A range (lo, hi) that holds the spectrum of op by construction.

    An unscaled operator of a normalized kind takes its `ANALYTIC_RANGES`
    entry, with no matvec. Else rho_hat = `spectral_radius_bound(op)`
    gives (0, rho_hat) for an unscaled Laplacian, which is positive
    semidefinite, and (-rho_hat, rho_hat) for the adjacency and any
    already-scaled operator.
    """
    unscaled = op.spectral_range is None
    if unscaled and op.kind in ANALYTIC_RANGES:
        return ANALYTIC_RANGES[op.kind]
    rho = spectral_radius_bound(op)
    if unscaled and op.kind is OperatorKind.LAPLACIAN:
        return (0.0, rho)
    return (-rho, rho)
