"""The sparse kernel: a CSR matrix times a dense column block, on scipy.

``out = A @ x`` runs in scipy's compiled CSR-times-dense-block loop, which
walks each row once and accumulates into the output in stored order. Nothing
of size nnz is allocated, so a matvec needs at most one (rows, k) block of
scratch and the moment loop keeps its O(n * nz) memory bound. The loop is
serial and deterministic: the same inputs give the same bits.

The loop is reached through ``scipy.sparse._sparsetools.csr_matvecs``, which
writes straight into ``out`` with no scratch at all. That name is private
scipy API, so it is used only if it imports and passes a small self-check at
import time; otherwise the public ``csr_array @ x`` product is computed and
copied into ``out``. With ``accumulate=True`` the product is added to
``out`` instead: the private loop simply skips zeroing ``out`` first.

Every estimator reaches the kernel as ``_kernels.csr_matvec`` (an attribute
lookup at call time), so wrapping that one name sees every matvec.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

try:
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:
    _csr_matvecs = None


def _public_matvec(indptr, indices, data, x, out, accumulate=False):
    """out (+)= A @ x through the public scipy product (one (rows, k) temporary)."""
    a = sparse.csr_array((data, indices, indptr),
                         shape=(indptr.shape[0] - 1, x.shape[0]))
    if accumulate:
        out += a @ x
    else:
        out[...] = a @ x


def _sparsetools_matvec(indptr, indices, data, x, out, accumulate=False):
    """out (+)= A @ x accumulated in place by scipy's csr_matvecs (no scratch)."""
    if not out.flags.c_contiguous:
        # out.ravel() would copy, and the result would never reach `out`
        _public_matvec(indptr, indices, data, x, out, accumulate)
        return
    if not accumulate:
        out.fill(0.0)
    _csr_matvecs(indptr.shape[0] - 1, x.shape[0], x.shape[1],
                 indptr, indices, data, x.ravel(), out.ravel())


def _select_matvec():
    """The in-place private entry point if it works here, else the public one."""
    if _csr_matvecs is None:
        return _public_matvec
    indptr = np.array([0, 1, 1, 3], dtype=np.int64)
    indices = np.array([0, 0, 1], dtype=np.int64)
    data = np.array([2.0, 3.0, 4.0])
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = np.full((3, 2), np.nan)
    try:
        _sparsetools_matvec(indptr, indices, data, x, got)
    except (TypeError, ValueError):
        return _public_matvec
    want = np.array([[2.0, 4.0], [0.0, 0.0], [15.0, 22.0]])
    return _sparsetools_matvec if np.array_equal(got, want) else _public_matvec


_matvec = _select_matvec()


def csr_matvec(indptr, indices, data, x, out=None, accumulate=False):
    """y = A @ x for CSR arrays, or out += A @ x with ``accumulate=True``.

    Accepts x of shape (n,) or (n, k). Arrays must be int64/float64; `out`,
    when given, must be a C-contiguous float64 buffer of shape (rows,) or
    (rows, k) like x, and it is required when accumulating. Returns `out`.
    """
    x2 = np.ascontiguousarray(x[:, None] if x.ndim == 1 else x, dtype=np.float64)
    if out is None:
        if accumulate:
            raise ValueError("accumulate=True needs an `out` buffer")
        out = np.empty((indptr.shape[0] - 1,) + x.shape[1:])
    _matvec(indptr, indices, data, x2, out[:, None] if out.ndim == 1 else out,
            accumulate)
    return out
