"""The sparse kernel: a CSR matrix times a dense vector or column block, on scipy.

``out = A @ x`` runs in one of scipy's compiled CSR loops, which walk each
row once and accumulate into the output in stored order: ``csr_matvec``
for a single vector x of shape (n,), ``csr_matvecs`` for a block of shape
(n, k). Nothing of size nnz is allocated, so a matvec needs at most one
(rows, k) block of scratch and the moment loop keeps its O(n * nz) memory
bound. Both loops are serial and deterministic: the same inputs give the
same bits, and a vector gives the same bits through either loop (each row
sums its products in stored order, starting from the output's value).
The single-vector loop skips the block loop's per-entry inner loop of
length one: on an 8,000-node tree Laplacian (24k stored entries) it took
70 us against 116 us for the block loop at k = 1 (best of 5 x 2,000 calls,
2-CPU x86 host), and every Lanczos step makes one.

The loops are reached through ``scipy.sparse._sparsetools``, whose entry
points write straight into ``out`` with no scratch at all. That module is
private scipy API, so it is used only if it loads and both entry points
pass a small self-check, run on the first ``csr_matvec`` call; otherwise
the public ``csr_array @ x`` product is computed and copied into ``out``,
for vectors and blocks alike. With ``accumulate=True`` the product is added
to ``out`` instead: the private loops simply skip zeroing ``out`` first.
An ``out`` that is not C-contiguous is refused on either route.

The compiled extension is loaded from its own file, without running
``scipy.sparse/__init__``: ``importlib.util.find_spec("scipy")`` finds the
scipy folder without importing it, and ``ExtensionFileLoader`` loads
``sparse/_sparsetools`` under the first of
``importlib.machinery.EXTENSION_SUFFIXES`` that exists. That ``__init__``
costs about 0.25 s, mostly ``scipy._lib.array_api_compat`` importing
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``; the extension alone
loads in under 2 ms. An extension already in ``sys.modules`` (a caller
that imported ``scipy.sparse`` itself) is reused, and one loaded here is
kept out of ``sys.modules``. Any failure to load it selects the public
product, which imports ``scipy.sparse`` as usual.

Every estimator reaches the kernel as ``_kernels.csr_matvec`` (an attribute
lookup at call time), so wrapping that one name sees every matvec. The
extension is loaded on that first call, not when the module is, so commands
that never multiply (``motifs``, ``hist``, ``generate``) start without it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from functools import cache

import numpy as np


_EXTENSION = "scipy.sparse._sparsetools"


@cache
def _private_kernels():
    """scipy's in-place ``_sparsetools`` loops as (csr_matvec, csr_matvecs),
    for one vector and for a column block, or None if either is gone."""
    module = sys.modules.get(_EXTENSION)
    if module is None:
        try:
            module = _load_extension()
        except Exception:  # private scipy layout: any failure means no route
            return None
    loops = (getattr(module, "csr_matvec", None),
             getattr(module, "csr_matvecs", None))
    return None if None in loops else loops


def _load_extension():
    """The ``_sparsetools`` extension module, loaded from its file alone."""
    scipy = importlib.util.find_spec("scipy")  # finds scipy, imports nothing
    if scipy is None:
        return None
    folder = os.path.join(os.path.dirname(scipy.origin), "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_sparsetools" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(_EXTENSION, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(_EXTENSION, loader))
            loader.exec_module(module)
            # A single-phase extension registers itself in sys.modules; left
            # there, a later ``import scipy.sparse`` would take it and never
            # bind ``scipy.sparse._sparsetools``.
            if sys.modules.get(_EXTENSION) is module:
                del sys.modules[_EXTENSION]
            return module
    return None


def _public_matvec(indptr, indices, data, x, out, accumulate=False):
    """out (+)= A @ x through the public scipy product (one temporary like out)."""
    from scipy import sparse

    a = sparse.csr_array((data, indices, indptr),
                         shape=(indptr.shape[0] - 1, x.shape[0]))
    if accumulate:
        out += a @ x
    else:
        out[...] = a @ x


def _sparsetools_matvec(indptr, indices, data, x, out, accumulate=False):
    """out (+)= A @ x accumulated in place by scipy's csr_matvec for a
    vector, csr_matvecs for a block (no scratch)."""
    if not accumulate:
        out.fill(0.0)
    matvec, matvecs = _private_kernels()
    if x.ndim == 1:
        matvec(indptr.shape[0] - 1, x.shape[0], indptr, indices, data, x, out)
    else:
        matvecs(indptr.shape[0] - 1, x.shape[0], x.shape[1],
                indptr, indices, data, x.ravel(), out.ravel())


def _select_matvec():
    """The in-place private entry points if both work here, else the public
    product."""
    if _private_kernels() is None:
        return _public_matvec
    indptr = np.array([0, 1, 1, 3], dtype=np.int64)
    indices = np.array([0, 0, 1], dtype=np.int64)
    data = np.array([2.0, 3.0, 4.0])
    block = np.array([[1.0, 2.0], [3.0, 4.0]])
    product = np.array([[2.0, 4.0], [0.0, 0.0], [15.0, 22.0]])
    # the block, then its second column alone as a vector
    for x, want in [(block, product), (block[:, 1].copy(), product[:, 1])]:
        got = np.full(want.shape, np.nan)
        try:
            _sparsetools_matvec(indptr, indices, data, x, got)
        except (TypeError, ValueError):
            return _public_matvec
        if not np.array_equal(got, want):
            return _public_matvec
    return _sparsetools_matvec


_matvec = None  # the selected route; chosen on the first csr_matvec call


def csr_matvec(indptr, indices, data, x, out=None, accumulate=False):
    """y = A @ x for CSR arrays, or out += A @ x with ``accumulate=True``.

    Accepts x of shape (n,) or (n, k). Arrays must be int64/float64; `out`,
    when given, must be a C-contiguous float64 buffer of shape (rows,) or
    (rows, k) like x, and it is required when accumulating. Returns `out`.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if out is None:
        if accumulate:
            raise ValueError("accumulate=True needs an `out` buffer")
        out = np.empty((indptr.shape[0] - 1,) + x.shape[1:])
    elif not out.flags.c_contiguous:
        # the in-place loops write through out.ravel(), which would copy
        raise ValueError("`out` must be a C-contiguous buffer")
    global _matvec
    if _matvec is None:
        _matvec = _select_matvec()
    _matvec(indptr, indices, data, x, out, accumulate)
    return out
