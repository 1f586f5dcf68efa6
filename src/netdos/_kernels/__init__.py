"""Hot sparse kernels with a compiled fast path and a scipy fallback.

The Cython extension is selected at import time when available; set
``NETDOS_PURE_PYTHON=1`` to force the scipy implementation. Each backend is
deterministic (same inputs, same bits, any thread count); across backends
results agree to summation roundoff. ``benchmarks/bench_spmv.py`` compares
their speed. ``csr_matvec(..., accumulate=True)`` adds the product to `out`;
the scipy loop does that in place, the compiled one through a scratch block.
"""

from __future__ import annotations

import os

import numpy as np

_force_py = os.environ.get("NETDOS_PURE_PYTHON", "").strip() not in ("", "0")

if _force_py:
    from . import _csr_py as _impl

    BACKEND = "scipy"
else:
    try:
        from . import _spmv as _impl  # type: ignore[no-redef]

        BACKEND = "cython"
    except ImportError:
        from . import _csr_py as _impl  # type: ignore[no-redef]

        BACKEND = "scipy"


def csr_matvec(indptr, indices, data, x, out=None, threads=1,
               accumulate=False):
    """y = A @ x for CSR arrays, or out += A @ x with ``accumulate=True``.

    Accepts x of shape (n,) or (n, k). Arrays must be int64/float64; `out`,
    when given, must be a C-contiguous (n, k) float64 buffer, and it is
    required when accumulating.
    """
    one_d = x.ndim == 1
    x2 = x[:, None] if one_d else x
    x2 = np.ascontiguousarray(x2, dtype=np.float64)
    if out is None:
        if accumulate:
            raise ValueError("accumulate=True needs an `out` buffer")
        out = np.empty((indptr.shape[0] - 1, x2.shape[1]))
    if not accumulate:
        _impl.csr_matvec(indptr, indices, data, x2, out, threads)
    elif BACKEND == "scipy":
        _impl.csr_matvec(indptr, indices, data, x2, out, threads, accumulate=True)
    else:
        # the compiled loop overwrites its output, so add through scratch
        scratch = np.empty_like(out)
        _impl.csr_matvec(indptr, indices, data, x2, scratch, threads)
        out += scratch
    return out[:, 0] if one_d else out
