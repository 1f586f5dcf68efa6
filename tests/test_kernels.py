"""SpMV kernel checks: both scipy routes (the in-place private ``csr_matvecs``
loop and the public ``csr_array @ x`` product) and the ``csr_matvec`` entry
point match the dense product to 1e-12, with and without accumulating into
`out`; the scratch of a matvec stays within O(rows * k); and every estimator
reaches the kernel through the one ``_kernels.csr_matvec`` attribute."""

import tracemalloc

import numpy as np
import pytest

from netdos import _kernels, pipeline, testkit
from netdos.operators import (SymmetricCSROperator, build_operator,
                              estimate_spectral_range)


def _random_csr(rng, n, density):
    mask = rng.random((n, n)) < density
    mask = np.triu(mask, 1)
    mask = mask | mask.T
    dense = np.where(mask, rng.standard_normal((n, n)), 0.0)
    dense = (dense + dense.T) / 2
    indptr = np.zeros(n + 1, dtype=np.int64)
    cols = []
    vals = []
    for i in range(n):
        nz = np.flatnonzero(dense[i])
        indptr[i + 1] = indptr[i] + nz.size
        cols.append(nz)
        vals.append(dense[i, nz])
    return (indptr, np.concatenate(cols).astype(np.int64),
            np.concatenate(vals), dense)


def _routes():
    """(name, kernel(indptr, indices, data, x, out, accumulate)) per route."""
    routes = [("public-scipy", _kernels._public_matvec)]
    if _kernels._csr_matvecs is not None:
        routes.append(("sparsetools", _kernels._sparsetools_matvec))
    return routes


def test_backends_match_dense():
    rng = np.random.default_rng(0)
    for n, density in [(5, 0.5), (40, 0.1), (73, 0.05)]:
        indptr, idx, val, dense = _random_csr(rng, n, density)
        x = rng.standard_normal((n, 7))
        want = dense @ x
        got = _kernels.csr_matvec(indptr, idx, val, x)
        assert np.allclose(got, want, atol=1e-12)
        for name, kernel in _routes():
            out = np.full((n, 7), np.nan)
            kernel(indptr, idx, val, np.ascontiguousarray(x), out)
            assert np.allclose(out, want, atol=1e-12), name


def test_one_dimensional_input(monkeypatch):
    rng = np.random.default_rng(1)
    indptr, idx, val, dense = _random_csr(rng, 20, 0.2)
    x = rng.standard_normal(20)
    y = _kernels.csr_matvec(indptr, idx, val, x)
    assert y.shape == (20,)
    assert np.allclose(y, dense @ x)
    # a 1-d `out` is filled and returned on either route, also when
    # accumulating and through SymmetricCSROperator.apply
    op = SymmetricCSROperator(20, indptr, idx, val, "adjacency")
    for name, kernel in _routes():
        monkeypatch.setattr(_kernels, "_matvec", kernel)
        out = np.full(20, np.nan)
        assert _kernels.csr_matvec(indptr, idx, val, x, out=out) is out
        assert np.allclose(out, dense @ x, atol=1e-12), name
        out0 = rng.standard_normal(20)
        out = out0.copy()
        assert _kernels.csr_matvec(indptr, idx, val, x, out=out,
                                   accumulate=True) is out
        assert np.allclose(out, out0 + dense @ x, atol=1e-12), name
        buf = np.full(20, np.nan)
        assert op.apply(x, out=buf) is buf
        assert np.allclose(buf, dense @ x, atol=1e-12), name


def test_empty_rows_and_empty_matrix():
    indptr = np.array([0, 0, 1, 1], dtype=np.int64)
    idx = np.array([0], dtype=np.int64)
    val = np.array([2.0])
    x = np.array([[1.0], [3.0], [5.0]])
    y = _kernels.csr_matvec(indptr, idx, val, x)
    assert np.array_equal(y, np.array([[0.0], [2.0], [0.0]]))
    empty_ptr = np.zeros(4, dtype=np.int64)
    for name, kernel in _routes():
        out = np.full((3, 1), np.nan)
        kernel(indptr, idx, val, x, out)
        assert np.array_equal(out, np.array([[0.0], [2.0], [0.0]])), name
        out2 = np.full((3, 2), np.nan)
        kernel(empty_ptr, np.zeros(0, dtype=np.int64), np.zeros(0),
               np.ones((3, 2)), out2)
        assert np.array_equal(out2, np.zeros((3, 2))), name


def _fuzz_blocks(seed):
    """Rectangular CSR blocks, often with empty trailing rows, and an x."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        nrow = int(rng.integers(1, 12))
        ncol_mat = int(rng.integers(1, 12))
        k = int(rng.integers(0, 5))
        dense = rng.standard_normal((nrow, ncol_mat)) * (rng.random((nrow, ncol_mat)) < 0.3)
        indptr = np.zeros(nrow + 1, dtype=np.int64)
        cols, vals = [], []
        for i in range(nrow):
            nz = np.flatnonzero(dense[i])
            indptr[i + 1] = indptr[i] + nz.size
            cols.append(nz)
            vals.append(dense[i, nz])
        idx = np.concatenate(cols).astype(np.int64)
        val = np.concatenate(vals)
        x = np.ascontiguousarray(rng.standard_normal((ncol_mat, k)))
        yield indptr, idx, val, dense, x


def test_fuzz_rectangular_blocks_with_empty_rows():
    # submatrix extraction feeds rectangular CSR blocks whose trailing rows
    # are often empty; every route must agree with the dense product
    for indptr, idx, val, dense, x in _fuzz_blocks(3):
        want = dense @ x
        got = _kernels.csr_matvec(indptr, idx, val, x)
        assert np.allclose(got, want, atol=1e-12)
        for name, kernel in _routes():
            out = np.full_like(want, np.nan)
            kernel(indptr, idx, val, x, out)
            assert np.allclose(out, want, atol=1e-12), name


_ACCUMULATE_PATHS = {
    "sparsetools": lambda p, i, v, x, out: _kernels._sparsetools_matvec(
        p, i, v, x, out, accumulate=True),
    "public-scipy": lambda p, i, v, x, out: _kernels._public_matvec(
        p, i, v, x, out, accumulate=True),
    "active": lambda p, i, v, x, out: _kernels.csr_matvec(
        p, i, v, x, out=out, accumulate=True),
}


@pytest.mark.parametrize("path", sorted(_ACCUMULATE_PATHS))
def test_accumulate_adds_the_product(path):
    if path == "sparsetools" and _kernels._csr_matvecs is None:
        pytest.skip("scipy has no _sparsetools.csr_matvecs")
    kernel = _ACCUMULATE_PATHS[path]
    rng = np.random.default_rng(5)
    for indptr, idx, val, dense, x in _fuzz_blocks(3):
        out0 = rng.standard_normal((dense.shape[0], x.shape[1]))
        out = out0.copy()
        kernel(indptr, idx, val, x, out)
        assert np.allclose(out, out0 + dense @ x, atol=1e-12)


def test_accumulate_needs_out():
    indptr, idx, val, _ = _random_csr(np.random.default_rng(7), 5, 0.5)
    with pytest.raises(ValueError, match="out"):
        _kernels.csr_matvec(indptr, idx, val, np.ones((5, 2)), accumulate=True)


_SCRATCH_KERNELS = {
    "csr_matvec": lambda p, i, v, x, out: _kernels.csr_matvec(p, i, v, x, out=out),
    "public-scipy": _kernels._public_matvec,
}


@pytest.mark.parametrize("name", sorted(_SCRATCH_KERNELS))
def test_scratch_stays_within_two_blocks(name):
    # the moment loop promises O(n * nz) memory; a kernel whose scratch
    # scales with nnz * k (a gather of x[indices]) breaks that at 1e6 edges
    kernel = _SCRATCH_KERNELS[name]
    rng = np.random.default_rng(4)
    n, nnz, k = 20_000, 200_000, 20
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rng.integers(0, n, nnz), minlength=n))
    idx = rng.integers(0, n, nnz).astype(np.int64)
    val = rng.standard_normal(nnz)
    x = rng.standard_normal((n, k))
    out = np.empty((n, k))
    tracemalloc.start()
    try:
        kernel(indptr, idx, val, x, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = n * k * 8
    assert peak < 2 * block, f"kernel scratch {peak} B vs two blocks {2 * block} B"
    rows = np.repeat(np.arange(n), np.diff(indptr))
    want = np.zeros((n, k))
    np.add.at(want, rows, val[:, None] * x[idx])
    assert np.allclose(out, want, atol=1e-12)


def test_every_estimator_calls_the_kernel_entry_point(monkeypatch):
    # the benchmark's traced run counts matvecs by wrapping this attribute;
    # a module that imported the function by name would bypass the count
    calls = []
    inner = _kernels.csr_matvec

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(_kernels, "csr_matvec", counting)
    g = testkit.preferential_attachment(60, 2, seed=3)
    runs = {
        "kpm_dos": lambda: pipeline.kpm_dos(g, m_max=8, nz=4, bins=10),
        "kpm_pdos": lambda: pipeline.kpm_pdos(g, m_max=8, nz=4),
        "gql_dos_pipeline": lambda: pipeline.gql_dos_pipeline(
            g, steps=5, nz=4, bins=10),
        "nd_pdos_pipeline": lambda: pipeline.nd_pdos_pipeline(
            g, m_max=8, leaf_size=16),
        "estimate_spectral_range": lambda: estimate_spectral_range(
            build_operator(g, "laplacian"), steps=10),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls, f"{name} never called _kernels.csr_matvec"
