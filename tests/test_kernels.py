"""SpMV kernel checks: both scipy routes (the in-place private
``csr_matvec``/``csr_matvecs`` loops and the public ``csr_array @ x``
product) and the ``csr_matvec`` entry point match the dense product to
1e-12, for vectors and blocks, with and without accumulating into `out`; a
vector gives the same bits through the vector loop, the k = 1 block loop
and the public product; the first call picks the route by a self-check of
both loops and falls back to the public product when either fails or the
extension file is missing; the scratch of a matvec stays within
O(rows * k); an `out` that is not C-contiguous is refused; and every
estimator reaches the kernel through the one ``_kernels.csr_matvec``
attribute."""

import importlib.machinery
import sys
import tracemalloc

import numpy as np
import pytest

from netdos import _kernels, pipeline, testkit
from netdos.operators import (OperatorKind, SymmetricCSROperator,
                              build_operator, estimate_spectral_range)


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
    if _kernels._private_kernels() is not None:
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
    # are often empty; every route must agree with the dense product, for
    # the block and for a single vector
    vectors = np.random.default_rng(6)
    for indptr, idx, val, dense, block in _fuzz_blocks(3):
        for x in (block, vectors.standard_normal(dense.shape[1])):
            want = dense @ x
            got = _kernels.csr_matvec(indptr, idx, val, x)
            assert got.shape == want.shape
            assert np.allclose(got, want, atol=1e-12)
            for name, kernel in _routes():
                out = np.full_like(want, np.nan)
                kernel(indptr, idx, val, x, out)
                assert np.allclose(out, want, atol=1e-12), name


def test_vector_loop_is_bit_equal_to_the_block_loop_and_public_product():
    # each row sums its products in stored order in every route, so a
    # vector's bits do not depend on which one the kernel took
    if _kernels._private_kernels() is None:
        pytest.skip("scipy has no _sparsetools loops")
    rng = np.random.default_rng(10)
    g = testkit.preferential_attachment(2000, 3, seed=4)
    cases = [(op.indptr, op.indices, op.data, op.n) for op in
             (build_operator(g, kind) for kind in OperatorKind)]
    cases += [(p, i, v, d.shape[1]) for p, i, v, d, _ in _fuzz_blocks(5)]
    for indptr, idx, val, ncol in cases:
        x = rng.standard_normal(ncol)
        rows = indptr.shape[0] - 1
        vector, block, public = np.empty(rows), np.empty((rows, 1)), np.empty(rows)
        _kernels._sparsetools_matvec(indptr, idx, val, x, vector)
        _kernels._sparsetools_matvec(indptr, idx, val, x[:, None].copy(), block)
        _kernels._public_matvec(indptr, idx, val, x, public)
        assert np.array_equal(vector, block[:, 0])
        assert np.array_equal(vector, public)


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
    if path == "sparsetools" and _kernels._private_kernels() is None:
        pytest.skip("scipy has no _sparsetools loops")
    kernel = _ACCUMULATE_PATHS[path]
    rng = np.random.default_rng(5)
    for indptr, idx, val, dense, x in _fuzz_blocks(3):
        out0 = rng.standard_normal((dense.shape[0], x.shape[1]))
        out = out0.copy()
        kernel(indptr, idx, val, x, out)
        assert np.allclose(out, out0 + dense @ x, atol=1e-12)


def test_first_call_self_checks_and_picks_sparsetools(monkeypatch):
    real = _kernels._private_kernels()
    if real is None:
        pytest.skip("scipy has no _sparsetools loops")
    calls = []

    def spy(name, loop):
        def call(*args):
            calls.append(name)
            return loop(*args)
        return call

    monkeypatch.setattr(_kernels, "_private_kernels",
                        lambda: (spy("vector", real[0]), spy("block", real[1])))
    monkeypatch.setattr(_kernels, "_matvec", None)
    indptr, idx, val, dense = _random_csr(np.random.default_rng(8), 12, 0.3)
    x = np.ones((12, 3))
    assert np.allclose(_kernels.csr_matvec(indptr, idx, val, x), dense @ x,
                       atol=1e-12)
    assert _kernels._matvec is _kernels._sparsetools_matvec
    # the self-check runs both loops, then the product runs the block loop
    assert calls == ["block", "vector", "block"]
    _kernels.csr_matvec(indptr, idx, val, x[:, 0])
    assert calls[3:] == ["vector"]  # the route is kept: no second self-check


def _skips_the_product(*args):
    pass


def _rejects_the_arguments(*args):
    raise TypeError("unexpected argument types")


def _broken_vector_loop():
    """The real block loop beside a vector loop that writes nothing."""
    real = _kernels._private_kernels.__wrapped__()
    return None if real is None else (_skips_the_product, real[1])


def _broken_block_loop():
    real = _kernels._private_kernels.__wrapped__()
    return None if real is None else (real[0], _rejects_the_arguments)


MISSING_EXTENSION_FILE = "missing extension file"


@pytest.mark.parametrize("private", [
    pytest.param((_skips_the_product,) * 2, id="_skips_the_product"),
    pytest.param((_rejects_the_arguments,) * 2, id="_rejects_the_arguments"),
    _broken_vector_loop, _broken_block_loop, None, MISSING_EXTENSION_FILE])
def test_failed_self_check_falls_back_to_public(monkeypatch, private):
    if private == MISSING_EXTENSION_FILE:
        # the real loader, where scipy has no _sparsetools file to load
        monkeypatch.delitem(sys.modules, _kernels._EXTENSION, raising=False)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                            [".missing"])
        private = _kernels._private_kernels.__wrapped__()
        assert private is None
    elif callable(private):
        private = private()
        if private is None:
            pytest.skip("scipy has no _sparsetools loops")
    monkeypatch.setattr(_kernels, "_private_kernels", lambda: private)
    monkeypatch.setattr(_kernels, "_matvec", None)
    indptr, idx, val, dense = _random_csr(np.random.default_rng(9), 12, 0.3)
    x = np.ones((12, 3))
    assert np.allclose(_kernels.csr_matvec(indptr, idx, val, x), dense @ x,
                       atol=1e-12)
    assert _kernels._matvec is _kernels._public_matvec
    # the public product serves vectors too
    assert np.allclose(_kernels.csr_matvec(indptr, idx, val, x[:, 0]),
                       dense @ x[:, 0], atol=1e-12)


def test_accumulate_needs_out():
    indptr, idx, val, _ = _random_csr(np.random.default_rng(7), 5, 0.5)
    with pytest.raises(ValueError, match="out"):
        _kernels.csr_matvec(indptr, idx, val, np.ones((5, 2)), accumulate=True)


@pytest.mark.parametrize("accumulate", [False, True])
def test_non_contiguous_out_is_refused(accumulate):
    indptr, idx, val, _ = _random_csr(np.random.default_rng(7), 5, 0.5)
    # a column-major block and a strided vector, each left untouched
    for x, out in [(np.ones((5, 2)), np.zeros((2, 5)).T),
                   (np.ones(5), np.zeros(10)[::2])]:
        with pytest.raises(ValueError, match="C-contiguous"):
            _kernels.csr_matvec(indptr, idx, val, x, out=out, accumulate=accumulate)
        assert not out.any()


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
            build_operator(g, "laplacian")),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls, f"{name} never called _kernels.csr_matvec"


def test_imported_extension_is_reused():
    # once scipy.sparse is imported (by a library caller that imports it
    # itself), the kernel takes the extension module of that import and
    # leaves it registered
    _sparsetools = pytest.importorskip("scipy.sparse._sparsetools")

    got = _kernels._private_kernels.__wrapped__()
    assert got == (_sparsetools.csr_matvec, _sparsetools.csr_matvecs)
    assert sys.modules[_kernels._EXTENSION] is _sparsetools
