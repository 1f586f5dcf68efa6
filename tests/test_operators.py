import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdos import (OperatorKind, ScaleMap, SpectralRangeError,
                    SymmetricCSROperator, build_csr, build_operator,
                    estimate_spectral_range, rescale_operator)
from netdos.operators import ANALYTIC_RANGES, IDENTITY_MAP
from netdos.testkit import (dense_matrix, erdos_renyi, exact_spectrum,
                            preferential_attachment)

from conftest import dense_from_graph, small_models

ALL_KINDS = list(OperatorKind)


def test_operator_matches_dense_definition_entrywise():
    rng = np.random.default_rng(3)
    graphs = []
    for trial in range(6):
        n = int(rng.integers(5, 40))
        edges = set()
        target = min(int(rng.integers(n, 3 * n)), n * (n - 1) // 2)
        while len(edges) < target:
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        weighted = trial % 2
        graphs.append(build_csr(
            [(int(u), int(v), 1.0 + weighted * float((u * v) % 4)) for u, v in edges],
            n=n))
    for g in graphs:
        for kind in ALL_KINDS:
            op = build_operator(g, kind)
            assert np.allclose(dense_matrix(op), dense_from_graph(g, kind.value),
                               atol=1e-14)


def test_isolated_node_conventions():
    g = build_csr([(0, 1)], n=3)
    na = dense_matrix(build_operator(g, OperatorKind.NORMALIZED_ADJACENCY))
    nl = dense_matrix(build_operator(g, OperatorKind.NORMALIZED_LAPLACIAN))
    assert np.array_equal(na[2], np.zeros(3))  # zero row: eigenvalue 0
    assert np.array_equal(nl[2], np.array([0, 0, 1.0]))  # identity term survives


def test_k3_normalized_adjacency_spectrum(triangle):
    spec = exact_spectrum(build_operator(triangle, OperatorKind.NORMALIZED_ADJACENCY))
    assert np.allclose(spec.eigenvalues, [-0.5, -0.5, 1.0], atol=1e-12)


def test_p3_normalized_adjacency_spectrum(path3):
    spec = exact_spectrum(build_operator(path3, OperatorKind.NORMALIZED_ADJACENCY))
    assert np.allclose(spec.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)


def test_star_laplacian_spectrum(star4):
    spec = exact_spectrum(build_operator(star4, OperatorKind.LAPLACIAN))
    assert np.allclose(spec.eigenvalues, [0.0, 1.0, 1.0, 4.0], atol=1e-12)


def test_apply_is_linear():
    g = erdos_renyi(60, 0.1, seed=2)
    rng = np.random.default_rng(4)
    for kind in ALL_KINDS:
        op = build_operator(g, kind)
        x, y = rng.standard_normal((2, g.n))
        a, b = 0.7, -1.3
        lhs = op.apply(a * x + b * y)
        rhs = a * op.apply(x) + b * op.apply(y)
        scale = max(np.abs(rhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_normalized_adjacency_range_is_analytic(star4):
    op = build_operator(star4, OperatorKind.NORMALIZED_ADJACENCY)
    assert estimate_spectral_range(op) == (-1.0, 1.0)
    assert estimate_spectral_range(
        build_operator(star4, OperatorKind.NORMALIZED_LAPLACIAN)) == (0.0, 2.0)
    # once rescaled, the analytic bounds no longer hold: it is estimated
    sop = rescale_operator(op, (-0.5, 0.5))
    ev = exact_spectrum(sop).eigenvalues
    lo, hi = estimate_spectral_range(sop)
    assert lo <= ev[0] and ev[-1] <= hi and hi > 1.9


def _assert_range_encloses(op):
    """The estimated range holds op's dense spectrum: a bounded end with no
    margin, hi >= lambda_max. An exact end (the Laplacian's 0, or an analytic
    range, which holds for the operator before its entries round) gets the
    dense solver's error, n·eps·||H||: `eigvalsh` may report an eigenvalue 0
    as -1e-16, and the normalized adjacency's 1 as 1 + 1e-15. The bound is
    also no looser than its first iterate, the largest absolute row sum (or
    1 for a zero operator)."""
    lo, hi = estimate_spectral_range(op)
    ev = exact_spectrum(op).eigenvalues
    norm = float(np.abs(dense_matrix(op)).sum(axis=1).max(initial=0.0))
    tol = op.n * np.finfo(float).eps * norm
    assert lo <= ev[0] + tol, (op.kind, lo, ev[0])
    if op.spectral_range is None and op.kind in ANALYTIC_RANGES:
        assert (lo, hi) == ANALYTIC_RANGES[op.kind]
        assert hi >= ev[-1] - tol, (op.kind, hi, ev[-1])
        return
    assert hi >= ev[-1], (op.kind, hi, ev[-1])
    assert hi <= (norm or 1.0) * (1.0 + 1e-12)
    if op.spectral_range is None and op.kind is OperatorKind.LAPLACIAN:
        assert lo == 0.0
    else:
        assert lo == -hi


@st.composite
def _range_cases(draw):
    """A small ER, PA or WS graph, with drawn weights, isolated nodes and a
    self-loop, and a range to rescale its operators by."""
    g = draw(small_models())
    u, v, w = g.edge_list()
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    if draw(st.booleans()):
        w = rng.uniform(0.1, 10.0, size=w.size)
    edges = list(zip(u.tolist(), v.tolist(), w.tolist()))
    if draw(st.booleans()):
        edges.append((0, 0, float(rng.uniform(0.5, 3.0))))
    n = g.n + draw(st.integers(0, 3))
    lo = draw(st.floats(-40.0, 10.0))
    return (build_csr(edges, n=n, allow_self_loops=True),
            (lo, lo + draw(st.floats(0.5, 80.0))))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=_range_cases())
def test_estimated_range_contains_oracle_spectrum(case):
    # the Collatz–Wielandt bound holds by construction under all four
    # operators, and on an already-rescaled operator
    g, spectral_range = case
    for kind in OperatorKind:
        op = build_operator(g, kind)
        _assert_range_encloses(op)
        _assert_range_encloses(rescale_operator(op, spectral_range))


@pytest.mark.parametrize("edges, n", [
    # K3: the all-ones start is the Perron vector, so the iteration is
    # exact from its first step and only the rounding allowance keeps
    # hi >= 2 against the dense solver's 2
    ([(0, 1), (0, 2), (1, 2)], None),
    ([(0, 1), (1, 2)], 5),  # isolated nodes
    ([(0, 1), (1, 2), (2, 2, 2.5), (2, 3, 0.5)], None),  # a weighted self-loop
    ([], 4),  # edgeless: every operator but the normalized Laplacian is zero
    # a light edge beside a heavy one: its iterate entries shrink by about
    # 1e-9 a step and would underflow to 0 without the floor
    ([(0, 1, 1e9), (2, 3)], None),
], ids=["K3", "isolated", "self-loop", "edgeless", "light-beside-heavy"])
def test_estimated_range_contains_spectrum_of_small_cases(edges, n):
    g = build_csr(edges, n=n, allow_self_loops=True)
    for kind in OperatorKind:
        _assert_range_encloses(build_operator(g, kind))


def test_range_bound_converges_on_a_bipartite_graph(star4):
    # without the +I the iterates of K_{1,3} alternate and every bound is 3;
    # with it they converge to the Perron root sqrt(3)
    _, hi = estimate_spectral_range(build_operator(star4, OperatorKind.ADJACENCY))
    assert np.sqrt(3.0) <= hi <= np.sqrt(3.0) * (1.0 + 1e-9)


def test_tree_laplacian_range_is_within_half_a_percent(tmp_path, workloads):
    # the benchmark's seed-1 tree: (0, hi), hi at or above lambda_max and
    # within 0.5 % of it, where a Ritz interval widened by 1 % of its
    # spread on each side was the range before
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import eigsh

    from netdos.fileio import parse_graph_file

    graph = tmp_path / "tree.txt"
    workloads.WORKLOADS["laplacian-tree"].make_input(1, graph)
    op = build_operator(parse_graph_file(graph)[0], OperatorKind.LAPLACIAN)
    lam_max = float(eigsh(csr_array((op.data, op.indices, op.indptr)), k=1,
                          which="LA", return_eigenvectors=False)[0])
    lo, hi = estimate_spectral_range(op)
    assert lo == 0.0 and lam_max <= hi <= 1.005 * lam_max


def test_range_bound_is_tight_where_the_start_is_perron(triangle):
    # K3's bound is its Perron root 2 times the rounding allowance alone;
    # a zero operator takes 1
    _, hi = estimate_spectral_range(build_operator(triangle, OperatorKind.ADJACENCY))
    assert 2.0 < hi <= 2.0 * (1.0 + 1e-13)
    edgeless = build_csr([], n=4)
    assert estimate_spectral_range(
        build_operator(edgeless, OperatorKind.ADJACENCY)) == (-1.0, 1.0)
    assert estimate_spectral_range(
        build_operator(edgeless, OperatorKind.LAPLACIAN)) == (0.0, 1.0)


def test_rescale_identity_when_range_is_unit(path3):
    op = build_operator(path3, OperatorKind.NORMALIZED_ADJACENCY)
    sop = rescale_operator(op, (-1.0, 1.0))
    x = np.linspace(0, 1, path3.n)
    assert np.allclose(sop.apply(x), op.apply(x))
    assert sop.scale_map.to_scaled(0.5) == 0.5


def test_rescale_maps_endpoints(path3, triangle):
    lap = build_operator(path3, OperatorKind.LAPLACIAN)
    sop = rescale_operator(lap, (0.0, 3.0))
    assert sop.scale_map.to_scaled(0.0) == -1.0
    assert sop.scale_map.to_scaled(3.0) == 1.0
    adj = build_operator(triangle, OperatorKind.ADJACENCY)
    sop2 = rescale_operator(adj, (-1.0, 2.0))
    assert sop2.scale_map.to_scaled(2.0) == 1.0
    assert sop2.scale_map.to_scaled(-1.0) == -1.0
    ev = exact_spectrum(sop2).eigenvalues
    assert np.all(ev >= -1.0 - 1e-12) and np.all(ev <= 1.0 + 1e-12)


def test_rescale_rejects_degenerate_range(path3):
    op = build_operator(path3, OperatorKind.ADJACENCY)
    # finite ends whose scale overflows, whose shift overflows, and whose
    # scale underflows to 0
    for spectral_range in [(1.0, 1.0), (2.0, 1.0), (0.0, np.nan), (-np.inf, 0.0),
                           (-1e308, 1e308), (1e308, 1.7e308), (0.0, 5e-324)]:
        with pytest.raises(ValueError, match="degenerate spectral range .*finite "
                                             "shift and a finite positive scale"):
            rescale_operator(op, spectral_range)
        with pytest.raises(ValueError, match="degenerate spectral range"):
            ScaleMap.onto_unit(spectral_range)


def test_rescale_rejects_a_range_its_entries_overflow(path3):
    # the shift and scale are fine, but 1 / 5e-323 overflows; refused with
    # no numpy warning, which the test configuration would raise instead
    op = build_operator(path3, OperatorKind.ADJACENCY)
    assert ScaleMap.onto_unit((0.0, 1e-322)) == ScaleMap(5e-323, 5e-323)
    with pytest.raises(ValueError, match="too narrow for this operator"):
        rescale_operator(op, (0.0, 1e-322))


def test_scaled_spectrum_in_unit_interval_with_exact_bounds():
    g = erdos_renyi(120, 0.06, seed=7)
    for kind in ALL_KINDS:
        op = build_operator(g, kind)
        ev = exact_spectrum(op).eigenvalues
        sop = rescale_operator(op, (float(ev[0]), float(ev[-1])))
        scaled = exact_spectrum(sop).eigenvalues
        assert scaled[0] >= -1.0 - 1e-12
        assert scaled[-1] <= 1.0 + 1e-12


def test_rescale_folds_shift_and_scale_into_csr():
    # node 4 is isolated and node 3 carries a self-loop, so the fold both adds
    # diagonal entries and merges into stored ones
    g = build_csr([(0, 1), (1, 2), (0, 2), (2, 3), (3, 3, 2.0), (3, 5)], n=6,
                  allow_self_loops=True)
    for kind in ALL_KINDS:
        op = build_operator(g, kind)
        for spectral_range in (estimate_spectral_range(op),
                               (-2.0, 2.0), (-0.5, 3.25)):
            sop = rescale_operator(op, spectral_range)
            assert isinstance(sop, SymmetricCSROperator)
            assert sop.kind is op.kind
            assert sop.spectral_range == spectral_range
            lo, hi = spectral_range
            shift, scale = 0.5 * (hi + lo), 0.5 * (hi - lo)
            assert sop.scale_map == ScaleMap(shift, scale)
            want = (dense_matrix(op) - shift * np.eye(g.n)) / scale
            assert np.allclose(dense_matrix(sop), want, rtol=0, atol=1e-14)


def _assemble(n, rows, cols, vals, kind, scale_map=IDENTITY_MAP,
              spectral_range=None):
    """CSR by a full re-sort: lexsort, merge repeats, drop exact zeros."""
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


def _build_by_resorting(g, kind):
    """`build_operator` as entry lists re-sorted by `_assemble`: the graph's
    entries, with each Laplacian's diagonal appended to its rows."""
    n = g.n
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.row_ptr))
    cols, w, deg = g.col_idx, g.weights, g.degrees()
    loops = rows == cols
    if kind in (OperatorKind.NORMALIZED_ADJACENCY,
                OperatorKind.NORMALIZED_LAPLACIAN):
        with np.errstate(divide="ignore"):
            dinv = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
        w, deg = w * dinv[rows] * dinv[cols], np.ones(n)
    if kind in (OperatorKind.ADJACENCY, OperatorKind.NORMALIZED_ADJACENCY):
        return _assemble(n, rows.copy(), cols.copy(), w.copy(), kind)
    diag = deg - np.bincount(rows[loops], weights=w[loops], minlength=n)
    eye = np.arange(n, dtype=np.int64)
    return _assemble(n, np.concatenate([rows[~loops], eye]),
                     np.concatenate([cols[~loops], eye]),
                     np.concatenate([-w[~loops], diag]), kind)


def test_build_operator_equals_resorting_bit_for_bit():
    # self-loops, isolated nodes, an edgeless graph, ER and preferential
    # attachment; node 2 of the second graph has only its loop, so its
    # Laplacian diagonal is exactly zero and dropped
    from netdos.testkit import preferential_attachment
    graphs = [build_csr([(0, 1), (1, 2), (0, 2), (2, 3), (3, 3, 2.0), (3, 5)],
                        n=7, allow_self_loops=True),
              build_csr([(0, 1), (2, 2, 1.5)], n=5, allow_self_loops=True),
              build_csr([], n=3), erdos_renyi(300, 0.02, seed=5),
              preferential_attachment(500, 2, seed=6)]
    for g in graphs:
        for kind in ALL_KINDS:
            got, want = build_operator(g, kind), _build_by_resorting(g, kind)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert got.data.tobytes() == want.data.tobytes()


def _rescale_by_resorting(op, spectral_range):
    """The fold as a full re-sort: -shift appended to every diagonal, all
    values divided by scale, then sorted, merged and zero-dropped by
    `_assemble`."""
    lo, hi = spectral_range
    shift, scale = 0.5 * (hi + lo), 0.5 * (hi - lo)
    rows = np.repeat(np.arange(op.n, dtype=np.int64), np.diff(op.indptr))
    cols, vals = op.indices, op.data
    if shift != 0.0:
        diag = np.arange(op.n, dtype=np.int64)
        rows = np.concatenate([rows, diag])
        cols = np.concatenate([cols, diag])
        vals = np.concatenate([vals, np.full(op.n, -shift)])
    return _assemble(op.n, rows, cols, vals / scale, op.kind)


def test_rescale_row_merge_equals_resorting_bit_for_bit():
    # nodes 4 and 6 are isolated (empty rows), node 3 carries a self-loop of
    # weight 2 and node 1 has degree 2, so the range (1, 3) (shift 2,
    # scale 1) cancels the adjacency diagonal of node 3 and the Laplacian
    # diagonal of node 1 to exactly zero
    loops = build_csr([(0, 1), (1, 2), (0, 2), (2, 3), (3, 3, 2.0), (3, 5)],
                      n=7, allow_self_loops=True)
    graphs = [loops, erdos_renyi(80, 0.04, seed=11), build_csr([], n=3)]
    ranges = [(1.0, 3.0), (-2.0, 2.0), (-0.5, 3.25), (0.0, 1e-3), (-7.0, -1.0)]
    for g in graphs:
        for kind in ALL_KINDS:
            op = build_operator(g, kind)
            for spectral_range in ranges + [estimate_spectral_range(op)]:
                got = rescale_operator(op, spectral_range)
                want = _rescale_by_resorting(op, spectral_range)
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert got.data.tobytes() == want.data.tobytes()
    for kind, node in ((OperatorKind.ADJACENCY, 3), (OperatorKind.LAPLACIAN, 1)):
        op = build_operator(loops, kind)
        assert _stores(op, node, node)
        assert not _stores(rescale_operator(op, (1.0, 3.0)), node, node)


def _stores(op, i, j):
    return j in op.indices[op.indptr[i]:op.indptr[i + 1]]


def test_entrywise_equality_at_500_nodes():
    g = erdos_renyi(500, 0.01, seed=31)
    for kind in ALL_KINDS:
        op = build_operator(g, kind)
        assert np.allclose(dense_matrix(op), dense_from_graph(g, kind.value),
                           atol=1e-14)


def test_range_estimation_flags_nan_with_iteration_count():
    from netdos.operators import SymmetricCSROperator
    bad = SymmetricCSROperator(3, np.array([0, 1, 2, 3]), np.array([1, 0, 2]),
                               np.array([1.0, np.nan, 1.0]), OperatorKind.ADJACENCY)
    with pytest.raises(SpectralRangeError) as err:
        estimate_spectral_range(bad)
    assert err.value.iterations is not None


def test_range_estimate_holds_a_few_n_vectors():
    # the bound needs |H|, one copy of the stored values, and power
    # iterations on a few n-vectors: never a steps x n basis
    import tracemalloc

    g = preferential_attachment(5000, 1, seed=2)
    op = build_operator(g, OperatorKind.LAPLACIAN)
    estimate_spectral_range(op)  # the kernel's one-time set-up
    tracemalloc.start()
    try:
        estimate_spectral_range(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    vector, values = g.n * 8, op.data.nbytes
    assert peak <= values + 5 * vector, (
        f"peak {peak} B vs {values} B of values and five n-vectors")
