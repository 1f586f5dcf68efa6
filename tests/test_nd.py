import re
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from netdos import (PartitionError, ProbeKind, build_csr, build_operator,
                    build_partition_tree, dos_moments, load_partition,
                    make_probes, nd_pdos_moments, save_partition)
from netdos import nested_dissection
from netdos.cli import main
from netdos.kpm import chebyshev_values
from netdos.nested_dissection import PartitionNode, PartitionTree
from netdos.pipeline import scaled_operator_for
from netdos.testkit import erdos_renyi, exact_spectrum, preferential_attachment

from conftest import grid_graph, separator_warnings


def _oracle_node_moments(g, kind, m_max, seed=0, range_=None):
    sop = scaled_operator_for(g, kind, seed=seed, range_=range_)
    spec = exact_spectrum(build_operator(g, kind), want_vectors=True)
    t = chebyshev_values(m_max, sop.scale_map.to_scaled(spec.eigenvalues))
    return sop, (spec.eigenvectors ** 2) @ t.T


def test_p5_tree_shape():
    g = build_csr([(0, 1), (1, 2), (2, 3), (3, 4)])
    tree = build_partition_tree(g, leaf_size=2)
    root = tree.nodes[0]
    assert root.sep.tolist() == [2]
    kids = [tree.nodes[c] for c in root.children]
    assert sorted(len(k.part) for k in kids) == [2, 2]
    assert all(k.is_leaf for k in kids)


def test_disconnected_graph_gets_empty_separator():
    g = build_csr([(0, 1), (1, 2), (3, 4), (4, 5)])
    tree = build_partition_tree(g, leaf_size=3)
    assert tree.nodes[0].sep.size == 0
    assert len(tree.nodes[0].children) == 2


def test_grid_tree_separator_property():
    g = grid_graph(20, 20)
    tree = build_partition_tree(g, leaf_size=50)
    # explicit edge scan at every internal node
    for t in tree.nodes:
        if t.left.size and t.right.size:
            right = set(t.right.tolist())
            for u in t.left.tolist():
                assert not right & set(g.neighbors(u).tolist())


def test_whole_graph_leaf_matches_dense():
    g = erdos_renyi(120, 0.08, seed=3)
    tree = build_partition_tree(g, leaf_size=200)  # single leaf
    assert len(tree.nodes) == 1
    sop, want = _oracle_node_moments(g, "normalized-adjacency", 25)
    got = nd_pdos_moments(sop, tree, 25)
    assert np.abs(got.values - want).max() < 1e-10


def test_p5_moments_exact():
    g = build_csr([(0, 1), (1, 2), (2, 3), (3, 4)])
    tree = build_partition_tree(g, leaf_size=2)
    sop, want = _oracle_node_moments(g, "normalized-adjacency", 3)
    got = nd_pdos_moments(sop, tree, 3)
    assert np.abs(got.values - want).max() < 1e-10
    assert np.array_equal(got.values[:, 0], np.ones(5))


@separator_warnings
def test_exactness_across_graphs_and_kinds():
    cases = [
        (grid_graph(30, 30), "laplacian"),
        (grid_graph(14, 10), "normalized-laplacian"),
        (erdos_renyi(250, 0.02, seed=9), "normalized-adjacency"),
        (build_csr([(i, i + 1) for i in range(199)]), "adjacency"),
    ]
    for g, kind in cases:
        tree = build_partition_tree(g, leaf_size=32)
        sop, want = _oracle_node_moments(g, kind, 30)
        got = nd_pdos_moments(sop, tree, 30)
        assert np.abs(got.values - want).max() < 1e-9


def test_global_agreement_with_exact_probes():
    g = grid_graph(12, 12)
    sop = scaled_operator_for(g, "normalized-adjacency")
    tree = build_partition_tree(g, leaf_size=20)
    per_node = nd_pdos_moments(sop, tree, 30)
    probes = make_probes(g.n, g.n, ProbeKind.STANDARD_BASIS, seed=0)
    global_ = dos_moments(sop, probes, 30)
    assert np.abs(per_node.values.mean(axis=0) - global_.values).max() < 1e-9


def test_leaf_size_does_not_change_result():
    g = grid_graph(15, 11)
    sop = scaled_operator_for(g, "laplacian", seed=2)
    a = nd_pdos_moments(sop, build_partition_tree(g, leaf_size=8), 20)
    b = nd_pdos_moments(sop, build_partition_tree(g, leaf_size=60), 20)
    assert np.abs(a.values - b.values).max() < 1e-9


def test_partition_file_round_trip(tmp_path):
    g = grid_graph(9, 9)
    tree = build_partition_tree(g, leaf_size=12)
    path = tmp_path / "part.txt"
    save_partition(tree, path)
    loaded = load_partition(path, n=g.n)
    loaded.validate(g.n)
    assert len(loaded.nodes) == len(tree.nodes)
    sop = scaled_operator_for(g, "normalized-adjacency")
    a = nd_pdos_moments(sop, tree, 10)
    b = nd_pdos_moments(sop, loaded, 10)
    assert np.array_equal(a.values, b.values)


def test_partition_validation_rejects_wrong_graph():
    g1 = grid_graph(6, 6)
    g2 = erdos_renyi(36, 0.2, seed=1)
    tree = build_partition_tree(g1, leaf_size=10)
    sop = scaled_operator_for(g2, "normalized-adjacency")
    with pytest.raises(PartitionError):
        nd_pdos_moments(sop, tree, 5)


def test_partition_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 -1 sep:0 left: right:\nnot a line\n")
    with pytest.raises(PartitionError, match="malformed"):
        load_partition(path)


def test_inseparable_blob_becomes_leaf_with_warning():
    # complete graph: BFS depth 1, no interior level set exists
    n = 12
    g = build_csr([(i, j) for i in range(n) for j in range(i + 1, n)])
    with pytest.warns(UserWarning, match="dense leaf"):
        tree = build_partition_tree(g, leaf_size=4)
    assert len(tree.nodes) == 1
    sop, want = _oracle_node_moments(g, "adjacency", 8)
    got = nd_pdos_moments(sop, tree, 8)
    assert np.abs(got.values - want).max() < 1e-10


def test_m_zero_only():
    g = grid_graph(4, 4)
    sop = scaled_operator_for(g, "normalized-adjacency")
    tree = build_partition_tree(g, leaf_size=4)
    got = nd_pdos_moments(sop, tree, 0)
    assert np.array_equal(got.values, np.ones((16, 1)))


@separator_warnings
def test_exactness_with_isolated_nodes():
    # isolated nodes create globally empty rows inside blocks, which the
    # block cut must handle
    base = erdos_renyi(90, 0.06, seed=13)
    u, v, w = base.edge_list()
    g = build_csr(list(zip(u.tolist(), v.tolist())), n=97)  # 7 isolated tails
    tree = build_partition_tree(g, leaf_size=16)
    sop, want = _oracle_node_moments(g, "normalized-adjacency", 20)
    got = nd_pdos_moments(sop, tree, 20)
    assert np.abs(got.values - want).max() < 1e-10


# Reference splitter: breadth-first searches written out in Python, one
# neighbour at a time in stored order. The tree builder must pick exactly
# the separators this reference picks.

def _bfs_levels(g, members_mask, start):
    levels = np.full(g.n, -1, dtype=np.int64)
    levels[start] = 0
    queue = deque([start])
    order = [start]
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u).tolist():
            if members_mask[v] and levels[v] < 0:
                levels[v] = levels[u] + 1
                queue.append(v)
                order.append(v)
    return levels, order


def _reference_split_component(g, members):
    mask = np.zeros(g.n, dtype=bool)
    mask[members] = True
    _, order = _bfs_levels(g, mask, int(members[0]))
    levels, _ = _bfs_levels(g, mask, order[-1])
    depth = int(levels[members].max())
    if depth < 2:
        return None
    counts = np.bincount(levels[members], minlength=depth + 1)
    below = np.cumsum(counts)
    best, best_cost = 1, None
    for lvl in range(1, depth):
        cost = max(int(below[lvl - 1]), int(below[depth] - below[lvl]))
        if best_cost is None or cost < best_cost:
            best, best_cost = lvl, cost
    lv = levels[members]
    return members[lv == best], members[lv < best], members[lv > best]


def _reference_components(g, members):
    mask = np.zeros(g.n, dtype=bool)
    mask[members] = True
    out = []
    for u in members.tolist():
        if mask[u]:
            _, order = _bfs_levels(g, mask, u)
            comp = np.array(sorted(order), dtype=np.int64)
            mask[comp] = False
            out.append(comp)
    return out


def _disconnected_graph():
    # a path, a star, a triangle, a 5x4 grid and two isolated nodes
    edges = [(i, i + 1) for i in range(30)]
    edges += [(31, 31 + k) for k in range(1, 9)]
    edges += [(40, 41), (41, 42), (40, 42)]
    grid = grid_graph(5, 4)
    u, v, _ = grid.edge_list()
    edges += [(43 + a, 43 + b) for a, b in zip(u.tolist(), v.tolist())]
    return build_csr(edges, n=65)


@pytest.mark.parametrize("make_graph, leaf_size", [
    (lambda: grid_graph(64, 64), 256),
    (lambda: grid_graph(20, 20), 50),
    (_disconnected_graph, 6),
    (lambda: erdos_renyi(300, 0.012, seed=5), 24),
    (lambda: preferential_attachment(500, 1, seed=2), 20),
], ids=["grid-64", "grid-20", "disconnected", "er", "pa-tree"])
def test_partition_matches_reference_splitter(monkeypatch, make_graph, leaf_size):
    g = make_graph()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = build_partition_tree(g, leaf_size=leaf_size)
        monkeypatch.setattr(nested_dissection, "_split_component",
                            _reference_split_component)
        monkeypatch.setattr(nested_dissection, "_components",
                            _reference_components)
        want = build_partition_tree(g, leaf_size=leaf_size)
    assert len(got.nodes) == len(want.nodes) > 1
    for a, b in zip(got.nodes, want.nodes):
        assert a.parent == b.parent
        for name in ("sep", "left", "right"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (a.node_id, name)


def test_crossing_edge_is_named():
    # 6x6 grid, root separator = column 2; tree node 1 splits columns 0-1
    # into {1, 6, 7} and rows 2-5, so edges (6, 12) and (7, 13) cross it
    g = grid_graph(6, 6)

    def ids(*xs):
        return np.array(sorted(xs), dtype=np.int64)

    def cols(*cs):
        return ids(*(r * 6 + c for r in range(6) for c in cs))

    below = ids(12, 13, 18, 19, 24, 25, 30, 31)
    nodes = [
        PartitionNode(0, -1, cols(2), cols(0, 1), cols(3, 4, 5)),
        PartitionNode(1, 0, ids(0), ids(1, 6, 7), below),
        PartitionNode(2, 1, ids(1, 6, 7), ids(), ids()),
        PartitionNode(3, 1, below, ids(), ids()),
        PartitionNode(4, 0, cols(3, 4, 5), ids(), ids()),
    ]
    tree = PartitionTree(n=g.n, nodes=nodes)
    # leaf 2 is the first tree node with a row that crosses
    msg = r"edge \(6, 12\) leaves tree node 2"
    with pytest.raises(PartitionError, match=msg):
        nd_pdos_moments(scaled_operator_for(g, "adjacency"), tree, 3)


def test_moment_memory_stays_within_two_buffers_per_node():
    g = grid_graph(40, 40)
    sop = scaled_operator_for(g, "laplacian", seed=0)
    tree = build_partition_tree(g, leaf_size=64)
    m_max = 30
    buffers = largest = 0
    for t in tree.nodes:
        rows = t.part.size + sum(tree.nodes[a].sep.size
                                 for a in tree.ancestors(t.node_id))
        buffers += 2 * rows * t.sep.size * 8
        largest = max(largest, rows * t.sep.size * 8)
    moments = g.n * (m_max + 1) * 8
    # slack: one transient block, and the operator and its blocks in CSR
    slack = largest + 32 * g.nnz
    tracemalloc.start()
    try:
        nd_pdos_moments(sop, tree, m_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < buffers + moments + slack, (peak, buffers, moments, slack)


# Partition files that name a tree the recurrence cannot run on. Each must
# end in exit 1 with the PartitionError message, never in a traceback or
# in wrong moments.
_PATH5 = "0 1\n1 2\n2 3\n3 4\n"
MALFORMED_PARTITIONS = {
    "children-do-not-split-parent": (
        _PATH5,
        "0 -1 sep:2 left:0,1 right:3,4\n1 0 sep:0,3 left: right:\n"
        "2 0 sep:1,4 left: right:\n",
        r"edge \(0, 1\) leaves tree node 1"),
    "unknown-parent": (
        _PATH5,
        "0 -1 sep:2 left:0,1 right:3,4\n1 7 sep:0,1 left: right:\n"
        "2 0 sep:3,4 left: right:\n",
        "tree node 1 names parent 7, which has no line"),
    "id-beyond-n": (
        _PATH5, "0 -1 sep:0,1,2,3,7 left: right:\n",
        r"separators do not hold each node id 0\.\.4 once"),
    "negative-id": (
        _PATH5, "0 -1 sep:-1,0,1,2,3 left: right:\n",
        r"separators do not hold each node id 0\.\.4 once"),
    "leaf-outside-parent": (
        "# nodes 5 edges 2\n0 1\n1 2\n",
        "0 -1 sep: left:0,1,2 right:3,4\n1 0 sep:1 left:0 right:2\n"
        "2 1 sep:0,3 left: right:\n3 1 sep:2,4 left: right:\n",
        "tree node 2 reads rows of its ancestor 1"),
}


@pytest.mark.parametrize("name", list(MALFORMED_PARTITIONS))
def test_cli_refuses_malformed_partition(tmp_path, capsys, name):
    graph, partition, message = MALFORMED_PARTITIONS[name]
    gpath, ppath = tmp_path / "g.txt", tmp_path / "part.txt"
    gpath.write_text(graph)
    ppath.write_text(partition)
    out = tmp_path / "nd.json"
    assert main(["nd-pdos", "--input", str(gpath), "--partition", str(ppath),
                 "--moments", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("netdos: error: ")
    assert re.search(message, err), err
    assert not out.exists()


@st.composite
def _corrupted_trees(draw):
    """A built tree on a small random graph, then one vertex moved between
    two separators or one tree node given another parent."""
    n = draw(st.integers(2, 24))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          min_size=1, max_size=3 * n))
    # nodes 0..lone-1 are isolated; moved into another tree node's
    # separator, such a node lies outside the parts of its ancestors
    lone = draw(st.integers(0, 3))
    edges = sorted({(lone + min(u, v), lone + max(u, v))
                    for u, v in pairs if u != v})
    assume(edges)
    g = build_csr(edges, n=lone + n)
    tree = build_partition_tree(g, leaf_size=draw(st.integers(1, 6)))
    nodes = tree.nodes
    if len(nodes) == 1 or draw(st.booleans()):
        v = draw(st.integers(0, g.n - 1))
        src = next(t for t in nodes if v in t.sep)
        dst = draw(st.sampled_from(nodes))
        src.sep = src.sep[src.sep != v]
        dst.sep = np.sort(np.append(dst.sep, v))
    else:
        # a parent at or after the node itself is refused before any cut
        t = draw(st.sampled_from(nodes[1:]))
        t.parent = draw(st.integers(-1, t.node_id - 1))
    return g, tree


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(case=_corrupted_trees())
def _raises_or_is_exact(outcomes, case):
    g, tree = case
    m_max = 8
    spread = (-float(g.n), float(g.n))  # encloses every adjacency spectrum
    sop, want = _oracle_node_moments(g, "adjacency", m_max, range_=spread)
    try:
        got = nd_pdos_moments(sop, tree, m_max)
    except PartitionError:
        outcomes.add("refused")
        return
    assert np.abs(got.values - want).max() < 1e-10
    outcomes.add("exact")


@separator_warnings
def test_corrupted_tree_is_refused_or_exact():
    outcomes = set()
    _raises_or_is_exact(outcomes)
    assert outcomes == {"refused", "exact"}
