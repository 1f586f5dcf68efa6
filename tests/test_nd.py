import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from netdos import (PartitionError, ProbeKind, RecurrenceBlowupError,
                    build_csr, build_operator, build_partition_tree,
                    dos_moments, load_partition, make_probes, nd_pdos_moments,
                    pdos_moments, save_partition, write_graph_edgelist)
from netdos import nested_dissection
from netdos.cli import main
from netdos.nested_dissection import PartitionNode, PartitionTree
from netdos.pipeline import scaled_operator_for
from netdos.testkit import (erdos_renyi, exact_spectrum, preferential_attachment,
                            small_world)

from conftest import grid_graph
from oracles import oracle_node_moments


def _oracle_node_moments(g, kind, m_max, seed=0, range_=None):
    sop = scaled_operator_for(g, kind, seed=seed, range_=range_)
    spec = exact_spectrum(build_operator(g, kind), want_vectors=True)
    return sop, oracle_node_moments(sop.scale_map.to_scaled(spec.eigenvalues),
                                    spec.eigenvectors, m_max)


def test_p5_tree_shape():
    g = build_csr([(0, 1), (1, 2), (2, 3), (3, 4)])
    tree = build_partition_tree(g, leaf_size=2)
    assert tree.nodes[0].sep.tolist() == [2]
    # two leaves under the root, each its whole two-node piece
    assert [t.parent for t in tree.nodes] == [-1, 0, 0]
    assert sorted(t.sep.tolist() for t in tree.nodes[1:]) == [[0, 1], [3, 4]]
    parts = tree.validate(g.n)
    assert parts[0].tolist() == [0, 1, 2, 3, 4]
    assert all(np.array_equal(p, t.sep) for p, t in zip(parts[1:], tree.nodes[1:]))


def test_disconnected_graph_gets_empty_separator():
    g = build_csr([(0, 1), (1, 2), (3, 4), (4, 5)])
    tree = build_partition_tree(g, leaf_size=3)
    assert tree.nodes[0].sep.size == 0
    assert sum(t.parent == 0 for t in tree.nodes) == 2


def test_grid_tree_separator_property():
    g = grid_graph(20, 20)
    tree = build_partition_tree(g, leaf_size=50)
    parts = tree.validate(g.n)
    # explicit edge scan at every internal node: no edge joins the parts of
    # two of its children
    for i in range(len(tree.nodes)):
        kids = [parts[j] for j, t in enumerate(tree.nodes) if t.parent == i]
        assert len(kids) in (0, 2)
        if kids:
            right = set(kids[1].tolist())
            for u in kids[0].tolist():
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
    loaded = load_partition(path)
    loaded.validate(g.n)
    assert len(loaded.nodes) == len(tree.nodes)
    sop = scaled_operator_for(g, "normalized-adjacency")
    a = nd_pdos_moments(sop, tree, 10)
    b = nd_pdos_moments(sop, loaded, 10)
    assert np.array_equal(a.values, b.values)


# The 4 x 5 grid's tree at leaf size 3 as earlier versions wrote it: each
# line also lists the node's two pieces, as `left:` and `right:`.
_GRID45_WITH_PIECES = """\
0 -1 sep:4,8,12,16 left:9,13,14,17,18,19 right:0,1,2,3,5,6,7,10,11,15
1 0 sep:13,19 left:17,18 right:9,14
2 1 sep:17,18 left: right:
3 1 sep:9,14 left: right:
4 0 sep:0,6 left:5,10,11,15 right:1,2,3,7
5 4 sep:10 left:15 right:5,11
6 5 sep:15 left: right:
7 5 sep:5,11 left: right:
8 4 sep:2 left:7 right:1,3
9 8 sep:7 left: right:
10 8 sep:1,3 left: right:
"""


def test_partition_file_with_pieces_reads_as_the_built_tree(tmp_path):
    gpath, old, new = (str(tmp_path / name) for name in ("g.txt", "old.txt",
                                                          "new.txt"))
    write_graph_edgelist(grid_graph(4, 5), gpath)
    with open(old, "w") as fh:
        fh.write(_GRID45_WITH_PIECES)
    base = ["nd-pdos", "--input", gpath, "--moments", "12"]
    assert main([*base, "--leaf-size", "3", "--save-partition", new,
                 "--out", str(tmp_path / "built.json")]) == 0
    # the saved file is the old one without its pieces, each id named once
    with open(new) as fh:
        assert fh.read() == re.sub(r" left:\S* right:\S*", "", _GRID45_WITH_PIECES)
    outs = []
    for path in (new, old):
        out = tmp_path / f"from-{os.path.basename(path)}.json"
        assert main([*base, "--partition", path, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    built = json.loads((tmp_path / "built.json").read_text())
    assert json.loads(outs[0])["values"] == built["values"]


def _with_pieces(tree, parts):
    """A tree's lines as earlier versions wrote them, with each node's two
    pieces, the parts of its children, as `left:` and `right:`."""
    def ids(a):
        return ",".join(map(str, a.tolist()))
    lines = []
    for i, t in enumerate(tree.nodes):
        kids = [parts[j] for j, c in enumerate(tree.nodes) if c.parent == i]
        left, right = kids or [np.zeros(0, dtype=np.int64)] * 2
        lines.append(f"{i} {t.parent} sep:{ids(t.sep)} left:{ids(left)} "
                     f"right:{ids(right)}\n")
    return "".join(lines)


@st.composite
def _built_trees(draw):
    """The tree built on a small ER, PA or grid graph."""
    model, seed = draw(st.sampled_from(["er", "pa", "grid"])), draw(st.integers(0, 99))
    if model == "er":
        g = erdos_renyi(draw(st.integers(1, 40)), 0.1, seed=seed)
    elif model == "pa":
        g = preferential_attachment(draw(st.integers(4, 40)),
                                    draw(st.integers(1, 3)), seed=seed)
    else:
        g = grid_graph(draw(st.integers(2, 9)), draw(st.integers(1, 9)))
    return g, build_partition_tree(g, leaf_size=draw(st.integers(1, 8)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_built_trees())
def _saved_trees_read_back(directory, case):
    g, tree = case
    new, old = directory / "new.txt", directory / "old.txt"
    save_partition(tree, new)
    old.write_text(_with_pieces(tree, tree.validate(g.n)))
    sop = scaled_operator_for(g, "normalized-adjacency")
    want = nd_pdos_moments(sop, tree, 6).values
    for path in (new, old):
        loaded = load_partition(path)
        assert [t.parent for t in loaded.nodes] == [t.parent for t in tree.nodes]
        assert all(np.array_equal(a.sep, b.sep)
                   for a, b in zip(loaded.nodes, tree.nodes, strict=True))
        assert np.array_equal(nd_pdos_moments(sop, loaded, 6).values, want)


def test_saved_trees_read_back_with_and_without_pieces(tmp_path):
    _saved_trees_read_back(tmp_path)


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


def test_inseparable_blob_becomes_one_leaf():
    # complete graph: BFS depth 1, no interior level set exists
    n = 12
    g = build_csr([(i, j) for i in range(n) for j in range(i + 1, n)])
    tree = build_partition_tree(g, leaf_size=4)
    assert len(tree.nodes) == 1
    assert tree.nodes[0].sep.tolist() == list(range(n))
    sop, want = _oracle_node_moments(g, "adjacency", 8)
    got = nd_pdos_moments(sop, tree, 8)
    assert np.abs(got.values - want).max() < 1e-10
    # the record names the dense leaf: its separator is the whole piece
    assert got.probe_meta["tree"] == {"nodes": 1, "root_separator": n,
                                      "largest_separator": n,
                                      "buffer_bytes": 2 * n * n * 8}


def test_overflowing_recurrence_is_refused(tmp_path, capsys):
    # the 20 x 20 grid's adjacency spectrum reaches +-3.95, far outside the
    # range given: T_m grows like 8^m and overflows before m = 400
    g = grid_graph(20, 20)
    sop = scaled_operator_for(g, "adjacency", range_=(-0.5, 0.5))
    with pytest.raises(RecurrenceBlowupError, match="wider --range"):
        nd_pdos_moments(sop, build_partition_tree(g), 400)

    gpath, out = tmp_path / "g.txt", tmp_path / "nd.json"
    write_graph_edgelist(g, gpath)
    assert main(["nd-pdos", "--input", str(gpath), "--operator", "adjacency",
                 "--range=-0.5,0.5", "--moments", "400", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("netdos: error: Chebyshev recurrence overflowed")
    assert "--range" in err
    assert not out.exists()


def test_nd_pdos_on_a_graph_without_small_separators_is_quiet(tmp_path):
    # pa-600's root separator holds 291 nodes, more than either side; the
    # record states that, and the command writes nothing to stderr
    assert main(["generate", "--model", "pa", "--n", "600", "--m", "2",
                 "--seed", "1", "--out", str(tmp_path / "pa.txt")]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(nested_dissection.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "netdos.cli", "nd-pdos", "--input", "pa.txt",
         "--moments", "5", "--range=-60,60", "--out", "nd.json"],
        env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    tree = json.loads((tmp_path / "nd.json").read_text())["probe_meta"]["tree"]
    assert tree["nodes"] == 3 and tree["root_separator"] == 291


def _partition_figures(path):
    """(tree nodes, root separator, largest separator) of a partition file."""
    seps = {}
    with open(path) as fh:
        for line in fh:
            node_id, _, sep = line.split()[:3]
            seps[int(node_id)] = len([x for x in sep[len("sep:"):].split(",") if x])
    return len(seps), seps[0], max(seps.values())


def test_record_states_the_cost_of_built_and_loaded_trees(tmp_path):
    gpath, part = str(tmp_path / "g.txt"), str(tmp_path / "part.txt")
    write_graph_edgelist(erdos_renyi(400, 0.01, seed=4), gpath)
    base = ["nd-pdos", "--input", gpath, "--moments", "8", "--leaf-size", "40"]
    built, loaded = tmp_path / "built.json", tmp_path / "loaded.json"
    assert main([*base, "--save-partition", part, "--out", str(built)]) == 0
    assert main([*base, "--partition", part, "--out", str(loaded)]) == 0
    nodes, root, largest = _partition_figures(part)
    assert nodes > 3 and largest > root
    costs = [json.loads(path.read_text())["probe_meta"]["tree"]
             for path in (built, loaded)]
    for cost in costs:
        assert list(cost) == ["nodes", "root_separator", "largest_separator",
                              "buffer_bytes"]
        assert all(type(v) is int for v in cost.values())
        assert (cost["nodes"], cost["root_separator"],
                cost["largest_separator"]) == (nodes, root, largest)
    assert costs[0] == costs[1]


def test_m_zero_only():
    g = grid_graph(4, 4)
    sop = scaled_operator_for(g, "normalized-adjacency")
    tree = build_partition_tree(g, leaf_size=4)
    got = nd_pdos_moments(sop, tree, 0)
    assert np.array_equal(got.values, np.ones((16, 1)))


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


def _reference_split(g, members):
    comps = _reference_components(g, members)
    if len(comps) > 1:
        # largest component first, each onto the side holding fewer nodes
        left, right = [], []
        for comp in sorted(comps, key=lambda c: (-len(c), int(c[0]))):
            (left if len(left) <= len(right) else right).extend(comp.tolist())
        return (np.zeros(0, dtype=np.int64), np.array(sorted(left)),
                np.array(sorted(right)))
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


def _self_loop_graph():
    # an ER graph with a self-loop on every fifth node, then ten isolated
    # nodes, every other one with a self-loop of its own
    base = erdos_renyi(300, 0.012, seed=9)
    u, v, _ = base.edge_list()
    edges = list(zip(u.tolist(), v.tolist()))
    edges += [(i, i) for i in range(0, 300, 5)] + [(i, i) for i in range(300, 310, 2)]
    return build_csr(edges, n=310, allow_self_loops=True)


@pytest.mark.parametrize("make_graph, leaf_size", [
    (lambda: grid_graph(64, 64), 256),
    (lambda: grid_graph(20, 20), 50),
    (_disconnected_graph, 6),
    (lambda: erdos_renyi(300, 0.012, seed=5), 24),
    (lambda: preferential_attachment(500, 1, seed=2), 20),
    # many levels, and wide frontiers whose nodes share neighbours
    (lambda: small_world(3000, 4, 0.02), 64),
    (_self_loop_graph, 12),
], ids=["grid-64", "grid-20", "disconnected", "er", "pa-tree", "small-world",
        "self-loops"])
def test_partition_matches_reference_splitter(monkeypatch, make_graph, leaf_size):
    g = make_graph()
    got = build_partition_tree(g, leaf_size=leaf_size)
    monkeypatch.setattr(nested_dissection, "_split", _reference_split)
    want = build_partition_tree(g, leaf_size=leaf_size)
    assert len(got.nodes) == len(want.nodes) > 1
    for i, (a, b) in enumerate(zip(got.nodes, want.nodes)):
        assert a.parent == b.parent, i
        assert np.array_equal(a.sep, b.sep), i


def test_crossing_edge_is_named():
    # 6x6 grid, root separator = column 2; tree node 1 splits columns 0-1
    # into {1, 6, 7} and rows 2-5, so edges (6, 12) and (7, 13) cross it
    g = grid_graph(6, 6)

    def ids(*xs):
        return np.array(sorted(xs), dtype=np.int64)

    def cols(*cs):
        return ids(*(r * 6 + c for r in range(6) for c in cs))

    below = ids(12, 13, 18, 19, 24, 25, 30, 31)
    tree = PartitionTree([
        PartitionNode(-1, cols(2)),
        PartitionNode(0, ids(0)),
        PartitionNode(1, ids(1, 6, 7)),
        PartitionNode(1, below),
        PartitionNode(0, cols(3, 4, 5)),
    ])
    # leaf 2 is the first tree node with a row that crosses
    msg = r"edge \(6, 12\) leaves tree node 2"
    with pytest.raises(PartitionError, match=msg):
        nd_pdos_moments(scaled_operator_for(g, "adjacency"), tree, 3)


def test_moment_memory_stays_within_two_buffers_per_node():
    g = grid_graph(40, 40)
    sop = scaled_operator_for(g, "laplacian", seed=0)
    tree = build_partition_tree(g, leaf_size=64)
    m_max = 30
    least = buffers = largest = 0
    for i, (t, part) in enumerate(zip(tree.nodes, tree.validate(g.n))):
        rows = part.size + sum(tree.nodes[a].sep.size
                               for a in tree.ancestors(i))
        least += 2 * part.size * t.sep.size * 8
        buffers += 2 * rows * t.sep.size * 8
        largest = max(largest, rows * t.sep.size * 8)
    moments = g.n * (m_max + 1) * 8
    # slack: one transient block, and the operator and its blocks in CSR
    slack = largest + 32 * g.nnz
    tracemalloc.start()
    try:
        got = nd_pdos_moments(sop, tree, m_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < buffers + moments + slack, (peak, buffers, moments, slack)
    # the record's buffer bytes lie between the part's own rows and all
    # ancestor separators' rows on top of them
    assert least <= got.probe_meta["tree"]["buffer_bytes"] <= buffers


# Partition files that name a tree the recurrence cannot run on. Each must
# end in exit 1 with the PartitionError message, never in a traceback or
# in wrong moments.
_PATH5 = "0 1\n1 2\n2 3\n3 4\n"
MALFORMED_PARTITIONS = {
    "children-do-not-split-parent": (
        _PATH5, "0 -1 sep:2\n1 0 sep:0,3\n2 0 sep:1,4\n",
        r"edge \(0, 1\) leaves tree node 1"),
    "unknown-parent": (
        _PATH5,
        "0 -1 sep:2 left:0,1 right:3,4\n1 7 sep:0,1 left: right:\n"
        "2 0 sep:3,4 left: right:\n",
        "tree node 1 names parent 7, which has no line"),
    "parent-after-child": (
        _PATH5, "0 -1 sep:2\n1 2 sep:0,1\n2 0 sep:3,4\n",
        "tree node ids must order parents before children"),
    "id-beyond-n": (
        _PATH5, "0 -1 sep:0,1,2,3,7\n",
        r"separators do not hold each node id 0\.\.4 once"),
    "negative-id": (
        _PATH5, "0 -1 sep:-1,0,1,2,3 left: right:\n",
        r"separators do not hold each node id 0\.\.4 once"),
    "repeated-id": (
        _PATH5, "0 -1 sep:2,3,4\n1 0 sep:9\n1 0 sep:0,1\n",
        r"part\.txt:3: tree node 1 already has a line"),
    "repeated-id-valid-last": (
        _PATH5, "0 -1 sep:2,3,4\n1 0 sep:0,1\n1 0 sep:9\n",
        r"part\.txt:3: tree node 1 already has a line"),
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
    # nodes 0..lone-1 are isolated, so one moved into any separator leaves
    # the tree exact
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
        i = draw(st.sampled_from(range(1, len(nodes))))
        nodes[i].parent = draw(st.integers(-1, i - 1))
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


def test_corrupted_tree_is_refused_or_exact():
    outcomes = set()
    _raises_or_is_exact(outcomes)
    assert outcomes == {"refused", "exact"}


OPERATORS = ["adjacency", "laplacian", "normalized-laplacian",
             "normalized-adjacency"]


@st.composite
def _small_graphs(draw):
    """A small random graph (isolated nodes allowed), an operator and a
    leaf size small enough that most trees have ancestors to gather from."""
    n = draw(st.integers(2, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          min_size=1, max_size=20))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    assume(edges)
    return (build_csr(edges, n=n), draw(st.sampled_from(OPERATORS)),
            draw(st.integers(1, 6)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(case=_small_graphs())
def test_standard_basis_pdos_and_nd_pdos_match_the_oracle(case):
    # both run the one Chebyshev driver: pdos on one block of every row,
    # nd-pdos on tree-node blocks that gather their ancestors' rows
    g, kind, leaf_size = case
    m_max = 12
    sop, want = _oracle_node_moments(g, kind, m_max)
    probes = make_probes(g.n, g.n, ProbeKind.STANDARD_BASIS, seed=0)
    assert np.abs(pdos_moments(sop, probes, m_max).values - want).max() < 1e-10
    tree = build_partition_tree(g, leaf_size=leaf_size)
    got = nd_pdos_moments(sop, tree, m_max)
    assert np.abs(got.values - want).max() < 1e-10
