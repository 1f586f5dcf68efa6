"""Exact per-node Chebyshev moments through nested-dissection recurrences.

A vertex-separator tree lets the three-term matrix recurrence be advanced
block-column-wise: for every tree node t the columns T_m(H)(I_p, I_s) are
kept, where I_p is the partition's node set and I_s its separator (leaves
use I_s = I_p). Because a partition's rows only touch rows inside the
partition or in ancestor separators, the update needs the ancestors' column
blocks at degree m, which a pre-order traversal has just produced; the
cross block T_m(I_s', I_s) is read from the ancestor's block by symmetry.
Leaf blocks and separator columns expose the exact diagonal entries, so the
result carries no stochastic error. H comes from `rescale_operator` with
the map onto [-1, 1] already folded into its CSR arrays, which the blocks
below are cut from directly.

The recurrence is exact only under that invariant, which is checked as
each tree node's block is cut: a row reaching outside I_p and the ancestor
separators raises PartitionError. A tree stores only each node's parent and
separator; `PartitionTree.validate` checks that shape and derives every
I_p from it, as the separator and the children's parts, so an ancestor's
part holds every separator below it.

Each tree node is one `kpm.ColumnBlock`, stepped by the driver that KPM
runs on its probes, `kpm.chebyshev_recurrence`: a CSR block of 2·H over
the rows I_p and the columns [I_p; the ancestor separators that I_p
touches], and two dense buffers of that many rows by |I_s| columns. Before
each step the ancestors' T_m rows are gathered into the rows below I_p;
then the I_p rows advance with one kernel call. Memory is therefore at
most 2·(|I_p| + Σ|ancestor I_s|)·|I_s| floats per tree node, and time and
memory grow with the separator sizes: a graph without small separators (an
expander, a small world) costs close to dense. That cost is judged in one
place, for built and loaded trees alike: `nd_pdos_moments` states it in
the record's `probe_meta["tree"]`. The moments are exact, so the driver
holds each column m of the diagonal to its degree-0 value, |c_mk| <= 1,
as it is made.

The tree is built from level sets of breadth-first searches on the induced
subgraph of each piece, computed on its CSR arrays with numpy alone, so
``nd-pdos`` starts without ``scipy.sparse``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PartitionError
from .graph import GraphCSR
from .kpm import ChebMoments, ColumnBlock, chebyshev_recurrence
from .operators import SymmetricCSROperator

# Pieces of at most this many nodes become leaves of the partition tree.
LEAF_SIZE = 256


@dataclass
class PartitionNode:
    """One tree node: its parent's id (-1 at the root) and its sorted
    separator; a leaf's separator is its whole piece."""

    parent: int
    sep: np.ndarray


@dataclass
class PartitionTree:
    """Nested-dissection tree; a node's id is its position in `nodes`, node
    0 is the root and ids are pre-order. A node's children are the nodes
    that name it as `parent`, and its part is its separator plus their
    parts."""

    nodes: list

    def ancestors(self, i):
        """Path of strict ancestors of tree node i, root first."""
        path = []
        cur = self.nodes[i].parent
        while cur >= 0:
            path.append(cur)
            cur = self.nodes[cur].parent
        return path[::-1]

    def validate(self, n):
        """Check the tree's shape: the separators hold the ids 0..n-1 once
        each, and parents precede children. Returns each node's part, by
        node id: the sorted union of its separator and its children's parts.

        Whether the tree separates the graph is checked where the recurrence
        cuts each node's block (`nd_pdos_moments`).
        """
        seps = np.sort(np.concatenate([t.sep for t in self.nodes]))
        if not np.array_equal(seps, np.arange(n)):
            raise PartitionError(
                f"the separators do not hold each node id 0..{n - 1} once")
        parts = [[t.sep] for t in self.nodes]
        for i in range(len(self.nodes) - 1, -1, -1):
            parent = self.nodes[i].parent
            if parent >= i:
                raise PartitionError("tree node ids must order parents before children")
            parts[i] = np.sort(np.concatenate(parts[i]))
            if parent >= 0:
                parts[parent].append(parts[i])
        return parts


def _row_entries(indptr, rows):
    """Positions of the stored entries of `rows`, row after row, and the
    number of entries in each row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    take = (starts + counts - counts.cumsum()).repeat(counts)
    return take + np.arange(take.shape[0]), counts


def _induced_subgraph(g, members):
    """CSR arrays ``(indptr, indices)`` of the subgraph induced by sorted
    `members`, in member-local ids.

    Rows keep their stored column order, so traversals visit neighbours in
    the same order as a walk over ``g`` itself would.
    """
    take, counts = _row_entries(g.row_ptr, members)
    cols = g.col_idx[take]
    local = np.minimum(np.searchsorted(members, cols), members.shape[0] - 1)
    keep = members[local] == cols
    rows = np.repeat(np.arange(members.shape[0]), counts)[keep]
    indptr = np.zeros(members.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=members.shape[0]), out=indptr[1:])
    return indptr, local[keep]


def _bfs(indptr, indices, start):
    """Breadth-first levels from `start` (-1 where unreached) and the node
    visited last.

    Each level is the previous level's unvisited neighbours, frontier order
    first, then stored column order, each node at its first occurrence:
    the visit order of a FIFO search that takes neighbours in stored order.
    """
    # a visited node's mark is -1 - its level; an unvisited neighbour takes
    # the smallest position it holds in the level's neighbour list, so its
    # first occurrence is found without a sort, in O(frontier)
    unseen = indices.shape[0]
    mark = np.full(indptr.shape[0] - 1, unseen, dtype=np.int64)
    mark[start] = -1
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    while True:
        take, _ = _row_entries(indptr, frontier)
        nbrs = indices[take]
        pos = np.arange(nbrs.shape[0])
        np.minimum.at(mark, nbrs, pos)
        fresh = nbrs[mark[nbrs] == pos]
        if not fresh.size:
            return np.maximum(-1 - mark, -1), int(frontier[-1])
        depth += 1
        mark[fresh] = -1 - depth
        frontier = fresh


def _components(indptr, indices):
    """Each node's component label: the smallest node id in its component.

    Min-label hooking with pointer jumping: every root takes the smallest
    root it shares an edge with, then every node points straight at its
    root. Labels only fall, so the rounds end; a randomly numbered path of
    100,000 nodes takes 11.
    """
    n = indptr.shape[0] - 1
    src = np.repeat(np.arange(n), np.diff(indptr))
    label = np.arange(n)
    while True:
        lu, lv = label[src], label[indices]
        if np.array_equal(lu, lv):
            return label
        np.minimum.at(label, lu, lv)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _split(g, members):
    """(sep, left, right) of a sorted piece as `build_partition_tree` splits
    it, each sorted, from one build of its induced subgraph; None if it is
    connected and its BFS has no interior level."""
    indptr, indices = _induced_subgraph(g, members)
    lv, last = _bfs(indptr, indices, 0)
    if lv.min() < 0:
        # largest component first (smallest id on ties), each onto the side
        # holding fewer nodes
        label = _components(indptr, indices)
        roots = np.flatnonzero(label == np.arange(label.shape[0]))
        sizes = np.bincount(label)[roots]
        order = np.lexsort((roots, -sizes))
        root_right = np.zeros(label.shape[0], dtype=bool)
        held = [0, 0]
        for root, size in zip(roots[order].tolist(), sizes[order].tolist()):
            pick = held[0] > held[1]
            root_right[root] = pick
            held[pick] += size
        right = root_right[label]
        return np.zeros(0, dtype=np.int64), members[~right], members[right]
    lv, _ = _bfs(indptr, indices, last)
    depth = int(lv.max())
    if depth < 2:
        return None
    counts = np.bincount(lv, minlength=depth + 1)
    below = np.cumsum(counts)
    # most balanced interior level; the first one wins ties
    cost = np.maximum(below[:depth - 1], below[depth] - below[1:depth])
    best = 1 + int(np.argmin(cost))
    return members[lv == best], members[lv < best], members[lv > best]


def build_partition_tree(g: GraphCSR, leaf_size=LEAF_SIZE) -> PartitionTree:
    """Recursive vertex-separator decomposition; deterministic given g.

    Connected pieces are split at the most balanced BFS level set grown from
    a pseudo-peripheral node; disconnected pieces split with an empty
    separator. Pieces whose BFS depth admits no interior level (dense blobs)
    become leaves regardless of size. What the tree costs is judged where it
    is used: `nd_pdos_moments` reports it.
    """
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    nodes = []

    def recurse(members, parent):
        i = len(nodes)
        nodes.append(PartitionNode(parent=parent, sep=members))
        split = _split(g, members) if members.shape[0] > leaf_size else None
        if split is not None:
            nodes[i].sep, left, right = split
            recurse(left, i)
            recurse(right, i)

    recurse(np.arange(g.n, dtype=np.int64), -1)
    return PartitionTree(nodes=nodes)


def save_partition(tree: PartitionTree, path):
    """One line per tree node, in id order: `id parent_id sep:<ids>`."""
    with open(path, "w") as fh:
        for i, t in enumerate(tree.nodes):
            fh.write(f"{i} {t.parent} sep:{','.join(map(str, t.sep.tolist()))}\n")


def load_partition(path) -> PartitionTree:
    """Read `save_partition`'s lines; the `left:` and `right:` fields of
    files written by earlier versions are read and ignored."""
    nodes = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                parts = line.split()
                i, parent = int(parts[0]), int(parts[1])
                fields = {}
                for tok in parts[2:]:
                    name, _, body = tok.partition(":")
                    ids = [int(x) for x in body.split(",") if x != ""]
                    fields[name] = np.array(sorted(ids), dtype=np.int64)
                node = PartitionNode(parent=parent, sep=fields["sep"])
            except (ValueError, KeyError, IndexError) as exc:
                raise PartitionError(f"{path}:{lineno}: malformed partition line") from exc
            if i in nodes:
                raise PartitionError(f"{path}:{lineno}: tree node {i} "
                                     "already has a line")
            nodes[i] = node
    if 0 not in nodes:
        raise PartitionError("partition file has no root (node 0)")
    if sorted(nodes) != list(range(len(nodes))):
        raise PartitionError("partition node ids must be 0..count-1")
    ordered = [nodes[i] for i in range(len(nodes))]
    for i, t in enumerate(ordered):
        if t.parent != -1 and t.parent not in nodes:
            raise PartitionError(f"{path}: tree node {i} names "
                                 f"parent {t.parent}, which has no line")
    return PartitionTree(nodes=ordered)


def _node_state(i, tree, parts, blocks, sop, lookup):
    """Tree node i's `ColumnBlock`, whose T_0 is the identity on the
    separator's columns, and the flat positions of T(sep, sep)'s diagonal."""
    part, sep = parts[i], tree.nodes[i].sep
    npart, ns = part.shape[0], sep.shape[0]

    # cut 2·H over the rows `part` and the columns [part; ancestor
    # separators]; the recurrence is exact only if no row reaches further
    ancs = [a for a in tree.ancestors(i) if blocks[a] is not None]
    anc_seps = [tree.nodes[a].sep for a in ancs]
    bounds = np.cumsum([npart] + [s.shape[0] for s in anc_seps])
    lookup[part] = np.arange(npart)
    for s, lo in zip(anc_seps, bounds[:-1]):
        lookup[s] = np.arange(lo, lo + s.shape[0])
    take, counts = _row_entries(sop.indptr, part)
    cols = lookup[sop.indices[take]]
    lookup[part] = -1
    for s in anc_seps:
        lookup[s] = -1
    ptr = np.zeros(npart + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    outside = np.flatnonzero(cols < 0)
    if outside.size:
        u = part[np.searchsorted(ptr, outside[0], side="right") - 1]
        v = sop.indices[take[outside[0]]]
        raise PartitionError(
            f"edge ({u}, {v}) leaves tree node {i}: {v} is neither "
            "in its part nor in an ancestor's separator")

    # drop the ancestor separators that no row of the part touches; the
    # kept column segments close up over the dropped ones
    seg = np.searchsorted(bounds, cols, side="right")
    used = np.bincount(seg, minlength=bounds.shape[0]) > 0
    used[0] = True
    shift = np.cumsum(np.diff(bounds, prepend=0) * ~used)
    gathers = []
    lo = npart
    for a, s, keep in zip(ancs, anc_seps, used[1:]):
        if keep:
            # T_m(anc_sep, sep) is, by symmetry, the transpose of rows
            # `sep` of the ancestor's T_m(anc_part, anc_sep)
            gathers.append((blocks[a], np.searchsorted(parts[a], sep),
                            lo, lo + s.shape[0]))
            lo += s.shape[0]

    diag = np.searchsorted(part, sep) * ns + np.arange(ns)
    t0 = np.zeros((lo, ns))
    t0.reshape(-1)[diag] = 1.0
    block = ColumnBlock((ptr, cols - shift[seg], 2.0 * sop.data[take]), t0,
                        np.empty_like(t0), npart, gathers)
    return block, diag


def nd_pdos_moments(sop: SymmetricCSROperator, tree: PartitionTree,
                    m_max) -> ChebMoments:
    """Exact per-node moments c_mk = T_m(H)_kk via the partition tree, for
    H = `sop` as returned by `rescale_operator`.

    `probe_meta["tree"]` states what the tree costs: its node count, the
    root's separator size, the largest separator (a leaf's is its whole
    piece) and the bytes of the blocks' dense buffers."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    n = sop.n
    parts = tree.validate(n)

    lookup = np.full(n, -1, dtype=np.int64)
    blocks = [None] * len(tree.nodes)
    fills = []
    for i, t in enumerate(tree.nodes):
        # a node with an empty separator owns no columns and feeds no one
        if t.sep.size:
            blocks[i], diag = _node_state(i, tree, parts, blocks, sop, lookup)
            fills.append((blocks[i], t.sep, diag))

    moments = np.empty((n, m_max + 1))

    def collect(m):
        for block, sep, diag in fills:
            moments[sep, m] = np.take(block.cur, diag)
        return [moments[:, m]]

    # pre-order: every ancestor steps before the nodes that gather from it
    chebyshev_recurrence([f[0] for f in fills], m_max, collect)

    cost = {"nodes": len(tree.nodes), "root_separator": tree.nodes[0].sep.size,
            "largest_separator": max(t.sep.size for t in tree.nodes),
            "buffer_bytes": sum(b.cur.nbytes + b.prev.nbytes for b, _, _ in fills)}
    return ChebMoments(moments, sop.scale_map,
                       {"kind": "exact", "method": "nested-dissection", "tree": cost})
