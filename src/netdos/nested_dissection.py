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
separators, or an ancestor part without I_s whose rows are needed, raises
PartitionError. `PartitionTree.validate` checks only the tree's shape.

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
subgraph of each piece, computed with ``scipy.sparse.csgraph``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PartitionError
from .graph import GraphCSR
from .kpm import (MODE_PER_NODE, ChebMoments, ColumnBlock,
                  chebyshev_recurrence)
from .operators import SymmetricCSROperator

# Pieces of at most this many nodes become leaves of the partition tree.
LEAF_SIZE = 256


@dataclass
class PartitionNode:
    """One tree node: separator plus left/right node sets (leaf: sep only)."""

    node_id: int
    parent: int
    sep: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def part(self) -> np.ndarray:
        return np.sort(np.concatenate([self.sep, self.left, self.right]))


@dataclass
class PartitionTree:
    """Nested-dissection tree; node 0 is the root and ids are pre-order. A
    node's children are the nodes that name it as `parent`."""

    n: int
    nodes: list

    def ancestors(self, node_id):
        """Path of strict ancestors, root first."""
        path = []
        cur = self.nodes[node_id].parent
        while cur >= 0:
            path.append(cur)
            cur = self.nodes[cur].parent
        return path[::-1]

    def validate(self, n):
        """Check the tree's shape: the separators hold the ids 0..n-1 once
        each, parents precede children, and each node's pieces are disjoint
        and within 0..n-1. Returns each node's part, by node id.

        Whether the tree separates the graph is checked where the recurrence
        cuts each node's block (`nd_pdos_moments`).
        """
        seps = np.sort(np.concatenate([t.sep for t in self.nodes]))
        if not np.array_equal(seps, np.arange(n)):
            raise PartitionError(
                f"the separators do not hold each node id 0..{n - 1} once")
        parts = []
        for t in self.nodes:
            if t.parent >= t.node_id:
                raise PartitionError("tree node ids must order parents before children")
            part = t.part
            if part.size and (part[0] < 0 or part[-1] >= n
                              or np.any(part[1:] == part[:-1])):
                raise PartitionError(f"tree node {t.node_id} has overlapping "
                                     f"pieces or an id outside 0..{n - 1}")
            parts.append(part)
        return parts


def _row_entries(indptr, rows):
    """Positions of the stored entries of `rows`, row after row, and the
    number of entries in each row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    take = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return take + np.arange(take.shape[0]), counts


def _induced_subgraph(g, members):
    """Adjacency of the subgraph induced by sorted `members`, in member-local ids.

    Rows keep their stored column order, so traversals visit neighbours in
    the same order as a walk over ``g`` itself would.
    """
    # scipy is imported by the functions that use it, so that commands
    # without nested dissection start without it
    from scipy.sparse import csr_array

    take, counts = _row_entries(g.row_ptr, members)
    cols = g.col_idx[take]
    local = np.minimum(np.searchsorted(members, cols), members.shape[0] - 1)
    keep = members[local] == cols
    rows = np.repeat(np.arange(members.shape[0]), counts)[keep]
    indptr = np.zeros(members.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=members.shape[0]), out=indptr[1:])
    return csr_array((np.ones(rows.shape[0]), local[keep], indptr),
                     shape=(members.shape[0], members.shape[0]))


def _split(g, members):
    """(sep, left, right) of a piece as `build_partition_tree` splits it,
    from one build of its induced subgraph; None if it is connected and its
    BFS has no interior level."""
    from scipy.sparse.csgraph import (breadth_first_order,
                                      connected_components, shortest_path)

    sub = _induced_subgraph(g, members)
    count, labels = connected_components(sub, directed=False)
    if count > 1:
        order = np.argsort(labels, kind="stable")
        comps = np.split(members[order], np.cumsum(np.bincount(labels))[:-1])
        comps.sort(key=lambda c: (-c.shape[0], int(c[0])))
        side = [[], []]
        sizes = [0, 0]
        for comp in comps:
            pick = 0 if sizes[0] <= sizes[1] else 1
            side[pick].append(comp)
            sizes[pick] += comp.shape[0]
        return (np.zeros(0, dtype=np.int64), np.sort(np.concatenate(side[0])),
                np.sort(np.concatenate(side[1])))
    order = breadth_first_order(sub, 0, directed=True,
                                return_predecessors=False)
    lv = shortest_path(sub, unweighted=True,
                       indices=int(order[-1])).astype(np.int64)
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
        node_id = len(nodes)
        empty = np.zeros(0, dtype=np.int64)
        node = PartitionNode(node_id=node_id, parent=parent, sep=members,
                             left=empty, right=empty)
        nodes.append(node)
        if members.shape[0] <= leaf_size:
            return
        split = _split(g, members)
        if split is None:
            return
        sep, left, right = split
        node.sep = np.sort(sep)
        node.left = left
        node.right = right
        recurse(left, node_id)
        recurse(right, node_id)

    recurse(np.arange(g.n, dtype=np.int64), -1)
    return PartitionTree(n=g.n, nodes=nodes)


def save_partition(tree: PartitionTree, path):
    """One line per tree node: `node_id parent_id sep:<ids> left:<ids> right:<ids>`."""
    with open(path, "w") as fh:
        for t in tree.nodes:
            fh.write(f"{t.node_id} {t.parent}"
                     f" sep:{','.join(map(str, t.sep.tolist()))}"
                     f" left:{','.join(map(str, t.left.tolist()))}"
                     f" right:{','.join(map(str, t.right.tolist()))}\n")


def load_partition(path, n=None) -> PartitionTree:
    nodes = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                parts = line.split()
                node_id, parent = int(parts[0]), int(parts[1])
                fields = {}
                for tok in parts[2:]:
                    name, _, body = tok.partition(":")
                    ids = [int(x) for x in body.split(",") if x != ""]
                    fields[name] = np.array(sorted(ids), dtype=np.int64)
                node = PartitionNode(node_id=node_id, parent=parent,
                                     sep=fields["sep"], left=fields["left"],
                                     right=fields["right"])
            except (ValueError, KeyError, IndexError) as exc:
                raise PartitionError(f"{path}:{lineno}: malformed partition line") from exc
            nodes[node_id] = node
    if not nodes or 0 not in nodes:
        raise PartitionError("partition file has no root (node 0)")
    ordered = [nodes[i] for i in sorted(nodes)]
    if [t.node_id for t in ordered] != list(range(len(ordered))):
        raise PartitionError("partition node ids must be 0..count-1")
    for t in ordered:
        if t.parent != -1 and t.parent not in nodes:
            raise PartitionError(f"{path}: tree node {t.node_id} names "
                                 f"parent {t.parent}, which has no line")
    total = ordered[0].part.shape[0]
    return PartitionTree(n=int(n) if n is not None else int(total), nodes=ordered)


def _node_state(t, tree, parts, blocks, sop, lookup):
    """Tree node t's `ColumnBlock`, whose T_0 is the identity on the
    separator's columns, and the flat positions of T(sep, sep)'s diagonal."""
    part, sep = parts[t.node_id], t.sep
    npart, ns = part.shape[0], sep.shape[0]

    # cut 2·H over the rows `part` and the columns [part; ancestor
    # separators]; the recurrence is exact only if no row reaches further
    ancs = [a for a in tree.ancestors(t.node_id) if blocks[a] is not None]
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
            f"edge ({u}, {v}) leaves tree node {t.node_id}: {v} is neither "
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
            anc_part = parts[a]
            pos = np.searchsorted(anc_part, sep)
            if not np.array_equal(anc_part.take(pos, mode="clip"), sep):
                raise PartitionError(
                    f"tree node {t.node_id} reads rows of its ancestor {a}, "
                    "whose part does not hold its separator")
            gathers.append((blocks[a], pos, lo, lo + s.shape[0]))
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
    for t in tree.nodes:
        # a node with an empty separator owns no columns and feeds no one
        if t.sep.size:
            blocks[t.node_id], diag = _node_state(t, tree, parts, blocks,
                                                  sop, lookup)
            fills.append((blocks[t.node_id], t.sep, diag))

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
    return ChebMoments(mode=MODE_PER_NODE, values=moments,
                       scale_map=sop.scale_map,
                       probe_meta={"kind": "exact", "method": "nested-dissection",
                                   "tree": cost})
