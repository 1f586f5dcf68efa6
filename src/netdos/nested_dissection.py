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

Each tree node holds one CSR block of 2·H over the rows I_p and the columns
[I_p; the ancestor separators that I_p touches], and two dense buffers of
that many rows by |I_s| columns. A step copies the ancestors' T_m rows into
the bottom of the current buffer, negates the top of the previous one and
advances the node with a single in-place accumulate,
prev += (2·H block) @ cur, before the two buffers swap roles. Memory is
therefore at most 2·(|I_p| + Σ|ancestor I_s|)·|I_s| floats per tree node,
and time and memory grow with the separator sizes: a graph without small
separators (an expander, a small world) costs close to dense.

The tree is built from level sets of breadth-first searches on the induced
subgraph of each piece, computed with ``scipy.sparse.csgraph``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import PartitionError
from .graph import GraphCSR
from .kpm import MODE_PER_NODE, ChebMoments
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
    children: list = field(default_factory=list)

    @property
    def part(self) -> np.ndarray:
        return np.sort(np.concatenate([self.sep, self.left, self.right]))

    @property
    def is_leaf(self) -> bool:
        return self.left.size == 0 and self.right.size == 0


@dataclass
class PartitionTree:
    """Nested-dissection tree; node 0 is the root and ids are pre-order."""

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
        and within 0..n-1.

        Whether the tree separates the graph is checked where the recurrence
        cuts each node's block (`nd_pdos_moments`).
        """
        seps = np.sort(np.concatenate([t.sep for t in self.nodes]))
        if not np.array_equal(seps, np.arange(n)):
            raise PartitionError(
                f"the separators do not hold each node id 0..{n - 1} once")
        for t in self.nodes:
            if t.parent >= t.node_id:
                raise PartitionError("tree node ids must order parents before children")
            part = t.part
            if part.size and (part[0] < 0 or part[-1] >= n
                              or np.any(part[1:] == part[:-1])):
                raise PartitionError(f"tree node {t.node_id} has overlapping "
                                     f"pieces or an id outside 0..{n - 1}")


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


def _split_component(g, members):
    """Level-set separator from a pseudo-peripheral BFS; None if inseparable."""
    from scipy.sparse.csgraph import breadth_first_order, shortest_path

    sub = _induced_subgraph(g, members)
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
    sep = members[lv == best]
    left = members[lv < best]
    right = members[lv > best]
    return sep, left, right


def _components(g, members):
    """Connected pieces of the induced subgraph, sorted, by smallest member."""
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(_induced_subgraph(g, members),
                                     directed=False)
    order = np.argsort(labels, kind="stable")
    comps = np.split(members[order], np.cumsum(np.bincount(labels))[:-1])
    comps.sort(key=lambda c: int(c[0]))
    return comps


def build_partition_tree(g: GraphCSR, leaf_size=LEAF_SIZE) -> PartitionTree:
    """Recursive vertex-separator decomposition; deterministic given g.

    Connected pieces are split at the most balanced BFS level set grown from
    a pseudo-peripheral node; disconnected pieces split with an empty
    separator. Pieces whose BFS depth admits no interior level (dense blobs)
    become leaves regardless of size.
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
            return node_id
        comps = _components(g, members)
        if len(comps) > 1:
            comps.sort(key=lambda c: (-c.shape[0], int(c[0])))
            side = [[], []]
            sizes = [0, 0]
            for comp in comps:
                pick = 0 if sizes[0] <= sizes[1] else 1
                side[pick].append(comp)
                sizes[pick] += comp.shape[0]
            sep = empty
            left = np.sort(np.concatenate(side[0]))
            right = np.sort(np.concatenate(side[1]))
        else:
            split = _split_component(g, members)
            if split is None:
                if members.shape[0] > leaf_size:
                    warnings.warn(
                        f"piece of {members.shape[0]} nodes has no level-set "
                        "separator; keeping it as a dense leaf", stacklevel=2)
                return node_id
            sep, left, right = split
            if sep.shape[0] > max(left.shape[0], right.shape[0]):
                warnings.warn(
                    f"separator ({sep.shape[0]} nodes) larger than both sides "
                    f"({left.shape[0]}, {right.shape[0]}); recurrence stays "
                    "exact but loses its cost advantage", stacklevel=2)
        node.sep = np.sort(sep)
        node.left = left
        node.right = right
        node.children.append(recurse(left, node_id))
        node.children.append(recurse(right, node_id))
        return node_id

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
        if t.parent != -1:
            if t.parent not in nodes:
                raise PartitionError(f"{path}: tree node {t.node_id} names "
                                     f"parent {t.parent}, which has no line")
            nodes[t.parent].children.append(t.node_id)
    total = ordered[0].part.shape[0]
    return PartitionTree(n=int(n) if n is not None else int(total), nodes=ordered)


class _BlockState:
    """One tree node's share of the recurrence.

    `block` is 2·H restricted to the rows of the node's part and the columns
    [part; touched ancestor separators], so one accumulate advances all of
    the node's columns. `prev` and `cur` each hold T(part, sep) in their top
    rows; before every step the rows below receive T_m(anc_sep, sep) for
    each ancestor in `gathers`, copied from the ancestor's own block.
    """

    __slots__ = ("sep", "npart", "diag", "block", "gathers", "prev", "cur")


def _node_state(t, tree, states, indptr, indices, data, lookup):
    st = _BlockState()
    part = t.part
    st.sep = t.sep
    st.npart = part.shape[0]
    ns = st.sep.shape[0]
    st.diag = np.searchsorted(part, st.sep) * ns + np.arange(ns)

    # cut 2·H over the rows `part` and the columns [part; ancestor
    # separators]; the recurrence is exact only if no row reaches further
    ancs = [a for a in tree.ancestors(t.node_id) if states[a] is not None]
    bounds = np.cumsum([st.npart] + [states[a].sep.shape[0] for a in ancs])
    lookup[part] = np.arange(st.npart)
    for a, lo in zip(ancs, bounds[:-1]):
        lookup[states[a].sep] = np.arange(lo, lo + states[a].sep.shape[0])
    take, counts = _row_entries(indptr, part)
    cols = lookup[indices[take]]
    lookup[part] = -1
    for a in ancs:
        lookup[states[a].sep] = -1
    ptr = np.zeros(st.npart + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    outside = np.flatnonzero(cols < 0)
    if outside.size:
        u = part[np.searchsorted(ptr, outside[0], side="right") - 1]
        v = indices[take[outside[0]]]
        raise PartitionError(
            f"edge ({u}, {v}) leaves tree node {t.node_id}: {v} is neither "
            "in its part nor in an ancestor's separator")

    # drop the ancestor separators that no row of the part touches; the
    # kept column segments close up over the dropped ones
    seg = np.searchsorted(bounds, cols, side="right")
    used = np.bincount(seg, minlength=bounds.shape[0]) > 0
    used[0] = True
    shift = np.cumsum(np.diff(bounds, prepend=0) * ~used)
    st.block = (ptr, cols - shift[seg], 2.0 * data[take])
    st.gathers = []
    lo = st.npart
    for a, keep in zip(ancs, used[1:]):
        if keep:
            # T_m(anc_sep, sep) is, by symmetry, the transpose of rows
            # `sep` of the ancestor's T_m(anc_part, anc_sep)
            anc_part = tree.nodes[a].part
            if not np.isin(st.sep, anc_part).all():
                raise PartitionError(
                    f"tree node {t.node_id} reads rows of its ancestor {a}, "
                    "whose part does not hold its separator")
            k = states[a].sep.shape[0]
            st.gathers.append((a, np.searchsorted(anc_part, st.sep), lo, lo + k))
            lo += k

    st.prev = np.zeros((lo, ns))
    st.prev.reshape(-1)[st.diag] = 1.0
    # T_1 = ½·(2·H block)·T_0 exactly: each entry is a single product by 1
    st.cur = np.zeros((lo, ns))
    top = st.cur[:st.npart]
    _kernels.csr_matvec(*st.block, st.prev, out=top)
    top *= 0.5
    return st


def nd_pdos_moments(sop: SymmetricCSROperator, tree: PartitionTree,
                    m_max) -> ChebMoments:
    """Exact per-node moments c_mk = T_m(H)_kk via the partition tree, for
    H = `sop` as returned by `rescale_operator`."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    n = sop.n
    tree.validate(n)
    indptr, indices, data = sop.indptr, sop.indices, sop.data

    lookup = np.full(n, -1, dtype=np.int64)
    states = [None] * len(tree.nodes)
    for t in tree.nodes:
        # a node with an empty separator owns no columns and feeds no one
        if t.sep.size:
            states[t.node_id] = _node_state(t, tree, states, indptr, indices,
                                            data, lookup)
    active = [st for st in states if st is not None]

    moments = np.empty((n, m_max + 1))
    moments[:, 0] = 1.0
    if m_max >= 1:
        for st in active:
            moments[st.sep, 1] = np.take(st.cur, st.diag)

    for m in range(1, m_max):
        for st in active:
            # pre-order: every ancestor has already stepped, so its `prev`
            # now holds T_m
            for a, anc_pos, lo, hi in st.gathers:
                st.cur[lo:hi] = states[a].prev[anc_pos].T
            top = st.prev[:st.npart]
            np.negative(top, out=top)
            ptr, idx, val = st.block
            _kernels.csr_matvec(ptr, idx, val, st.cur, out=top, accumulate=True)
            st.prev, st.cur = st.cur, st.prev
            moments[st.sep, m + 1] = np.take(st.cur, st.diag)

    return ChebMoments(mode=MODE_PER_NODE, values=moments,
                       scale_map=sop.scale_map,
                       probe_meta={"kind": "exact", "method": "nested-dissection"})
