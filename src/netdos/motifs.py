"""Detection and deflation of spike-producing local symmetries.

Three structures are detected, each a set of classes of nodes whose
eigenvectors are supported on the structure alone:

* open twins -- nodes with identical neighbor lists (and not adjacent);
  one class.
* closed twins -- adjacent nodes whose remaining neighborhoods coincide;
  one class.
* dangling two-chains -- pendant paths x - b - hub; two classes per hub,
  its chains' leaves and their middles, in matching order.

The eigenvalues come from the operator by one rule. The classes and the
rest of the nodes form an equitable partition of the operator (Godsil and
Royle, Algebraic Graph Theory, section 9.3): on the vectors supported on a
structure that sum to zero within each of its k classes, it acts as the
k x k matrix B_ab = op[a_0, b_0] - op[a_0, b_1], a_i the i-th node of class
a, because op[a_i, b_j] depends only on whether i = j. B's eigenvalues are
the structure's, each with multiplicity |class| - 1. They are read from
op's stored entries, so they hold for whichever operator is passed: a
twin's is H_aa - H_ab (0 for open twins under the adjacency, -w/d for
degree-d closed twins joined by weight w under the normalized adjacency),
and a hub's chains give the 2 x 2 leaf-middle block's two (+-1/sqrt(2)
under the normalized adjacency).

Detection is exact and uses no randomness. Open twins are the classes of
loop-free nodes whose CSR rows hold the same columns and bitwise the same
weights. Closed-twin candidates are the classes of equal rows of the
pattern of A + I, split by a check that each pair's rows agree in weight
outside the pair. Rows are grouped by one sort over (length, id sum,
weight-bit sum) and then, among the nodes that share all three, by sorting
the rows themselves. Dangling chains are found with array operations on
the row lengths and grouped by hub. Deflating the eigenvectors lets the
smooth remainder of the spectrum be approximated with far fewer moments;
the removed spike mass is re-inserted at histogram time.

A `MotifInstance` is one structure: its k classes, all of one size, and
B's k eigenvalues. Detected instances never share a node.

Deflation keeps the complement of those vectors, the vectors constant on
each class. H maps it into itself, and its orthonormal basis 1_C/sqrt|C|,
one column of P per class (and per node outside every instance), turns H
on it into the quotient Q = P^T H P of an equitable partition (Godsil and
Royle, Algebraic Graph Theory, section 9.3). For any probe z, z^T P P^T
T_m(H) P P^T z = (P^T z)^T T_m(Q) (P^T z), so the recurrence runs on Q, of
order n - r, with the probes P^T z. The removed multiplicities travel as a
`FilterAdjustment`, which the moment series of the quotient carries
(`kpm.dos_moments`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import index

import numpy as np

from .errors import MotifError
from .graph import GraphCSR
from .operators import quotient_operator
from .probes import ProbeMatrix


class MotifKind(str, Enum):
    OPEN_TWIN = "open-twin"
    CLOSED_TWIN = "closed-twin"
    DANGLING_TWO_CHAIN = "dangling-two-chain"


_KIND_RANK = {kind: i for i, kind in enumerate(MotifKind)}


def _rank(inst):
    """Report order of detect_motifs."""
    return (_KIND_RANK[inst.kind], inst.nodes[0])


@dataclass
class MotifInstance:
    """One detected structure: k classes of nodes, all of one size s, and
    the k eigenvalues of its matrix B, each of multiplicity s - 1.

    The structure's eigenvectors for the operator passed to `detect_motifs`
    are the vectors on `nodes` that sum to zero within each class; B is
    read from that operator's entries (see the module docstring). A twin
    instance has one class, its nodes, and one eigenvalue. A hub's dangling
    chains have two classes, the leaves and their middles (the middle of
    leaves[i] at middles[i]), and two eigenvalues, one per mode of the 2 x 2
    leaf-middle block. `nodes` is the union of the classes, ascending.
    Checked when built: one eigenvalue per class, and at least one class,
    all of one size of two or more node ids (an id that is not an integer
    raises TypeError), with no node twice.
    """

    kind: MotifKind
    classes: tuple
    eigenvalues: tuple
    nodes: tuple = field(init=False)

    def __post_init__(self):
        self.classes = tuple(tuple(map(index, c)) for c in self.classes)
        self.eigenvalues = tuple(map(float, self.eigenvalues))
        self.nodes = tuple(sorted(x for c in self.classes for x in c))
        sizes = set(map(len, self.classes))
        if (len(sizes) != 1 or min(sizes) < 2 or len(set(self.nodes)) != len(self.nodes)
                or len(self.eigenvalues) != len(self.classes)):
            raise MotifError(f"classes {self.classes} need one size of two or more "
                             "nodes each, may not repeat a node, and need one "
                             f"eigenvalue each, got {self.eigenvalues}")

    @property
    def multiplicity(self) -> int:
        """Each eigenvalue's multiplicity: the class size less one."""
        return len(self.classes[0]) - 1


@dataclass
class FilterAdjustment:
    """Per-eigenvalue multiplicities removed by deflation from `total_dim`
    dimensions. Checked when built: every eigenvalue finite, every count a
    positive int, `total_dim` an integer (stored as an int), and
    0 <= deflated_dim < total_dim."""

    removed: dict
    total_dim: int

    def __post_init__(self):
        try:
            self.total_dim = index(self.total_dim)
        except TypeError as exc:
            raise MotifError("total_dim must be an integer, "
                             f"got {self.total_dim!r}") from exc
        if not all(np.isfinite(lam) and type(count) is int and count > 0
                   for lam, count in self.removed.items()):
            raise MotifError("removed spikes need finite eigenvalues and "
                             f"positive int counts, got {self.removed}")
        if not 0 <= self.deflated_dim < self.total_dim:
            raise MotifError(f"deflated_dim {self.deflated_dim} must lie in "
                             f"0..total_dim - 1 (total_dim {self.total_dim})")

    @property
    def deflated_dim(self) -> int:
        return int(sum(self.removed.values()))


def _equal_rows(ptr, cols, vals, nodes):
    """Classes of two or more of `nodes` (ascending) whose rows hold the same
    columns and bitwise the same values, each class in ascending order.

    One lexsort over (row length, id sum, weight-bit sum) keeps the nodes
    that share all three with another node; among those, one lexsort per
    row length compares the rows themselves.
    """
    bits = vals.view(np.int64)

    def row_sums(x):  # int64 sums wrap alike for equal rows
        total = np.zeros(x.shape[0] + 1, dtype=np.int64)
        np.cumsum(x, out=total[1:])
        return total[ptr[nodes + 1]] - total[ptr[nodes]]

    length = ptr[nodes + 1] - ptr[nodes]
    keys = np.stack([row_sums(bits), row_sums(cols), length])
    order = np.lexsort(keys)
    tie = np.all(keys[:, order[1:]] == keys[:, order[:-1]], axis=0)
    shared = np.zeros(nodes.shape[0], dtype=bool)
    shared[order[1:][tie]] = shared[order[:-1][tie]] = True

    classes = []
    for size in np.flatnonzero(np.bincount(length[shared])).tolist():
        group = nodes[shared & (length == size)]
        at = ptr[group][:, None] + np.arange(size)
        rows = np.concatenate([cols[at], bits[at]], axis=1)
        # lexsort is stable: equal rows keep their ascending node order
        order = np.lexsort(rows.T) if size else slice(None)
        rows, group = rows[order], group[order]
        cut = np.flatnonzero(np.any(rows[1:] != rows[:-1], axis=1)) + 1
        classes += [c for c in np.split(group, cut) if c.size >= 2]
    return classes


def _closed_rows(g):
    """Row pointers and columns of the pattern of A + I."""
    rows = np.repeat(np.arange(g.n), np.diff(g.row_ptr))
    below = np.bincount(rows[g.col_idx < rows], minlength=g.n)
    cols = np.insert(g.col_idx, g.row_ptr[:-1] + below, np.arange(g.n))
    return g.row_ptr + np.arange(g.n + 1), cols


def _agree_outside(g, i, j):
    """Whether the rows of i and j, which share their closed neighborhood,
    hold the same weights outside {i, j}."""
    ids_i, w_i = g.neighbors(i), g.weights[g.neighbor_slice(i)]
    ids_j, w_j = g.neighbors(j), g.weights[g.neighbor_slice(j)]
    return np.array_equal(w_i[ids_i != j], w_j[ids_j != i])


def _closed_twin_classes(g, candidates):
    """Split each class of equal closed rows into closed twins. Being twins
    is transitive, so comparing with each group's first member suffices."""
    classes = []
    for cand in candidates:
        groups = []
        for i in cand.tolist():
            for grp in groups:
                if _agree_outside(g, grp[0], i):
                    grp.append(i)
                    break
            else:
                groups.append([i])
        classes += [grp for grp in groups if len(grp) >= 2]
    return classes


def _dangling_chains(g):
    """(leaves, middles) per hub of two or more pendant paths leaf - middle -
    hub, both edges of weight 1; leaves ascending, hubs ascending."""
    ptr, cols, w = g.row_ptr, g.col_idx, g.weights
    size = np.diff(ptr)
    leaf = np.flatnonzero(size == 1)
    mid = cols[ptr[leaf]]
    keep = (w[ptr[leaf]] == 1.0) & (size[mid] == 2)
    leaf, mid = leaf[keep], mid[keep]
    pair = ptr[mid, None] + np.arange(2)  # the middle's entries: leaf and hub
    keep = np.all(w[pair] == 1.0, axis=1)
    leaf, mid, hub = leaf[keep], mid[keep], cols[pair[keep]].sum(axis=1) - leaf[keep]
    order = np.argsort(hub, kind="stable")
    cut = np.flatnonzero(np.diff(hub[order])) + 1
    return [(x, b) for x, b in zip(np.split(leaf[order], cut),
                                   np.split(mid[order], cut)) if x.size >= 2]


def _entries(op, rows, cols):
    """op[rows, cols] entry by entry, by one search of op's stored entries
    in row-major order; an entry not stored reads 0."""
    n = op.n
    stored = np.repeat(np.arange(n), np.diff(op.indptr)) * n + op.indices
    stored = np.append(stored, n * n)  # past every key: the search stays in bounds
    key = rows * n + cols
    at = np.searchsorted(stored, key)
    return np.where(stored[at] == key, np.append(op.data, 0.0)[at], 0.0)


def _modes(op, found):
    """Eigenvalues of each instance's k x k matrix B_ab = op[a_0, b_0] -
    op[a_0, b_1], a_i the i-th node of its class a, mapped through
    op.scale_map: one row per (motif kind, classes) in `found`, all with k
    classes. For k = 2, B is symmetric, (p, q; q, r), and its eigenvalues
    are (p + r)/2 -+ hypot((p - r)/2, q)."""
    ends = np.array([[c[:2] for c in classes] for _, classes in found],
                    dtype=np.int64)
    k = ends.shape[1]
    a0 = np.repeat(ends[:, :, :1], k, axis=1)  # row (a, b) of B: a_0
    b = np.tile(ends, (1, k, 1))  # and (b_0, b_1)
    e = _entries(op, np.broadcast_to(a0, b.shape), b)
    mat = (e[..., 0] - e[..., 1]).reshape(-1, k, k)
    if k == 1:
        lams = mat[:, 0]
    else:
        p, q, r = mat[:, 0, 0], mat[:, 0, 1], mat[:, 1, 1]
        mid, rad = (p + r) / 2.0, np.hypot((p - r) / 2.0, q)
        lams = np.stack([mid - rad, mid + rad], axis=1)
    return op.scale_map.from_scaled(lams)


def detect_motifs(g: GraphCSR, op, kinds=None) -> list:
    """Find motif instances, one per structure, with eigenvalues those of
    `op`, an operator of g such as `build_operator(g, kind)` gives.

    Detection reads g alone, and is exact and deterministic: every class of
    nodes that meets a motif's definition is reported, and nothing else, in
    order of (kind, first node); no node lies in two instances. An
    instance's eigenvalues are its matrix B's (module docstring), read from
    op's stored entries and mapped through op.scale_map, so a scaled
    operator states the unscaled eigenvalues too. An op whose order is not
    g's raises ValueError.
    """
    if op.n != g.n:
        raise ValueError(f"operator dimension {op.n} does not match the "
                         f"graph's {g.n} nodes")
    if kinds is None:
        kinds = MotifKind
    kinds = {MotifKind(k) for k in kinds}

    rows = np.repeat(np.arange(g.n), np.diff(g.row_ptr))
    loop_free = np.flatnonzero(
        np.bincount(rows[g.col_idx == rows], minlength=g.n) == 0)
    twins, chains = [], []  # (motif kind, classes)
    if MotifKind.OPEN_TWIN in kinds:
        twins += [(MotifKind.OPEN_TWIN, (m,)) for m in
                  _equal_rows(g.row_ptr, g.col_idx, g.weights, loop_free)]
    if MotifKind.CLOSED_TWIN in kinds:
        ptr, cols = _closed_rows(g)
        candidates = _equal_rows(ptr, cols, np.ones(cols.shape[0]), loop_free)
        twins += [(MotifKind.CLOSED_TWIN, (m,))
                  for m in _closed_twin_classes(g, candidates)]
    if MotifKind.DANGLING_TWO_CHAIN in kinds:
        # leaves[i] - middles[i] - hub
        chains += [(MotifKind.DANGLING_TWO_CHAIN, pair)
                   for pair in _dangling_chains(g)]
    out = [MotifInstance(kind, classes, lams)
           for found in (twins, chains) if found
           for (kind, classes), lams in zip(found, _modes(op, found))]
    out.sort(key=_rank)
    return out


def filter_probes(sop, probes: ProbeMatrix, instances):
    """Deflate motif eigenvectors by passing to the quotient on their
    complement.

    Every instance is deflated as given; instances that share a node, or
    hold an id outside 0..n - 1, raise MotifError naming the node. Returns
    ((Q, probes of Q), adjustment): Q = P^T sop P from
    `operators.quotient_operator`, the probes P^T z with the metadata of
    `probes`, and the per-eigenvalue multiplicities removed, out of
    `probes.n` dimensions. With no instance, (sop, probes) themselves.
    Standard-basis probes on fewer than all n nodes raise MotifError once
    there is an instance: their n/nz trace scale treats the first nz
    diagonal entries of P P^T as representative, and those of nodes
    outside every class are 1, not the mean (n - r)/n.
    """
    if sop.n != probes.n:
        raise ValueError("probe dimension does not match operator")
    removed, members = defaultdict(int), []
    label = np.arange(probes.n)  # a class's nodes take its first node's id
    for inst in instances:
        lo, hi = inst.nodes[0], inst.nodes[-1]
        if lo < 0 or hi >= probes.n:
            raise MotifError(f"node {lo if lo < 0 else hi} is not a node of the "
                             f"graph: ids run 0..n - 1, n = {probes.n}")
        for lam in inst.eigenvalues:
            removed[lam] += inst.multiplicity
        for c in inst.classes:
            label[list(c)] = c[0]
        members += inst.nodes
    shared = np.flatnonzero(np.bincount(np.array(members, dtype=np.int64),
                                        minlength=probes.n) > 1)
    if shared.size:
        raise MotifError(f"node {shared[0]} lies in two motif instances; "
                         "instances may not share a node")
    adjustment = FilterAdjustment(removed=dict(removed), total_dim=probes.n)
    if not members:
        return (sop, probes), adjustment
    if probes.deterministic and probes.nz < probes.n:
        raise MotifError("deflation needs standard-basis probes on every node: "
                         f"pass --probes {probes.n} (n), not {probes.nz}")

    # block of node i: the rank of its class's first node among the
    # blocks' first nodes
    label = (np.cumsum(label == np.arange(probes.n)) - 1)[label]
    size = np.bincount(label)
    rows = probes.columns[np.argsort(label, kind="stable")]
    cols = np.add.reduceat(rows, np.cumsum(size) - size) / np.sqrt(size)[:, None]
    return ((quotient_operator(sop, label), replace(probes, columns=cols)),
            adjustment)
