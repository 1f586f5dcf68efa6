"""Detection and deflation of spike-producing local symmetries.

Three structures are detected, each carrying a known eigenvalue with
eigenvectors supported only on the structure's nodes:

* open twins -- nodes with identical neighbor lists (and not adjacent);
  differences of their basis vectors are eigenvectors (eigenvalue 0 for the
  adjacency kinds, the shared degree for the Laplacian, 1 for the
  normalized Laplacian).
* closed twins -- adjacent nodes whose remaining neighborhoods coincide;
  difference vectors again, with the twin edge contributing (-w/d for the
  normalized adjacency, so degree-2 twins sit at -1/2).
* dangling two-chains -- pendant paths x - b - hub; amplitudes across the
  chains of one hub that sum to zero give two eigenvector families, at
  +-1/sqrt(2) for the normalized adjacency.

Every structure's eigenvectors span the vectors supported on it that sum to
zero within each of its classes of nodes: a twin class is one class, and a
hub's dangling chains are two, their leaves and their middles.

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

Deflation keeps the complement of those vectors, the vectors constant on
each class. H maps it into itself, and its orthonormal basis 1_C/sqrt|C|,
one column of P per class (and per unclaimed node), turns H on it into
the quotient Q = P^T H P of an equitable partition (Godsil and Royle,
Algebraic Graph Theory, section 9.3). For any probe z, z^T P P^T T_m(H)
P P^T z = (P^T z)^T T_m(Q) (P^T z), so the recurrence runs on Q, of order
n - r, with the probes P^T z. Instances are accepted greedily, one node
claim per (kind, nodes) key. The removed multiplicities travel as a
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
from .operators import OPERATOR, OperatorKind, quotient_operator
from .probes import ProbeMatrix


class MotifKind(str, Enum):
    OPEN_TWIN = "open-twin"
    CLOSED_TWIN = "closed-twin"
    DANGLING_TWO_CHAIN = "dangling-two-chain"


_KIND_RANK = {kind: i for i, kind in enumerate(MotifKind)}


def _rank(inst):
    """Report order of detect_motifs and claim order of filter_probes."""
    return (_KIND_RANK[inst.kind], inst.nodes[0], inst.eigenvalue)


@dataclass
class MotifInstance:
    """One detected structure: classes of nodes, an eigenvalue and its
    multiplicity.

    The structure's eigenvectors for the operator kind used at detection
    lie in the vectors on `nodes` that sum to zero within each class. A
    twin instance has one class, its nodes, and multiplicity |class| - 1. A
    hub's dangling chains have two classes, the leaves and their middles
    (the middle of leaves[i] at middles[i]), and split that space into two
    modes, one instance each, of multiplicity (chains - 1). `nodes` is the
    union of the classes, ascending. Checked when built: at least one
    class, each of two or more node ids (an id that is not an integer
    raises TypeError), and no node twice.
    """

    kind: MotifKind
    classes: tuple
    eigenvalue: float
    multiplicity: int
    nodes: tuple = field(init=False)

    def __post_init__(self):
        self.classes = tuple(tuple(map(index, c)) for c in self.classes)
        self.nodes = tuple(sorted(x for c in self.classes for x in c))
        if (min(map(len, self.classes), default=0) < 2
                or len(set(self.nodes)) != len(self.nodes)):
            raise MotifError(f"classes {self.classes} need two or more nodes "
                             "each and may not repeat a node")


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


def _twin_modes(kind, motif, degree, weight):
    """Eigenvalue of a twin-difference vector for each operator kind."""
    kind = OperatorKind(kind)
    if motif is MotifKind.OPEN_TWIN:
        table = {OperatorKind.ADJACENCY: 0.0,
                 OperatorKind.NORMALIZED_ADJACENCY: 0.0,
                 OperatorKind.LAPLACIAN: degree,
                 OperatorKind.NORMALIZED_LAPLACIAN: 1.0}
    else:
        if degree <= 0:
            raise MotifError("closed twins require positive degree")
        table = {OperatorKind.ADJACENCY: -weight,
                 OperatorKind.NORMALIZED_ADJACENCY: -weight / degree,
                 OperatorKind.LAPLACIAN: degree + weight,
                 OperatorKind.NORMALIZED_LAPLACIAN: 1.0 + weight / degree}
    return table[kind]


def _chain_modes(kind):
    """Eigenvalues of the two chain modes: those of the 2x2 restriction of
    the operator to one pendant path (leaf, middle); the hub row vanishes
    because chain amplitudes sum to zero."""
    s2, r5 = 1.0 / np.sqrt(2.0), np.sqrt(5.0)
    return {OperatorKind.ADJACENCY: (1.0, -1.0),
            OperatorKind.NORMALIZED_ADJACENCY: (s2, -s2),
            # the eigenvalues of [[1, -1], [-1, 2]]
            OperatorKind.LAPLACIAN: ((3.0 - r5) / 2.0, (3.0 + r5) / 2.0),
            OperatorKind.NORMALIZED_LAPLACIAN: (1.0 - s2, 1.0 + s2)}[OperatorKind(kind)]


def _twin_instance(motif, members, operator, degree, weight=1.0):
    return MotifInstance(motif, (members,),
                         float(_twin_modes(operator, motif, degree, weight)),
                         len(members) - 1)


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


def _pair_weight(g, i, j):
    """Weight of edge i-j if the rows of i and j, which share their closed
    neighborhood, agree outside {i, j}; else None."""
    ids_i, w_i = g.neighbors(i), g.weights[g.neighbor_slice(i)]
    ids_j, w_j = g.neighbors(j), g.weights[g.neighbor_slice(j)]
    if np.array_equal(w_i[ids_i != j], w_j[ids_j != i]):
        return float(w_i[ids_i == j][0])
    return None


def _closed_twin_classes(g, candidates):
    """Split each class of equal closed rows into closed twins with their
    pair weight. Being twins is transitive and forces one pair weight per
    class, so comparing with each group's first member suffices."""
    classes = []
    for cand in candidates:
        groups = []  # [members, pair weight]
        for i in cand.tolist():
            for grp in groups:
                w = _pair_weight(g, grp[0][0], i)
                if w is not None:
                    grp[0].append(i)
                    grp[1] = w
                    break
            else:
                groups.append([[i], None])
        classes += [grp for grp in groups if len(grp[0]) >= 2]
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


def detect_motifs(g: GraphCSR, kinds=None, operator=OPERATOR) -> list:
    """Find motif instances, with eigenpairs stated for `operator`.

    Detection is exact and deterministic: every class of nodes that meets a
    motif's definition is reported, and nothing else.
    """
    if kinds is None:
        kinds = MotifKind
    kinds = {MotifKind(k) for k in kinds}

    degree = g.degrees()
    rows = np.repeat(np.arange(g.n), np.diff(g.row_ptr))
    loop_free = np.flatnonzero(
        np.bincount(rows[g.col_idx == rows], minlength=g.n) == 0)
    out = []
    if MotifKind.OPEN_TWIN in kinds:
        out += [_twin_instance(MotifKind.OPEN_TWIN, m, operator, degree[m[0]])
                for m in _equal_rows(g.row_ptr, g.col_idx, g.weights, loop_free)]
    if MotifKind.CLOSED_TWIN in kinds:
        ptr, cols = _closed_rows(g)
        candidates = _equal_rows(ptr, cols, np.ones(cols.shape[0]), loop_free)
        out += [_twin_instance(MotifKind.CLOSED_TWIN, m, operator, degree[m[0]], w)
                for m, w in _closed_twin_classes(g, candidates)]
    if MotifKind.DANGLING_TWO_CHAIN in kinds:
        # two instances per hub of chains leaves[i] - middles[i] - hub
        out += [MotifInstance(MotifKind.DANGLING_TWO_CHAIN, (leaves, middles),
                              float(lam), leaves.size - 1)
                for leaves, middles in _dangling_chains(g)
                for lam in _chain_modes(operator)]
    out.sort(key=_rank)
    return out


def filter_probes(sop, probes: ProbeMatrix, instances):
    """Deflate motif eigenvectors by passing to the quotient on their
    complement.

    Overlapping instances are resolved by greedy acceptance in detection
    order (kind, smallest node id, eigenvalue); instances with the same
    (kind, nodes) key share one node claim and are co-accepted (the two
    chain modes of one hub). A key's instances must state the same classes
    and multiplicities totalling sum(|C| - 1) over them, else MotifError.
    Returns ((Q, probes of Q), adjustment): Q = P^T sop P from
    `operators.quotient_operator`, the probes P^T z with the metadata of
    `probes`, and the per-eigenvalue multiplicities removed, out of
    `probes.n` dimensions. With nothing accepted, (sop, probes) themselves.
    Standard-basis probes on fewer than all n nodes raise MotifError once an
    instance is accepted: their n/nz trace scale treats the first nz
    diagonal entries of P P^T as representative, and those of nodes outside
    every class are 1, not the mean (n - r)/n.
    """
    if sop.n != probes.n:
        raise ValueError("probe dimension does not match operator")
    claimed = set()
    accepted = {}  # (kind, nodes) -> instances, in claim order
    for inst in sorted(instances, key=_rank):
        key = (inst.kind, inst.nodes)
        if key in accepted:
            accepted[key].append(inst)
        elif claimed.isdisjoint(inst.nodes):
            accepted[key] = [inst]
            claimed.update(inst.nodes)

    removed = defaultdict(int)
    label = np.arange(probes.n)  # a class's nodes take its first node's id
    for (_, nodes), group in accepted.items():
        classes = group[0].classes
        if (any(inst.classes != classes for inst in group)
                or sum(i.multiplicity for i in group) != sum(len(c) - 1 for c in classes)):
            raise MotifError(f"the instances on nodes {nodes} need the same classes "
                             "and multiplicities totalling sum(|C| - 1)")
        for inst in group:
            removed[float(inst.eigenvalue)] += inst.multiplicity
        for c in classes:
            label[list(c)] = c[0]
    adjustment = FilterAdjustment(removed=dict(removed), total_dim=probes.n)
    if not accepted:
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
