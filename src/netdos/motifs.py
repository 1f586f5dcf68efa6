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

Detection is exact and uses no randomness. Open twins are the classes of
loop-free nodes whose CSR rows hold the same columns and bitwise the same
weights. Closed-twin candidates are the classes of equal rows of the
pattern of A + I, split by a check that each pair's rows agree in weight
outside the pair. Rows are grouped by one sort over (length, id sum,
weight-bit sum) and then, among the nodes that share all three, by sorting
the rows themselves. Dangling chains are found with array operations on
the row lengths and grouped by hub. Deflating the eigenvectors out of the
probe block lets the smooth remainder of the spectrum be approximated with
far fewer moments; the removed spike mass is re-inserted at histogram time.

Each instance holds its eigenvectors as one dense block of shape
(multiplicity, len(nodes)): row i is eigenvector i restricted to the
instance's nodes, in that order, so the support lies inside the nodes by
construction. Deflation accepts instances greedily, one node claim per
(kind, nodes) key, stacks the rows of each accepted key into a block B and
removes it from the probes' rows on those nodes with one projection,
Z[nodes] -= B^T (B Z[nodes]). Claims keep the supports of different keys
disjoint, so orthonormality only has to hold within each block; detected
blocks are orthonormal by construction, and a block that is not is refused.
The removed multiplicities travel as a `FilterAdjustment`, which the moment
series of the deflated probes carries (`kpm.dos_moments`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from operator import index

import numpy as np

from .errors import MotifError
from .graph import GraphCSR
from .operators import OPERATOR, OperatorKind
from .probes import ProbeMatrix, with_columns


class MotifKind(str, Enum):
    OPEN_TWIN = "open-twin"
    CLOSED_TWIN = "closed-twin"
    DANGLING_TWO_CHAIN = "dangling-two-chain"


# a deflation block whose Gram matrix is off I by more is refused
ORTHONORMAL_TOL = 1e-8

_KIND_RANK = {kind: i for i, kind in enumerate(MotifKind)}


def _rank(inst):
    """Report order of detect_motifs and claim order of filter_probes."""
    return (_KIND_RANK[inst.kind], min(inst.nodes), inst.eigenvalue)


@dataclass
class MotifInstance:
    """One detected structure: nodes, eigenvalue, locally supported vectors.

    eigvecs is a float64 array of shape (multiplicity, len(nodes)) with
    orthonormal rows; row i holds eigenvector i on `nodes`, in that order,
    and is zero off them. Each row u satisfies H u = eigenvalue * u for the
    operator kind used at detection. Every instance is checked for that
    shape and for distinct nodes when built. The block is stored in C order,
    so deflation gives the same bits whatever layout it was built in.
    """

    kind: MotifKind
    nodes: tuple
    eigenvalue: float
    eigvecs: np.ndarray

    def __post_init__(self):
        self.eigvecs = np.ascontiguousarray(self.eigvecs, dtype=np.float64)
        if self.eigvecs.ndim != 2 or self.eigvecs.shape[1] != len(self.nodes):
            raise MotifError(f"eigvecs has shape {self.eigvecs.shape}; expected "
                             f"(multiplicity, {len(self.nodes)}), one column per node")
        if len(set(self.nodes)) != len(self.nodes):
            raise MotifError(f"nodes {self.nodes} repeat a node")

    @property
    def multiplicity(self) -> int:
        return int(self.eigvecs.shape[0])


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


def _helmert_rows(size):
    """Orthonormal basis of the sum-zero subspace of R^size, (size-1) rows."""
    rows = np.zeros((size - 1, size))
    for k in range(1, size):
        rows[k - 1, :k] = 1.0
        rows[k - 1, k] = -float(k)
        rows[k - 1] /= np.sqrt(k * (k + 1.0))
    return rows


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
    """(eigenvalue, x-amplitude, middle-amplitude) for the two chain modes.

    Derived from the 2x2 restriction of the operator to one pendant path
    (x, b); the hub row vanishes because chain amplitudes sum to zero.
    """
    kind = OperatorKind(kind)
    s2 = 1.0 / np.sqrt(2.0)
    if kind is OperatorKind.NORMALIZED_ADJACENCY:
        return ((s2, s2, s2), (-s2, s2, -s2))
    if kind is OperatorKind.ADJACENCY:
        return ((1.0, s2, s2), (-1.0, s2, -s2))
    if kind is OperatorKind.NORMALIZED_LAPLACIAN:
        return ((1.0 - s2, s2, s2), (1.0 + s2, s2, -s2))
    # Laplacian: eigenpairs of [[1, -1], [-1, 2]].
    out = []
    for lam in ((3.0 - np.sqrt(5.0)) / 2.0, (3.0 + np.sqrt(5.0)) / 2.0):
        alpha, beta = 1.0, 1.0 - lam
        norm = np.hypot(alpha, beta)
        out.append((lam, alpha / norm, beta / norm))
    return tuple(out)


def _twin_instance(motif, members, operator, degree, weight=1.0):
    nodes = tuple(int(x) for x in members)
    return MotifInstance(motif, nodes,
                         float(_twin_modes(operator, motif, degree, weight)),
                         _helmert_rows(len(nodes)))


def _chain_instances(leaves, middles, operator):
    """The two instances of one hub's chains leaves[i] - middles[i] - hub."""
    nodes = np.concatenate([leaves, middles])
    order = np.argsort(nodes)
    amp = _helmert_rows(leaves.size)
    return [MotifInstance(MotifKind.DANGLING_TWO_CHAIN,
                          tuple(nodes[order].tolist()), float(lam),
                          np.concatenate([amp * alpha, amp * beta], axis=1)[:, order])
            for lam, alpha, beta in _chain_modes(operator)]


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
        for leaves, middles in _dangling_chains(g):
            out += _chain_instances(leaves, middles, operator)
    out.sort(key=_rank)
    return out


def filter_probes(probes: ProbeMatrix, instances):
    """Project motif eigenvectors out of every probe column.

    Overlapping instances are resolved by greedy acceptance in detection
    order (kind, smallest node id, eigenvalue); instances with the same
    (kind, nodes) key share one node claim and are co-accepted (the two
    chain modes of one hub). The stacked rows of each key must be
    orthonormal to ORTHONORMAL_TOL, else MotifError; they are projected out
    in one step. Returns the deflated probes and the per-eigenvalue
    multiplicities removed.
    """
    claimed = set()
    accepted = {}  # (kind, nodes) -> instances, in claim order
    for inst in sorted(instances, key=_rank):
        key = (inst.kind, inst.nodes)
        if key in accepted:
            accepted[key].append(inst)
        elif claimed.isdisjoint(inst.nodes):
            accepted[key] = [inst]
            claimed.update(inst.nodes)

    if not accepted:
        return probes, FilterAdjustment(removed={}, total_dim=probes.n)

    removed = defaultdict(int)
    cols = probes.columns.copy()
    for (_, nodes), group in accepted.items():
        for inst in group:
            removed[float(inst.eigenvalue)] += inst.multiplicity
        block = np.concatenate([i.eigvecs for i in group])
        gram = block @ block.T
        gram.flat[::block.shape[0] + 1] -= 1.0
        if np.abs(gram).max(initial=0.0) > ORTHONORMAL_TOL:
            raise MotifError(f"the motif eigenvectors on nodes {nodes} are "
                             "not orthonormal")
        idx = np.array(nodes)
        cols[idx] -= block.T @ (block @ cols[idx])
    return with_columns(probes, cols), FilterAdjustment(removed=dict(removed),
                                                        total_dim=probes.n)
