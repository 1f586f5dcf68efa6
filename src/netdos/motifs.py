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

Candidates are grouped by a commutative hash of random 64-bit node labels
and then verified by exact neighbor-list comparison, so reported classes
have no false positives. Deflating the eigenvectors out of the probe block
lets the smooth remainder of the spectrum be approximated with far fewer
moments; the removed spike mass is re-inserted at histogram time.

Each instance holds its eigenvectors as one dense block of shape
(multiplicity, len(nodes)): row i is eigenvector i restricted to the
instance's nodes, in that order, so the support lies inside the nodes by
construction. Deflation accepts instances greedily, one node claim per
(kind, nodes) key, stacks the rows of each accepted key into a block B and
removes it from the probes' rows on those nodes with one projection,
Z[nodes] -= B^T (B Z[nodes]). Claims keep the supports of different keys
disjoint, so orthonormality only has to hold within each block.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import MotifError
from .graph import GraphCSR
from .operators import OperatorKind
from .probes import ProbeMatrix, with_columns


class MotifKind(str, Enum):
    OPEN_TWIN = "open-twin"
    CLOSED_TWIN = "closed-twin"
    DANGLING_TWO_CHAIN = "dangling-two-chain"
    CUSTOM = "custom"


_KIND_RANK = {MotifKind.OPEN_TWIN: 0, MotifKind.CLOSED_TWIN: 1,
              MotifKind.DANGLING_TWO_CHAIN: 2, MotifKind.CUSTOM: 3}


def _rank(inst):
    """Report order of detect_motifs and claim order of filter_probes."""
    return (_KIND_RANK[inst.kind], min(inst.nodes), inst.eigenvalue)


@dataclass
class MotifInstance:
    """One detected structure: nodes, eigenvalue, locally supported vectors.

    eigvecs is a float64 array of shape (multiplicity, len(nodes)) with
    orthonormal rows; row i holds eigenvector i on `nodes`, in that order,
    and is zero off them. Each row u satisfies H u = eigenvalue * u for the
    operator kind used at detection. Custom instances are checked for that
    shape and for distinct nodes when built.
    """

    kind: MotifKind
    nodes: tuple
    eigenvalue: float
    eigvecs: np.ndarray
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eigvecs = np.asarray(self.eigvecs, dtype=np.float64)
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
    """Per-eigenvalue multiplicities removed by deflation."""

    removed: dict
    total_dim: int

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


def motif_eigenvalue(inst: MotifInstance, kind) -> float:
    """Eigenvalue of the instance under another operator kind."""
    if inst.kind is MotifKind.CUSTOM:
        return inst.eigenvalue
    if inst.kind in (MotifKind.OPEN_TWIN, MotifKind.CLOSED_TWIN):
        return float(_twin_modes(kind, inst.kind, inst.detail["degree"],
                                 inst.detail.get("weight", 1.0)))
    return float(_chain_modes(kind)[inst.detail["mode"]][0])


def motif_eigenvectors(inst: MotifInstance, kind) -> np.ndarray:
    """Orthonormal eigenvectors under the given kind, one row per vector on
    `inst.nodes` (shape (multiplicity, len(nodes)))."""
    kind = OperatorKind(kind)
    if inst.kind is MotifKind.CUSTOM:
        return inst.eigvecs
    if inst.kind in (MotifKind.OPEN_TWIN, MotifKind.CLOSED_TWIN):
        return _helmert_rows(len(inst.nodes))
    _, alpha, beta = _chain_modes(kind)[inst.detail["mode"]]
    chains = inst.detail["chains"]
    where = {node: i for i, node in enumerate(inst.nodes)}
    amp = _helmert_rows(len(chains))
    block = np.zeros((amp.shape[0], len(inst.nodes)))
    block[:, [where[x] for x, _ in chains]] = amp * alpha
    block[:, [where[b] for _, b in chains]] = amp * beta
    return block


def _build_instance(motif, nodes, detail, kind):
    nodes = tuple(int(x) for x in nodes)
    inst = MotifInstance(motif, nodes, 0.0, np.empty((0, len(nodes))), detail)
    inst.eigenvalue = motif_eigenvalue(inst, kind)
    inst.eigvecs = motif_eigenvectors(inst, kind)
    return inst


def _neighbor_signature(g, i, drop=()):
    sl = g.neighbor_slice(i)
    ids = g.col_idx[sl]
    w = g.weights[sl]
    if len(drop):
        keep = ~np.isin(ids, drop)
        ids, w = ids[keep], w[keep]
    return ids, w


def _hash_buckets(keys):
    buckets = defaultdict(list)
    for i, k in enumerate(keys.tolist()):
        buckets[k].append(i)
    return [b for b in buckets.values() if len(b) >= 2]


def _open_twin_classes(g, open_hash):
    classes = []
    for bucket in _hash_buckets(open_hash):
        exact = defaultdict(list)
        for i in bucket:
            ids, w = _neighbor_signature(g, i)
            if np.any(ids == i):
                continue  # self-loop breaks the difference eigenvector
            exact[(ids.tobytes(), w.tobytes())].append(i)
        for members in exact.values():
            if len(members) >= 2:
                classes.append(sorted(members))
    return classes


def _closed_twins(g, i, j):
    """Exact check: i ~ j and their neighborhoods agree outside {i, j}."""
    ids_i, w_i = _neighbor_signature(g, i)
    pos = np.searchsorted(ids_i, j)
    if pos >= ids_i.shape[0] or ids_i[pos] != j:
        return None
    wij = w_i[pos]
    if np.any(ids_i == i):
        return None
    ids_j, w_j = _neighbor_signature(g, j)
    if np.any(ids_j == j):
        return None
    drop = np.array([i, j])
    ri, rwi = _neighbor_signature(g, i, drop)
    rj, rwj = _neighbor_signature(g, j, drop)
    if np.array_equal(ri, rj) and np.array_equal(rwi, rwj):
        return float(wij)
    return None


def _closed_twin_classes(g, closed_hash):
    classes = []
    for bucket in _hash_buckets(closed_hash):
        groups = []  # (representative, members, pair weight)
        for i in sorted(bucket):
            for grp in groups:
                w = _closed_twins(g, grp[0], i)
                if w is not None and (grp[2] is None or w == grp[2]):
                    grp[1].append(i)
                    grp[2] = w
                    break
            else:
                groups.append([i, [i], None])
        for _, members, w in groups:
            if len(members) >= 2:
                classes.append((sorted(members), w))
    return classes


def _dangling_chain_classes(g):
    deg_count = np.diff(g.row_ptr)
    hubs = defaultdict(list)
    for x in np.flatnonzero(deg_count == 1):
        sl = g.neighbor_slice(int(x))
        b = int(g.col_idx[sl][0])
        if g.weights[sl][0] != 1.0 or deg_count[b] != 2:
            continue
        ids, w = _neighbor_signature(g, b)
        other = ids[ids != x]
        if other.shape[0] != 1 or not np.all(w == 1.0):
            continue
        h = int(other[0])
        if h == x:
            continue
        hubs[h].append((int(x), b))
    return [(h, sorted(chains)) for h, chains in sorted(hubs.items())
            if len(chains) >= 2]


def detect_motifs(g: GraphCSR, kinds=None, seed=0,
                  operator=OperatorKind.NORMALIZED_ADJACENCY) -> list:
    """Find motif instances, with eigenpairs stated for `operator`.

    Candidate twin groups come from a commutative hash (wrapping sum of
    random 64-bit node labels over the neighborhood, plus the node's own
    label for closed twins); every group is confirmed by exact comparison,
    so an empty result on a motif-free graph is guaranteed.
    """
    if kinds is None:
        kinds = {MotifKind.OPEN_TWIN, MotifKind.CLOSED_TWIN,
                 MotifKind.DANGLING_TWO_CHAIN}
    kinds = {MotifKind(k) for k in kinds}
    if MotifKind.CUSTOM in kinds:
        raise MotifError("custom instances are supplied by the caller, not detected")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), 0x4D4F5449])))
    labels = rng.integers(0, 2 ** 63, size=g.n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        nbr_sum = np.zeros(g.n, dtype=np.uint64)
        if g.nnz:
            starts = g.row_ptr[:-1]
            seg = np.minimum(starts, g.nnz - 1)
            sums = np.add.reduceat(labels[g.col_idx], seg)
            sums[g.row_ptr[1:] == starts] = 0
            nbr_sum = sums.astype(np.uint64)

    out = []
    if MotifKind.OPEN_TWIN in kinds:
        for members in _open_twin_classes(g, nbr_sum):
            deg = float(g.degrees()[members[0]])
            out.append(_build_instance(MotifKind.OPEN_TWIN, members,
                                       {"degree": deg}, operator))
    if MotifKind.CLOSED_TWIN in kinds:
        with np.errstate(over="ignore"):
            closed_hash = nbr_sum + labels
        for members, w in _closed_twin_classes(g, closed_hash):
            deg = float(g.degrees()[members[0]])
            out.append(_build_instance(MotifKind.CLOSED_TWIN, members,
                                       {"degree": deg, "weight": w}, operator))
    if MotifKind.DANGLING_TWO_CHAIN in kinds:
        for hub, chains in _dangling_chain_classes(g):
            nodes = tuple(sorted(x for ch in chains for x in ch))
            for mode in (0, 1):
                out.append(_build_instance(
                    MotifKind.DANGLING_TWO_CHAIN, nodes,
                    {"hub": hub, "chains": tuple(chains), "mode": mode}, operator))
    out.sort(key=_rank)
    return out


def _orthonormal_rows(block, tol):
    """The block itself when its rows are orthonormal to `tol`, else an
    orthonormal basis of the same row space; errors on degeneracy."""
    gram = block @ block.T
    gram.flat[::block.shape[0] + 1] -= 1.0
    if np.abs(gram).max(initial=0.0) <= tol:
        return block
    q, r = np.linalg.qr(block.T)
    if block.shape[0] > block.shape[1] or np.abs(np.diag(r)).min() < tol:
        raise MotifError("motif eigenvectors are linearly dependent; "
                         "cannot re-orthonormalize the deflation set")
    return q.T


def filter_probes(probes: ProbeMatrix, instances, reorth_tol=1e-8):
    """Project motif eigenvectors out of every probe column.

    Overlapping instances are resolved by greedy acceptance in detection
    order (kind, smallest node id, eigenvalue); instances with the same
    (kind, nodes) key share one node claim and are co-accepted (the two
    chain modes of one hub, or repeated custom instances). The stacked rows
    of each key are checked for orthonormality, re-orthonormalized by QR if
    needed, and projected out in one step. Returns the deflated probes and
    the per-eigenvalue multiplicities removed.
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
        block = _orthonormal_rows(np.concatenate([i.eigvecs for i in group]),
                                  reorth_tol)
        idx = np.array(nodes)
        cols[idx] -= block.T @ (block @ cols[idx])
    return with_columns(probes, cols), FilterAdjustment(removed=dict(removed),
                                                        total_dim=probes.n)
