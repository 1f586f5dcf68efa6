"""Undirected weighted graph storage in compressed sparse row form.

GraphCSR is the ground-truth object every other module consumes. It stores
both directions of each undirected edge, keeps column indices sorted within
each row, and is immutable after construction, so callers may share it
freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphError


@dataclass(frozen=True)
class GraphCSR:
    """Symmetric CSR adjacency structure.

    Invariants: entry (i, j, w) is present iff (j, i, w) is; no duplicate
    entries; col_idx sorted within each row; all weights > 0. Self-loops are
    stored once at (i, i).
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    weights: np.ndarray
    is_weighted: bool
    _degrees: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        return int(self.col_idx.shape[0])

    @property
    def num_edges(self) -> int:
        loops = int(np.count_nonzero(self.col_idx == self._row_of_entries()))
        return (self.nnz - loops) // 2 + loops

    def _row_of_entries(self) -> np.ndarray:
        counts = np.diff(self.row_ptr)
        return np.repeat(np.arange(self.n, dtype=np.int64), counts)

    def degrees(self) -> np.ndarray:
        """Weighted node degrees D_ii = sum_j a_ij (loop weight counted once)."""
        if self._degrees is not None:
            return self._degrees
        deg = np.zeros(self.n)
        np.add.at(deg, self._row_of_entries(), self.weights)
        object.__setattr__(self, "_degrees", deg)
        return deg

    def neighbor_slice(self, i: int) -> slice:
        return slice(int(self.row_ptr[i]), int(self.row_ptr[i + 1]))

    def neighbors(self, i: int) -> np.ndarray:
        return self.col_idx[self.neighbor_slice(i)]

    def edge_list(self):
        """Canonical (u, v, w) triples with u <= v, sorted."""
        rows = self._row_of_entries()
        keep = rows <= self.col_idx
        return rows[keep], self.col_idx[keep], self.weights[keep]


def _csr_from_canonical(n, u, v, w, is_weighted):
    """Build symmetric CSR from deduplicated canonical pairs (u <= v)."""
    loops = u == v
    ru = np.concatenate([u, v[~loops]])
    cv = np.concatenate([v, u[~loops]])
    ww = np.concatenate([w, w[~loops]])
    order = np.lexsort((cv, ru))
    ru, cv, ww = ru[order], cv[order], ww[order]
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(row_ptr, ru + 1, 1)
    np.cumsum(row_ptr, out=row_ptr)
    return GraphCSR(n=int(n), row_ptr=row_ptr, col_idx=cv.astype(np.int64),
                    weights=ww.astype(np.float64), is_weighted=bool(is_weighted))


def build_csr(edges, n=None, allow_self_loops=False) -> GraphCSR:
    """Assemble a GraphCSR from (u, v) or (u, v, w) tuples.

    Repeated edges in the same direction are merged by summing their weights.
    An edge restated in the opposite direction is treated as the symmetric
    half of the same undirected edge: it is kept once, and the two directions
    must carry equal total weight. Node count is 1 + max id unless `n` is
    given (isolated trailing nodes are then allowed).
    """
    us, vs, ws = [], [], []
    explicit_weight = False
    for e in edges:
        if len(e) == 3:
            u, v, w = e
            explicit_weight = True
        else:
            u, v = e
            w = 1.0
        us.append(u)
        vs.append(v)
        ws.append(w)

    u = np.asarray(us, dtype=np.int64) if us else np.zeros(0, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64) if vs else np.zeros(0, dtype=np.int64)
    w = np.asarray(ws, dtype=np.float64) if ws else np.zeros(0)

    if u.size and (u.min() < 0 or v.min() < 0):
        raise GraphError("node ids must be nonnegative")
    if np.any(w <= 0):
        bad = int(np.argmax(w <= 0))
        raise GraphError(f"edge ({us[bad]}, {vs[bad]}) has non-positive weight {ws[bad]}")
    if not allow_self_loops and np.any(u == v):
        node = int(u[np.argmax(u == v)])
        raise GraphError(f"self-loop at node {node} (pass allow_self_loops to accept)")

    n_min = int(max(u.max(initial=-1), v.max(initial=-1))) + 1
    if n is None:
        n = n_min
    elif n < n_min:
        raise GraphError(f"n={n} smaller than 1 + max node id ({n_min})")

    if u.size == 0:
        return GraphCSR(n=int(n), row_ptr=np.zeros(n + 1, dtype=np.int64),
                        col_idx=np.zeros(0, dtype=np.int64), weights=np.zeros(0),
                        is_weighted=False)

    cu = np.minimum(u, v)
    cv = np.maximum(u, v)
    reversed_dir = u > v
    # Aggregate per (pair, direction): same-direction repeats sum.
    code = cu * np.int64(n) + cv
    key = code * 2 + reversed_dir
    order = np.argsort(key, kind="stable")
    key_s, w_s = key[order], w[order]
    uniq_key, first = np.unique(key_s, return_index=True)
    sums = np.add.reduceat(w_s, first)

    pair = uniq_key // 2
    pair_u, pair_first = np.unique(pair, return_index=True)
    pair_counts = np.diff(np.append(pair_first, pair.size))
    weight = np.empty(pair_u.size)
    for i, (start, cnt) in enumerate(zip(pair_first, pair_counts)):
        if cnt == 1:
            weight[i] = sums[start]
        else:
            fw, bw = sums[start], sums[start + 1]
            if not np.isclose(fw, bw, rtol=1e-12, atol=0.0):
                a, b = divmod(int(pair_u[i]), int(n))
                raise GraphError(
                    f"edge ({a}, {b}) restated in both directions with "
                    f"conflicting weights {fw} != {bw}")
            weight[i] = fw

    fu = (pair_u // n).astype(np.int64)
    fv = (pair_u % n).astype(np.int64)
    is_weighted = explicit_weight and not np.all(weight == 1.0)
    return _csr_from_canonical(n, fu, fv, weight, is_weighted)
