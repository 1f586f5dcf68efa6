"""Undirected weighted graph storage in compressed sparse row form.

GraphCSR is the ground-truth object every other module consumes. It stores
both directions of each undirected edge, keeps column indices sorted within
each row, and is immutable after construction, so callers may share it
freely. `build_csr` turns edge tuples into arrays for `_csr_from_arrays`,
the loop-free core that the file reader calls directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

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
    order = np.argsort(ru * np.int64(n) + cv)  # keys are unique
    ru, cv, ww = ru[order], cv[order], ww[order]
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ru, minlength=n), out=row_ptr[1:])
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
    edges = list(edges)
    if not set(map(len, edges)) <= {2, 3}:
        raise ValueError("edges must be (u, v) or (u, v, w) tuples")
    # one sequence per tuple position; a missing weight reads as 1.0
    columns = list(zip_longest(*edges, fillvalue=1.0)) or [(), ()]
    u, v = (np.asarray(c, dtype=np.int64) for c in columns[:2])
    weighted = len(columns) == 3
    w = np.asarray(columns[2], dtype=np.float64) if weighted else np.ones(u.size)
    return _csr_from_arrays(u, v, w, weighted, n, allow_self_loops)


def _csr_from_arrays(u, v, w, weighted, n=None, allow_self_loops=False):
    """`build_csr` on arrays: edge i joins u[i] and v[i] with weight w[i];
    `weighted` says whether any edge stated its weight."""
    if u.size and (u.min() < 0 or v.min() < 0):
        raise GraphError("node ids must be nonnegative")
    bad = ~(w > 0) | (w == np.inf)
    if bad.any():
        i = int(np.argmax(bad))
        what = "non-positive" if w[i] <= 0 else "non-finite"
        raise GraphError(f"edge ({u[i]}, {v[i]}) has {what} weight {w[i]}")
    if not allow_self_loops and np.any(u == v):
        node = int(u[np.argmax(u == v)])
        raise GraphError(f"self-loop at node {node} (pass allow_self_loops to accept)")

    n_min = int(max(u.max(initial=-1), v.max(initial=-1))) + 1
    if n is None:
        n = n_min
    elif n < n_min:
        raise GraphError(f"n={n} smaller than 1 + max node id ({n_min})")

    # One key per (pair, direction): same-direction repeats sum in input order.
    key = (np.minimum(u, v) * np.int64(n) + np.maximum(u, v)) * 2 + (u > v)
    order = np.argsort(key, kind="stable")
    key, w = key[order], w[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    sums = np.add.reduceat(w, first)
    pair = key[first] // 2

    # A pair stated both ways holds its forward sum at i and reverse at i + 1.
    both = np.flatnonzero(pair[1:] == pair[:-1])
    fw, bw = sums[both], sums[both + 1]
    conflict = ~np.isclose(fw, bw, rtol=1e-12, atol=0.0)
    if conflict.any():
        i = int(np.argmax(conflict))
        a, b = divmod(int(pair[both[i]]), int(n))
        raise GraphError(
            f"edge ({a}, {b}) restated in both directions with "
            f"conflicting weights {fw[i]} != {bw[i]}")
    keep = np.ones(pair.size, dtype=bool)
    keep[both + 1] = False
    pair, weight = pair[keep], sums[keep]

    is_weighted = weighted and not np.all(weight == 1.0)
    return _csr_from_canonical(n, pair // n, pair % n, weight, is_weighted)
