"""Undirected weighted graph storage in compressed sparse row form.

GraphCSR is the ground-truth object every other module consumes. It stores
both directions of each undirected edge, keeps column indices sorted within
each row, and is immutable after construction, so callers may share it
freely. Every edge has a weight, 1 unless stated; a graph is weighted
exactly when some weight differs from 1, and no flag records it.
`build_csr` turns edge tuples into arrays for `_csr_from_arrays`, the one
validated assembly, which the file reader and the generators call
directly.
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
    w = np.asarray(columns[2], dtype=np.float64) if columns[2:] else np.ones(u.size)
    return _csr_from_arrays(u, v, w, n, allow_self_loops)


def _csr_from_arrays(u, v, w, n=None, allow_self_loops=False, ids=None):
    """`build_csr` on arrays: edge i joins u[i] and v[i] with weight w[i].
    Messages call node i `ids[i]` when an id map is given (a file's ids
    before compaction)."""
    name = int if ids is None else ids.item
    if u.size and (u.min() < 0 or v.min() < 0):
        raise GraphError("node ids must be nonnegative")
    bad = ~(w > 0) | (w == np.inf)
    if bad.any():
        i = int(np.argmax(bad))
        what = "non-positive" if w[i] <= 0 else "non-finite"
        raise GraphError(f"edge ({name(u[i])}, {name(v[i])}) has {what} weight {w[i]}")
    if not allow_self_loops and np.any(u == v):
        node = name(u[np.argmax(u == v)])
        raise GraphError(f"self-loop at node {node} (pass allow_self_loops to accept)")

    n_min = int(max(u.max(initial=-1), v.max(initial=-1))) + 1
    if n is None:
        n = n_min
    elif n < n_min:
        raise GraphError(f"n={n} smaller than 1 + max node id ({n_min})")

    # One entry per direction of each edge (a loop has one), keyed by its
    # (row, col) and, in the low bit, the direction the edge was stated in:
    # one stable sort groups the same-direction repeats, in input order.
    # Each temporary is deleted once used, which halves the peak.
    loops = u == v
    rows = np.concatenate([u, v[~loops]])
    cols = np.concatenate([v, u[~loops]])
    stated = u > v
    key = (rows * np.int64(n) + cols) * 2 + np.concatenate([stated, stated[~loops]])
    del rows, cols, stated
    order = np.argsort(key, kind="stable")
    key, w = key[order], np.concatenate([w, w[~loops]])[order]
    del order
    first = np.flatnonzero(np.diff(key, prepend=-1))
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(w, first)
    entry = key[first] // 2
    del key, w, first
    overflow = sums == np.inf  # finite positive weights can only sum to inf
    if overflow.any():
        a, b = divmod(int(entry[np.argmax(overflow)]), int(n))
        raise GraphError(f"edge ({name(a)}, {name(b)}) is repeated with weights "
                         "whose sum is not finite")

    # An entry stated both ways holds its forward sum at i and reverse at i + 1.
    both = np.flatnonzero(entry[1:] == entry[:-1])
    fw, bw = sums[both], sums[both + 1]
    conflict = ~np.isclose(fw, bw, rtol=1e-12, atol=0.0)
    if conflict.any():
        i = int(np.argmax(conflict))
        a, b = divmod(int(entry[both[i]]), int(n))
        raise GraphError(
            f"edge ({name(a)}, {name(b)}) restated in both directions with "
            f"conflicting weights {fw[i]} != {bw[i]}")
    keep = np.ones(entry.size, dtype=bool)
    keep[both + 1] = False
    rows, cols = np.divmod(entry[keep], n)
    weights = sums[keep]

    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
    return GraphCSR(n=int(n), row_ptr=row_ptr, col_idx=cols, weights=weights)
