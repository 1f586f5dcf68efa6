"""Seeded input graphs for the benchmark's workloads.

Inputs are made here with numpy alone, so the program under test receives
only the generated files and the time to make them (``setup_s``) does not
depend on the program. Every generator takes a ``numpy.random.Generator``
built from the run's ``--seed``; the same seed gives the same bytes.

Edge files follow the format the CLI reads: one ``u v`` pair per line and a
``#`` comment header. Except on the grid, node ids are a random injective
map into ``[0, 4n)`` and every line is shuffled and randomly oriented, so
id compaction and symmetrisation do real work.
"""

from __future__ import annotations

import numpy as np


def preferential_attachment_tree(n, rng):
    """Node 1 joins node 0; every later node joins one earlier node drawn
    with probability proportional to its degree."""
    us, vs, ends = [0], [1], [0, 1]
    for v, r in enumerate(rng.random(n).tolist()[2:], start=2):
        t = ends[int(r * len(ends))]
        us.append(t)
        vs.append(v)
        ends += (t, v)
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)


def grid(side):
    """The side x side grid graph; node (r, c) has id r * side + c."""
    ids = np.arange(side * side, dtype=np.int64).reshape(side, side)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return u, v


def shuffle_lines(u, v, rng):
    """Random line order and orientation; the graph is unchanged."""
    order = rng.permutation(u.shape[0])
    u, v = u[order], v[order]
    flip = rng.random(u.shape[0]) < 0.5
    return np.where(flip, v, u), np.where(flip, u, v)


def relabel(u, v, n, rng):
    """Map node i to a distinct random id in [0, 4n)."""
    ids = rng.choice(4 * n, size=n, replace=False)
    return ids[u], ids[v]


def write_edges(path, u, v, header):
    body = "\n".join(f"{a} {b}" for a, b in zip(u.tolist(), v.tolist()))
    with open(path, "w") as fh:
        fh.write(f"# {header}\n{body}\n")


def make_input(name, params, seed, path):
    """Generate and write a workload's input graph; returns (n, edges)."""
    rng = np.random.default_rng([seed, params["salt"]])
    if params["model"] == "grid":
        n = params["side"] ** 2
        u, v = grid(params["side"])
    else:
        n = params["n"]
        u, v = preferential_attachment_tree(n, rng)
        u, v = relabel(u, v, n, rng)
    u, v = shuffle_lines(u, v, rng)
    write_edges(path, u, v, f"perfbench {name} seed {seed} "
                            f"nodes {n} edges {u.shape[0]}")
    return n, int(u.shape[0])
