"""Output checks computed apart from netdos, with numpy and scipy only.

Each workload has a reference, computed once per run from the edge file
(ids compacted in ascending order, as the file format specifies), and one
check per CLI command. A check returns the list of problems it found; an
empty list means the output passed. Nothing is compared against a stored
copy of an earlier output: every expected value is recomputed here or is a
property the method must have. Command arguments (moments, probes, bins,
steps, range) are read from the workload's ``params``, the same dict the
command lines are built from.

The corruptions at the end make damaged copies of real outputs for the
self-test, which requires the matching check to reject every one.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh

from inputs import grid

CHAIN_EIGS = ((3.0 - np.sqrt(5.0)) / 2.0, (3.0 + np.sqrt(5.0)) / 2.0)
EDGE_SLACK = 1e-7  # a Ritz value this close to a bin edge may land on either side


class Problems(list):
    def need(self, ok, message):
        if not ok:
            self.append(message)
        return bool(ok)


# --------------------------------------------------------------- building blocks

def read_edges(path):
    """(ids, u, v): sorted unique ids and each line's endpoints as indices."""
    with open(path) as fh:
        lines = [s for s in fh.read().split("\n")
                 if s.strip() and s.lstrip()[0] not in "#%"]
    pairs = np.array(" ".join(lines).split(), dtype=np.int64).reshape(-1, 2)
    ids, inv = np.unique(pairs, return_inverse=True)
    inv = inv.reshape(-1, 2)
    return ids, inv[:, 0], inv[:, 1]


def adjacency(n, u, v):
    """Symmetric 0/1 adjacency; the generators write simple graphs only."""
    if np.any(u == v):
        raise ValueError("edge file has a self-loop")
    a = sparse.csr_array((np.ones(2 * u.size),
                          (np.concatenate([u, v]), np.concatenate([v, u]))),
                         shape=(n, n))
    a.sum_duplicates()
    a.sort_indices()
    if a.nnz and a.data.max() != 1.0:
        raise ValueError("edge file repeats an edge")
    return a


def hadamard_probes(n, nz, seed):
    """The CLI's hadamard probe block, from its definition: the first nz
    columns of the Sylvester sign matrix, (-1)^popcount(i & j), with every
    row flipped by a +-1 sign drawn from the last of nz + 1 Philox streams
    spawned from SeedSequence(seed)."""
    stream = np.random.SeedSequence(int(seed)).spawn(nz + 1)[nz]
    bits = np.random.Generator(np.random.Philox(stream)).integers(0, 2, size=n)
    flips = 1.0 - 2.0 * bits.astype(np.float64)
    i = np.arange(n, dtype=np.uint64)[:, None]
    j = np.arange(nz, dtype=np.uint64)[None, :]
    parity = np.bitwise_count(i & j) & np.uint64(1)
    return flips[:, None] * (1.0 - 2.0 * parity.astype(np.float64))


def chebyshev_blocks(h, z, m_max):
    """Yield T_m(H) z for m = 0..m_max by the three-term recurrence."""
    prev = z
    yield prev
    if m_max == 0:
        return
    cur = h @ z
    yield cur
    for _ in range(2, m_max + 1):
        prev, cur = cur, 2.0 * (h @ cur) - prev
        yield cur


def trace_moments(h, z, m_max, dim):
    """Stochastic trace moments sum_j z_j^T T_m(H) z_j / (nz * dim)."""
    return np.array([np.einsum("ij,ij->", z, t)
                     for t in chebyshev_blocks(h, z, m_max)]) / (z.shape[1] * dim)


def jackson(m_max):
    """Jackson damping factors g_0..g_M: Weisse et al., Rev. Mod. Phys. 78,
    275 (2006), eq. (71) with N = M, so g_0 = 1 and g_M = 0."""
    k = m_max + 1
    m = np.arange(k, dtype=np.float64)
    return ((k - m) * np.cos(np.pi * m / k)
            + np.sin(np.pi * m / k) / np.tan(np.pi / k)) / k


def gauss_bin_masses(coef, x_edges, points=64):
    """Bin masses of the Jackson-damped Chebyshev densities with moments
    coef[..., m], by Gauss-Legendre quadrature in theta = arccos(x) over each
    bin [x_b, x_b+1] of the scaled axis: the density integrates there to
    (1/pi) * integral of g_0 c_0 + 2 sum_m g_m c_m cos(m theta) d theta."""
    m_max = coef.shape[-1] - 1
    a = coef * jackson(m_max)
    a[..., 1:] *= 2.0
    theta = np.arccos(np.clip(x_edges, -1.0, 1.0))
    lo, hi = theta[1:], theta[:-1]
    nodes, weights = np.polynomial.legendre.leggauss(points)
    half = 0.5 * (hi - lo)
    t = 0.5 * (hi + lo)[:, None] + half[:, None] * nodes[None, :]
    basis = (np.cos(np.arange(m_max + 1)[:, None, None] * t) @ weights) * half
    return a @ basis / np.pi


def gauss_rule(h, z, steps):
    """Nodes and weights of the `steps`-point Gauss rule for the spectral
    measure of H weighted by z / |z|: Lanczos with two full Gram-Schmidt
    passes against the whole basis, then the tridiagonal eigenproblem."""
    basis = np.empty((z.shape[0], steps))
    basis[:, 0] = z / np.linalg.norm(z)
    alphas, betas = np.empty(steps), np.empty(steps - 1)
    for j in range(steps):
        w = h @ basis[:, j]
        alphas[j] = basis[:, j] @ w
        if j == steps - 1:
            break
        for _ in range(2):
            w -= basis[:, :j + 1] @ (basis[:, :j + 1].T @ w)
        betas[j] = np.linalg.norm(w)
        basis[:, j + 1] = w / betas[j]
    nodes, vecs = eigh_tridiagonal(alphas, betas)
    return nodes, vecs[0] ** 2


def _array(payload, key, shape=None):
    arr = np.asarray(payload[key], dtype=np.float64)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{key} has shape {arr.shape}, expected {shape}")
    return arr


def _max_dev(a, b):
    return float(np.max(np.abs(a - b))) if a.size else 0.0


# ------------------------------------------------------------------- references

class Reference:
    """The edge file as the checks see it; each workload's reference builder
    adds what its checks compare against."""

    def __init__(self, graph_path, seed, params):
        self.seed = int(seed)
        self.params = params
        self.ids, u, v = read_edges(graph_path)
        self.n = int(self.ids.shape[0])
        self.adj = adjacency(self.n, u, v)


def _motif_classes(ref):
    """The tree's motif classes from its neighbour lists: (kind, node
    indices, eigenvalue, multiplicity, orthonormal eigenspace basis)."""
    nbrs, deg, n = ref.nbrs, ref.deg, ref.n
    classes = []

    def helmert(k):
        """k x (k-1) orthonormal basis of the vectors whose entries sum to 0."""
        return np.linalg.qr(np.eye(k)[:, :1] - np.eye(k)[:, 1:])[0]

    # Open twins: nodes with one neighbour set; in a tree only leaves of one
    # parent. Eigenvalue = the shared degree; eigenvectors sum to 0 on them.
    groups = {}
    for i in range(n):
        groups.setdefault(nbrs[i].tobytes(), []).append(i)
    for members in groups.values():
        if len(members) >= 2:
            classes.append(("open-twin", members, float(deg[members[0]]),
                            len(members) - 1, helmert(len(members))))
    # Dangling two-chains: leaf - degree-2 node - hub, two or more per hub.
    # For eigenvalue lam the chain carries (1, 1 - lam) on (leaf, middle), and
    # the chain coefficients sum to 0 so the hub row vanishes.
    hubs = {}
    for x in np.flatnonzero(deg == 1).tolist():
        b = int(nbrs[x][0])
        if deg[b] == 2:
            hubs.setdefault(int(nbrs[b][nbrs[b] != x][0]), []).append((x, b))
    for chains in hubs.values():
        if len(chains) >= 2:
            nodes = [y for chain in chains for y in chain]
            for lam in CHAIN_EIGS:
                local = np.array([1.0, 1.0 - lam]) / np.hypot(1.0, 1.0 - lam)
                classes.append(("dangling-two-chain", nodes, lam, len(chains) - 1,
                                np.kron(helmert(len(chains)), local[:, None])))
    return classes


def laplacian_tree_reference(ref):
    p, a, n = ref.params, ref.adj, ref.n
    ref.deg = np.diff(a.indptr)
    ref.lap = (sparse.diags_array(ref.deg.astype(np.float64)) - a).tocsr()
    ref.lambda_max = float(eigsh(ref.lap, k=1, which="LA",
                                 return_eigenvectors=False)[0])
    ref.nbrs = [a.indices[a.indptr[i]:a.indptr[i + 1]] for i in range(n)]
    classes = _motif_classes(ref)
    ref.expected_motifs = {(kind, tuple(sorted(ref.ids[nodes].tolist())),
                            round(lam, 9)): mult
                           for kind, nodes, lam, mult, _ in classes}
    ref.deflated = sum(mult for _, _, _, mult, _ in classes)
    ref.removed = {}
    for _, _, lam, mult, _ in classes:
        ref.removed[round(lam, 9)] = ref.removed.get(round(lam, 9), 0) + mult
    # Classes of one kind and eigenvalue are disjoint, and the two chain
    # eigenvalues of one hub give orthogonal spaces, so projecting out each
    # class in turn removes their direct sum.
    probes = hadamard_probes(n, p["probes"], ref.seed)
    z = probes.copy()
    for _, nodes, _, _, basis in classes:
        z[nodes] -= basis @ (basis.T @ z[nodes])
    ref.filtered_probes = z
    ref.deflated_moments = {}
    # gql's Gauss rules on the unscaled Laplacian, pooled as its histogram
    # pools them (weights / nz).
    rules = [gauss_rule(ref.lap, probes[:, j], p["steps"]) for j in range(p["probes"])]
    ref.gql_nodes = np.concatenate([r[0] for r in rules])
    ref.gql_weights = np.concatenate([r[1] for r in rules]) / p["probes"]


def nd_grid_reference(ref):
    p = ref.params
    side, m_max = p["side"], p["moments"]
    lo, hi = p["range"]
    shift, scale = (lo + hi) / 2.0, (hi - lo) / 2.0
    n = side * side
    if not np.array_equal(ref.ids, np.arange(n)):
        raise ValueError("grid file does not hold ids 0..side^2-1")
    if (ref.adj != adjacency(n, *grid(side))).nnz:
        raise ValueError("edge file is not the grid graph")
    # Eigenpairs of the path P_side: mu_i = 2 cos(pi i / (side + 1)),
    # s_i(r) = sqrt(2 / (side + 1)) sin(pi i (r + 1) / (side + 1)); the
    # grid's are mu_i + mu_j with eigenvectors s_i (x) s_j.
    k = np.arange(1, side + 1)
    mu = 2.0 * np.cos(np.pi * k / (side + 1))
    s2 = (2.0 / (side + 1)) * np.sin(np.pi * np.outer(k, k) / (side + 1)) ** 2
    x = (mu[:, None] + mu[None, :] - shift) / scale
    cheb = [np.ones_like(x), x]
    for _ in range(2, m_max + 1):
        cheb.append(2.0 * x * cheb[-1] - cheb[-2])
    per_node = np.stack([(s2 @ tm @ s2.T).ravel() for tm in cheb], axis=1)
    ref.scale_map = {"shift": shift, "scale": scale}
    ref.node_moments = per_node
    ref.mean_moments = np.polynomial.chebyshev.chebvander(x.ravel(), m_max).mean(axis=0)
    ref.hist_edges = np.linspace(lo, hi, p["bins"] + 1)
    ref.hist_masses = gauss_bin_masses(per_node, np.linspace(-1.0, 1.0, p["bins"] + 1))
    ref.sample = np.random.default_rng([ref.seed, 7]).choice(n, size=16, replace=False)
    e = np.zeros((n, ref.sample.size))
    e[ref.sample, np.arange(ref.sample.size)] = 1.0
    h = ((ref.adj - shift * sparse.eye_array(n)) / scale).tocsr()
    ref.sample_moments = np.stack(
        [t[ref.sample, np.arange(ref.sample.size)]
         for t in chebyshev_blocks(h, e, m_max)], axis=1)


# ----------------------------------------------------------------------- checks

def _motif_key(p, inst, ref):
    """Verify one instance against the edge file; return its key or None."""
    kind, mult, lam = inst["kind"], inst["multiplicity"], float(inst["eigenvalue"])
    orig = np.asarray(inst["nodes"], dtype=np.int64)
    idx = np.searchsorted(ref.ids, orig)
    if not p.need(np.all(idx < ref.n)
                  and np.array_equal(ref.ids[np.minimum(idx, ref.n - 1)], orig),
                  f"{kind} instance names ids not in the file"):
        return None
    members = set(idx.tolist())
    if kind == "open-twin":
        first = ref.nbrs[idx[0]]
        p.need(all(np.array_equal(ref.nbrs[i], first) for i in idx),
               f"open twins {orig[:4].tolist()}... have different neighbour sets")
        p.need(not members & set(first.tolist()),
               f"open twins {orig[:4].tolist()}... are adjacent")
        p.need(abs(lam - ref.deg[idx[0]]) <= 1e-12,
               f"open-twin eigenvalue {lam!r} is not the shared degree {ref.deg[idx[0]]}")
        p.need(mult == len(idx) - 1, f"open-twin multiplicity {mult} for {len(idx)} nodes")
    elif kind == "dangling-two-chain":
        leaves = [i for i in members if ref.deg[i] == 1]
        mids = [i for i in members if ref.deg[i] == 2]
        hubs = set()
        ok = len(leaves) == len(mids) and len(leaves) + len(mids) == len(members)
        for b in mids:
            inside = [j for j in ref.nbrs[b].tolist() if j in members]
            outside = [j for j in ref.nbrs[b].tolist() if j not in members]
            ok &= len(inside) == 1 and ref.deg[inside[0]] == 1 and len(outside) == 1
            hubs.update(outside)
        ok &= all(int(ref.nbrs[x][0]) in mids for x in leaves) and len(hubs) == 1
        p.need(ok, f"{orig[:4].tolist()}... is not a set of leaf-degree2-hub paths on one hub")
        p.need(min(abs(lam - e) for e in CHAIN_EIGS) <= 1e-12,
               f"two-chain eigenvalue {lam!r} is not (3 +- sqrt 5)/2")
        p.need(mult == len(leaves) - 1,
               f"two-chain multiplicity {mult} for {len(leaves)} chains")
    else:
        p.need(False, f"unexpected motif kind {kind!r} in a tree")
        return None
    return (kind, tuple(sorted(orig.tolist())), round(lam, 9))


def laplacian_tree_motifs(p, out, ref):
    pay = out["motifs"]
    p.need(pay.get("record") == "motifs" and pay.get("operator") == "laplacian"
           and pay.get("n") == ref.n, "not a Laplacian motifs record for this graph")
    found = {}
    for inst in pay["instances"]:
        key = _motif_key(p, inst, ref)
        if key is not None:
            found[key] = inst["multiplicity"]
    missing = set(ref.expected_motifs) - set(found)
    extra = set(found) - set(ref.expected_motifs)
    p.need(not missing and not extra,
           f"{len(missing)} motif classes in the file were not reported, "
           f"{len(extra)} reported ones are not motif classes")


def laplacian_tree_dos(p, out, ref):
    pay, prm = out["dos"], ref.params
    p.need(pay.get("record") == "dos" and pay.get("n") == ref.n,
           "not a dos record for this graph")
    lo, hi = pay["lambda_min"], pay["lambda_max"]
    p.need(lo <= 0.0 and hi >= ref.lambda_max,
           f"range [{lo}, {hi}] does not enclose [0, {ref.lambda_max}]")
    smap = pay["scale_map"]
    shift, scale = float(smap["shift"]), float(smap["scale"])
    p.need(abs(shift - (lo + hi) / 2) <= 1e-12 * hi
           and abs(scale - (hi - lo) / 2) <= 1e-12 * hi,
           f"scale map {smap} does not map [{lo}, {hi}] onto [-1, 1]")
    flt = pay.get("filter") or {}
    r = flt.get("deflated_dim")
    p.need(r == ref.deflated and flt.get("total_dim") == ref.n,
           f"deflated {r} of {flt.get('total_dim')}, expected {ref.deflated} of {ref.n}")
    removed = {round(float(lam), 9): cnt for lam, cnt in flt.get("removed", [])}
    p.need(removed == ref.removed, "removed spike multiplicities differ from the motif classes")
    # Moments of the deflated density, recomputed on the rebuilt probe block
    # with the motif eigenspaces projected out, on (L - shift) / scale; kept
    # per scale map, which every round of a run repeats.
    if (shift, scale) not in ref.deflated_moments:
        h = ((ref.lap - shift * sparse.eye_array(ref.n)) / scale).tocsr()
        ref.deflated_moments[shift, scale] = trace_moments(
            h, ref.filtered_probes, prm["moments"], ref.n - ref.deflated)
    want = ref.deflated_moments[shift, scale]
    vals = _array(pay, "values", want.shape)
    dev = _max_dev(vals, want)
    p.need(dev <= 1e-10, f"moments differ from the scipy recurrence on the "
                         f"deflated probes by {dev:.3e}")
    # |z' T_m(H) z| <= z'z whenever the spectrum of H lies in [-1, 1].
    p.need(vals[0] > 0 and np.max(np.abs(vals)) <= vals[0] * (1 + 1e-9),
           f"max |d_m| = {np.max(np.abs(vals))!r} exceeds d_0 = {vals[0]!r}")
    # Bin masses: the damped series over (n - r) / n of the mass, plus each
    # removed eigenvalue's multiplicity / n in the bin that holds it.
    x_edges = np.linspace(-1.0, 1.0, prm["bins"] + 1)
    edges = _array(pay, "edges", x_edges.shape)
    p.need(_max_dev(edges, shift + scale * x_edges) <= 1e-12 * hi,
           f"edges are not {prm['bins']} equal bins of [{lo}, {hi}]")
    expect = gauss_bin_masses(want, x_edges) * (ref.n - ref.deflated) / ref.n
    for lam, count in ref.removed.items():
        b = min(max(int(np.searchsorted(edges, lam, side="right")) - 1, 0), prm["bins"] - 1)
        expect[b] += count / ref.n
    masses = _array(pay, "masses", expect.shape)
    dev = _max_dev(masses, expect)
    p.need(dev <= 1e-8, f"bin masses differ from quadrature of the recomputed "
                        f"moments plus the removed spikes by {dev:.3e}")
    total = vals[0] * (ref.n - ref.deflated) / ref.n + ref.deflated / ref.n
    p.need(abs(masses.sum() - total) <= 1e-12,
           f"masses sum to {float(masses.sum())!r}, expected d0 (n-r)/n + r/n = {total!r}")


def laplacian_tree_gql(p, out, ref):
    pay, prm = out["gql"], ref.params
    p.need(pay.get("record") == "histogram" and pay.get("method") == "gql",
           "not a gql histogram record")
    masses = _array(pay, "masses", (prm["bins"],))
    edges = _array(pay, "edges", (prm["bins"] + 1,))
    p.need(edges[0] <= 0.0 and edges[-1] >= ref.lambda_max,
           f"gql range [{edges[0]}, {edges[-1]}] does not enclose [0, {ref.lambda_max}]")
    p.need(_max_dev(edges, np.linspace(edges[0], edges[-1], edges.size)) <= 1e-12 * edges[-1],
           "gql edges are not equal bins")
    p.need(np.all(masses >= 0.0), f"negative gql mass {masses.min()!r}")
    p.need(abs(masses.sum() - 1.0) <= 1e-12,
           f"gql masses sum to {float(masses.sum())!r}: a Ritz value fell outside the range")
    # The same Gauss rules from an independent Lanczos run; a Ritz value
    # within EDGE_SLACK of a bin edge may count in either neighbour.
    nodes, weights = ref.gql_nodes, ref.gql_weights
    expect, _ = np.histogram(nodes, bins=edges, weights=weights)
    near = np.min(np.abs(nodes[:, None] - edges[None, :]), axis=1) <= EDGE_SLACK
    slack = np.zeros_like(expect)
    for lam, w in zip(nodes[near], weights[near]):
        b = int(np.searchsorted(edges, lam))
        slack[max(b - 1, 0):b + 1] += w
    dev = np.abs(masses - expect) - slack
    p.need(np.all(dev <= 1e-10), f"gql masses differ from an independent "
                                 f"Lanczos quadrature by {float(dev.max()):.3e}")


def nd_grid_nd_pdos(p, out, ref):
    pay = out["nd-pdos"]
    p.need(pay.get("record") == "moments" and pay.get("mode") == "per_node",
           "not a per-node moments record")
    p.need(pay.get("node_ids") == ref.ids.tolist(),
           "node_ids are not the file's sorted unique ids")
    smap = pay["scale_map"]
    p.need(smap["shift"] == ref.scale_map["shift"] and smap["scale"] == ref.scale_map["scale"],
           f"scale map {smap} is not the requested range {ref.params['range']}")
    vals = _array(pay, "values", ref.node_moments.shape)
    p.need(np.all(np.abs(vals[:, 0] - 1.0) <= 1e-12), "some c_0k is not 1")
    p.need(np.max(np.abs(vals)) <= 1.0 + 1e-9, f"max |c_mk| = {np.max(np.abs(vals))!r}")
    dev = _max_dev(vals.mean(axis=0), ref.mean_moments)
    p.need(dev <= 1e-9, f"node-mean moments differ from the grid spectrum by {dev:.3e}")
    dev = _max_dev(vals[ref.sample], ref.sample_moments)
    p.need(dev <= 1e-9, f"sampled nodes differ from e_k recurrences by {dev:.3e}")
    dev = _max_dev(vals, ref.node_moments)
    p.need(dev <= 1e-9, f"per-node moments differ from the closed form by {dev:.3e}")


def nd_grid_hist(p, out, ref):
    pay, src = out["hist"], out["nd-pdos"]
    p.need(pay.get("record") == "histogram", "not a histogram record")
    p.need(pay.get("node_ids") == ref.ids.tolist(),
           "node_ids are not the file's sorted unique ids")
    masses = _array(pay, "masses", ref.hist_masses.shape)
    edges = _array(pay, "edges", ref.hist_edges.shape)
    p.need(_max_dev(edges, ref.hist_edges) <= 1e-12,
           f"edges span [{edges[0]}, {edges[-1]}], not {ref.params['range']} "
           f"in {ref.params['bins']} bins")
    rows = masses.sum(axis=1)
    p.need(np.all(np.abs(rows - 1.0) <= 1e-10),
           f"row sums deviate from 1 by {np.max(np.abs(rows - 1.0)):.3e}")
    dev = _max_dev(masses, ref.hist_masses)
    p.need(dev <= 1e-8, f"bin masses differ from Gauss-Legendre quadrature of "
                        f"the closed-form moments by {dev:.3e}")
    vals = _array(src, "values")[ref.sample]
    dev = _max_dev(masses[ref.sample],
                   gauss_bin_masses(vals, np.linspace(-1.0, 1.0, ref.params["bins"] + 1)))
    p.need(dev <= 1e-8, f"sampled rows differ from Gauss-Legendre quadrature of "
                        f"their own moments by {dev:.3e}")


# ------------------------------------------------------------------- corruptions
# Each takes a deep copy of a real output and a seeded generator, damages the
# copy in place and says where.

def nudge_moment(pay, rng):
    vals = pay["values"]
    m = int(rng.integers(1, len(vals)))
    vals[m] += 1e-6
    return f"m = {m}"


def nudge_mass(pay, rng):
    masses = pay["masses"]
    if isinstance(masses[0], list):
        k = int(rng.integers(len(masses)))
        masses, where = masses[k], f"row {k}, "
    else:
        where = ""
    b = int(rng.integers(len(masses)))
    masses[b] += 1e-6
    return f"{where}bin {b}"


def drop_largest_mass(pay, rng):
    b = int(np.argmax(pay["masses"]))
    pay["masses"][b] = 0.0
    return f"bin {b}"


def wrong_eigenvalue(pay, rng):
    i = int(rng.integers(len(pay["instances"])))
    pay["instances"][i]["eigenvalue"] += 1e-6
    return f"instance {i}"


def drop_spike(pay, rng):
    pay["filter"]["removed"].pop(0)
    return "first removed eigenvalue"


def perturb_row(pay, rng):
    k = int(rng.integers(len(pay["values"])))
    pay["values"][k] = [c + 1e-6 * (m > 0) for m, c in enumerate(pay["values"][k])]
    return f"node {k}"


NUDGE_MOMENT = ("one moment nudged by 1e-6", nudge_moment)
NUDGE_MASS = ("one bin mass nudged by 1e-6", nudge_mass)
DROP_MASS = ("the largest mass dropped", drop_largest_mass)
WRONG_EIGENVALUE = ("one instance given an eigenvalue off by 1e-6", wrong_eigenvalue)
DROP_SPIKE = ("one removed spike dropped", drop_spike)
PERTURB_ROW = ("one row perturbed by 1e-6", perturb_row)
