"""Graph ingestion and result serialization.

Graph files: whitespace edge lists (`u v [w]`, `#`/`%` comments) or
Matrix Market coordinate symmetric. Node ids are compacted to 0..n-1 and the
id map is returned alongside the graph. An edge list whose first line is
exactly `# nodes N edges M` (what `write_graph_edgelist` writes for compact
ids) keeps ids 0..N-1 as they are, so isolated nodes survive a round trip.

Results serialize to JSON (schema includes the method, operator, scale map
and probe metadata) or CSV histograms (`bin_lo,bin_hi,mass`). Floats are
written with shortest round-trip repr, so reloading is bit-exact and reruns
with the same seed produce byte-identical files.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .errors import FileFormatError
from .graph import GraphCSR, build_csr
from .kpm import MODE_GLOBAL, ChebMoments
from .density import SpectralHistogram
from .lanczos import RitzQuadrature
from .motifs import FilterAdjustment
from .operators import ScaleMap


_NODES_HEADER = re.compile(r"# nodes (\d+) edges \d+")


def _parse_edgelist(path):
    """(edges, n): n is the node count of a `# nodes N edges M` first line,
    else None."""
    edges = []
    with open(path) as fh:
        header = _NODES_HEADER.fullmatch(fh.readline().rstrip("\r\n"))
        n = int(header.group(1)) if header else None
        fh.seek(0)
        for lineno, line in enumerate(fh, 1):
            s = line.strip()
            if not s or s[0] in "#%":
                continue
            toks = s.split()
            if len(toks) not in (2, 3):
                raise FileFormatError(f"{path}:{lineno}: expected `u v [w]`, got {s!r}")
            try:
                u, v = int(toks[0]), int(toks[1])
                w = float(toks[2]) if len(toks) == 3 else None
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
            if n is not None and not (0 <= u < n and 0 <= v < n):
                raise FileFormatError(f"{path}:{lineno}: node id outside "
                                      f"0..{n - 1} declared by the header")
            edges.append((u, v) if w is None else (u, v, w))
    if not edges:
        raise FileFormatError(f"{path}: no edges found")
    return edges, n


def _parse_matrix_market(path):
    with open(path) as fh:
        header = fh.readline()
        toks = header.lower().split()
        if len(toks) < 5 or not toks[0].startswith("%%matrixmarket"):
            raise FileFormatError(f"{path}:1: not a MatrixMarket header")
        _, obj, fmt, field, sym = toks[:5]
        if obj != "matrix" or fmt != "coordinate":
            raise FileFormatError(f"{path}:1: only coordinate matrices are supported")
        if field not in ("real", "integer", "pattern"):
            raise FileFormatError(f"{path}:1: unsupported field {field!r}")
        if sym != "symmetric":
            raise FileFormatError(
                f"{path}:1: header declares {sym!r}; undirected graphs need "
                "a symmetric matrix")
        lineno = 1
        size_line = None
        for line in fh:
            lineno += 1
            s = line.strip()
            if not s or s.startswith("%"):
                continue
            size_line = s
            break
        if size_line is None:
            raise FileFormatError(f"{path}: missing size line")
        try:
            rows, cols, nnz = (int(x) for x in size_line.split())
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: bad size line {size_line!r}") from exc
        if rows != cols:
            raise FileFormatError(f"{path}:{lineno}: matrix must be square, got {rows}x{cols}")
        edges = []
        for line in fh:
            lineno += 1
            s = line.strip()
            if not s or s.startswith("%"):
                continue
            toks = s.split()
            if len(toks) not in (2, 3):
                raise FileFormatError(f"{path}:{lineno}: malformed entry {s!r}")
            try:
                i, j = int(toks[0]) - 1, int(toks[1]) - 1
                w = float(toks[2]) if len(toks) == 3 else None
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
            if not (0 <= i < rows and 0 <= j < rows):
                raise FileFormatError(f"{path}:{lineno}: index out of range")
            edges.append((i, j) if w is None else (i, j, w))
        if len(edges) != nnz:
            raise FileFormatError(f"{path}: size line promises {nnz} entries, "
                                  f"found {len(edges)}")
    return edges, rows


def parse_graph_file(path, fmt=None, allow_self_loops=False):
    """Read a graph file; returns (GraphCSR, node_id_map).

    node_id_map[i] is the original id of compacted node i. Format is sniffed
    from the extension / header when not given.
    """
    if fmt is None:
        fmt = "matrix_market" if str(path).endswith((".mtx", ".mm")) else None
        if fmt is None:
            with open(path) as fh:
                first = fh.readline()
            fmt = "matrix_market" if first.lower().startswith("%%matrixmarket") else "edgelist"
    if fmt == "matrix_market":
        edges, n = _parse_matrix_market(path)
        g = build_csr(edges, n=n, allow_self_loops=allow_self_loops)
        return g, np.arange(n, dtype=np.int64)
    if fmt != "edgelist":
        raise ValueError(f"unknown graph format {fmt!r}")
    edges, n = _parse_edgelist(path)
    if n is not None:
        g = build_csr(edges, n=n, allow_self_loops=allow_self_loops)
        return g, np.arange(n, dtype=np.int64)
    raw = np.array([(e[0], e[1]) for e in edges], dtype=np.int64)
    ids = np.unique(raw)
    lookup = {int(orig): i for i, orig in enumerate(ids.tolist())}
    remapped = [(lookup[e[0]], lookup[e[1]], *e[2:]) for e in edges]
    g = build_csr(remapped, n=len(ids), allow_self_loops=allow_self_loops)
    return g, ids


def write_graph_edgelist(g: GraphCSR, path, node_ids=None):
    """Canonical `u v [w]` lines (original ids when a map is given); compact
    ids get the `# nodes N edges M` header that keeps isolated nodes."""
    u, v, w = g.edge_list()
    if node_ids is not None:
        u, v = np.asarray(node_ids)[u], np.asarray(node_ids)[v]
    with open(path, "w") as fh:
        if node_ids is None:
            fh.write(f"# nodes {g.n} edges {u.shape[0]}\n")
        for a, b, ww in zip(u.tolist(), v.tolist(), w.tolist()):
            if g.is_weighted:
                fh.write(f"{a} {b} {ww!r}\n")
            else:
                fh.write(f"{a} {b}\n")


def _scale_map_obj(smap: ScaleMap):
    return {"shift": smap.shift, "scale": smap.scale}


def _adjustment_obj(adj):
    if adj is None or not adj.removed:
        return None
    return {"removed": [[lam, int(count)] for lam, count in sorted(adj.removed.items())],
            "deflated_dim": adj.deflated_dim,
            "total_dim": adj.total_dim}


def _adjustment_from_obj(obj):
    if obj is None:
        return None
    return FilterAdjustment(removed={float(l): int(c) for l, c in obj["removed"]},
                            total_dim=int(obj["total_dim"]))


def histogram_payload(hist: SpectralHistogram, meta=None) -> dict:
    out = dict(meta or {})
    out["record"] = "histogram"
    out["edges"] = hist.edges.tolist()
    out["masses"] = hist.masses.tolist()
    norm = hist.normalization
    out["normalization"] = norm.tolist() if isinstance(norm, np.ndarray) else norm
    return out


def moments_payload(moments: ChebMoments, meta=None, adjustment=None) -> dict:
    out = dict(meta or {})
    out["record"] = "moments"
    out["mode"] = moments.mode
    out["m_max"] = moments.m_max
    out["scale_map"] = _scale_map_obj(moments.scale_map)
    out["probe_meta"] = moments.probe_meta
    out["filter"] = _adjustment_obj(adjustment)
    out["values"] = moments.values.tolist()
    return out


def quadrature_payload(quad: RitzQuadrature, meta=None) -> dict:
    out = dict(meta or {})
    out["record"] = "quadrature"
    out["nodes"] = quad.nodes.tolist()
    out["weights"] = quad.weights.tolist()
    out["z_norm_sq"] = quad.z_norm_sq
    out["exhausted"] = bool(quad.exhausted)
    return out


def motifs_payload(instances, meta=None, node_ids=None) -> dict:
    """Motif instances as a record; `node_ids` maps compact node ids back to
    the input file's ids."""
    def node(x):
        return int(x if node_ids is None else node_ids[x])

    # the record type leads, as in the motifs.json the CLI has always written
    out = {"record": "motifs"}
    out.update((k, v) for k, v in (meta or {}).items() if k != "record")
    out["instances"] = [
        {"kind": inst.kind.value, "nodes": [node(x) for x in inst.nodes],
         "eigenvalue": float(inst.eigenvalue), "multiplicity": inst.multiplicity}
        for inst in instances]
    return out


def write_json(payload: dict, path):
    text = json.dumps(payload, indent=1)
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")
    return None


def write_histogram_csv(hist: SpectralHistogram, path):
    if hist.masses.ndim != 1:
        raise ValueError("CSV output supports global histograms only")
    with open(path, "w") as fh:
        fh.write("bin_lo,bin_hi,mass\n")
        for lo, hi, m in zip(hist.edges[:-1].tolist(), hist.edges[1:].tolist(),
                             hist.masses.tolist()):
            fh.write(f"{lo!r},{hi!r},{m!r}\n")


def read_histogram_csv(path) -> SpectralHistogram:
    edges = []
    masses = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "bin_lo,bin_hi,mass":
            raise FileFormatError(f"{path}: unexpected CSV header {header!r}")
        for lineno, line in enumerate(fh, 2):
            s = line.strip()
            if not s:
                continue
            try:
                lo, hi, m = (float(x) for x in s.split(","))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
            if not edges:
                edges.append(lo)
            edges.append(hi)
            masses.append(m)
    return SpectralHistogram(edges=np.array(edges), masses=np.array(masses),
                             normalization=float(np.sum(masses)))


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_moments(path):
    """Reload a moments JSON: (ChebMoments, FilterAdjustment | None, payload)."""
    obj = load_json(path)
    if obj.get("record") not in ("moments", "dos") or "values" not in obj:
        raise FileFormatError(f"{path}: not a moments file")
    smap = ScaleMap(float(obj["scale_map"]["shift"]), float(obj["scale_map"]["scale"]))
    values = np.asarray(obj["values"], dtype=np.float64)
    moments = ChebMoments(mode=obj.get("mode", MODE_GLOBAL), values=values,
                          scale_map=smap, probe_meta=obj.get("probe_meta", {}))
    return moments, _adjustment_from_obj(obj.get("filter")), obj


def write_spectral_output(result, path, fmt="json", meta=None, adjustment=None):
    """Serialize a histogram, moments, quadrature or motif list."""
    if fmt == "csv":
        if not isinstance(result, SpectralHistogram):
            raise ValueError("CSV format is defined for histograms only")
        return write_histogram_csv(result, path)
    if fmt != "json":
        raise ValueError(f"unknown output format {fmt!r}")
    if isinstance(result, SpectralHistogram):
        payload = histogram_payload(result, meta)
    elif isinstance(result, ChebMoments):
        payload = moments_payload(result, meta, adjustment)
    elif isinstance(result, RitzQuadrature):
        payload = quadrature_payload(result, meta)
    elif isinstance(result, (list, tuple)):
        payload = motifs_payload(result, meta)
    else:
        raise ValueError(f"cannot serialize {type(result).__name__}")
    return write_json(payload, path)
