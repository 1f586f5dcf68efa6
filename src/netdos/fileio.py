"""Graph ingestion and result serialization.

Graph files: whitespace edge lists (`u v [w]`, `#`/`%` comments) or
Matrix Market coordinate symmetric, whose `pattern` entries have 2 columns
and `real`/`integer` entries 3. A file is read as Matrix Market exactly
when it opens with the `%%MatrixMarket` banner, whatever its name. One
array reader serves both bodies; on a bad file a line-by-line scan names
the first bad line. Node ids are compacted to 0..n-1 and the id map is
returned alongside the graph. An edge list whose first line is exactly
`# nodes N edges M` (what `write_graph_edgelist` writes for compact ids)
keeps ids 0..N-1, so isolated nodes survive a round trip, and must hold M
edge lines (none: edgeless).

Results serialize to JSON (schema includes the method, operator, scale map
and probe metadata) or CSV histograms (`bin_lo,bin_hi,mass`). Floats are
written with shortest round-trip repr, so reloading is bit-exact and reruns
with the same seed produce byte-identical files.
"""

from __future__ import annotations

import json
import re
from itertools import compress

import numpy as np

from .errors import FileFormatError
from .graph import GraphCSR, _csr_from_arrays
from .kpm import MODE_GLOBAL, MODE_PER_NODE, ChebMoments
from .density import SpectralHistogram
from .lanczos import RitzQuadrature
from .motifs import FilterAdjustment
from .operators import ScaleMap


_NODES_HEADER = re.compile(rb"# nodes (\d+) edges (\d+)(?:\n|\Z)")

# the ASCII whitespace that bytes.split() splits on
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b" \t\n\r\v\f")] = True


def _read_entries(path, body, lineno, *, base, n, malformed, outside=None,
                  width=None, promised=None):
    """(u, v, w, weighted) from the `u v [w]` lines of `body`, which holds
    the file from line `lineno` on.

    Blank lines and lines whose first token starts with `#` or `%` are
    skipped. Ids are shifted down by `base` and must lie in 0..n-1 when `n`
    is given; a missing weight is 1.0. `width` is the column count a header
    fixes, `promised` a header's (entry count, message). On failure a scan
    line by line names the first bad line, `malformed` starting the message
    for a wrong column count and `outside` the one for an id out of range.
    """
    buf = np.frombuffer(body, dtype=np.uint8)
    space = _SPACE[buf]
    starts = np.flatnonzero(~space & np.diff(space, prepend=True))
    line = np.searchsorted(np.flatnonzero(buf == ord("\n")), starts)
    heads = np.flatnonzero(np.diff(line, prepend=-1))  # each line's first token
    cols = np.diff(heads, append=starts.size)
    entry = ~np.isin(buf[starts[heads]], list(b"#%"))
    tokens = np.array(list(compress(body.split(), np.repeat(entry, cols).tolist())),
                      dtype=np.bytes_)
    cols = cols[entry]
    at, three = np.cumsum(cols) - cols, cols == 3
    ok = np.all(three | (cols == 2)) and (width is None or np.all(cols == width))
    try:
        u = tokens[at].astype(np.int64) - base
        v = tokens[at + 1].astype(np.int64) - base
        w = np.ones(cols.size)
        w[three] = tokens[at[three] + 2].astype(np.float64)
    except (IndexError, ValueError, OverflowError):
        ok = False
    if ok and n is not None and cols.size:
        ok = min(u.min(), v.min()) >= 0 and max(u.max(), v.max()) < n
    if ok:
        if promised is not None and promised[0] != cols.size:
            raise FileFormatError(f"{promised[1]}, found {cols.size}")
        return u, v, w, bool(three.any())

    lo, hi = (0, n) if n is not None else (-2**63, 2**63)
    for lineno, line in enumerate(body.decode(errors="replace").split("\n"), lineno):
        s = line.strip()
        if not s or s[0] in "#%":
            continue
        toks = s.split()
        if len(toks) not in (2, 3):
            raise FileFormatError(f"{path}:{lineno}: {malformed} {s!r}")
        if width is not None and len(toks) != width:
            raise FileFormatError(f"{path}:{lineno}: the header declares "
                                  f"{width}-column entries, got {s!r}")
        try:
            ids = [int(t) - base for t in toks[:2]]
            if len(toks) == 3:
                float(toks[2])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        if not all(lo <= i < hi for i in ids):
            raise FileFormatError(f"{path}:{lineno}: "
                                  f"{outside or 'node id outside the int64 range'}")
    raise FileFormatError(f"{path}: entries must be ASCII `u v [w]` lines")


def _parse_edgelist(path, data):
    """(u, v, w, weighted, n): n is the node count of a `# nodes N edges M`
    first line, else None."""
    header = _NODES_HEADER.match(data)
    n = int(header[1]) if header else None
    u, v, w, weighted = _read_entries(
        path, data, 1, base=0, n=n, malformed="expected `u v [w]`, got",
        outside=header and f"node id outside 0..{n - 1} declared by the header",
        promised=header and (int(header[2]), f"{path}:1: header promises "
                                              f"{int(header[2])} edges"))
    if n is None and u.size == 0:
        raise FileFormatError(f"{path}: no edges found")
    return u, v, w, weighted, n


def _parse_matrix_market(path, data):
    pos = data.find(b"\n") + 1 or len(data)  # where line 2 starts
    toks = data[:pos].decode(errors="replace").lower().split()
    if len(toks) < 5:
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
    lineno, size_line = 1, ""
    while not size_line or size_line.startswith("%"):
        if pos == len(data):
            raise FileFormatError(f"{path}: missing size line")
        end = data.find(b"\n", pos) + 1 or len(data)
        size_line = data[pos:end].decode(errors="replace").strip()
        pos, lineno = end, lineno + 1
    try:
        rows, cols, nnz = (int(x) for x in size_line.split())
    except ValueError as exc:
        raise FileFormatError(f"{path}:{lineno}: bad size line {size_line!r}") from exc
    if rows != cols:
        raise FileFormatError(f"{path}:{lineno}: matrix must be square, got {rows}x{cols}")
    u, v, w, weighted = _read_entries(
        path, data[pos:], lineno + 1, base=1, n=rows, malformed="malformed entry",
        outside="index out of range", width=2 if field == "pattern" else 3,
        promised=(nnz, f"{path}: size line promises {nnz} entries"))
    return u, v, w, weighted, rows


def parse_graph_file(path, allow_self_loops=False):
    """Read a graph file; returns (GraphCSR, node_id_map).

    node_id_map[i] is the original id of compacted node i. Error messages
    name nodes by these original ids.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # line ends as a text-mode read gives them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    mm = data[:14].lower() == b"%%matrixmarket"
    parse = _parse_matrix_market if mm else _parse_edgelist
    u, v, w, weighted, n = parse(path, data)
    if n is None:
        ids, compact = np.unique(np.concatenate([u, v]), return_inverse=True)
        u, v, n = compact[:u.size], compact[u.size:], ids.size
    else:
        ids = np.arange(n, dtype=np.int64)
    return _csr_from_arrays(u, v, w, weighted, n, allow_self_loops, ids), ids


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


def load_moments(path):
    """Reload a moments JSON: (ChebMoments, FilterAdjustment | None, payload).

    A file that holds no moments record, or whose scale map or values do
    not describe a finite moment series, raises FileFormatError.
    """
    with open(path) as fh:
        obj = json.load(fh)
    if (not isinstance(obj, dict) or obj.get("record") not in ("moments", "dos")
            or "values" not in obj):
        raise FileFormatError(f"{path}: not a moments file")
    mode = obj.get("mode", MODE_GLOBAL)
    try:
        rank = {MODE_GLOBAL: 1, MODE_PER_NODE: 2}.get(mode)
        shift, scale = (float(obj["scale_map"][k]) for k in ("shift", "scale"))
        values = np.asarray(obj["values"], dtype=np.float64)
        adjustment = _adjustment_from_obj(obj.get("filter"))
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed moments record ({exc!r})") from exc
    if not (np.isfinite(shift) and 0.0 < scale < np.inf):
        raise FileFormatError(f"{path}: scale_map needs a finite shift and a "
                              f"finite positive scale, got {shift!r}, {scale!r}")
    if rank is None or values.ndim != rank:
        raise FileFormatError(f"{path}: mode {mode!r} does not fit values of "
                              f"shape {values.shape}")
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise FileFormatError(f"{path}: values must be non-empty and finite")
    moments = ChebMoments(mode=mode, values=values, scale_map=ScaleMap(shift, scale),
                          probe_meta=obj.get("probe_meta", {}))
    return moments, adjustment, obj
