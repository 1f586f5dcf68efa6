"""Graph ingestion and result serialization.

Graph files: whitespace edge lists (`u v [w]`, `#`/`%` comments) or
Matrix Market coordinate symmetric, whose `pattern` entries have 2 columns
and `real`/`integer` entries 3. A file is read as Matrix Market exactly
when it opens with the `%%MatrixMarket` banner, whatever its name. One
array reader serves both bodies; on a bad file a line-by-line scan names
the first bad line. A missing weight is 1; a graph is weighted exactly
when some weight differs from 1, and nothing else records it. Node ids are
compacted to 0..n-1 and the id map is returned alongside the graph. An
edge list whose first line is exactly `# nodes N edges M` keeps ids
0..N-1, so isolated nodes survive, and must hold M edge lines (none:
edgeless).

`write_graph_edgelist` writes what the reader reads back: weights on every
line when any weight differs from 1, and the header when the ids it writes
are 0..n-1. Parsing a file, writing the graph with its id map and parsing
the result again gives back the same arrays and ids.

Results serialize to JSON (schema includes the method, operator, scale map
and probe metadata) or CSV histograms (`bin_lo,bin_hi,mass`). Floats are
written with shortest round-trip repr, so reloading is bit-exact and reruns
with the same seed produce byte-identical files.

A record payload holds its large arrays as ndarrays, and `write_json`
writes exactly the bytes of `json.dumps(payload, indent=1)` with every
ndarray replaced by its `.tolist()`, but streams them into the file. It
lays out the payload dict itself and hands keys and small values to
`json`. A finite float64 block goes out in chunks of at most
`_CHUNK_VALUES` values: each distinct bit pattern in a chunk is formatted
once by `float.__repr__`, and the strings are gathered back through the
inverse index and joined in the `indent=1` layout. A list of plain ints
(`node_ids`) is joined with `int.__repr__`. A block holding NaN or ±inf,
or of another dtype or rank, goes through `json` as a list.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import nullcontext
from itertools import compress, repeat

import numpy as np

from .errors import FileFormatError, MotifError
from .graph import GraphCSR, _csr_from_arrays
from .kpm import MODE_GLOBAL, ChebMoments
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
    """(u, v, w) from the `u v [w]` lines of `body`, which holds
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
        return u, v, w

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
    """(u, v, w, n): n is the node count of a `# nodes N edges M` first
    line, else None."""
    header = _NODES_HEADER.match(data)
    n = int(header[1]) if header else None
    u, v, w = _read_entries(
        path, data, 1, base=0, n=n, malformed="expected `u v [w]`, got",
        outside=header and f"node id outside 0..{n - 1} declared by the header",
        promised=header and (int(header[2]), f"{path}:1: header promises "
                                              f"{int(header[2])} edges"))
    if n is None and u.size == 0:
        raise FileFormatError(f"{path}: no edges found")
    return u, v, w, n


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
    u, v, w = _read_entries(
        path, data[pos:], lineno + 1, base=1, n=rows, malformed="malformed entry",
        outside="index out of range", width=2 if field == "pattern" else 3,
        promised=(nnz, f"{path}: size line promises {nnz} entries"))
    return u, v, w, rows


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
    u, v, w, n = parse(path, data)
    if n is None:
        ids, compact = np.unique(np.concatenate([u, v]), return_inverse=True)
        u, v, n = compact[:u.size], compact[u.size:], ids.size
    else:
        ids = np.arange(n, dtype=np.int64)
    return _csr_from_arrays(u, v, w, n, allow_self_loops, ids), ids


def write_graph_edgelist(g: GraphCSR, path, node_ids=None):
    """Canonical edge lines of `g`, one per undirected edge, in the ids of
    `node_ids` (node i is `node_ids[i]`) when a map is given.

    Every line is `u v w` when any weight differs from 1, and `u v`
    otherwise. Ids 0..n-1 (no map, or the identity map) get the
    `# nodes N edges M` header, which keeps isolated nodes; a file without
    it drops them. A map from `parse_graph_file` names an isolated node
    only if it is the identity, so parsing, writing with that map and
    parsing again gives back the same graph and map.
    """
    u, v, w = g.edge_list()
    # each line's end, chosen once: f-strings format faster than str.format
    ends = [f" {x!r}\n" for x in w.tolist()] if np.any(w != 1.0) else repeat("\n")
    compact = node_ids is None or np.array_equal(node_ids, np.arange(g.n))
    if not compact:
        u, v = np.asarray(node_ids)[u], np.asarray(node_ids)[v]
    with open(path, "w") as fh:
        if compact:
            fh.write(f"# nodes {g.n} edges {u.shape[0]}\n")
        for a, b, end in zip(u.tolist(), v.tolist(), ends):
            fh.write(f"{a} {b}{end}")


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
    return FilterAdjustment(removed={float(l): c for l, c in obj["removed"]},
                            total_dim=obj["total_dim"])


def histogram_payload(hist: SpectralHistogram, meta=None) -> dict:
    out = dict(meta or {})
    out["record"] = "histogram"
    out["edges"] = hist.edges
    out["masses"] = hist.masses
    out["normalization"] = hist.normalization
    return out


def moments_payload(moments: ChebMoments, meta=None) -> dict:
    out = dict(meta or {})
    out["record"] = "moments"
    out["mode"] = moments.mode
    out["m_max"] = moments.m_max
    out["scale_map"] = _scale_map_obj(moments.scale_map)
    out["probe_meta"] = moments.probe_meta
    out["filter"] = _adjustment_obj(moments.adjustment)
    out["values"] = moments.values
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
    """Motif instances as a record, one entry per (instance, eigenvalue)
    with the instance's nodes and the eigenvalue's multiplicity; `node_ids`
    maps compact node ids back to the input file's ids."""
    def node(x):
        return int(x if node_ids is None else node_ids[x])

    # the record type leads, as in the motifs.json the CLI has always written
    out = {"record": "motifs"}
    out.update((k, v) for k, v in (meta or {}).items() if k != "record")
    out["instances"] = [
        {"kind": inst.kind.value, "nodes": [node(x) for x in inst.nodes],
         "eigenvalue": lam, "multiplicity": inst.multiplicity}
        for inst in instances for lam in inst.eigenvalues]
    return out


# Values per chunk of a float block: the writer's working memory is a small
# multiple of this, whatever the size of the block.
_CHUNK_VALUES = 1 << 16


def _newline(level):
    return "\n" + " " * level


def _tolist(obj):
    """json's `default`: an ndarray below the top of a value is its list."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_json(write, obj, level):
    """json.dumps(obj, indent=1) as it reads nested `level` deep: a JSON
    string holds no raw newline, so every newline starts an indent."""
    write(json.dumps(obj, indent=1, default=_tolist).replace("\n", _newline(level)))


def _emit(write, obj, level):
    """Write `obj` as json.dumps(..., indent=1) would nested `level` deep,
    with every ndarray standing for its .tolist(). A dict that holds an
    ndarray itself, as a record payload does, is laid out here key by key;
    anything else goes through json."""
    if isinstance(obj, np.ndarray):
        _emit_array(write, obj, level)
    elif isinstance(obj, (list, tuple)) and obj and all(type(x) is int for x in obj):
        inner = _newline(level + 1)
        write("[" + inner + ("," + inner).join(map(int.__repr__, obj))
              + _newline(level) + "]")
    elif isinstance(obj, dict) and any(isinstance(x, np.ndarray) for x in obj.values()):
        sep = "{"
        for key, value in obj.items():
            # json's key conversion (str, number, bool or None), and its error
            write(sep + _newline(level + 1) + json.dumps({key: 0})[1:-4] + ": ")
            _emit(write, value, level + 1)
            sep = ","
        write(_newline(level) + "}")
    else:
        _emit_json(write, obj, level)


def _emit_array(write, a, level):
    """A finite float64 vector or matrix chunk by chunk; any other array
    as its .tolist() through json."""
    if (a.dtype != np.float64 or a.ndim not in (1, 2) or a.size == 0
            or not np.isfinite(a).all()):
        _emit_json(write, a.tolist(), level)
        return
    rows = a[None] if a.ndim == 1 else a
    inner = level + a.ndim  # the indent of the numbers
    item_sep = "," + _newline(inner)
    # between the rows of a matrix: close one, open the next
    row_sep = _newline(inner - 1) + "]," + _newline(inner - 1) + "[" + _newline(inner)
    write("[" + _newline(level + 1) + ("[" + _newline(inner) if a.ndim == 2 else ""))
    n_rows, n_cols = rows.shape
    step = max(1, _CHUNK_VALUES // n_cols)
    for r0 in range(0, n_rows, step):
        # one window per row chunk, unless a row alone exceeds the budget
        for c0 in range(0, n_cols, _CHUNK_VALUES):
            chunk = rows[r0:r0 + step, c0:c0 + _CHUNK_VALUES]
            # bit patterns, not values, so that -0.0 keeps its sign
            bits, inverse = np.unique(chunk.view(np.int64).ravel(),
                                      return_inverse=True)
            texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())),
                             dtype=object)
            lines = texts[inverse.ravel()].reshape(chunk.shape).tolist()
            if r0 or c0:
                write(item_sep if c0 else row_sep)
            write(row_sep.join(map(item_sep.join, lines)))
    write(_newline(inner - 1) + "]" + (_newline(level) + "]" if a.ndim == 2 else ""))


def write_json(payload: dict, path):
    """Write json.dumps(payload, indent=1) and a newline to `path`, or to
    stdout with path None, each ndarray written as its .tolist() would be."""
    with nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        _emit(fh.write, payload, 0)
        fh.write("\n")


def write_histogram_csv(hist: SpectralHistogram, path):
    if hist.masses.ndim != 1:
        raise ValueError("CSV output supports global histograms only")
    with open(path, "w") as fh:
        fh.write("bin_lo,bin_hi,mass\n")
        for lo, hi, m in zip(hist.edges[:-1].tolist(), hist.edges[1:].tolist(),
                             hist.masses.tolist()):
            fh.write(f"{lo!r},{hi!r},{m!r}\n")


def load_moments(path):
    """Reload a moments JSON: (ChebMoments, payload).

    The payload is the file's record without its "values", which live on
    only as the moments' array; a "filter" lives on as the moments'
    adjustment too. A file that holds no moments record, whose scale map or
    values do not describe a finite moment series, or whose filter is not a
    valid adjustment of a global series, raises FileFormatError; so does a
    file that is not UTF-8 JSON.
    """
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise FileFormatError(f"{path}: not a moments file ({exc})") from exc
    if (not isinstance(obj, dict) or obj.get("record") not in ("moments", "dos")
            or "values" not in obj):
        raise FileFormatError(f"{path}: not a moments file")
    mode = obj.get("mode", MODE_GLOBAL)
    try:
        shift, scale = (float(obj["scale_map"][k]) for k in ("shift", "scale"))
        moments = ChebMoments(np.asarray(obj.pop("values"), dtype=np.float64),
                              ScaleMap(shift, scale), obj.get("probe_meta", {}),
                              _adjustment_from_obj(obj.get("filter")))
    except (KeyError, TypeError, ValueError, MotifError) as exc:
        raise FileFormatError(f"{path}: malformed moments record ({exc!r})") from exc
    values = moments.values
    if values.ndim not in (1, 2) or moments.mode != mode:
        raise FileFormatError(f"{path}: mode {mode!r} does not fit values of "
                              f"shape {values.shape}")
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise FileFormatError(f"{path}: values must be non-empty and finite")
    return moments, obj
