"""Property tests of graph ingest against a per-line reference.

The reference below is the tuple parser and `build_csr` that the array path
replaced: one Python `int()`/`float()` per token, a dict id remap, and a
loop over pairs. On every file it accepts, `parse_graph_file` must give the
same CSR arrays and id map bit for bit; where it refuses one,
the same error. A parsed file that `write_graph_edgelist` writes back, with
its id map or without one, parses to the same arrays again.
"""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from netdos import (FileFormatError, GraphError, build_csr, parse_graph_file,
                    write_graph_edgelist)
from netdos.graph import GraphCSR

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

_NODES_HEADER = re.compile(r"# nodes (\d+) edges \d+")


def _reference_build_csr(edges, n=None, allow_self_loops=False, ids=None):
    # messages call node i ids[i] when an id map is given
    name = (lambda i: int(i)) if ids is None else (lambda i: int(ids[i]))
    us, vs, ws = [], [], []
    for e in edges:
        u, v, w = e if len(e) == 3 else (*e, 1.0)
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
        raise GraphError(f"edge ({name(us[bad])}, {name(vs[bad])}) has "
                         f"non-positive weight {ws[bad]}")
    if not allow_self_loops and np.any(u == v):
        node = name(u[np.argmax(u == v)])
        raise GraphError(f"self-loop at node {node} (pass allow_self_loops to accept)")
    n_min = int(max(u.max(initial=-1), v.max(initial=-1))) + 1
    if n is None:
        n = n_min
    elif n < n_min:
        raise GraphError(f"n={n} smaller than 1 + max node id ({n_min})")
    if u.size == 0:
        return GraphCSR(n=int(n), row_ptr=np.zeros(n + 1, dtype=np.int64),
                        col_idx=np.zeros(0, dtype=np.int64), weights=np.zeros(0))
    cu, cv = np.minimum(u, v), np.maximum(u, v)
    key = (cu * np.int64(n) + cv) * 2 + (u > v)
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
                    f"edge ({name(a)}, {name(b)}) restated in both directions with "
                    f"conflicting weights {fw} != {bw}")
            weight[i] = fw
    fu, fv = pair_u // n, pair_u % n
    loops = fu == fv
    ru = np.concatenate([fu, fv[~loops]])
    rc = np.concatenate([fv, fu[~loops]])
    rw = np.concatenate([weight, weight[~loops]])
    order = np.lexsort((rc, ru))
    ru, rc, rw = ru[order], rc[order], rw[order]
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(row_ptr, ru + 1, 1)
    np.cumsum(row_ptr, out=row_ptr)
    return GraphCSR(n=int(n), row_ptr=row_ptr, col_idx=rc, weights=rw)


def _reference_parse(path, allow_self_loops=False):
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
    if n is not None:
        return (_reference_build_csr(edges, n=n, allow_self_loops=allow_self_loops),
                np.arange(n, dtype=np.int64))
    ids = np.unique(np.array([(e[0], e[1]) for e in edges], dtype=np.int64))
    lookup = {int(orig): i for i, orig in enumerate(ids.tolist())}
    remapped = [(lookup[e[0]], lookup[e[1]], *e[2:]) for e in edges]
    return (_reference_build_csr(remapped, n=len(ids),
                                 allow_self_loops=allow_self_loops, ids=ids), ids)


def _outcome(fn, *args, **kwargs):
    """(graph, ids) arrays as bytes, or the error's type and message."""
    try:
        g, ids = fn(*args, **kwargs)
    except GraphError as exc:
        return type(exc).__name__, str(exc)
    return (g.n, g.row_ptr.tobytes(), g.col_idx.tobytes(), g.weights.tobytes(),
            ids.tobytes())


WEIGHTS = st.one_of(st.sampled_from(["1", "1.0", "2", "0.5", "3.25", "1e-2"]),
                    st.floats(1e-6, 1e6).map(repr))
NOISE = st.sampled_from(["", "   ", "# a comment", "% another", "  #indented 1 2",
                         "%% 5 6 7"])


def _nudge(w):
    return None if w is None else repr(float(w) * (1 + 1e-13))


@st.composite
def edge_files(draw):
    """(text, header, line numbers of the entry lines) of a random edge list.

    Self-loops and non-positive weights each appear in some files only, so
    most files parse.
    """
    header = draw(st.booleans())
    if header:
        n = draw(st.integers(2, 12))
        ids = list(range(n))
    else:
        ids = draw(st.lists(st.integers(0, 10**12), min_size=2, max_size=12,
                            unique=True))
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    if draw(st.integers(0, 3)):
        pair = pair.filter(lambda p: p[0] != p[1])
    weight = st.none() | WEIGHTS
    if not draw(st.integers(0, 9)):
        weight |= st.sampled_from(["0", "-1"])
    pairs = draw(st.lists(st.builds(lambda p, w: (*p, w), pair, weight),
                          max_size=30))
    if pairs:
        # restatements the other way round, some nudged within the 1e-12
        # tolerance, and same-direction repeats of one pair, whose sum
        # depends on the order of addition
        flipped = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()),
                                max_size=5))
        u0, v0, _ = draw(st.sampled_from(pairs))
        repeats = draw(st.lists(weight, max_size=4))
        pairs = draw(st.permutations(
            pairs + [(v, u, _nudge(w) if nudge else w) for (u, v, w), nudge in flipped]
            + [(u0, v0, w) for w in repeats]))
    lines = [f"{u} {v}" if w is None else f"{u}\t{v}  {w}" for u, v, w in pairs]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(NOISE))
    if header:
        lines.insert(0, f"# nodes {n} edges {len(pairs)}")
    entry_lines = [i + 1 for i, s in enumerate(lines)
                   if s.strip() and s.strip()[0] not in "#%"]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), header, entry_lines


def _write(directory, text):
    path = os.path.join(directory, "g.txt")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


@SETTINGS
@given(edge_files(), st.booleans())
def test_parse_equals_reference_bit_for_bit(case, allow_self_loops):
    text, header, entry_lines = case
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, text)
        got = _outcome(parse_graph_file, path, allow_self_loops=allow_self_loops)
        want = _outcome(_reference_parse, path, allow_self_loops=allow_self_loops)
    if header and not entry_lines:
        # a header with no entries now reads as an edgeless graph
        assert want == ("FileFormatError", f"{path}: no edges found")
        assert got[0] == int(text.split()[2]) and got[2] == b""
    else:
        assert got == want


@SETTINGS
@given(edge_files(), st.data())
def test_corrupt_line_is_named(case, data):
    text, _, entry_lines = case
    if not entry_lines:
        return
    lines = text.splitlines()
    lineno = data.draw(st.sampled_from(entry_lines))
    lines[lineno - 1] = data.draw(st.sampled_from(
        ["x y", "1 2 3 4", "7", "1 2 weight", "1.5 2", "0x1 2"]))
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, "\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=f"g\\.txt:{lineno}: ") as err:
            parse_graph_file(path)
        with pytest.raises(FileFormatError) as ref:
            _reference_parse(path)
    assert str(err.value) == str(ref.value)


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15),
                          st.sampled_from([None, 0.5, 1.0, 2.0, 7.25])),
                max_size=40),
       st.booleans())
def test_build_csr_invariants(triples, allow_self_loops):
    edges = [(u, v) if w is None else (u, v, w) for u, v, w in triples]
    try:
        g = build_csr(edges, allow_self_loops=allow_self_loops)
    except GraphError as exc:
        with pytest.raises(GraphError) as ref:
            _reference_build_csr(edges, allow_self_loops=allow_self_loops)
        assert str(exc) == str(ref.value)
        return
    want = _reference_build_csr(edges, allow_self_loops=allow_self_loops)
    assert g.n == want.n
    assert g.row_ptr.tobytes() == want.row_ptr.tobytes()
    assert g.col_idx.tobytes() == want.col_idx.tobytes()
    assert g.weights.tobytes() == want.weights.tobytes()
    dense = np.zeros((g.n, g.n))
    for i in range(g.n):
        cols = g.neighbors(i)
        assert np.all(np.diff(cols) > 0)  # sorted, each column once
        dense[i, cols] = g.weights[g.neighbor_slice(i)]
    assert np.array_equal(dense, dense.T)
    assert np.all(np.isfinite(g.weights)) and np.all(g.weights > 0)


@st.composite
def consistent_edge_files(draw):
    """The text of an edge list that parses: ids up to 2**62, or 0..N-1
    under a `# nodes N edges M` header, which may leave nodes isolated;
    each edge stated on one to three lines, weighted or not, and sometimes
    restated the other way round with the same lines."""
    header = draw(st.booleans())
    if header:
        n = draw(st.integers(1, 10))
        ids = list(range(n))
    else:
        ids = draw(st.lists(st.integers(0, 2**62), min_size=1, max_size=10,
                            unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                          min_size=0 if header else 1, max_size=12,
                          unique_by=lambda p: (min(p), max(p))))
    lines = []
    for u, v in pairs:
        weights = draw(st.lists(st.none() | WEIGHTS, min_size=1, max_size=3))
        lines += [(u, v, w) for w in weights]
        if u != v and draw(st.booleans()):
            lines += [(v, u, w) for w in weights]
    lines = draw(st.permutations(lines))
    text = "".join(f"{u} {v}\n" if w is None else f"{u} {v} {w}\n"
                   for u, v, w in lines)
    return f"# nodes {n} edges {len(lines)}\n" + text if header else text


def _arrays(g):
    return g.n, g.row_ptr.tobytes(), g.col_idx.tobytes(), g.weights.tobytes()


@settings(SETTINGS, max_examples=50)
@given(consistent_edge_files())
# repeated unweighted lines sum to weight 2, which the file must keep
@example("0 1\n0 1\n1 2\n")
# isolated nodes need the header, with the identity map too
@example("# nodes 5 edges 1\n0 1\n")
def test_parse_write_parse_is_the_identity(text):
    with tempfile.TemporaryDirectory() as d:
        path, again = _write(d, text), os.path.join(d, "again.txt")
        g, ids = parse_graph_file(path, allow_self_loops=True)
        write_graph_edgelist(g, again, node_ids=ids)
        g2, ids2 = parse_graph_file(again, allow_self_loops=True)
        assert _arrays(g2) == _arrays(g) and ids2.tolist() == ids.tolist()
        # without the map the file holds the compact ids 0..n-1
        write_graph_edgelist(g, again)
        g3, ids3 = parse_graph_file(again, allow_self_loops=True)
        assert _arrays(g3) == _arrays(g) and ids3.tolist() == list(range(g.n))
