import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from netdos import (FileFormatError, GraphError, SpectralHistogram,
                    build_csr, parse_graph_file, write_graph_edgelist)
from netdos import cli, fileio, kpm
from netdos.cli import main
from netdos.fileio import (histogram_payload, load_moments, moments_payload,
                           motifs_payload, quadrature_payload,
                           write_histogram_csv, write_json)
from netdos.kpm import MODE_GLOBAL, ChebMoments
from netdos.motifs import FilterAdjustment
from netdos.operators import IDENTITY_MAP, OperatorKind
from netdos.testkit import generate_graph

from conftest import traced_peak
from oracles import read_histogram_csv


def test_parse_edgelist_with_comments(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\n0 1\n1 2\n")
    g, ids = parse_graph_file(p)
    assert g.n == 3
    assert g.num_edges == 2
    assert ids.tolist() == [0, 1, 2]


def test_parse_weighted_edge(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 2.5\n")
    g, _ = parse_graph_file(p)
    assert g.weights.tolist() == [2.5, 2.5]


def test_parse_compacts_sparse_ids(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("% comment\n5 9\n9 70\n")
    g, ids = parse_graph_file(p)
    assert g.n == 3
    assert ids.tolist() == [5, 9, 70]


def test_parse_malformed_line_reports_number(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n0 1 2 3\n")
    with pytest.raises(FileFormatError, match=":2"):
        parse_graph_file(p)


def test_parse_matrix_market(tmp_path):
    p = tmp_path / "g.mtx"
    p.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                 "% a P3\n3 3 2\n2 1\n3 2\n")
    g, ids = parse_graph_file(p)
    assert g.n == 3
    assert g.num_edges == 2
    assert sorted(g.neighbors(1).tolist()) == [0, 2]


def test_format_follows_the_banner_not_the_name(tmp_path):
    # a bannered Matrix Market file named .txt is Matrix Market (1-based ids)
    p = tmp_path / "g.txt"
    p.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                 "3 3 2\n2 1\n3 2\n")
    g, ids = parse_graph_file(p)
    assert g.n == 3 and ids.tolist() == [0, 1, 2]
    assert sorted(g.neighbors(1).tolist()) == [0, 2]
    # a banner-less edge list named .mtx is an edge list (0-based, compacted)
    p = tmp_path / "g.mtx"
    p.write_text("0 1\n1 2\n2 5\n")
    g, ids = parse_graph_file(p)
    assert g.n == 4 and ids.tolist() == [0, 1, 2, 5]
    assert g.num_edges == 3


def test_matrix_market_general_rejected(tmp_path):
    p = tmp_path / "g.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 1.0\n")
    with pytest.raises(FileFormatError, match="symmetric"):
        parse_graph_file(p)


_MM = "%%MatrixMarket matrix coordinate real symmetric\n"


@pytest.mark.parametrize("text, line, message", [
    ("%%MatrixMarket matrix coordinate real\n2 2 1\n2 1 1\n", 1,
     "not a MatrixMarket header"),
    ("%%MatrixMarket matrix array real symmetric\n2 2\n1\n0\n1\n", 1,
     "only coordinate matrices"),
    ("%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n2 1 1 0\n", 1,
     "unsupported field 'complex'"),
    (_MM + "% a comment and no size line\n", None, "missing size line"),
    (_MM + "2 x 1\n2 1 1\n", 2, "bad size line '2 x 1'"),
    (_MM + "% rows, columns, entries\n2 3 1\n2 1 1\n", 3,
     "matrix must be square, got 2x3"),
], ids=["short-banner", "array", "complex", "no-size-line", "bad-size-line",
        "non-square"])
def test_matrix_market_header_refusals(tmp_path, capsys, text, line, message):
    path = tmp_path / "g.mtx"
    path.write_text(text)
    assert main(["motifs", "--input", str(path)]) == 1
    where = f"{path}:{line}: " if line else f"{path}: "
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"netdos: error: {where}{message}")


def test_edgelist_round_trip(tmp_path):
    path = tmp_path / "g.txt"
    graphs = [build_csr([(0, 1, 2.0), (1, 2, 0.5), (0, 3, 1.0)]),
              # node 1 isolated inside the id range, 5 and 6 after the last edge
              build_csr([(0, 2), (2, 3), (3, 4)], n=7),
              # the documented `generate --model ws --n 400 --k 2 --p 0.3 --seed 3`
              generate_graph("ws", seed=3, n=400, k=2, p=0.3)]
    for g in graphs:
        write_graph_edgelist(g, path)
        g2, ids = parse_graph_file(path)
        assert g2.n == g.n
        assert np.array_equal(ids, np.arange(g.n))
        assert np.array_equal(g.row_ptr, g2.row_ptr)
        assert np.array_equal(g.col_idx, g2.col_idx)
        assert np.array_equal(g.weights, g2.weights)
    assert np.count_nonzero(np.diff(graphs[2].row_ptr) == 0) > 0
    # with an id map the file holds original ids and no node-count header
    write_graph_edgelist(graphs[1], path, node_ids=np.arange(7) * 10)
    g3, ids = parse_graph_file(path)
    assert not path.read_text().startswith("# nodes")
    assert g3.n == 4 and ids.tolist() == [0, 20, 30, 40]


def test_edgelist_header_bounds_node_ids(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# nodes 3 edges 2\n0 1\n1 3\n")
    with pytest.raises(FileFormatError, match=r"g\.txt:3: .*0\.\.2"):
        parse_graph_file(p)
    # any other first line compacts ids as before
    p.write_text("# a graph with nodes 3 edges 2\n0 1\n1 3\n")
    g, ids = parse_graph_file(p)
    assert g.n == 3 and ids.tolist() == [0, 1, 3]


def test_edgelist_header_counts_edges(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# nodes 3 edges 3\n0 1\n1 2\n")
    with pytest.raises(FileFormatError, match=r"g\.txt:1: header promises 3 edges, found 2"):
        parse_graph_file(p)
    # a header with no entries is an edgeless graph; no header, no graph
    p.write_text("# nodes 4 edges 0\n")
    g, ids = parse_graph_file(p)
    assert g.n == 4 and g.nnz == 0 and ids.tolist() == [0, 1, 2, 3]
    p.write_text("# no header\n\n")
    with pytest.raises(FileFormatError, match="no edges found"):
        parse_graph_file(p)


def test_matrix_market_field_fixes_the_columns(tmp_path):
    p = tmp_path / "g.mtx"
    head = "%%MatrixMarket matrix coordinate {} symmetric\n3 3 2\n"
    p.write_text(head.format("pattern") + "3 2\n2 1 5.0\n")
    with pytest.raises(FileFormatError, match=r"g\.mtx:4: .*2-column"):
        parse_graph_file(p)
    p.write_text(head.format("real") + "3 2 1.5\n2 1\n")
    with pytest.raises(FileFormatError, match=r"g\.mtx:4: .*3-column"):
        parse_graph_file(p)
    p.write_text(head.format("integer") + "3 2 2\n% note\n2 1 2\n")
    g, _ = parse_graph_file(p)
    assert g.weights.tolist() == [2.0, 2.0, 2.0, 2.0]


def test_parse_rejects_non_finite_weights(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 nan\n1 2 inf\n")
    with pytest.raises(GraphError, match=r"edge \(0, 1\) has non-finite weight nan"):
        parse_graph_file(p)


def test_parse_rejects_overflowing_weight_sums(tmp_path):
    # each weight is finite, but same-direction repeats sum to inf
    p = tmp_path / "g.txt"
    p.write_text("0 1 1e308\n1 2 1\n0 1 1e308\n")
    with pytest.raises(GraphError, match=r"edge \(0, 1\) is repeated with "
                                         r"weights whose sum is not finite"):
        parse_graph_file(p)
    with pytest.raises(GraphError, match=r"edge \(0, 1\) is repeated"):
        build_csr([(1, 0, 1e308), (1, 0, 1e308)])
    # a large sum that stays finite is kept
    p.write_text("0 1 1e307\n0 1 1e307\n")
    g, _ = parse_graph_file(p)
    assert g.weights.tolist() == [2e307, 2e307]


def test_graph_errors_name_the_file_ids(tmp_path):
    # ids are compacted to 0..n-1, but messages name the ids of the file
    p = tmp_path / "g.txt"
    for text, message in [
            ("5 9 -1\n", r"edge \(5, 9\) has non-positive weight -1.0"),
            ("10 20 1\n20 10 2\n", r"edge \(10, 20\) restated in both directions"),
            ("7 7 1\n7 8 1\n", r"self-loop at node 7 "),
            ("3 4 1e308\n3 4 1e308\n", r"edge \(3, 4\) is repeated")]:
        p.write_text(text)
        with pytest.raises(GraphError, match=message):
            parse_graph_file(p)


def test_parse_reads_every_line_end(tmp_path):
    # LF, CRLF and lone CR line ends, 2- and 3-column lines mixed
    p = tmp_path / "g.txt"
    for end in ("\n", "\r\n", "\r"):
        p.write_bytes(end.join(["# c", "5 9", "", "9 70 2.0", "%", "70 5"]).encode())
        g, ids = parse_graph_file(p)
        assert ids.tolist() == [5, 9, 70]
        assert g.weights.tolist() == [1.0, 1.0, 1.0, 2.0, 1.0, 2.0]
    p.write_bytes(b"0 1\r\n1 x\r\n")
    with pytest.raises(FileFormatError, match=r"g\.txt:2: invalid literal"):
        parse_graph_file(p)


def test_histogram_csv_round_trip(tmp_path):
    hist = SpectralHistogram(edges=np.array([-1.0, 1.0]), masses=np.array([1.0]))
    path = tmp_path / "h.csv"
    write_histogram_csv(hist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,mass"
    assert [float(x) for x in lines[1].split(",")] == [-1.0, 1.0, 1.0]
    back = read_histogram_csv(path)
    assert np.array_equal(back.edges, hist.edges)
    assert np.array_equal(back.masses, hist.masses)


def test_csv_preserves_float_bits(tmp_path):
    masses = np.array([1 / 3, np.pi * 1e-5, 0.1])
    hist = SpectralHistogram(edges=np.array([-1.0, -0.3, 0.4, 1.0]), masses=masses)
    path = tmp_path / "h.csv"
    write_histogram_csv(hist, path)
    back = read_histogram_csv(path)
    assert np.array_equal(back.masses, masses)


def test_moments_json_round_trip(tmp_path):
    mom = ChebMoments(np.array([1.0, 0.0]), IDENTITY_MAP, {"kind": "exact"})
    payload = moments_payload(mom, {"operator": "adjacency"})
    assert np.array_equal(payload["values"], [1.0, 0.0])
    assert payload["m_max"] == 1 and payload["mode"] == MODE_GLOBAL
    assert payload["filter"] is None
    path = tmp_path / "m.json"
    write_json(payload, path)
    back, obj = load_moments(path)
    assert np.array_equal(back.values, mom.values)
    assert back.adjustment is None
    assert obj["operator"] == "adjacency"
    # the parsed values live on only as the moments' array
    assert "values" not in obj
    # a deflated series writes its adjustment as the record's filter and
    # reads it back from there
    mom.adjustment = FilterAdjustment(removed={0.0: 3, -0.5: 1}, total_dim=10)
    payload = moments_payload(mom)
    assert payload["filter"] == {"removed": [[-0.5, 1], [0.0, 3]],
                                 "deflated_dim": 4, "total_dim": 10}
    write_json(payload, path)
    back, obj = load_moments(path)
    assert back.adjustment == mom.adjustment
    assert obj["filter"] == payload["filter"]


def _moments_record(**change):
    """A global moments record with `change` applied; None drops a key."""
    obj = {"record": "moments", "mode": "global",
           "scale_map": {"shift": 0.0, "scale": 1.0}, "values": [1.0, 0.0, -0.5]}
    obj.update(change)
    return {k: v for k, v in obj.items() if v is not None}


MALFORMED_MOMENTS = {
    "top-level-array": [[1.0, 0.0, -0.5]],
    "no-scale-map": _moments_record(scale_map=None),
    "empty-values": _moments_record(values=[]),
    "3-d-values": _moments_record(mode="per_node", values=[[[1.0, 0.0]]]),
    "mode-disagrees-with-rank": _moments_record(mode="per_node"),
    "zero-scale": _moments_record(scale_map={"shift": 0.0, "scale": 0.0}),
    "negative-scale": _moments_record(scale_map={"shift": 0.0, "scale": -1.0}),
    "nan-values": _moments_record(values=[1.0, float("nan"), 0.0]),
    "filter-zero-total-dim": _moments_record(filter={
        "removed": [[0.5, 1]], "deflated_dim": 1, "total_dim": 0}),
    "filter-negative-count": _moments_record(filter={
        "removed": [[0.5, -3]], "deflated_dim": -3, "total_dim": 10}),
    "filter-count-above-total-dim": _moments_record(filter={
        "removed": [[0.5, 11]], "deflated_dim": 11, "total_dim": 10}),
    "filter-nan-eigenvalue": _moments_record(filter={
        "removed": [[float("nan"), 1]], "deflated_dim": 1, "total_dim": 10}),
    "filter-without-removed": _moments_record(filter={"total_dim": 10}),
    "filter-fractional-total-dim": _moments_record(filter={
        "removed": [[0.5, 3]], "deflated_dim": 3, "total_dim": 10.7}),
    "per-node-with-filter": _moments_record(
        mode="per_node", values=[[1.0, 0.0, -0.5], [1.0, 0.5, 0.0]],
        filter={"removed": [[0.5, 1]], "deflated_dim": 1, "total_dim": 2}),
}


@pytest.mark.parametrize("name", list(MALFORMED_MOMENTS))
def test_cli_hist_refuses_malformed_moments(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED_MOMENTS[name]))
    out = tmp_path / "h.json"
    for spikes in ([], ["--no-spikes"]):
        assert main(["hist", "--moments-file", str(path), "--bins", "4",
                     *spikes, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        # one line, no traceback
        assert err.startswith("netdos: error: ") and err.count("\n") == 1
        assert str(path) in err
        assert not out.exists()
    with pytest.raises(FileFormatError) as exc:
        load_moments(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("data", [
    pytest.param(b"0 1\n1 2\n", id="edge-list"),
    pytest.param(b"\xff\xfe\x00\x01", id="binary"),
])
def test_unreadable_moments_file_is_named(tmp_path, capsys, data):
    # a file that is not UTF-8 JSON is refused as a moments file, naming it
    path = tmp_path / "m.dat"
    path.write_bytes(data)
    with pytest.raises(FileFormatError, match="not a moments file") as exc:
        load_moments(path)
    assert str(path) in str(exc.value)
    out = tmp_path / "h.json"
    assert main(["hist", "--moments-file", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("netdos: error: ") and err.count("\n") == 1
    assert str(path) in err
    assert not out.exists()


def test_full_pipeline_files_identical(tmp_path):
    gpath = str(tmp_path / "g.txt")
    assert main(["generate", "--model", "er", "--n", "100", "--p", "0.1",
                 "--seed", "1", "--out", gpath]) == 0
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        assert main(["dos", "--input", gpath, "--operator", "normalized-adjacency",
                     "--moments", "120", "--probes", "8", "--probe-kind", "hadamard",
                     "--bins", "25", "--seed", "7", "--out", out]) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]
    obj = json.loads(outs[0])
    assert obj["record"] == "dos"
    assert abs(sum(obj["masses"]) - 1.0) < 1e-8


def test_cli_dos_on_generated_edgeless_graph(tmp_path):
    gpath = str(tmp_path / "g.txt")
    assert main(["generate", "--model", "er", "--n", "50", "--p", "0",
                 "--seed", "1", "--out", gpath]) == 0
    assert open(gpath).read() == "# nodes 50 edges 0\n"
    out = str(tmp_path / "dos.json")
    assert main(["dos", "--input", gpath, "--out", out]) == 0
    assert abs(sum(json.loads(open(out).read())["masses"]) - 1.0) < 1e-8


def test_cli_motifs_star(tmp_path, capsys):
    gpath = tmp_path / "star4.txt"
    gpath.write_text("0 1\n0 2\n0 3\n")
    assert main(["motifs", "--input", str(gpath)]) == 0
    obj = json.loads(capsys.readouterr().out)
    twins = [i for i in obj["instances"] if i["kind"] == "open-twin"]
    assert len(twins) == 1
    assert twins[0]["nodes"] == [1, 2, 3]
    assert twins[0]["eigenvalue"] == 0.0
    assert twins[0]["multiplicity"] == 2


def test_cli_motifs_twins_before_trailing_isolated_node(tmp_path, capsys):
    # the 4-cycle 0-2-1-3 has twin classes {0, 1} and {2, 3}; node 4, after
    # the last row with an edge, is isolated and must hide neither
    gpath = tmp_path / "c4.txt"
    gpath.write_text("# nodes 5 edges 4\n0 2\n0 3\n1 2\n1 3\n")
    assert main(["motifs", "--input", str(gpath)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [(i["kind"], i["nodes"]) for i in obj["instances"]] == [
        ("open-twin", [0, 1]), ("open-twin", [2, 3])]


def test_cli_dos_vs_exact_histograms(tmp_path):
    gpath = str(tmp_path / "g.txt")
    assert main(["generate", "--model", "er", "--n", "500", "--p", "0.04",
                 "--seed", "5", "--out", gpath]) == 0
    dos_out = str(tmp_path / "dos.json")
    exact_out = str(tmp_path / "exact.json")
    assert main(["dos", "--input", gpath, "--moments", "400", "--probes", "20",
                 "--bins", "40", "--seed", "3", "--out", dos_out]) == 0
    assert main(["exact", "--input", gpath, "--bins", "40",
                 "--out", exact_out]) == 0
    a = json.loads(open(dos_out).read())
    b = json.loads(open(exact_out).read())
    assert a["edges"] == b["edges"]
    l1 = np.abs(np.array(a["masses"]) - np.array(b["masses"])).sum()
    assert l1 < 0.05


def test_cli_hist_rebins_without_recompute(tmp_path):
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--model", "er", "--n", "80", "--p", "0.1", "--seed", "2",
          "--out", gpath])
    dos_out = str(tmp_path / "dos.json")
    main(["dos", "--input", gpath, "--moments", "100", "--probes", "8",
          "--seed", "1", "--out", dos_out])
    hist_out = str(tmp_path / "h.json")
    assert main(["hist", "--moments-file", dos_out, "--bins", "10",
                 "--out", hist_out]) == 0
    obj = json.loads(open(hist_out).read())
    assert len(obj["masses"]) == 10
    assert abs(sum(obj["masses"]) - 1.0) < 1e-8


def test_cli_nd_and_gql(tmp_path):
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--model", "ws", "--n", "60", "--k", "4", "--p", "0.1",
          "--seed", "4", "--out", gpath])
    nd_out = str(tmp_path / "nd.json")
    part = str(tmp_path / "part.txt")
    assert main(["nd-pdos", "--input", gpath, "--moments", "15",
                 "--leaf-size", "16", "--save-partition", part,
                 "--out", nd_out]) == 0
    obj = json.loads(open(nd_out).read())
    vals = np.array(obj["values"])
    assert vals.shape == (60, 16)
    assert np.allclose(vals[:, 0], 1.0)
    # reuse the saved partition
    assert main(["nd-pdos", "--input", gpath, "--moments", "15",
                 "--partition", part, "--out", nd_out]) == 0
    gql_out = str(tmp_path / "gql.json")
    assert main(["gql", "--input", gpath, "--moments", "12", "--probes", "8",
                 "--seed", "2", "--bins", "12", "--out", gql_out]) == 0
    obj = json.loads(open(gql_out).read())
    assert abs(sum(obj["masses"]) - 1.0) < 1e-8


def test_cli_gql_node_takes_the_file_id(tmp_path, capsys):
    # ids 10 20 30 40 compact to 0..3; --node names a node by its file id,
    # and the record reports that id
    relabelled = tmp_path / "ids.txt"
    relabelled.write_text("10 20\n20 30\n30 40\n")
    compact = tmp_path / "compact.txt"
    compact.write_text("0 1\n1 2\n2 3\n")
    args = ["gql", "--operator", "laplacian", "--moments", "3"]
    assert main([*args, "--input", str(relabelled), "--node", "20",
                 "--out", str(tmp_path / "a.json")]) == 0
    assert main([*args, "--input", str(compact), "--node", "1",
                 "--out", str(tmp_path / "b.json")]) == 0
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    assert a["node"] == 20 and b["node"] == 1
    assert a["nodes"] == b["nodes"] and a["weights"] == b["weights"]
    capsys.readouterr()
    assert main([*args, "--input", str(relabelled), "--node", "1",
                 "--out", str(tmp_path / "c.json")]) == 1
    assert "node 1 is not in" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_cli_gql_overflow_is_one_error_line(tmp_path):
    # run as a command, where numpy would print its own RuntimeWarning line
    graph = tmp_path / "path.txt"
    graph.write_text("0 1 1e200\n1 2 1e200\n2 3 1e200\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "netdos.cli", "gql", "--input", str(graph),
         "--node", "0", "--operator", "adjacency"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "netdos: error: Lanczos residual norm beta_1 is not finite (inf) at "
        "step 1: the operator's entries overflow float64 products"]
    assert proc.stdout == ""


def test_cli_error_paths(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["dos", "--input", missing, "--out", str(tmp_path / "o.json")]) == 1
    assert "error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["dos"])  # missing --input
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def _write_cycle(path, n=30):
    with open(path, "w") as fh:
        for i in range(n):
            fh.write(f"{i} {(i + 1) % n}\n")


def test_cli_range_accepts_negative_lo(tmp_path):
    gpath = str(tmp_path / "cycle.txt")
    _write_cycle(gpath)  # adjacency spectrum in [-2, 2]
    blobs = []
    for name, rng in [("split", ["--range", "-4,4"]), ("joined", ["--range=-4,4"])]:
        out = str(tmp_path / f"nd-{name}.json")
        assert main(["nd-pdos", "--input", gpath, "--operator", "adjacency",
                     *rng, "--moments", "12", "--leaf-size", "8",
                     "--out", out]) == 0
        blobs.append(open(out, "rb").read())
    assert blobs[0] == blobs[1]
    out = str(tmp_path / "exact.json")
    assert main(["exact", "--input", gpath, "--operator", "adjacency",
                 "--bins", "8", "--range", "-4,4", "--out", out]) == 0
    assert json.loads(open(out).read())["edges"][0] == -4.0


def test_cli_nd_pdos_records_leaf_size_only_when_it_builds(tmp_path):
    gpath = str(tmp_path / "cycle.txt")
    _write_cycle(gpath)
    part = str(tmp_path / "part.txt")
    args = ["nd-pdos", "--input", gpath, "--moments", "6"]
    assert main([*args, "--leaf-size", "8", "--save-partition", part,
                 "--out", str(tmp_path / "built.json")]) == 0
    assert main([*args, "--partition", part,
                 "--out", str(tmp_path / "loaded.json")]) == 0
    built = json.loads((tmp_path / "built.json").read_text())
    loaded = json.loads((tmp_path / "loaded.json").read_text())
    assert built["leaf_size"] == 8
    assert "leaf_size" not in loaded
    assert loaded["values"] == built["values"]


def test_cli_range_without_hi_is_usage_error(tmp_path, capsys):
    gpath = str(tmp_path / "cycle.txt")
    _write_cycle(gpath)
    with pytest.raises(SystemExit) as exc:
        main(["nd-pdos", "--input", gpath, "--range", "-4",
              "--out", str(tmp_path / "nd.json")])
    assert exc.value.code == 2
    assert "argument --range: expects LO,HI, got '-4'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dos", "--input", "MISSING", "--out-format", "csv"],
    ["gql", "--input", "MISSING", "--out-format", "csv"],
    ["hist", "--moments-file", "MISSING", "--out-format", "csv"],
    ["gql", "--input", "MISSING", "--node", "0", "--out-format", "csv",
     "--out", "OUT"],
])
def test_cli_csv_usage_errors_come_before_work(tmp_path, capsys, argv):
    # the input does not exist: exit 2, not 1, shows it was never opened
    out = tmp_path / "h.csv"
    names = {"MISSING": str(tmp_path / "missing.txt"), "OUT": str(out)}
    with pytest.raises(SystemExit) as exc:
        main([names.get(a, a) for a in argv])
    assert exc.value.code == 2
    assert "--out-format csv" in capsys.readouterr().err
    assert not out.exists()


_RANGE_COMMANDS = ["dos", "pdos", "gql", "nd-pdos", "exact"]

# The one message of `--range` values that no scale map takes onto [-1, 1]
_RANGE_REFUSED = ("--range: expects finite LO < HI, with a finite midpoint "
                  "(LO + HI) / 2 and a finite positive half-span (HI - LO) / 2, "
                  "got '{}'")


@pytest.mark.parametrize("argv, message", [
    (["dos", "--bins", "0"], "--bins: must be >= 1, got 0"),
    (["dos", "--probes", "0"], "--probes: must be >= 1, got 0"),
    (["dos", "--moments", "-1"], "--moments: must be >= 0, got -1"),
    (["dos", "--filter-motifs", "custom"], "--filter-motifs: unknown motif "
     "kind 'custom' (valid: open-twin, closed-twin, dangling-two-chain)"),
    (["pdos", "--probes", "-2"], "--probes: must be >= 1, got -2"),
    (["gql", "--bins", "0"], "--bins: must be >= 1, got 0"),
    (["gql", "--bins", "-1"], "--bins: must be >= 1, got -1"),
    (["gql", "--moments", "0"], "--moments: must be >= 1, got 0"),
    (["nd-pdos", "--leaf-size", "0"], "--leaf-size: must be >= 1, got 0"),
    (["nd-pdos", "--moments", "-1"], "--moments: must be >= 0, got -1"),
    (["exact", "--bins", "-3"], "--bins: must be >= 1, got -3"),
    (["hist", "--bins", "0"], "--bins: must be >= 1, got 0"),
    (["gql", "--range=0,nan"], _RANGE_REFUSED.format("0,nan")),
    (["gql", "--range=-inf,inf"], _RANGE_REFUSED.format("-inf,inf")),
    (["gql", "--range=1,0"], _RANGE_REFUSED.format("1,0")),
    (["nd-pdos", "--range", "-inf,inf"], _RANGE_REFUSED.format("-inf,inf")),
    (["exact", "--range=2,2"], _RANGE_REFUSED.format("2,2")),
    (["dos", "--filter-motifs", "open-twin,bogus"],
     "--filter-motifs: unknown motif kind 'bogus' (valid: open-twin, "
     "closed-twin, dangling-two-chain)"),
    (["motifs", "--kinds", "bogus"], "--kinds: unknown motif kind 'bogus' "
     "(valid: open-twin, closed-twin, dangling-two-chain)"),
    (["dos", "--negativity-tol", "-1"],
     "--negativity-tol: must be finite and >= 0, got -1"),
    (["hist", "--negativity-tol", "nan"],
     "--negativity-tol: must be finite and >= 0, got nan"),
])
def test_cli_bad_counts_are_usage_errors(tmp_path, capsys, argv, message):
    # the input does not exist: exit 2, not 1, shows it was never opened
    source = "--moments-file" if argv[0] == "hist" else "--input"
    with pytest.raises(SystemExit) as exc:
        main([*argv, source, str(tmp_path / "missing.txt")])
    assert exc.value.code == 2
    assert f"argument {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # finite ends and span, but the midpoint overflows or the half-span
    # underflows to 0: `rescale_operator` could not map either onto [-1, 1]
    *[([command, f"--range={text}"],
       "argument " + _RANGE_REFUSED.format(text))
      for command in _RANGE_COMMANDS for text in ["1e308,1.7e308", "0,5e-324"]],
    # a span too narrow for its bin count: np.linspace repeats an edge
    *[([command, "--range=0,1e-322", "--bins", "50"],
       "--range 0.0,1e-322: the scale map (shift 5e-323, scale 5e-323) is too "
       "narrow for --bins 50: its bin edges do not increase")
      for command in ["dos", "gql", "exact"]],
])
def test_cli_ranges_that_map_or_bin_nothing_are_usage_errors(
        tmp_path, capsys, argv, message):
    gpath = tmp_path / "cycle.txt"
    _write_cycle(gpath)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", str(gpath), "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# Every --range value that the rejection tables above hold: no scale map
# takes any of them onto [-1, 1]
_REFUSED_RANGES = ["0,nan", "-inf,inf", "1,0", "2,2", "-1e308,1e308",
                   "1e308,1.7e308", "0,5e-324"]


@pytest.mark.parametrize("command", _RANGE_COMMANDS)
def test_cli_every_refused_range_is_a_usage_error(tmp_path, capsys, command):
    # the input does not exist: exit 2, not 1, shows it was never opened
    cases = [([f"--range={text}"], _RANGE_REFUSED.format(text))
             for text in _REFUSED_RANGES]
    cases.append((["--range", "-4"], "--range: expects LO,HI, got '-4'"))
    if command in ("dos", "gql", "exact"):
        cases.append((["--range=0,1e-322", "--bins", "50"],
                      "error: --range 0.0,1e-322: the scale map"))
    for extra, message in cases:
        with pytest.raises(SystemExit) as exc:
            main([command, *extra, "--input", str(tmp_path / "missing.txt")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_cli_range_too_narrow_for_the_operator_fails_without_a_warning(
        tmp_path, capsys):
    # one bin fits in [0, 1e-322], but the adjacency's entries divided by its
    # half-span overflow: a runtime error (exit 1), not a numpy warning,
    # which the test configuration turns into an exception
    gpath = tmp_path / "cycle.txt"
    _write_cycle(gpath)
    out = tmp_path / "out.json"
    assert main(["dos", "--input", str(gpath), "--operator", "adjacency",
                 "--range=0,1e-322", "--bins", "1", "--out", str(out)]) == 1
    assert "is too narrow for this operator" in capsys.readouterr().err
    assert not out.exists()


def test_cli_hist_refuses_per_node_csv_before_binning(tmp_path, capsys,
                                                      monkeypatch):
    path = tmp_path / "nd.json"
    path.write_text(json.dumps(_moments_record(
        mode="per_node", values=[[1.0, 0.0, -0.5], [1.0, 0.5, 0.0]])))

    def no_binning(*args, **kwargs):
        raise AssertionError("binned moments that no CSV file can hold")

    monkeypatch.setattr(cli, "histogram_from_moments", no_binning)
    out = tmp_path / "h.csv"
    assert main(["hist", "--moments-file", str(path), "--out-format", "csv",
                 "--out", str(out)]) == 1
    assert "CSV output supports global histograms only" in capsys.readouterr().err
    assert not out.exists()


# SHA-256 of `generate --seed 1` files: a change to the generators or to the
# edge-list writer must not move the seeded graphs that measurements name
GENERATED_SHA256 = {
    ("er", "--n", "500", "--p", "0.01"):
        "bdb97669bd836b803f4645773afaffdeb904c7ccb92ec233b8131a401ccd7bbc",
    ("er", "--n", "50", "--p", "0"):
        "f61b677419bb9729e10ea245f4093639ebd68d032cf5f5e425e7d58ea4656aa2",
    ("pa", "--n", "2000", "--m", "3"):
        "9cb6629555a278b80284f383ed3c1c1f2d3fd1168629ae24a232caa9bb648ff1",
    ("ba", "--n", "300", "--m", "2"):
        "a84619a4da77c54823285221125fef5e2b1130c176add6c55600a684d9912da4",
    ("ws", "--n", "600", "--k", "4", "--p", "0.1"):
        "a5db7aac96b668f8061e0ece207e23f1ec17248fdf73f26d4a38a2666804963f",
}


@pytest.mark.parametrize("model", sorted(GENERATED_SHA256))
def test_cli_generate_bytes_are_pinned(tmp_path, model):
    out = tmp_path / "g.txt"
    assert main(["generate", "--model", *model, "--seed", "1",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATED_SHA256[model]


def test_cli_generate_names_the_model_missing_m(tmp_path, capsys):
    for model in ("pa", "ba"):
        assert main(["generate", "--model", model, "--n", "10",
                     "--out", str(tmp_path / "g.txt")]) == 1
        assert f"--model {model} needs --m" in capsys.readouterr().err
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize("given, missing", [(["--k", "4"], "--p"),
                                            (["--p", "0.1"], "--k"),
                                            ([], "--k and --p")])
def test_cli_generate_names_only_the_missing_options(tmp_path, capsys, given,
                                                     missing):
    assert main(["generate", "--model", "ws", "--n", "10", *given,
                 "--out", str(tmp_path / "g.txt")]) == 1
    assert capsys.readouterr().err.endswith(f"--model ws needs {missing}\n")
    assert not (tmp_path / "g.txt").exists()


def test_cli_csv_output(tmp_path):
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--model", "er", "--n", "50", "--p", "0.15", "--seed", "6",
          "--out", gpath])
    csv_out = str(tmp_path / "dos.csv")
    assert main(["dos", "--input", gpath, "--moments", "50", "--probes", "4",
                 "--seed", "0", "--out-format", "csv", "--out", csv_out]) == 0
    hist = read_histogram_csv(csv_out)
    assert hist.bins == 50
    assert abs(hist.masses.sum() - 1.0) < 1e-8


def test_histogram_payload_filter_block():
    from netdos.motifs import FilterAdjustment
    from netdos.fileio import _adjustment_obj, _adjustment_from_obj
    adj = FilterAdjustment(removed={0.0: 3, -0.5: 1}, total_dim=10)
    obj = _adjustment_obj(adj)
    back = _adjustment_from_obj(obj)
    assert back.removed == adj.removed
    assert back.deflated_dim == 4


def test_reproduction_presets():
    # each preset is named once, in the module that owns its concept, and the
    # command line and the pipelines default to that name
    from netdos import density, nested_dissection, operators, pipeline
    from netdos.probes import ProbeKind
    assert operators.OPERATOR is operators.OperatorKind.NORMALIZED_ADJACENCY
    assert operators.RANGE_STEPS == 40
    assert density.BINS == 50
    assert nested_dissection.LEAF_SIZE == 256
    assert pipeline.KPM_MOMENTS == 500
    assert pipeline.GQL_STEPS == 50
    assert pipeline.ND_MOMENTS == 50
    assert pipeline.PROBES == 20
    assert pipeline.PROBE_KIND is ProbeKind.HADAMARD


def test_record_payloads_name_their_record(tmp_path):
    from netdos.lanczos import RitzQuadrature
    hist = SpectralHistogram(edges=np.array([-1.0, 0.0, 1.0]),
                             masses=np.array([0.25, 0.75]))
    mom = ChebMoments(np.array([1.0, 0.5]), IDENTITY_MAP, {})
    quad = RitzQuadrature(nodes=np.array([0.0]), weights=np.array([1.0]),
                          z_norm_sq=4.0)
    for record, payload in [("histogram", histogram_payload(hist)),
                            ("moments", moments_payload(mom)),
                            ("quadrature", quadrature_payload(quad)),
                            ("motifs", motifs_payload([]))]:
        path = tmp_path / f"{record}.json"
        write_json(payload, path)
        assert json.load(open(path))["record"] == record
    write_histogram_csv(hist, tmp_path / "h.csv")
    assert read_histogram_csv(tmp_path / "h.csv").masses.tolist() == [0.25, 0.75]


def test_cli_threads_flag_matches_serial(tmp_path):
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--model", "er", "--n", "300", "--p", "0.05", "--seed", "8",
          "--out", gpath])
    outs = []
    for threads, name in [("1", "t1.json"), ("2", "t2.json")]:
        out = str(tmp_path / name)
        assert main(["dos", "--input", gpath, "--moments", "80", "--probes", "8",
                     "--seed", "2", "--threads", threads, "--out", out]) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]
    # --threads has no effect, but a count below 1 is still a usage error
    for bad in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["dos", "--input", gpath, "--threads", bad,
                  "--out", str(tmp_path / "bad.json")])
        assert exc.value.code == 2
    assert not (tmp_path / "bad.json").exists()


def test_cli_hist_on_per_node_moments(tmp_path, capsys):
    # single pdos rows carry probe noise below -1e-3; the default check
    # applies to their node average, an explicit tolerance to every row
    gpath = str(tmp_path / "g.txt")
    assert main(["generate", "--model", "pa", "--n", "300", "--m", "2",
                 "--seed", "1", "--out", gpath]) == 0
    pdos_out = str(tmp_path / "pdos.json")
    assert main(["pdos", "--input", gpath, "--moments", "100", "--probes", "20",
                 "--out", pdos_out]) == 0
    hist_out = str(tmp_path / "hist.json")
    assert main(["hist", "--moments-file", pdos_out, "--bins", "50",
                 "--out", hist_out]) == 0
    masses = np.array(json.loads(open(hist_out).read())["masses"])
    assert masses.shape == (300, 50)
    assert masses.min() < -1e-3 < masses.mean(axis=0).min()
    capsys.readouterr()
    assert main(["hist", "--moments-file", pdos_out, "--bins", "50",
                 "--negativity-tol", "1e-3", "--out", hist_out]) == 1
    assert "bin mass" in capsys.readouterr().err


# One test per CLI option that changes what a command computes, each
# asserting the option's effect.

def _star_with_chains(path):
    # hub 0 with leaves 1..3 (open twins) and two dangling 2-chains 0-4-5, 0-6-7
    path.write_text("0 1\n0 2\n0 3\n0 4\n4 5\n0 6\n6 7\n")
    return str(path)


def test_cli_exact_bins_on_a_one_point_spectrum_take_the_estimated_range(
        tmp_path):
    # an edgeless graph's adjacency is 0: its spectrum is the one point 0,
    # and the range is the bound's (-1, 1), as dos and gql take it
    gpath, out = tmp_path / "empty.txt", tmp_path / "exact.json"
    gpath.write_text("# nodes 5 edges 0\n")
    args = ["exact", "--input", str(gpath), "--operator", "adjacency",
            "--out", str(out)]
    for extra in ([], ["--range=-1,1"]):
        assert main([*args, "--bins", "5", *extra]) == 0
        record = json.loads(out.read_text())
        assert (record["lambda_min"], record["lambda_max"]) == (-1.0, 1.0)
        assert record["masses"] == [0.0, 0.0, 1.0, 0.0, 0.0]
    # without --bins there is no range to take, and none is written
    assert main(args) == 0
    assert "lambda_min" not in json.loads(out.read_text())


@pytest.mark.parametrize("operator", [k.value for k in OperatorKind])
def test_cli_exact_dos_and_gql_bin_over_one_default_range(tmp_path, operator):
    # without --range all three take `estimate_spectral_range`: their edges
    # coincide, and the exact masses total 1 even where an eigenvalue (0 of
    # the Laplacian, off by roundoff) sits on an outer edge
    pa, empty = str(tmp_path / "pa.txt"), tmp_path / "empty.txt"
    assert main(["generate", "--model", "pa", "--n", "300", "--m", "1",
                 "--seed", "2", "--out", pa]) == 0
    empty.write_text("# nodes 5 edges 0\n")
    for gpath in (pa, str(empty)):
        records = {}
        for cmd, extra in [("exact", []), ("dos", ["--moments", "20"]),
                           ("gql", ["--moments", "10"])]:
            out = tmp_path / f"{cmd}.json"
            probes = [] if cmd == "exact" else ["--probes", "4", "--seed", "1"]
            assert main([cmd, "--input", gpath, "--operator", operator,
                         "--bins", "50", *probes, *extra, "--out", str(out)]) == 0
            records[cmd] = json.loads(out.read_text())
        exact = records["exact"]
        assert exact["edges"] == records["dos"]["edges"] == records["gql"]["edges"]
        assert len(exact["edges"]) == 51
        assert all(exact[k] == records["dos"][k] == records["gql"][k]
                   for k in ("lambda_min", "lambda_max"))
        assert abs(sum(exact["masses"]) - 1.0) <= 1e-12


def test_cli_out_of_memory_is_an_error_line(tmp_path, capsys):
    # 30 nodes × (10^15 + 1) moments is 240 PB, beyond any address space:
    # the first allocation fails at once, before any work
    gpath, out = tmp_path / "g.txt", tmp_path / "pdos.json"
    write_graph_edgelist(generate_graph("pa", n=30, m=2, seed=1), gpath)
    assert main(["pdos", "--input", str(gpath), "--range=-20,20",
                 "--moments", str(10 ** 15), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("netdos: error: ") and "Traceback" not in err
    assert not out.exists()


def test_cli_allow_self_loops(tmp_path, capsys):
    gpath = tmp_path / "loop.txt"
    gpath.write_text("0 0 1\n0 1\n")
    args = ["exact", "--input", str(gpath), "--operator", "adjacency"]
    assert main(args) == 1
    assert "self-loop at node 0" in capsys.readouterr().err
    assert main([*args, "--allow-self-loops"]) == 0
    eig = json.loads(capsys.readouterr().out)["eigenvalues"]
    # [[1, 1], [1, 0]]: the loop is one diagonal entry
    assert np.allclose(eig, [(1 - 5 ** 0.5) / 2, (1 + 5 ** 0.5) / 2])


def test_cli_no_damping(tmp_path):
    from netdos.density import histogram_from_moments
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--model", "er", "--n", "80", "--p", "0.1", "--seed", "2",
          "--out", gpath])
    records = {}
    for name, flag in [("damped", []), ("raw", ["--no-damping"])]:
        out = str(tmp_path / f"{name}.json")
        assert main(["dos", "--input", gpath, "--moments", "60", "--probes", "8",
                     "--bins", "20", *flag, "--out", out]) == 0
        moments, records[name] = load_moments(out)
    raw = records["raw"]
    assert records["damped"]["damping"] is True and raw["damping"] is False
    assert raw["masses"] == histogram_from_moments(
        moments, bins=20, damping=False).masses.tolist()
    assert raw["masses"] != records["damped"]["masses"]
    hist_out = str(tmp_path / "h.json")
    assert main(["hist", "--moments-file", str(tmp_path / "damped.json"),
                 "--bins", "20", "--no-damping", "--out", hist_out]) == 0
    assert json.loads(open(hist_out).read())["masses"] == raw["masses"]


def test_cli_no_spikes(tmp_path):
    gpath = _star_with_chains(tmp_path / "star.txt")
    base = ["dos", "--input", gpath, "--filter-motifs", "all", "--moments", "30",
            "--probes", "4", "--bins", "10"]
    with_spikes, without = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main([*base, "--out", with_spikes]) == 0
    assert main([*base, "--no-spikes", "--out", without]) == 0
    a = json.loads(open(with_spikes).read())
    b = json.loads(open(without).read())
    r, n = a["filter"]["deflated_dim"], a["filter"]["total_dim"]
    assert r > 0 and n == 8
    # without spikes the masses are the deflated density alone; with them it
    # is scaled by (n - r)/n and the removed mass r/n sits in the spike bins
    assert abs(sum(b["masses"]) - 1.0) < 1e-12
    spikes = np.array(a["masses"]) - np.array(b["masses"]) * (n - r) / n
    edges = np.array(a["edges"])
    want = np.zeros(10)
    for lam, count in a["filter"]["removed"]:
        want[min(np.searchsorted(edges, lam, side="right") - 1, 9)] += count / n
    assert np.allclose(spikes, want, rtol=0, atol=1e-12)
    assert abs(want.sum() - r / n) < 1e-12
    hist_out = str(tmp_path / "h.json")
    assert main(["hist", "--moments-file", with_spikes, "--bins", "10",
                 "--no-spikes", "--out", hist_out]) == 0
    assert json.loads(open(hist_out).read())["masses"] == b["masses"]


def test_cli_spike_outside_range_is_refused(tmp_path, capsys):
    # K5's Laplacian: the motif filter removes eigenvalue 5 four times and
    # leaves the complement {0}, which passes the moment certificate; a
    # --range of [-1, 1] cannot hold the spike
    gpath = tmp_path / "k5.txt"
    gpath.write_text("".join(f"{i} {j}\n" for i in range(5)
                             for j in range(i + 1, 5)))
    out = tmp_path / "k5.json"
    assert main(["dos", "--input", str(gpath), "--operator", "laplacian",
                 "--filter-motifs", "all", "--probes", "4", "--moments", "20",
                 "--bins", "4", "--range=-1,1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "removed eigenvalue 5 lies outside the bins" in err
    assert "--range" in err
    assert not out.exists()


def test_cli_standard_basis_dos_has_unit_mass(tmp_path):
    # five standard-basis probes sample five diagonal entries; their mean,
    # not their sum over n, is the estimate, as gql averages its probes
    gpath = str(tmp_path / "pa.txt")
    assert main(["generate", "--model", "pa", "--n", "600", "--m", "2",
                 "--seed", "1", "--out", gpath]) == 0
    masses = {}
    for cmd in ("dos", "gql"):
        out = tmp_path / f"{cmd}.json"
        assert main([cmd, "--input", gpath, "--probe-kind", "standard-basis",
                     "--probes", "5", "--moments", "10", "--out", str(out)]) == 0
        masses[cmd] = sum(json.loads(out.read_text())["masses"])
    assert abs(masses["dos"] - 1.0) < 1e-12
    assert abs(masses["gql"] - 1.0) < 1e-12


def test_cli_deflation_refuses_standard_basis_probes_on_fewer_than_n(
        tmp_path, capsys):
    # the first 7 nodes lie outside every class, so their diagonal entries
    # of P P^T are 1 where the mean is (n - r)/n: the total would read
    # 300/155; all n probes read the trace exactly
    gpath = str(tmp_path / "pa.txt")
    assert main(["generate", "--model", "pa", "--n", "300", "--m", "1",
                 "--seed", "2", "--out", gpath]) == 0
    out = tmp_path / "dos.json"
    args = ["dos", "--input", gpath, "--filter-motifs", "all",
            "--probe-kind", "standard-basis", "--moments", "40",
            "--operator", "laplacian", "--out", str(out)]
    assert main([*args, "--probes", "7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("netdos: error: ") and "--probes 300" in err
    assert not out.exists()
    assert main([*args, "--probes", "300"]) == 0
    assert abs(sum(json.loads(out.read_text())["masses"]) - 1.0) < 1e-12


def test_cli_histograms_over_one_range_share_their_edges(tmp_path):
    gpath = str(tmp_path / "pa.txt")
    assert main(["generate", "--model", "pa", "--n", "200", "--m", "2",
                 "--seed", "4", "--out", gpath]) == 0
    common = ["--input", gpath, "--operator", "normalized-adjacency",
              "--range=-1.1,1.3", "--bins", "50"]
    edges = {}
    for cmd, extra in [("dos", ["--moments", "20"]), ("gql", ["--moments", "10"]),
                       ("exact", [])]:
        out = tmp_path / f"{cmd}.json"
        assert main([cmd, *common, *extra, "--out", str(out)]) == 0
        edges[cmd] = json.loads(out.read_text())["edges"]
    assert edges["dos"] == edges["gql"] == edges["exact"]
    assert len(edges["dos"]) == 51


def test_cli_hist_refuses_a_series_too_narrow_for_its_bins(tmp_path, capsys):
    # shift 1, scale 1e-300: every edge 1 + 1e-300 x rounds to 1.0
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(_moments_record(
        scale_map={"shift": 1.0, "scale": 1e-300})))
    out = tmp_path / "h.json"
    assert main(["hist", "--moments-file", str(path), "--bins", "4",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # hist takes no --range: the message names the record's scale map
    assert ("the scale map (shift 1.0, scale 1e-300) is too narrow for "
            "--bins 4" in err)
    assert "--range" not in err and "np.float64" not in err
    assert not out.exists()


def test_cli_hist_spike_outside_the_scale_map_is_refused(tmp_path, capsys):
    # a hand-made record: a dos run refuses such a filter before writing it
    path = tmp_path / "spike.json"
    path.write_text(json.dumps(_moments_record(filter={
        "removed": [[5.0, 1]], "deflated_dim": 1, "total_dim": 10})))
    out = tmp_path / "h.json"
    assert main(["hist", "--moments-file", str(path), "--bins", "4",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # hist takes no --range: the message names the record's scale map
    assert ("removed eigenvalue 5 lies outside the bins [-1, 1] of the scale "
            "map (shift 0.0, scale 1.0)" in err)
    assert "pass a --range" not in err
    assert not out.exists()


def test_cli_normalization_is_the_mass_placed(tmp_path):
    gpath = str(tmp_path / "pa.txt")
    assert main(["generate", "--model", "pa", "--n", "300", "--m", "1",
                 "--seed", "2", "--out", gpath]) == 0
    # deflated dos places d_0 (n - r)/n of series mass and r/n of spikes,
    # and so does hist on its record
    dos, hist = tmp_path / "dos.json", tmp_path / "hist.json"
    assert main(["dos", "--input", gpath, "--operator", "laplacian",
                 "--filter-motifs", "all", "--moments", "40",
                 "--out", str(dos)]) == 0
    assert main(["hist", "--moments-file", str(dos), "--out", str(hist)]) == 0
    record = json.loads(dos.read_text())
    n, r = record["filter"]["total_dim"], record["filter"]["deflated_dim"]
    assert (n, r) == (300, 145)
    placed = record["values"][0] * (n - r) / n + r / n
    assert abs(placed - record["values"][0]) > 1e-3
    for rec in (record, json.loads(hist.read_text())):
        assert rec["normalization"] == pytest.approx(placed, rel=0, abs=1e-15)
        assert abs(sum(rec["masses"]) - rec["normalization"]) <= 1e-12
    # gql over a window narrower than the spectrum places only the weight
    # of the Ritz values inside it
    gql = tmp_path / "gql.json"
    assert main(["gql", "--input", gpath, "--range=-0.5,0.5", "--moments",
                 "20", "--out", str(gql)]) == 0
    record = json.loads(gql.read_text())
    assert record["normalization"] < 0.5
    assert abs(sum(record["masses"]) - record["normalization"]) <= 1e-12


def test_cli_pdos_refuses_unprobed_nodes_before_the_recurrence(
        tmp_path, capsys, monkeypatch):
    gpath = str(tmp_path / "pa.txt")
    assert main(["generate", "--model", "pa", "--n", "300", "--m", "1",
                 "--seed", "2", "--out", gpath]) == 0
    out = tmp_path / "pdos.json"
    args = ["pdos", "--input", gpath, "--probe-kind", "standard-basis",
            "--moments", "10", "--out", str(out)]

    def no_recurrence(*a, **k):
        raise AssertionError("ran the recurrence for nodes no probe reaches")

    with monkeypatch.context() as patch:
        patch.setattr(kpm, "_recurrence", no_recurrence)
        assert main(args) == 1
    err = capsys.readouterr().err
    assert "280 of 300 have zero probe mass: pass --probes 300 (n), not 20" in err
    assert not out.exists()
    assert main([*args, "--probes", "300"]) == 0


def test_cli_motif_kinds(tmp_path, capsys):
    gpath = _star_with_chains(tmp_path / "star.txt")
    assert main(["motifs", "--input", gpath]) == 0
    kinds = {i["kind"] for i in json.loads(capsys.readouterr().out)["instances"]}
    assert kinds == {"open-twin", "dangling-two-chain"}
    assert main(["motifs", "--input", gpath, "--kinds", "dangling-two-chain"]) == 0
    instances = json.loads(capsys.readouterr().out)["instances"]
    assert instances and {i["kind"] for i in instances} == {"dangling-two-chain"}
    assert all(i["nodes"] == [4, 5, 6, 7] for i in instances)


def test_cli_range_is_the_preset_estimate_or_the_override(tmp_path, capsys):
    from netdos.operators import build_operator, estimate_spectral_range
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--model", "er", "--n", "100", "--p", "0.08", "--seed", "3",
          "--out", gpath])
    g, _ = parse_graph_file(gpath)
    op = build_operator(g, OperatorKind.LAPLACIAN)

    def lambdas(*extra):
        out = str(tmp_path / "p.json")
        assert main(["pdos", "--input", gpath, "--operator", "laplacian",
                     "--moments", "10", "--probes", "4", "--seed", "5", *extra,
                     "--out", out]) == 0
        obj = json.loads(open(out).read())
        return obj["lambda_min"], obj["lambda_max"]

    assert lambdas() == estimate_spectral_range(op)
    # a record's range, passed back as --range, is taken as it stands
    wide = (-1.5, 20.25)
    assert lambdas(f"--range={wide[0]},{wide[1]}") == wide
    # --range is the one override: the estimate has no settings of its own
    for option in ("--range-steps", "--range-margin"):
        with pytest.raises(SystemExit) as exc:
            main(["dos", "--input", gpath, option, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_estimated_range_does_not_depend_on_the_seed(tmp_path):
    # the range is a seedless bound: the records of dos, pdos and gql carry
    # the same lambda_min/lambda_max under any --seed, and nd-pdos, which
    # draws nothing at random, writes the same bytes
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--model", "pa", "--n", "120", "--m", "2", "--seed", "2",
          "--out", gpath])
    for operator in ("adjacency", "laplacian"):
        common = ["--input", gpath, "--operator", operator, "--moments", "12"]
        for command in ("dos", "pdos", "gql"):
            ranges = set()
            for seed in ("1", "2"):
                out = tmp_path / f"{command}-{seed}.json"
                assert main([command, *common, "--probes", "3", "--seed", seed,
                             "--out", str(out)]) == 0
                obj = json.loads(out.read_text())
                ranges.add((obj["lambda_min"], obj["lambda_max"]))
            assert len(ranges) == 1, (operator, command, ranges)
        files = []
        for seed in ("1", "2"):
            out = tmp_path / f"nd-{seed}.json"
            assert main(["nd-pdos", *common, "--seed", seed,
                         "--out", str(out)]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1], operator


@pytest.mark.parametrize("operator", [k.value for k in OperatorKind])
def test_cli_overflowing_weights_exit_cleanly(tmp_path, capsys, operator):
    # the middle node's degree, and every operator's row sums there, pass
    # the largest float: one error line and exit 1, with no numpy warning
    # (the test configuration turns one into an exception)
    gpath = tmp_path / "big.txt"
    gpath.write_text("0 1 1e308\n1 2 1e308\n")
    out = tmp_path / "out.json"
    assert main(["dos", "--input", str(gpath), "--operator", operator,
                 "--moments", "10", "--probes", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("netdos: error: "), err
    assert not out.exists()


@pytest.mark.parametrize("operator", ["laplacian", "normalized-adjacency"])
def test_cli_gql_records_the_range_it_binned_over(tmp_path, operator):
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--model", "pa", "--n", "80", "--m", "2", "--seed", "4",
          "--out", gpath])

    def record(command, *extra):
        out = str(tmp_path / f"{command}.json")
        assert main([command, "--input", gpath, "--operator", operator,
                     "--moments", "30", "--probes", "4", "--seed", "5",
                     "--bins", "8", *extra, "--out", out]) == 0
        return json.loads(open(out).read())

    gql, dos = record("gql"), record("dos")
    assert (gql["lambda_min"], gql["lambda_max"]) == (dos["lambda_min"],
                                                      dos["lambda_max"])
    assert (gql["edges"][0], gql["edges"][-1]) == (gql["lambda_min"],
                                                   gql["lambda_max"])
    # the keys follow the run's own fields, as in the dos record
    keys = list(gql)
    assert keys[keys.index("bins") + 1:keys.index("record")] == [
        "lambda_min", "lambda_max"]
    wide = record("gql", "--range=-1.5,20.25")
    assert (wide["lambda_min"], wide["lambda_max"]) == (-1.5, 20.25)


@pytest.mark.parametrize("command", ["gql", "hist"])
def test_cli_csv_output_matches_json(tmp_path, command):
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--model", "er", "--n", "60", "--p", "0.1", "--seed", "6",
          "--out", gpath])
    if command == "gql":
        args = ["gql", "--input", gpath, "--moments", "15", "--probes", "4",
                "--bins", "12"]
    else:
        moments = str(tmp_path / "dos.json")
        assert main(["dos", "--input", gpath, "--moments", "40", "--probes", "4",
                     "--out", moments]) == 0
        args = ["hist", "--moments-file", moments, "--bins", "12"]
    json_out, csv_out = str(tmp_path / "h.json"), str(tmp_path / "h.csv")
    assert main([*args, "--out", json_out]) == 0
    assert main([*args, "--out-format", "csv", "--out", csv_out]) == 0
    obj = json.loads(open(json_out).read())
    hist = read_histogram_csv(csv_out)
    assert hist.edges.tolist() == obj["edges"]
    assert hist.masses.tolist() == obj["masses"]
    with pytest.raises(FileFormatError):
        read_histogram_csv(json_out)


ROOT = Path(__file__).parents[1]
BENCHMARK_WORKLOADS = [w["name"] for w in
                       json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_benchmark_command_lines_parse(workloads):
    """Every command line of the benchmark's workloads parses as `main`
    parses it, so an option the benchmark passes (such as `motifs --seed`
    or `--threads`) cannot be dropped unnoticed. Nothing is run."""
    parser = cli.build_parser()
    for w in workloads.WORKLOADS.values():
        for cmd in w.commands(seed=1, threads=2, graph_path=w.graph):
            try:
                args = parser.parse_args(cli._join_range_values(list(cmd.argv)))
            except SystemExit:
                pytest.fail(f"{w.name}: {' '.join(cmd.argv)} does not parse")
            assert args.command == cmd.argv[0]


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_benchmark_outputs_pass_its_checks(tmp_path, monkeypatch, workloads, name):
    """A workload's commands, run through `main` on its seed-1 input in a
    scratch directory, write outputs that pass the benchmark's checks, and
    every corruption of its self-test is rejected; so a record change that
    the benchmark would refuse fails here first."""
    w = workloads.WORKLOADS[name]
    monkeypatch.chdir(tmp_path)
    w.make_input(1, w.graph)
    ref = w.reference(w.graph, 1)
    outputs = {}
    for cmd in w.commands(seed=1, threads=1, graph_path=w.graph):
        assert main(list(cmd.argv)) == 0, cmd.argv
        outputs[cmd.label] = json.loads(Path(cmd.out).read_text())
        assert w.check(cmd.label, outputs, ref) == [], cmd.label
    corrupted = [(label, *made) for label in outputs
                 for made in w.corrupted(label, outputs, ref.seed)]
    assert corrupted
    for label, desc, bad in corrupted:
        assert w.check(label, bad, ref), f"not rejected: {desc}"


def test_estimated_range_runs_do_not_depend_on_the_blas_thread_count(
        tmp_path, workloads):
    """`dos` and `nd-pdos` under the Laplacian estimate their range, and
    write the same bytes with one BLAS thread and with two. The input is the
    benchmark's seed-1 8,000-node tree, on which a range estimate that
    reduced through BLAS products was seen to change its last bits with
    the thread count."""
    graph = tmp_path / "tree.txt"
    workloads.WORKLOADS["laplacian-tree"].make_input(1, graph)
    src = str(Path(cli.__file__).parents[1])
    for command in ("dos", "nd-pdos"):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{command}-{threads}.json"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "netdos.cli", command, "--input",
                 str(graph), "--operator", "laplacian", "--seed", "1",
                 "--moments", "2", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], command


def test_gql_does_not_depend_on_the_blas_thread_count(tmp_path):
    """`gql` and `gql --node` write the same bytes with one BLAS thread and
    with two. The graph has 20,000 nodes: Lanczos products that reduced
    through BLAS were seen to change their last bits with the thread count
    there (at byte 1,346 and 154 of these files), while on smaller graphs
    BLAS keeps each product on one thread."""
    graph = tmp_path / "pa.txt"
    assert main(["generate", "--model", "pa", "--n", "20000", "--m", "3",
                 "--seed", "1", "--out", str(graph)]) == 0
    src = str(Path(cli.__file__).parents[1])
    for extra in (["--operator", "laplacian", "--probes", "2"], ["--node", "7"]):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"gql-{threads}.json"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "netdos.cli", "gql", "--input",
                 str(graph), "--seed", "1", *extra, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], extra


# The writer against json.dumps of the same payload with its arrays as
# lists. Derandomized, as in test_ingest_properties.py, so runs repeat.
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

_FINITE = st.one_of(
    # heavy duplicates, signed zeros, subnormals, repr switching to exponent
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1, 1.0, -2.5]),
    st.floats(allow_nan=False, allow_infinity=False))
_ANY_FLOAT = st.one_of(_FINITE, st.sampled_from([np.nan, np.inf, -np.inf]))
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=7)
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=_FINITE),
    hnp.arrays(np.float64, _SHAPES, elements=_ANY_FLOAT),  # json's fallback
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=3),
               elements=_FINITE),
    hnp.arrays(np.int64, _SHAPES, elements=st.integers(-5, 5)))
_SCALARS = st.one_of(
    _ANY_FLOAT, _ANY_FLOAT.map(np.float64), st.integers(), st.booleans(),
    st.none(), st.text())
_VALUES = st.recursive(
    st.one_of(_SCALARS, _ARRAYS, st.lists(st.integers(), max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)


def _as_lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


@SETTINGS
@given(payload=st.dictionaries(st.text(), _VALUES, max_size=6),
       chunk=st.sampled_from([1, 3, fileio._CHUNK_VALUES]))
# both zeros in one chunk: equal as floats, distinct as bit patterns
@example(payload={"zeros": np.array([[0.0, -0.0], [-0.0, 0.0]])}, chunk=4)
def test_write_json_matches_json_dumps(payload, chunk):
    want = json.dumps(_as_lists(payload), indent=1)
    with mock.patch.object(fileio, "_CHUNK_VALUES", chunk), \
            tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.json")
        write_json(payload, path)
        with open(path, "rb") as fh:
            assert fh.read() == (want + "\n").encode()
        out = io.StringIO()
        with redirect_stdout(out):
            write_json(payload, None)
        assert out.getvalue() == want + "\n"


def test_write_json_streams_to_stdout_as_to_a_file(tmp_path):
    # a per-node block of about 9 MiB of text: sent to stdout, as to a file,
    # it is written a chunk at a time, never held whole
    payload = {"record": "moments", "values": np.full((4000, 101), 1 / 3)}
    path = tmp_path / "r.json"
    to_file = traced_peak(write_json, payload, path)
    assert path.stat().st_size > 8 << 20
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        to_stdout = traced_peak(write_json, payload, None)
    assert to_stdout <= to_file + (1 << 20)


def test_write_json_refuses_what_json_refuses(tmp_path):
    with pytest.raises(TypeError, match="int64"):
        write_json({"x": np.ones(2), "y": np.int64(1)}, tmp_path / "r.json")


# Every record the CLI writes, by the command that writes it, without
# --input and --out; `hist` reads a `dos` or a `pdos` record.
RECORD_COMMANDS = {
    "dos": ["dos", "--moments", "40", "--probes", "4", "--filter-motifs", "all",
            "--bins", "12"],
    "pdos": ["pdos", "--moments", "20", "--probes", "4"],
    "nd-pdos": ["nd-pdos", "--moments", "12", "--leaf-size", "16"],
    "gql": ["gql", "--moments", "10", "--probes", "4", "--bins", "12"],
    "gql-node": ["gql", "--moments", "6", "--node", "5"],
    "motifs": ["motifs"],
    "exact": ["exact", "--bins", "12"],
}


@pytest.mark.parametrize("record", [*RECORD_COMMANDS, "hist-dos", "hist-pdos"])
def test_cli_records_are_json_dumps_indent_1(tmp_path, capsys, record):
    gpath = str(tmp_path / "g.txt")
    assert main(["generate", "--model", "pa", "--n", "120", "--m", "1",
                 "--seed", "3", "--out", gpath]) == 0
    if record.startswith("hist-"):
        moments = str(tmp_path / "moments.json")
        assert main([*RECORD_COMMANDS[record[5:]], "--input", gpath,
                     "--out", moments]) == 0
        argv = ["hist", "--bins", "9", "--moments-file", moments]
    else:
        argv = [*RECORD_COMMANDS[record], "--input", gpath]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=1) + "\n"
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == text
