import json

import numpy as np
import pytest

from netdos import (FileFormatError, SpectralHistogram, build_csr,
                    parse_graph_file, write_graph_edgelist)
from netdos.cli import main
from netdos.fileio import (load_moments, moments_payload,
                           read_histogram_csv, write_histogram_csv, write_json)
from netdos.kpm import MODE_GLOBAL, ChebMoments
from netdos.operators import IDENTITY_MAP


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
    assert g.is_weighted
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


def test_matrix_market_general_rejected(tmp_path):
    p = tmp_path / "g.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 1.0\n")
    with pytest.raises(FileFormatError, match="symmetric"):
        parse_graph_file(p)


def test_edgelist_round_trip(tmp_path):
    g = build_csr([(0, 1, 2.0), (1, 2, 0.5), (0, 3, 1.0)])
    path = tmp_path / "g.txt"
    write_graph_edgelist(g, path)
    g2, _ = parse_graph_file(path)
    assert np.array_equal(g.row_ptr, g2.row_ptr)
    assert np.array_equal(g.col_idx, g2.col_idx)
    assert np.array_equal(g.weights, g2.weights)


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
    mom = ChebMoments(MODE_GLOBAL, np.array([1.0, 0.0]), IDENTITY_MAP,
                      {"kind": "exact"})
    payload = moments_payload(mom, {"operator": "adjacency"})
    assert payload["values"] == [1.0, 0.0]
    assert payload["m_max"] == 1
    path = tmp_path / "m.json"
    write_json(payload, path)
    back, adj, obj = load_moments(path)
    assert np.array_equal(back.values, mom.values)
    assert adj is None
    assert obj["operator"] == "adjacency"


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


def test_cli_range_without_hi_is_usage_error(tmp_path, capsys):
    gpath = str(tmp_path / "cycle.txt")
    _write_cycle(gpath)
    with pytest.raises(SystemExit) as exc:
        main(["nd-pdos", "--input", gpath, "--range", "-4",
              "--out", str(tmp_path / "nd.json")])
    assert exc.value.code == 2
    assert "argument --range: expects LO,HI, got '-4'" in capsys.readouterr().err


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


def test_runconfig_reproduction_defaults():
    # the reproduction presets live in the CLI and in the pipeline keywords;
    # both must stay at 500 moments, 20 hadamard probes, 50 bins, and range
    # estimation at 100 Lanczos steps with a 0.01 margin
    import inspect

    from netdos.cli import build_parser
    from netdos.pipeline import kpm_dos
    args = build_parser().parse_args(["dos", "--input", "x"])
    assert (args.moments, args.probes, args.bins) == (500, 20, 50)
    assert args.probe_kind == "hadamard"
    params = inspect.signature(kpm_dos).parameters
    lib = tuple(params[k].default for k in ("m_max", "nz", "bins", "probe_kind"))
    assert lib == (args.moments, args.probes, args.bins, args.probe_kind)
    # the range-estimate defaults: the CLI and every pipeline entry point use
    # estimate_spectral_range's own
    from netdos import pipeline
    from netdos.operators import estimate_spectral_range
    est = inspect.signature(estimate_spectral_range).parameters
    want = (est["steps"].default, est["margin"].default)
    assert want == (100, 0.01)
    for cmd in ("dos", "pdos", "gql", "nd-pdos"):
        args = build_parser().parse_args([cmd, "--input", "x"])
        assert (args.range_steps, args.range_margin) == want, cmd
    for fn in (pipeline.scaled_operator_for, pipeline.kpm_dos, pipeline.kpm_pdos,
               pipeline.gql_dos_pipeline, pipeline.nd_pdos_pipeline):
        params = inspect.signature(fn).parameters
        got = (params["range_steps"].default, params["range_margin"].default)
        assert got == want, fn.__name__


def test_write_spectral_output_dispatcher(tmp_path):
    from netdos import write_spectral_output
    from netdos.lanczos import RitzQuadrature
    hist = SpectralHistogram(edges=np.array([-1.0, 0.0, 1.0]),
                             masses=np.array([0.25, 0.75]))
    mom = ChebMoments(MODE_GLOBAL, np.array([1.0, 0.5]), IDENTITY_MAP, {})
    quad = RitzQuadrature(nodes=np.array([0.0]), weights=np.array([1.0]),
                          z_norm_sq=4.0)
    for name, obj in [("h", hist), ("m", mom), ("q", quad), ("l", [])]:
        path = tmp_path / f"{name}.json"
        write_spectral_output(obj, path, fmt="json")
        assert json.load(open(path))["record"] in ("histogram", "moments",
                                                   "quadrature", "motifs")
    write_spectral_output(hist, tmp_path / "h.csv", fmt="csv")
    assert read_histogram_csv(tmp_path / "h.csv").masses.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError, match="cannot serialize"):
        write_spectral_output(object(), tmp_path / "x.json")
    with pytest.raises(ValueError, match="histograms only"):
        write_spectral_output(mom, tmp_path / "m.csv", fmt="csv")


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
