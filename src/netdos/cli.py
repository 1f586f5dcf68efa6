"""Command-line interface.

Subcommands: dos, pdos, gql, nd-pdos, motifs, exact, generate, hist.
All randomness hangs off --seed, outputs carry no timestamps, and identical
invocations produce byte-identical files. Exit codes: 0 success, 1 runtime
error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio, pipeline, testkit
from .density import histogram_from_moments
from .errors import NetdosError
from .lanczos import gql_pdos
from .motifs import MotifKind, detect_motifs
from .nested_dissection import build_partition_tree, load_partition, save_partition
from .operators import RANGE_MARGIN, RANGE_STEPS, OperatorKind, build_operator
from .probes import ProbeKind

_OPERATORS = [k.value for k in OperatorKind]
_PROBE_KINDS = [k.value for k in ProbeKind]
_MOTIF_KINDS = [k.value for k in MotifKind if k is not MotifKind.CUSTOM]


def _add_graph_args(p):
    p.add_argument("--input", required=True, help="graph file")
    p.add_argument("--format", choices=["edgelist", "matrix-market"], default=None)
    p.add_argument("--allow-self-loops", action="store_true")


def _add_common_args(p, moments_default=500):
    p.add_argument("--operator", choices=_OPERATORS,
                   default=OperatorKind.NORMALIZED_ADJACENCY.value)
    p.add_argument("--moments", type=int, default=moments_default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--range", type=_range_arg, default=None, metavar="LO,HI",
                   help="spectral range override (default: estimated)")
    p.add_argument("--range-steps", type=int, default=RANGE_STEPS)
    p.add_argument("--range-margin", type=float, default=RANGE_MARGIN)
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="accepted for compatibility; has no effect, because "
                        "the sparse kernel is serial")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _range_arg(text):
    try:
        lo, hi = (float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects LO,HI, got {text!r}")
    return (lo, hi)


def _join_range_values(argv):
    """`--range -4,4` -> `--range=-4,4`: argparse takes "-4,4" for an option."""
    out = []
    for tok in argv:
        if out and out[-1] == "--range" and not tok.startswith("--"):
            out[-1] = f"--range={tok}"
        else:
            out.append(tok)
    return out


def _load_graph(args):
    fmt = {"matrix-market": "matrix_market", "edgelist": "edgelist",
           None: None}[args.format]
    return fileio.parse_graph_file(args.input, fmt=fmt,
                                   allow_self_loops=args.allow_self_loops)


def _parse_filter_kinds(text):
    if text in (None, "", "none"):
        return ()
    if text == "all":
        return tuple(_MOTIF_KINDS)
    kinds = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in _MOTIF_KINDS:
            raise NetdosError(f"unknown motif kind {tok!r} (valid: {', '.join(_MOTIF_KINDS)})")
        kinds.append(tok)
    return tuple(kinds)


def _emit(text):
    if text is not None:
        print(text)


def _csv_written(args, hist):
    """Write `hist` as CSV if --out-format csv asks for it; True if written."""
    if args.out_format != "csv":
        return False
    if args.out is None:
        raise NetdosError("--out-format csv requires --out")
    fileio.write_histogram_csv(hist, args.out)
    return True


def _cmd_dos(args):
    g, _ = _load_graph(args)
    result = pipeline.kpm_dos(
        g, operator=args.operator, m_max=args.moments, nz=args.probes,
        probe_kind=args.probe_kind, seed=args.seed, bins=args.bins,
        damping=not args.no_damping,
        filter_kinds=_parse_filter_kinds(args.filter_motifs),
        range_=args.range, range_steps=args.range_steps,
        range_margin=args.range_margin, reinsert_spikes=not args.no_spikes,
        negativity_tol=args.negativity_tol)
    meta = {"method": "kpm", "operator": args.operator, "n": g.n,
            "bins": args.bins, "damping": not args.no_damping,
            "lambda_min": result.scaled_op.spectral_range[0],
            "lambda_max": result.scaled_op.spectral_range[1]}
    if _csv_written(args, result.histogram):
        return 0
    payload = fileio.moments_payload(result.moments, meta, result.adjustment)
    payload.update({k: v for k, v in
                    fileio.histogram_payload(result.histogram).items()
                    if k != "record"})
    payload["record"] = "dos"
    _emit(fileio.write_json(payload, args.out))
    return 0


def _cmd_pdos(args):
    g, node_ids = _load_graph(args)
    moments, sop = pipeline.kpm_pdos(
        g, operator=args.operator, m_max=args.moments, nz=args.probes,
        probe_kind=args.probe_kind, seed=args.seed,
        range_=args.range, range_steps=args.range_steps,
        range_margin=args.range_margin)
    meta = {"method": "kpm", "operator": args.operator, "n": g.n,
            "node_ids": node_ids.tolist(),
            "lambda_min": sop.spectral_range[0],
            "lambda_max": sop.spectral_range[1]}
    _emit(fileio.write_json(fileio.moments_payload(moments, meta), args.out))
    return 0


def _cmd_gql(args):
    g, node_ids = _load_graph(args)
    if args.node is not None:
        index = np.flatnonzero(node_ids == args.node)
        if index.size == 0:
            raise NetdosError(f"node {args.node} is not in {args.input}")
        op = build_operator(g, OperatorKind(args.operator))
        quad = gql_pdos(op, int(index[0]), args.moments)
        meta = {"method": "gql", "operator": args.operator, "n": g.n,
                "node": args.node, "steps": args.moments}
        _emit(fileio.write_json(fileio.quadrature_payload(quad, meta), args.out))
        return 0
    hist = pipeline.gql_dos_pipeline(
        g, operator=args.operator, steps=args.moments, nz=args.probes,
        probe_kind=args.probe_kind, seed=args.seed, bins=args.bins,
        range_=args.range, range_steps=args.range_steps,
        range_margin=args.range_margin)
    meta = {"method": "gql", "operator": args.operator, "n": g.n,
            "steps": args.moments, "nz": args.probes,
            "probe_kind": args.probe_kind, "seed": args.seed, "bins": args.bins}
    if _csv_written(args, hist):
        return 0
    _emit(fileio.write_json(fileio.histogram_payload(hist, meta), args.out))
    return 0


def _cmd_nd_pdos(args):
    g, node_ids = _load_graph(args)
    tree = load_partition(args.partition, n=g.n) if args.partition else None
    moments, sop, tree = pipeline.nd_pdos_pipeline(
        g, operator=args.operator, m_max=args.moments, seed=args.seed,
        leaf_size=args.leaf_size, tree=tree, range_=args.range,
        range_steps=args.range_steps, range_margin=args.range_margin)
    if args.save_partition:
        save_partition(tree, args.save_partition)
    meta = {"method": "nd", "operator": args.operator, "n": g.n,
            "leaf_size": args.leaf_size, "node_ids": node_ids.tolist(),
            "lambda_min": sop.spectral_range[0],
            "lambda_max": sop.spectral_range[1]}
    _emit(fileio.write_json(fileio.moments_payload(moments, meta), args.out))
    return 0


def _cmd_motifs(args):
    g, node_ids = _load_graph(args)
    kinds = _parse_filter_kinds(args.kinds or "all")
    instances = detect_motifs(g, kinds={MotifKind(k) for k in kinds},
                              seed=args.seed, operator=OperatorKind(args.operator))
    meta = {"operator": args.operator, "n": g.n}
    payload = fileio.motifs_payload(instances, meta, node_ids=node_ids)
    _emit(fileio.write_json(payload, args.out))
    return 0


def _cmd_exact(args):
    g, _ = _load_graph(args)
    op = build_operator(g, OperatorKind(args.operator))
    spec = testkit.exact_spectrum(op)
    payload = {"record": "exact", "operator": args.operator, "n": g.n,
               "eigenvalues": spec.eigenvalues.tolist()}
    if args.bins:
        rng = args.range
        if rng is None:
            if OperatorKind(args.operator) is OperatorKind.NORMALIZED_ADJACENCY:
                rng = (-1.0, 1.0)
            else:
                rng = (float(spec.eigenvalues[0]), float(spec.eigenvalues[-1]))
        edges = np.linspace(rng[0], rng[1], args.bins + 1)
        payload["edges"] = edges.tolist()
        payload["masses"] = testkit.oracle_histogram(spec.eigenvalues, edges).tolist()
    _emit(fileio.write_json(payload, args.out))
    return 0


def _cmd_generate(args):
    params = {"n": args.n}
    model = args.model
    if model in ("er",):
        if args.p is None:
            raise NetdosError("--model er needs --p")
        params["p"] = args.p
    elif model in ("pa", "ba"):
        if args.m is None:
            raise NetdosError("--model pa needs --m")
        params["m"] = args.m
    else:
        if args.k is None or args.p is None:
            raise NetdosError("--model ws needs --k and --p")
        params.update(k=args.k, p=args.p)
    g = testkit.generate_graph(model, seed=args.seed, **params)
    fileio.write_graph_edgelist(g, args.out)
    return 0


def _cmd_hist(args):
    moments, adjustment, payload = fileio.load_moments(args.moments_file)
    hist = histogram_from_moments(
        moments, bins=args.bins, damping=not args.no_damping,
        filter_adjustment=None if args.no_spikes else adjustment,
        negativity_tol=args.negativity_tol)
    meta = {"method": payload.get("method", "rebin"),
            "operator": payload.get("operator"), "bins": args.bins,
            "damping": not args.no_damping}
    if "node_ids" in payload:
        meta["node_ids"] = payload["node_ids"]
    if _csv_written(args, hist):
        return 0
    _emit(fileio.write_json(fileio.histogram_payload(hist, meta), args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="netdos",
        description="Spectral density estimation for sparse graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dos", help="global density histogram via Chebyshev moments")
    _add_graph_args(p)
    _add_common_args(p)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--probe-kind", choices=_PROBE_KINDS,
                   default=ProbeKind.HADAMARD.value)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--no-damping", action="store_true")
    p.add_argument("--filter-motifs", default="none",
                   help="comma list of motif kinds, or all/none")
    p.add_argument("--no-spikes", action="store_true",
                   help="do not re-insert deflated spike mass")
    p.add_argument("--negativity-tol", type=float, default=None)
    p.add_argument("--out-format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=_cmd_dos)

    p = sub.add_parser("pdos", help="per-node moments via stochastic diagonals")
    _add_graph_args(p)
    _add_common_args(p)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--probe-kind", choices=_PROBE_KINDS,
                   default=ProbeKind.HADAMARD.value)
    p.set_defaults(fn=_cmd_pdos)

    p = sub.add_parser("gql", help="density via Lanczos quadrature")
    _add_graph_args(p)
    _add_common_args(p, moments_default=50)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--probe-kind", choices=_PROBE_KINDS,
                   default=ProbeKind.HADAMARD.value)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--node", type=int, default=None,
                   help="emit the per-node quadrature for this node id (as "
                        "listed in node_ids by the other outputs) instead")
    p.add_argument("--out-format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=_cmd_gql)

    p = sub.add_parser("nd-pdos", help="exact per-node moments via nested dissection")
    _add_graph_args(p)
    _add_common_args(p, moments_default=50)
    p.add_argument("--leaf-size", type=int, default=256)
    p.add_argument("--partition", default=None, help="load a partition file")
    p.add_argument("--save-partition", default=None)
    p.set_defaults(fn=_cmd_nd_pdos)

    p = sub.add_parser("motifs", help="detect spike-producing motifs")
    _add_graph_args(p)
    p.add_argument("--kinds", default="all")
    p.add_argument("--operator", choices=_OPERATORS,
                   default=OperatorKind.NORMALIZED_ADJACENCY.value)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_motifs)

    p = sub.add_parser("exact", help="dense oracle eigenvalues (size-capped)")
    _add_graph_args(p)
    p.add_argument("--operator", choices=_OPERATORS,
                   default=OperatorKind.NORMALIZED_ADJACENCY.value)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--range", type=_range_arg, default=None, metavar="LO,HI")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("generate", help="write a generated graph as an edge list")
    p.add_argument("--model", choices=["er", "pa", "ba", "ws"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("hist", help="rebin an existing moments file")
    p.add_argument("--moments-file", required=True)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--no-damping", action="store_true")
    p.add_argument("--no-spikes", action="store_true")
    p.add_argument("--negativity-tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--out-format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=_cmd_hist)

    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_range_values(argv))
    try:
        return args.fn(args)
    except NetdosError as exc:
        print(f"netdos: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"netdos: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
