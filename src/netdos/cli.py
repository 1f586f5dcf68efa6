"""Command-line interface.

Subcommands: dos, pdos, gql, nd-pdos, motifs, exact, generate, hist.
All randomness hangs off --seed, which the commands that draw probes (dos,
pdos, gql) and generate declare; outputs carry no timestamps, and identical
invocations produce byte-identical files at any BLAS thread count.

Every command that scales or bins by a spectral range (dos, pdos, gql,
nd-pdos, and exact with --bins) takes one rule: --range LO,HI if given, else
`operators.estimate_spectral_range`, and writes it as lambda_min/lambda_max.
The estimate is elementwise work from a fixed start, so it depends on
neither --seed nor the thread count. dos, pdos, gql and nd-pdos run on the
operator with that range folded in (`pipeline.scaled_operator_for`); gql
--node runs on the unscaled operator, since one node's rule needs no range.
Without --range the bins of exact, dos and gql therefore coincide. A
--range passes the one validity check, `ScaleMap`'s, and with --bins the
one too-narrow check, the bins' own, before any input is read.

Exit codes: 0 success, 1 runtime error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio, pipeline, testkit
from .density import BINS, bin_edges, histogram_from_moments
from .errors import NetdosError
from .kpm import MODE_PER_NODE
from .lanczos import gql_pdos
from .motifs import MotifKind, detect_motifs
from .nested_dissection import LEAF_SIZE, load_partition, save_partition
from .operators import (OPERATOR, OperatorKind, ScaleMap, build_operator,
                        estimate_spectral_range)
from .probes import ProbeKind

_OPERATORS = [k.value for k in OperatorKind]
_PROBE_KINDS = [k.value for k in ProbeKind]
_MOTIF_KINDS = [k.value for k in MotifKind]


def _add_graph_command(sub, name, fn, help, csv=False):
    """A subcommand that reads a graph from --input and writes one record."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--input", required=True, help="graph file")
    p.add_argument("--allow-self-loops", action="store_true")
    p.add_argument("--operator", choices=_OPERATORS, default=OPERATOR.value)
    _add_output_args(p, csv)
    p.set_defaults(fn=fn)
    return p


def _add_estimator_args(p, moments, min_moments=0):
    p.add_argument("--moments", type=_int_at_least(min_moments), default=moments)
    p.add_argument("--range", type=_range_arg, default=None, metavar="LO,HI",
                   help="spectral range override (default: estimated)")
    p.add_argument("--threads", type=_int_at_least(1), default=None,
                   help="accepted for compatibility; has no effect, because "
                        "the sparse kernel is serial")


def _add_probe_args(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probes", type=_int_at_least(1), default=pipeline.PROBES)
    p.add_argument("--probe-kind", choices=_PROBE_KINDS,
                   default=pipeline.PROBE_KIND.value)


def _add_histogram_args(p, kpm=True):
    """--bins; with `kpm`, the options of a Chebyshev moment series too."""
    p.add_argument("--bins", type=_int_at_least(1), default=BINS)
    if kpm:
        p.add_argument("--no-damping", action="store_true")
        p.add_argument("--no-spikes", action="store_true",
                       help="do not re-insert deflated spike mass")
        p.add_argument("--negativity-tol", type=_finite_at_least(0.0),
                       default=None)


def _add_output_args(p, csv=False):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if csv:
        p.add_argument("--out-format", choices=["json", "csv"], default="json")


def _int_at_least(least):
    """An argparse type: an integer no smaller than `least`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return parse


def _finite_at_least(least):
    """An argparse type: a finite number no smaller than `least`."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects a number, got {text!r}")
        if not least <= value < np.inf:
            raise argparse.ArgumentTypeError(
                f"must be finite and >= {least:g}, got {value:g}")
        return value
    return parse


def _range_arg(text):
    try:
        lo, hi = (float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects LO,HI, got {text!r}")
    try:
        ScaleMap.onto_unit((lo, hi))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expects finite LO < HI, with a finite midpoint (LO + HI) / 2 and "
            f"a finite positive half-span (HI - LO) / 2, got {text!r}")
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
    return fileio.parse_graph_file(args.input,
                                   allow_self_loops=args.allow_self_loops)


def _parse_filter_kinds(text):
    """An argparse type: a comma list of motif kinds, or all/none."""
    if text in ("", "none"):
        return ()
    if text == "all":
        return tuple(_MOTIF_KINDS)
    kinds = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in _MOTIF_KINDS:
            raise argparse.ArgumentTypeError(
                f"unknown motif kind {tok!r} (valid: {', '.join(_MOTIF_KINDS)})")
        kinds.append(tok)
    return tuple(kinds)


def _meta(args, g, method=None, spectral_range=None, **fields):
    """The keys records share, in the order they hold them: method,
    operator, n, then `fields`, then the spectral range the run used."""
    meta = {} if method is None else {"method": method}
    meta.update(operator=args.operator, n=g.n, **fields)
    if spectral_range is not None:
        meta["lambda_min"], meta["lambda_max"] = spectral_range
    return meta


def _write(args, payload, hist=None):
    """Write `payload` as JSON to --out, or to stdout without it; write
    `hist` as CSV to --out instead if --out-format csv asks for it."""
    if hist is not None and args.out_format == "csv":
        fileio.write_histogram_csv(hist, args.out)
        return 0
    text = fileio.write_json(payload, args.out)
    if text is not None:
        print(text)
    return 0


def _cmd_dos(args):
    g, _ = _load_graph(args)
    result = pipeline.kpm_dos(
        g, operator=args.operator, m_max=args.moments, nz=args.probes,
        probe_kind=args.probe_kind, seed=args.seed, bins=args.bins,
        damping=not args.no_damping,
        filter_kinds=args.filter_motifs, range_=args.range,
        reinsert_spikes=not args.no_spikes,
        negativity_tol=args.negativity_tol)
    meta = _meta(args, g, "kpm", result.scaled_op.spectral_range,
                 bins=args.bins, damping=not args.no_damping)
    # one record: the moments' keys, then the histogram's, typed "dos"
    payload = {**fileio.moments_payload(result.moments, meta),
               **fileio.histogram_payload(result.histogram), "record": "dos"}
    return _write(args, payload, result.histogram)


def _cmd_pdos(args):
    g, node_ids = _load_graph(args)
    moments, sop = pipeline.kpm_pdos(
        g, operator=args.operator, m_max=args.moments, nz=args.probes,
        probe_kind=args.probe_kind, seed=args.seed, range_=args.range)
    meta = _meta(args, g, "kpm", sop.spectral_range,
                 node_ids=node_ids.tolist())
    return _write(args, fileio.moments_payload(moments, meta))


def _cmd_gql(args):
    g, node_ids = _load_graph(args)
    if args.node is not None:
        index = np.flatnonzero(node_ids == args.node)
        if index.size == 0:
            raise NetdosError(f"node {args.node} is not in {args.input}")
        # one node's Gauss rule needs no range: the operator stays unscaled
        quad = gql_pdos(build_operator(g, args.operator), int(index[0]), args.moments)
        meta = _meta(args, g, "gql", node=args.node, steps=args.moments)
        return _write(args, fileio.quadrature_payload(quad, meta))
    hist, sop = pipeline.gql_dos_pipeline(
        g, operator=args.operator, steps=args.moments, nz=args.probes,
        probe_kind=args.probe_kind, seed=args.seed, bins=args.bins,
        range_=args.range)
    meta = _meta(args, g, "gql", sop.spectral_range, steps=args.moments,
                 nz=args.probes, probe_kind=args.probe_kind, seed=args.seed,
                 bins=args.bins)
    return _write(args, fileio.histogram_payload(hist, meta), hist)


def _cmd_nd_pdos(args):
    g, node_ids = _load_graph(args)
    tree = load_partition(args.partition) if args.partition else None
    moments, sop, tree = pipeline.nd_pdos_pipeline(
        g, operator=args.operator, m_max=args.moments,
        leaf_size=args.leaf_size, tree=tree, range_=args.range)
    if args.save_partition:
        save_partition(tree, args.save_partition)
    # the leaf size is a fact of the run only when the tree was built here
    built = {} if args.partition else {"leaf_size": args.leaf_size}
    meta = _meta(args, g, "nd", sop.spectral_range, **built,
                 node_ids=node_ids.tolist())
    return _write(args, fileio.moments_payload(moments, meta))


def _cmd_motifs(args):
    g, node_ids = _load_graph(args)
    instances = detect_motifs(g, build_operator(g, OperatorKind(args.operator)),
                              kinds={MotifKind(k) for k in args.kinds})
    return _write(args, fileio.motifs_payload(instances, _meta(args, g),
                                              node_ids=node_ids))


def _cmd_exact(args):
    g, _ = _load_graph(args)
    op = build_operator(g, OperatorKind(args.operator))
    spec = testkit.exact_spectrum(op)
    rng = None
    if args.bins:  # the range dos and gql take, so their bins line up
        rng = args.range or estimate_spectral_range(op)
    payload = {"record": "exact", **_meta(args, g, spectral_range=rng),
               "eigenvalues": spec.eigenvalues.tolist()}
    if args.bins:
        edges = bin_edges(*rng, args.bins)
        payload["edges"] = edges.tolist()
        payload["masses"] = testkit.oracle_histogram(spec.eigenvalues, edges).tolist()
    return _write(args, payload)


def _cmd_generate(args):
    params = {"n": args.n}
    model = args.model
    if model in ("er",):
        if args.p is None:
            raise NetdosError("--model er needs --p")
        params["p"] = args.p
    elif model in ("pa", "ba"):
        if args.m is None:
            raise NetdosError(f"--model {model} needs --m")
        params["m"] = args.m
    else:
        if args.k is None or args.p is None:
            raise NetdosError("--model ws needs --k and --p")
        params.update(k=args.k, p=args.p)
    g = testkit.generate_graph(model, seed=args.seed, **params)
    fileio.write_graph_edgelist(g, args.out)
    return 0


def _cmd_hist(args):
    moments, payload = fileio.load_moments(args.moments_file)
    if args.out_format == "csv" and moments.mode == MODE_PER_NODE:
        # refused before binning, as `write_histogram_csv` would refuse it
        raise NetdosError("CSV output supports global histograms only")
    hist = histogram_from_moments(
        moments, bins=args.bins, damping=not args.no_damping,
        reinsert_spikes=not args.no_spikes,
        negativity_tol=args.negativity_tol)
    meta = {"method": payload.get("method", "rebin"),
            "operator": payload.get("operator"), "bins": args.bins,
            "damping": not args.no_damping}
    if "node_ids" in payload:
        meta["node_ids"] = payload["node_ids"]
    return _write(args, fileio.histogram_payload(hist, meta), hist)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="netdos",
        description="Spectral density estimation for sparse graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _add_graph_command(sub, "dos", _cmd_dos, csv=True,
                           help="global density histogram via Chebyshev moments")
    _add_estimator_args(p, pipeline.KPM_MOMENTS)
    _add_probe_args(p)
    p.add_argument("--filter-motifs", type=_parse_filter_kinds, default="none",
                   help="comma list of motif kinds, or all/none")
    _add_histogram_args(p)

    p = _add_graph_command(sub, "pdos", _cmd_pdos,
                           help="per-node moments via stochastic diagonals")
    _add_estimator_args(p, pipeline.KPM_MOMENTS)
    _add_probe_args(p)

    p = _add_graph_command(sub, "gql", _cmd_gql, csv=True,
                           help="density via Lanczos quadrature")
    # gql's --moments is its Lanczos step count
    _add_estimator_args(p, pipeline.GQL_STEPS, min_moments=1)
    _add_probe_args(p)
    _add_histogram_args(p, kpm=False)
    p.add_argument("--node", type=int, default=None,
                   help="emit the per-node quadrature for this node id (as "
                        "listed in node_ids by the other outputs) instead")

    p = _add_graph_command(sub, "nd-pdos", _cmd_nd_pdos,
                           help="exact per-node moments via nested dissection")
    _add_estimator_args(p, pipeline.ND_MOMENTS)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--leaf-size", type=_int_at_least(1), default=LEAF_SIZE)
    p.add_argument("--partition", default=None, help="load a partition file")
    p.add_argument("--save-partition", default=None)

    p = _add_graph_command(sub, "motifs", _cmd_motifs,
                           help="detect spike-producing motifs")
    p.add_argument("--kinds", type=_parse_filter_kinds, default="all",
                   help="comma list of motif kinds, or all/none")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility; has no effect, because "
                        "detection is exact and uses no randomness")

    p = _add_graph_command(sub, "exact", _cmd_exact,
                           help="dense oracle eigenvalues (size-capped)")
    p.add_argument("--bins", type=_int_at_least(1), default=None)
    p.add_argument("--range", type=_range_arg, default=None, metavar="LO,HI")

    p = sub.add_parser("generate", help="write a generated graph as an edge list")
    p.add_argument("--model", choices=list(testkit._MODEL_ALIASES),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("hist", help="rebin an existing moments file")
    p.add_argument("--moments-file", required=True)
    _add_histogram_args(p)
    _add_output_args(p, csv=True)
    p.set_defaults(fn=_cmd_hist)

    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser()
    args = ap.parse_args(_join_range_values(argv))
    # a CSV file holds one histogram: refuse what cannot be one before any work
    if getattr(args, "out_format", None) == "csv":
        if args.out is None:
            ap.error("--out-format csv requires --out")
        if getattr(args, "node", None) is not None:
            ap.error("--out-format csv writes histograms, not the quadrature "
                     "record of gql --node")
    # bins over a user range must be wider than zero, before any input is read
    if (getattr(args, "range", None) is not None
            and getattr(args, "bins", None) is not None):
        try:
            bin_edges(*args.range, args.bins)
        except ValueError as exc:
            ap.error("--range {!r},{!r}: {}".format(*args.range, exc))
    try:
        return args.fn(args)
    except (NetdosError, ValueError, OSError, MemoryError) as exc:
        print(f"netdos: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
