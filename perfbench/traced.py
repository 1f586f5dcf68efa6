"""Traced run: a workload's CLI commands in one fresh process, with a span
around every call into a netdos layer.

    PYTHONPATH=src python perfbench/traced.py PLAN.json

PLAN.json holds ``{"commands": [argv, ...], "trace": bool, "spans": path}``.
Every command goes through ``netdos.cli.main(argv)``, so the same public
functions run in the same order with the same arguments as under
``python -m netdos.cli``. With ``trace`` on, each layer function is wrapped
under the name by which the CLI and pipeline modules look it up, and
``netdos._kernels.csr_matvec`` (the one entry through which every estimator
reaches the kernel) is wrapped to count calls, columns and computed bytes.
A wrapper that finds no function to wrap adds a note instead of failing.
With ``trace`` off only the import and the commands are timed, which gives
the untraced time that the tracing overhead is measured against.

Spans (name, start, end, parent, trace id = command index) stay in memory
and are written to the ``spans`` file when the run ends. Nothing but the
standard library is imported before netdos, so the import span holds the
whole cost of importing the CLI.
"""

import json
import os
import sys
import time
import traceback

# Where the CLI looks up each layer, and the span recorded around it.
LAYERS = [
    ("netdos.fileio", "parse_graph_file", "fileio.parse"),
    ("netdos.fileio", "load_moments", "fileio.load"),
    ("netdos.fileio", "moments_payload", "fileio.emit"),
    ("netdos.fileio", "histogram_payload", "fileio.emit"),
    ("netdos.fileio", "write_json", "fileio.emit"),
    ("netdos.pipeline", "build_operator", "operators.build"),
    ("netdos.pipeline", "rescale_operator", "operators.build"),
    ("netdos.pipeline", "estimate_spectral_range", "operators.range"),
    ("netdos.pipeline", "detect_motifs", "motifs.detect"),
    ("netdos.cli", "detect_motifs", "motifs.detect"),
    ("netdos.pipeline", "filter_probes", "motifs.filter"),
    ("netdos.pipeline", "dos_moments", "kpm.moments"),
    ("netdos.pipeline", "pdos_moments", "kpm.moments"),
    ("netdos.pipeline", "_gql_dos", "lanczos.gql"),
    ("netdos.pipeline", "build_partition_tree", "nested_dissection.partition"),
    ("netdos.pipeline", "nd_pdos_moments", "nested_dissection.moments"),
    ("netdos.pipeline", "histogram_from_moments", "density.hist"),
    ("netdos.cli", "histogram_from_moments", "density.hist"),
]
KERNEL = ("netdos._kernels", "csr_matvec")


class Tracer:
    def __init__(self):
        self.spans = []
        self.open_ids = []
        self.trace_id = None
        self.kernel = {"calls": 0, "columns": 0, "seconds": 0.0, "bytes": 0}
        self.counts = {}
        self.file_bytes = {"fileio.parse": 0, "fileio.emit": 0}
        self.notes = []

    def begin(self, name):
        span = {"id": len(self.spans), "name": name, "trace": self.trace_id,
                "parent": self.open_ids[-1] if self.open_ids else None,
                "kernel_s": self.kernel["seconds"], "start": time.perf_counter()}
        self.spans.append(span)
        self.open_ids.append(span["id"])
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        span["kernel_s"] = self.kernel["seconds"] - span["kernel_s"]
        self.open_ids.pop()

    def is_open(self, name):
        return any(self.spans[i]["name"] == name for i in self.open_ids)

    def wrap(self, name, attr, fn):
        def traced(*args, **kwargs):
            if self.is_open(name):  # a layer calling itself is one span
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            try:
                self.observe(attr, args, result)
            except Exception as exc:  # a count must not fail the command
                self.notes.append(f"no count from {attr}: {exc!r}")
            return result
        return traced

    def observe(self, attr, args, result):
        """Counts taken from a layer call's arguments and result."""
        if attr == "parse_graph_file":
            self.file_bytes["fileio.parse"] += os.path.getsize(args[0])
        elif attr == "write_json" and len(args) > 1 and args[1] is not None:
            self.file_bytes["fileio.emit"] += os.path.getsize(args[1])
        elif attr == "detect_motifs":
            self.counts.setdefault("motifs.instances", len(result))
        elif attr == "filter_probes":
            self.counts.setdefault("motifs.deflated_dim", result[1].deflated_dim)
        elif attr == "build_partition_tree":
            self.counts.setdefault("nested_dissection.tree_nodes", len(result.nodes))
            self.counts.setdefault("nested_dissection.separator_nodes",
                                   int(len(result.nodes[0].sep)))

    def wrap_kernel(self, fn):
        k = self.kernel

        def csr_matvec(indptr, indices, data, x, *args, **kwargs):
            t0 = time.perf_counter()
            y = fn(indptr, indices, data, x, *args, **kwargs)
            k["seconds"] += time.perf_counter() - t0
            cols = 1 if x.ndim == 1 else x.shape[1]
            k["calls"] += 1
            k["columns"] += cols
            # computed, not measured: values and column indices once, x and y once
            k["bytes"] += (int(indptr[-1]) * 16
                           + (indptr.shape[0] - 1 + x.shape[0]) * cols * 8)
            return y
        return csr_matvec


def install(tracer):
    for module_name, attr, span in LAYERS:
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.notes.append(f"{module_name}.{attr} not found; "
                                f"span {span} not recorded there")
            continue
        setattr(module, attr, tracer.wrap(span, attr, fn))
    module = sys.modules.get(KERNEL[0])
    fn = getattr(module, KERNEL[1], None)
    if fn is None:
        tracer.notes.append(f"{'.'.join(KERNEL)} not found; "
                            "kernel calls, columns and bytes are not measured")
    else:
        setattr(module, KERNEL[1], tracer.wrap_kernel(fn))


def main(argv):
    with open(argv[1]) as fh:
        plan = json.load(fh)
    tracer = Tracer()
    t0 = time.perf_counter()
    import netdos.cli as cli
    import_s = time.perf_counter() - t0

    if plan["trace"]:
        install(tracer)
    returncodes = []
    for i, args in enumerate(plan["commands"]):
        tracer.trace_id = i
        span = tracer.begin("cli." + args[0])
        try:
            rc = cli.main(list(args))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what `python -m netdos.cli` would die of
            traceback.print_exc()
            rc = 1
        finally:
            tracer.end(span)
        returncodes.append(rc)

    with open(plan["spans"], "w") as fh:
        json.dump({"import_s": import_s, "returncodes": returncodes,
                   "spans": tracer.spans, "kernel": tracer.kernel,
                   "counts": tracer.counts, "file_bytes": tracer.file_bytes,
                   "notes": tracer.notes}, fh, indent=1)
    return 0 if all(rc == 0 for rc in returncodes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
