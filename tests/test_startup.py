"""Start-up cost: importing netdos, and running the commands that need no
scipy (``generate``, ``motifs``, ``hist``), must load no scipy module; the
commands that multiply (``dos``, ``pdos``, ``gql``, ``nd-pdos``) load only
the compiled ``scipy.sparse._sparsetools`` extension, never the
``scipy.sparse`` package. No command but ``exact`` imports a scipy package.
The package import costs ~0.25 s per command, more than the commands' work
on a benchmark-sized graph. So the only imports inside function bodies are
of scipy: netdos's own modules import each other at the top, without
cycles."""

import ast
import glob
import importlib.util
import json
import os
import subprocess
import sys

import netdos
from netdos import (OperatorKind, ProbeKind, build_operator, build_partition_tree,
                    detect_motifs, make_probes, nd_pdos_moments, pipeline,
                    preferential_attachment)
from netdos.cli import main
from netdos.pipeline import scaled_operator_for

from conftest import grid_graph

SRC = os.path.dirname(os.path.dirname(os.path.abspath(netdos.__file__)))

CHILD = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import netdos
after_package = scipy_modules()
import netdos.cli
after_cli = scipy_modules()
codes = [netdos.cli.main(argv) for argv in json.loads(sys.argv[1])]
after_commands = scipy_modules()
masked = "numpy.ma" in sys.modules
from netdos import _kernels
route = None if _kernels._matvec is None else _kernels._matvec.__name__
# a later import of the package must still bind its own extension module
import scipy.sparse
bound = hasattr(scipy.sparse, "_sparsetools")
print(json.dumps({"package": after_package, "cli": after_cli,
                  "commands": after_commands, "codes": codes,
                  "route": route, "bound": bound,
                  "masked": masked}))
"""


def _run_child(tmp_path, commands):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["codes"] == [0] * len(commands)
    assert got["package"] == []
    assert got["cli"] == []
    assert got["bound"]
    return got


def _tree(tmp_path):
    graph = str(tmp_path / "g.txt")
    assert main(["generate", "--model", "pa", "--n", "60", "--m", "1",
                 "--seed", "3", "--out", graph]) == 0
    return graph


def test_numpy_only_commands_load_no_scipy(tmp_path):
    graph = _tree(tmp_path)
    moments = str(tmp_path / "dos.json")
    assert main(["dos", "--input", graph, "--moments", "20", "--probes", "4",
                 "--out", moments]) == 0
    got = _run_child(tmp_path, [
        ["generate", "--model", "er", "--n", "30", "--p", "0.2",
         "--out", str(tmp_path / "er.txt")],
        ["motifs", "--input", graph, "--out", str(tmp_path / "motifs.json")],
        ["hist", "--moments-file", moments, "--bins", "10",
         "--out", str(tmp_path / "hist.json")],
    ])
    assert got["commands"] == []
    assert got["route"] is None  # nothing multiplied
    # np.unique and np.setdiff1d import numpy.ma, 13 ms of start-up
    assert not got["masked"]
    assert json.loads((tmp_path / "motifs.json").read_text())
    assert len(json.loads((tmp_path / "hist.json").read_text())["masses"]) == 10


def test_matvec_commands_load_only_the_sparsetools_extension(tmp_path):
    graph = _tree(tmp_path)
    common = ["--input", graph, "--operator", "laplacian", "--probes", "4"]
    partition = str(tmp_path / "tree.part")
    nd = ["nd-pdos", "--input", graph, "--moments", "10", "--leaf-size", "8"]
    got = _run_child(tmp_path, [
        ["dos", *common, "--moments", "20", "--filter-motifs", "all",
         "--out", str(tmp_path / "dos.json")],
        ["pdos", *common, "--moments", "10", "--out", str(tmp_path / "pdos.json")],
        ["gql", *common, "--moments", "8", "--out", str(tmp_path / "gql.json")],
        # one run builds the partition tree, one loads it
        [*nd, "--save-partition", partition, "--out", str(tmp_path / "nd.json")],
        [*nd, "--partition", partition, "--out", str(tmp_path / "nd-loaded.json")],
    ])
    # the extension is loaded from its file and kept out of sys.modules
    assert got["commands"] == []
    assert got["route"] == "_sparsetools_matvec"
    for name in ("dos", "pdos", "gql", "nd", "nd-loaded"):
        assert json.loads((tmp_path / f"{name}.json").read_text())
    assert len(open(partition).readlines()) > 1


LOOKUPS = """
import importlib.util, json, sys
import netdos.cli
spec = importlib.util.spec_from_file_location("traced", sys.argv[1])
traced = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traced)
print(json.dumps([[m, a] for m, a, *_ in traced.LAYERS + [traced.KERNEL]
                  if not callable(getattr(sys.modules.get(m), a, None))]))
"""


def test_benchmark_trace_lookups_resolve(tmp_path):
    """Every (module, attr) the traced benchmark wraps exists once
    netdos.cli is imported; a renamed one would only show as a note that
    the layer's span was not recorded."""
    traced = os.path.join(os.path.dirname(SRC), "perfbench", "traced.py")
    proc = subprocess.run([sys.executable, "-c", LOOKUPS, traced],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def _traced_module():
    spec = importlib.util.spec_from_file_location(
        "traced", os.path.join(os.path.dirname(SRC), "perfbench", "traced.py"))
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def test_benchmark_trace_counts_the_partition_tree():
    """The traced benchmark counts a built tree's nodes and root separator
    from the tree's attributes; a renamed one would only show as a note,
    with the count missing."""
    g = grid_graph(20, 20)
    tree = build_partition_tree(g, leaf_size=50)
    tracer = _traced_module().Tracer()
    tracer.observe("build_partition_tree", (g,), tree)
    cost = nd_pdos_moments(scaled_operator_for(g, "adjacency"), tree,
                           2).probe_meta["tree"]
    assert cost["nodes"] > 1 and cost["root_separator"] > 0
    assert tracer.counts == {
        "nested_dissection.tree_nodes": cost["nodes"],
        "nested_dissection.separator_nodes": cost["root_separator"]}
    assert tracer.notes == []


def test_benchmark_trace_counts_the_deflated_dimension():
    """The traced benchmark reads the deflated dimension from the adjustment
    at index 1 of what `pipeline.filter_probes` returns; a result of another
    shape would only show as a note, with the count missing."""
    g = preferential_attachment(300, 1, seed=2)
    args = (scaled_operator_for(g, "laplacian"),
            make_probes(g.n, 7, ProbeKind.HADAMARD, seed=1),
            detect_motifs(g, build_operator(g, "laplacian")))
    result = pipeline.filter_probes(*args)
    tracer = _traced_module().Tracer()
    tracer.observe("filter_probes", args, result)
    assert result[1].deflated_dim > 0
    assert tracer.counts == {"motifs.deflated_dim": result[1].deflated_dim}
    assert tracer.notes == []


def test_commands_build_through_pipeline(tmp_path, monkeypatch):
    """The traced benchmark times operator builds by wrapping
    `pipeline.build_operator`; a command that imported the function by name
    would build outside every `operators.build` span."""
    calls = []
    inner = pipeline.build_operator

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(pipeline, "build_operator", counting)
    gpath = tmp_path / "g.txt"
    gpath.write_text("0 1\n0 2\n0 3\n3 4\n")
    common = ["--input", str(gpath), "--operator", "laplacian"]
    runs = {"motifs": ["motifs", *common],
            "exact": ["exact", *common, "--bins", "4"],
            "gql --node": ["gql", *common, "--node", "0", "--moments", "3"]}
    for name, argv in runs.items():
        calls.clear()
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
        assert calls, f"{name} never called pipeline.build_operator"


def _local_netdos_imports(source):
    """(line, statement) of each import of a netdos module made inside a
    function body of `source`."""
    inner = {node for fn in ast.walk(ast.parse(source))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))}
    found = []
    for node in inner:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:  # a relative import is of a netdos module
            names = [node.module if node.level == 0 else "netdos"]
        if any(name.split(".")[0] == "netdos" for name in names):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_no_function_imports_a_netdos_module():
    """A function-local import of a netdos module hides an import cycle;
    the lazy scipy imports stay allowed."""
    assert _local_netdos_imports(
        "import scipy\ndef f():\n    from scipy.linalg import eigh\n"
        "    import numpy.linalg\n") == []
    assert [line for line, _ in _local_netdos_imports(
        "def f():\n    from .lanczos import x\n"
        "def g():\n    def h():\n        import netdos.kpm\n")] == [2, 5]
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "netdos", "*.py"))):
        with open(path) as fh:
            found += [f"{os.path.basename(path)}:{line}: {stmt}"
                      for line, stmt in _local_netdos_imports(fh.read())]
    assert found == []


def _accumulating_kernel_calls(source):
    """Lines of the calls ``_kernels.csr_matvec(..., accumulate=True)``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "_kernels.csr_matvec"
            and any(k.arg == "accumulate" and isinstance(k.value, ast.Constant)
                    and k.value.value is True for k in node.keywords)]


def test_one_chebyshev_step_accumulates_into_the_kernel():
    """The recurrence's negate-and-accumulate step is written once, in the
    driver that both KPM and nested dissection run."""
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "netdos", "*.py"))):
        with open(path) as fh:
            found += [f"{os.path.basename(path)}:{line}"
                      for line in _accumulating_kernel_calls(fh.read())]
    assert len(found) == 1 and found[0].startswith("kpm.py:"), found


def _names_used(source, names):
    """Lines that use one of `names`: ``np.<name>`` attributes and bare
    names alike."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Attribute) and ast.unparse(node) in names)
                  or (isinstance(node, ast.Name) and node.id in names)
                  or (isinstance(node, ast.alias) and node.name in names))


def test_bins_are_built_and_filled_in_density_only():
    """Every histogram's edges and point masses follow one rule, in
    `density`: no other module builds an edge array or places a mass."""
    names = {"np.histogram", "np.linspace", "SNAP_TOL"}
    assert _names_used("import numpy as np\nfrom x import SNAP_TOL\n"
                       "np.histogram(a)\nnp.linspace(0, 1)\n", names) == [2, 3, 4]
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "netdos", "*.py"))):
        with open(path) as fh:
            found += [f"{os.path.basename(path)}:{line}"
                      for line in _names_used(fh.read(), names)]
    assert found and {f.split(":")[0] for f in found} == {"density.py"}, found


def test_operator_kinds_are_named_in_operators_only():
    """The four operator formulas live in `operators`: no other module
    names an `OperatorKind` member, so none restates what one of them
    evaluates to (motif eigenvalues are read from the operator's entries)."""
    names = {f"OperatorKind.{k.name}" for k in OperatorKind}
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "netdos", "*.py"))):
        with open(path) as fh:
            found += [f"{os.path.basename(path)}:{line}"
                      for line in _names_used(fh.read(), names)]
    assert found and {f.split(":")[0] for f in found} == {"operators.py"}, found
