"""The benchmark's workloads: for each, its input, the CLI commands run on
it, the reference its checks compare against, one check per command and the
corruptions the self-test feeds those checks.

Everything about a workload sits in its entry of ``WORKLOADS``: ``params``
holds the input's make-up and every command argument, and both the command
lines and the checks read them from there.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import inputs


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv after ``python -m netdos.cli`` and its output."""

    label: str
    argv: tuple
    out: str


def laplacian_tree_commands(p, seed, threads, graph):
    common = ("--input", graph, "--operator", "laplacian", "--seed", str(seed))
    probes = ("--probes", str(p["probes"]), "--probe-kind", "hadamard",
              "--bins", str(p["bins"]), "--threads", str(threads))
    return [
        Command("motifs", ("motifs", *common, "--out", "motifs.json"), "motifs.json"),
        Command("dos", ("dos", *common, "--filter-motifs", "all",
                        "--moments", str(p["moments"]), *probes,
                        "--out", "dos.json"), "dos.json"),
        Command("gql", ("gql", *common, "--moments", str(p["steps"]), *probes,
                        "--out", "gql.json"), "gql.json")]


def nd_grid_commands(p, seed, threads, graph):
    lo, hi = p["range"]
    return [
        # `--range=LO,HI`: argparse reads a separate "-4,4" as an option.
        Command("nd-pdos", (
            "nd-pdos", "--input", graph, "--operator", "adjacency",
            f"--range={lo:g},{hi:g}", "--moments", str(p["moments"]),
            "--seed", str(seed), "--threads", str(threads), "--out", "nd.json"),
            "nd.json"),
        # `hist` keeps its default negativity check: exact moments give a
        # Jackson-damped series that is never negative.
        Command("hist", ("hist", "--moments-file", "nd.json",
                         "--bins", str(p["bins"]), "--out", "hist.json"),
                "hist.json")]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str  # input file name inside the run directory
    params: dict
    make_commands: Callable
    build_reference: Callable
    checks: dict  # command label -> check(problems, outputs, reference)
    corruptions: dict  # command label -> [(description, corrupt(payload, rng))]

    def make_input(self, seed, path):
        """Generate and write the input graph; returns (n, edges)."""
        return inputs.make_input(self.name, self.params, seed, path)

    def commands(self, seed, threads, graph_path):
        """The workload's CLI commands, in order, reading `graph_path`."""
        return self.make_commands(self.params, seed, threads, graph_path)

    def reference(self, graph_path, seed):
        ref = checks.Reference(graph_path, seed, self.params)
        self.build_reference(ref)
        return ref

    def check(self, label, outputs, ref):
        """Problems with outputs[label] ({command label: parsed JSON})."""
        p = checks.Problems()
        try:
            self.checks[label](p, outputs, ref)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            p.append(f"malformed output: {type(exc).__name__}: {exc}")
        return list(p)

    def corrupted(self, label, outputs, seed):
        """Damaged copies of outputs[label]: [(description, outputs copy)]."""
        rng = np.random.default_rng([seed, 11])
        made = []
        for desc, damage in self.corruptions.get(label, ()):
            pay = copy.deepcopy(outputs[label])
            where = damage(pay, rng)
            made.append((f"{label}: {desc} ({where})", {**outputs, label: pay}))
        return made


WORKLOADS = {w.name: w for w in [
    Workload(
        "laplacian-tree",
        "motifs, motif-filtered dos and gql on the Laplacian of a "
        "preferential-attachment tree: range estimate, deflation, Lanczos",
        "tree.txt",
        {"model": "pa-tree", "n": 8000, "salt": 3,
         "moments": 500, "probes": 20, "bins": 50, "steps": 50},
        laplacian_tree_commands, checks.laplacian_tree_reference,
        {"motifs": checks.laplacian_tree_motifs, "dos": checks.laplacian_tree_dos,
         "gql": checks.laplacian_tree_gql},
        {"motifs": [checks.WRONG_EIGENVALUE],
         "dos": [checks.NUDGE_MOMENT, checks.DROP_SPIKE, checks.NUDGE_MASS],
         "gql": [checks.DROP_MASS, checks.NUDGE_MASS]}),
    Workload(
        "nd-grid",
        "nd-pdos then hist on a planar grid: nested dissection, the writing "
        "and re-reading of per-node moments; exact answer known",
        "grid.txt",
        {"model": "grid", "side": 64, "salt": 4,
         "moments": 50, "bins": 50, "range": (-4.0, 4.0)},
        nd_grid_commands, checks.nd_grid_reference,
        {"nd-pdos": checks.nd_grid_nd_pdos, "hist": checks.nd_grid_hist},
        {"nd-pdos": [checks.PERTURB_ROW], "hist": [checks.NUDGE_MASS]}),
]}
