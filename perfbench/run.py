"""The netdos benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark writes the workload's input
graph (made from --seed), then runs the workload as a closed loop: one
client runs each of the workload's ``python -m netdos.cli`` commands as a
fresh process, one after another, and a round is one pass over them. Rounds
repeat until S seconds have passed; before each, the input is written again
for 0.2 s (at least once), and ``setup_s`` is the median of all those
writes and five before the first round. Every output is checked against a
computation made apart from netdos (see checks.py); an operation is one
command plus its check, and a non-zero exit, a timeout or a failed check
counts as a failed operation. After the rounds, the checks are fed corrupted
copies of real outputs and must reject every one.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics of BENCHMARK.json (medians over rounds). With --trace 1
the commands run once through the CLI, then rounds alternate an untraced and
a traced in-process pass (traced.py); the JSON carries the per-layer metrics
(medians over traced passes) and stderr reports the tracing overhead and
whether the traced result bytes equal the CLI's.

Every command is limited to the CPUs this process may use: ``--threads``
and the BLAS thread variables are set to that count.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_run")
THREADS = len(os.sched_getaffinity(0))
TIMEOUT_S = 40
SETUP_MIN_REPEATS, SETUP_ROUND_SECONDS = 5, 0.2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, for this process's checks too
    os.environ[_var] = str(THREADS)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("NETDOS_")}
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv, cwd, log_path):
    """Run one process to exit: (wall s, peak RSS MB, exit code, timed out)."""
    fired = threading.Event()
    with open(log_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)

        def kill():
            fired.set()
            proc.kill()
        timer = threading.Timer(TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: end the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode, fired.is_set()


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


class Ledger:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def operation(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = False
            log(f"FAILED {what}: " + "; ".join(problems[:3]))


def checked(ledger, workload, ref, cmd, outputs, cwd, exit_problem):
    """Load and check one command's output, recording the operation."""
    problems = [exit_problem] if exit_problem else []
    if not problems:
        try:
            outputs[cmd.label] = load_json(os.path.join(cwd, cmd.out))
        except (OSError, ValueError) as exc:
            problems = [f"unreadable output: {exc}"]
        else:
            problems = workload.check(cmd.label, outputs, ref)
    ledger.operation(cmd.label, problems)


def cli_round(commands, cwd, ledger, workload, ref):
    """One pass over the workload's CLI commands: per-command (wall, rss)."""
    outputs, timings = {}, []
    for cmd in commands:
        wall, rss, rc, timed_out = run_child(
            [sys.executable, "-m", "netdos.cli", *cmd.argv], cwd,
            os.path.join(cwd, cmd.label + ".log"))
        timings.append((wall, rss))
        exit_problem = (f"timed out after {TIMEOUT_S} s" if timed_out else
                        f"exit code {rc}" if rc else None)
        checked(ledger, workload, ref, cmd, outputs, cwd, exit_problem)
    return timings, outputs


def self_test(workload, ref, outputs):
    """Every corrupted copy of a real output must fail its check."""
    ok = True
    for label in list(outputs):
        for desc, bad in workload.corrupted(label, outputs, ref.seed):
            problems = workload.check(label, bad, ref)
            ok &= bool(problems)
            log(f"self-test {desc}: " +
                (f"rejected ({problems[0]})" if problems else "NOT REJECTED"))
    return ok


def median(values):
    return statistics.median(values) if values else 0.0


def rounds_until(seconds, one_round):
    """Run one_round() until `seconds` have passed; a round is not started
    when it would likely end more than half a round past the deadline."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now + 0.5 * (now - start) >= deadline:
            return


def set_up(workload, seed, graph, times, seconds):
    """Generate and write the input graph, once and then again until
    `seconds` have passed; each time is appended to `times`."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        n, edges = workload.make_input(seed, graph)
        times.append(time.perf_counter() - t0)
        if t0 - start + times[-1] >= seconds:
            return n, edges


def untraced_run(args, commands, run_dir, workload, ref, ledger, graph, setup):
    cwd = os.path.join(run_dir, "cli")
    rounds, outputs = [], {}

    def one_round():
        # Set-up is repeated before every round, so that its median sees the
        # same stretch of the host's load as the commands' medians.
        set_up(workload, args.seed, graph, setup, SETUP_ROUND_SECONDS)
        timings, round_outputs = cli_round(commands, cwd, ledger, workload, ref)
        rounds.append(timings)
        outputs.update(round_outputs)
    rounds_until(args.seconds, one_round)
    for i, cmd in enumerate(commands):
        walls = [r[i][0] for r in rounds]
        log(f"{cmd.label}: median {median(walls):.3f} s over {len(walls)} rounds: "
            + " ".join(f"{w:.3f}" for w in walls))
    if not self_test(workload, ref, outputs):
        ledger.correct = False
    return {
        "wall_s": median([sum(w for w, _ in r) for r in rounds]),
        "first_cmd_s": median([r[0][0] for r in rounds]),
        "last_cmd_s": median([r[-1][0] for r in rounds]),
        "peak_rss_mb": median([max(m for _, m in r) for r in rounds]),
    }


LAYER_SPANS = {
    "fileio.parse_s": "fileio.parse", "fileio.emit_s": "fileio.emit",
    "fileio.load_s": "fileio.load", "operators.build_s": "operators.build",
    "operators.range_s": "operators.range", "motifs.detect_s": "motifs.detect",
    "motifs.filter_s": "motifs.filter", "kpm.moments_s": "kpm.moments",
    "lanczos.gql_s": "lanczos.gql",
    "nested_dissection.partition_s": "nested_dissection.partition",
    "nested_dissection.moments_s": "nested_dissection.moments",
    "density.hist_s": "density.hist",
}
COUNTS = ("motifs.instances", "motifs.deflated_dim",
          "nested_dissection.tree_nodes", "nested_dissection.separator_nodes",
          "kernels.spmv_calls", "kernels.spmv_columns")


def layer_metrics(trace):
    """Per-layer metrics of one traced pass."""
    busy, kernel_in = {}, {}
    for span in trace["spans"]:
        busy[span["name"]] = busy.get(span["name"], 0.0) + span["end"] - span["start"]
        kernel_in[span["name"]] = kernel_in.get(span["name"], 0.0) + span["kernel_s"]
    out = {metric: busy.get(name, 0.0) for metric, name in LAYER_SPANS.items()}
    k, nbytes, counts = trace["kernel"], trace["file_bytes"], trace["counts"]
    out.update({
        "cli.import_s": trace["import_s"],
        "fileio.parse_mb_per_s": (nbytes["fileio.parse"] / 1e6 / out["fileio.parse_s"]
                                  if out["fileio.parse_s"] else 0.0),
        "fileio.emit_mb": nbytes["fileio.emit"] / 1e6,
        "kernels.spmv_s": k["seconds"],
        "kernels.spmv_calls": k["calls"],
        "kernels.spmv_columns": k["columns"],
        "kernels.spmv_gb_per_s": k["bytes"] / 1e9 / k["seconds"] if k["seconds"] else 0.0,
        "kpm.overhead_s": out["kpm.moments_s"] - kernel_in.get("kpm.moments", 0.0),
        "lanczos.overhead_s": out["lanczos.gql_s"] - kernel_in.get("lanczos.gql", 0.0),
    })
    for name in COUNTS:
        out.setdefault(name, counts.get(name, 0))
    return out


def in_process_pass(commands, run_dir, name, trace):
    """One traced.py process over all commands: (wall s, spans dict or None)."""
    cwd = os.path.join(run_dir, name)
    plan = os.path.join(cwd, "plan.json")
    spans = os.path.join(cwd, "spans.json")
    if os.path.exists(spans):
        os.remove(spans)
    with open(plan, "w") as fh:
        json.dump({"commands": [list(c.argv) for c in commands],
                   "trace": trace, "spans": spans}, fh)
    wall, _, _, timed_out = run_child(
        [sys.executable, os.path.join(HERE, "traced.py"), plan], cwd,
        os.path.join(cwd, "run.log"))
    if timed_out or not os.path.exists(spans):
        return wall, None
    return wall, load_json(spans)


def same_bytes(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def traced_run(args, commands, run_dir, workload, ref, ledger):
    cli_dir = os.path.join(run_dir, "cli")
    timings, outputs = cli_round(commands, cli_dir, ledger, workload, ref)
    cli_wall = sum(w for w, _ in timings)
    if not self_test(workload, ref, outputs):
        ledger.correct = False
    plain_walls, traced_walls, per_pass = [], [], []
    mismatches = 0
    notes = set()

    def one_round():
        nonlocal mismatches
        wall, _ = in_process_pass(commands, run_dir, "plain", False)
        plain_walls.append(wall)
        wall, trace = in_process_pass(commands, run_dir, "traced", True)
        traced_walls.append(wall)
        cwd = os.path.join(run_dir, "traced")
        rcs = trace["returncodes"] if trace else [None] * len(commands)
        outputs = {}
        for cmd, rc in zip(commands, rcs):
            checked(ledger, workload, ref, cmd, outputs, cwd,
                    None if rc == 0 else f"traced command ended with {rc}")
            if not same_bytes(os.path.join(cwd, cmd.out),
                              os.path.join(cli_dir, cmd.out)):
                mismatches += 1
                log(f"traced {cmd.label} result bytes differ from the CLI's")
        if trace:
            per_pass.append(layer_metrics(trace))
            notes.update(trace["notes"])
    rounds_until(args.seconds, one_round)
    for note in sorted(notes):
        log("trace note: " + note)
    log(f"untraced CLI round {cli_wall:.3f} s; in-process untraced median "
        f"{median(plain_walls):.3f} s, traced median {median(traced_walls):.3f} s "
        f"over {len(traced_walls)} passes; tracing overhead "
        f"{median(traced_walls) - median(plain_walls):+.3f} s")
    log(f"traced result bytes equal the CLI's: "
        f"{'yes' if not mismatches else f'no ({mismatches} mismatches)'}")
    if not per_pass:
        return {}
    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name in COUNTS:
            if len(set(values)) != 1:
                ledger.correct = False
                log(f"FAILED {name} differs between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = median(values)
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "netdos", "cli.py")):
        log(f"perfbench: {SRC}/netdos/cli.py not found; run from a checkout "
            "of the netdos repository")
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        log(f"perfbench: unknown workload {args.workload!r} "
            f"(have {', '.join(WORKLOADS)})")
        return 2
    workload = WORKLOADS[args.workload]

    run_dir = os.path.join(WORKDIR, workload.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    for sub in ("cli", "plain", "traced"):
        os.makedirs(os.path.join(run_dir, sub))
    graph = os.path.join(run_dir, workload.graph)
    setup = []
    while len(setup) < SETUP_MIN_REPEATS:
        n, edges = set_up(workload, args.seed, graph, setup, 0.0)
    log(f"{workload.name} seed {args.seed}: n = {n}, {edges} edges, "
        f"{os.path.getsize(graph)} bytes; {THREADS} threads")

    ref = workload.reference(graph, args.seed)
    commands = workload.commands(args.seed, THREADS, os.path.join("..", workload.graph))
    # Compile netdos to bytecode and page in numpy/scipy before timing.
    run_child([sys.executable, "-c", "import netdos.cli"], run_dir,
              os.path.join(run_dir, "warmup.log"))

    ledger = Ledger()
    if args.trace:
        values = traced_run(args, commands, run_dir, workload, ref, ledger)
        wanted = spec["per_layer"]
    else:
        values = untraced_run(args, commands, run_dir, workload, ref, ledger,
                              graph, setup)
        values["setup_s"] = median(setup)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
