"""Start-up cost: importing netdos, and running the commands that need no
scipy (``generate``, ``motifs``, ``hist``), must load no scipy module. scipy
costs ~0.3 s of import per command, more than either command's work on a
benchmark-sized graph."""

import json
import os
import subprocess
import sys

import netdos
from netdos.cli import main

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
print(json.dumps({"package": after_package, "cli": after_cli,
                  "commands": scipy_modules(), "codes": codes}))
"""


def test_numpy_only_commands_load_no_scipy(tmp_path):
    graph = str(tmp_path / "g.txt")
    moments = str(tmp_path / "dos.json")
    assert main(["generate", "--model", "pa", "--n", "60", "--m", "1",
                 "--seed", "3", "--out", graph]) == 0
    assert main(["dos", "--input", graph, "--moments", "20", "--probes", "4",
                 "--out", moments]) == 0
    commands = [
        ["generate", "--model", "er", "--n", "30", "--p", "0.2",
         "--out", str(tmp_path / "er.txt")],
        ["motifs", "--input", graph, "--out", str(tmp_path / "motifs.json")],
        ["hist", "--moments-file", moments, "--bins", "10",
         "--out", str(tmp_path / "hist.json")],
    ]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["codes"] == [0, 0, 0]
    assert got["package"] == []
    assert got["cli"] == []
    assert got["commands"] == []
    assert json.loads((tmp_path / "motifs.json").read_text())
    assert len(json.loads((tmp_path / "hist.json").read_text())["masses"]) == 10
