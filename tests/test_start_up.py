"""Start-up pays only for the command it runs: `check` imports the law
suites (`opencospan.laws`, and through it `fractions`) on its first call,
and no other command loads them.

A child process imports `opencospan.cli`, runs `main` on each command in
turn, and reports each run's exit code, the sha256 of its stdout and which
watched modules are loaded after it.  The guard reads what is imported,
which is what a fresh process pays to compile and run, and no clock.  Its
self-test loads a watched module in the child before the commands run and
requires the guard to report it."""

import json
import os
import pathlib
import subprocess
import sys
from random import Random

import opencospan
from test_check_once import LAWS_ALL
from test_ledger import chain, permuted

WATCHED = ("opencospan.laws", "fractions")

CHILD = """
import contextlib, hashlib, io, json, sys
import opencospan.cli
watched, preload, runs = json.loads(sys.argv[1])
for name in preload:
    __import__(name)
report = []
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = opencospan.cli.main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    report.append([code, digest, [name for name in watched if name in sys.modules]])
print(json.dumps(report))
"""


def child_runs(runs, preload=()):
    """(exit code, stdout sha256, watched modules loaded) after each run,
    in one fresh process."""
    package_root = str(pathlib.Path(opencospan.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([WATCHED, list(preload), runs])],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return [tuple(run) for run in json.loads(result.stdout)]


def ledger_commands(root):
    """compose, tensor, convert, graybox and simulate on a seeded chain of
    two rated nets drawn as the ledger draws them, and the files for
    `check --laws iso`: the first net and an isomorphic copy."""
    rng = Random("start-up")
    docs = chain(rng, "petri_rates", 2, "decorated")
    docs.append(permuted(rng, docs[0]))
    paths = []
    for i, doc in enumerate(docs):
        paths.append(str(root / f"net{i}.json"))
        pathlib.Path(paths[-1]).write_text(json.dumps(doc))
    payload = docs[0]["payload"]
    config = {
        "t0": 0.0,
        "t1": 0.5,
        "dt": 0.125,
        "initialState": {f"p{i}": 0.5 for i in range(payload["system"]["places"])},
        "inflows": {f"x{i}": 0.5 for i in range(payload["footLeft"])},
        "outflows": {f"y{i}": 0.25 for i in range(payload["footRight"])},
    }
    config_path = root / "sim.json"
    config_path.write_text(json.dumps(config))
    out = str(root / "out")
    commands = [
        ["compose", paths[0], paths[1], "--out", out],
        ["tensor", paths[0], paths[1], "--out", out],
        ["convert", paths[0], "--to", "structured", "--out", out],
        ["graybox", paths[0], "--out", out],
        ["simulate", paths[0], "--config", str(config_path), "--out", out],
    ]
    return commands, [paths[0], paths[2]]


def test_only_check_loads_the_law_suites_and_on_its_first_call(tmp_path):
    commands, twins = ledger_commands(tmp_path)
    runs = child_runs(commands + [["check", *twins, "--laws", "iso"]])
    assert [code for code, _, _ in runs] == [0] * len(runs)
    assert [loaded for _, _, loaded in runs[:-1]] == [[]] * len(commands)
    assert runs[-1][2] == list(WATCHED)


def test_check_all_loads_the_law_suites_and_prints_the_same_lines():
    [(code, digest, loaded)] = child_runs([["check", "--laws", "all"]])
    assert (code, digest, loaded) == (0, LAWS_ALL, list(WATCHED))


def test_the_guard_reports_a_law_module_loaded_before_the_commands(tmp_path):
    commands, _ = ledger_commands(tmp_path)
    for name in WATCHED:
        runs = child_runs(commands, preload=[name])
        assert [code for code, _, _ in runs] == [0] * len(commands)
        assert all(name in loaded for _, _, loaded in runs)
