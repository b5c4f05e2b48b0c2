"""End-to-end runs of the command line against the bundled example models."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import opencospan
from opencospan import (
    FlowSchedule,
    PiecewiseConstant,
    graybox,
    load_model,
    open_rate_rhs,
)
from opencospan.cli import main
from opencospan.finset import ISO_BUDGET_ENV
from opencospan.laws import sir_open_net


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_sim_config(tmp_path, **overrides):
    config = {
        "t0": 0.0,
        "t1": 1.0,
        "dt": 0.001,
        "initialState": {"S": 0.99, "I": 0.01},
        "inflows": {},
        "outflows": {},
    }
    config.update(overrides)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(config))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


# -- composing and converting ------------------------------------------------------


def test_compose_halves_and_verify_isomorphism(tmp_path, capsys, models_dir):
    out = tmp_path / "rebuilt.json"
    code, _, _ = run_cli(
        capsys,
        "compose",
        str(models_dir / "sir_left.json"),
        str(models_dir / "sir_right.json"),
        "--out",
        str(out),
    )
    assert code == 0
    code, stdout, _ = run_cli(
        capsys, "check", str(out), str(models_dir / "sir.json"), "--laws", "iso"
    )
    assert code == 0
    assert stdout.splitlines() == ["PASS iso (1 cases)"]


def test_compose_needs_at_least_two_files(tmp_path, capsys, models_dir):
    code, _, err = run_cli(
        capsys, "compose", str(models_dir / "sir.json"), "--out", str(tmp_path / "x.json")
    )
    assert code == 2 and "two" in err


def test_compose_mismatched_feet_is_a_domain_error(tmp_path, capsys, models_dir):
    sir = str(models_dir / "sir.json")
    code, _, err = run_cli(capsys, "compose", sir, sir, "--out", str(tmp_path / "x.json"))
    assert code == 2 and "feet disagree" in err


def test_tensor_doubles_the_boundary(tmp_path, capsys, models_dir):
    out = tmp_path / "pair.json"
    sir = str(models_dir / "sir.json")
    code, _, _ = run_cli(capsys, "tensor", sir, sir, "--out", str(out))
    assert code == 0
    pair = load_model(str(out))
    assert pair.payload.foot_left.size == 6
    assert pair.payload.foot_right.size == 2
    assert pair.payload.decoration.rates == (0.3, 0.1, 0.3, 0.1)


def test_convert_roundtrip_is_byte_identical(tmp_path, capsys, models_dir):
    sir = models_dir / "sir.json"
    there = tmp_path / "structured.json"
    back = tmp_path / "decorated.json"
    assert run_cli(capsys, "convert", str(sir), "--to", "structured", "--out", str(there))[0] == 0
    assert load_model(str(there)).representation == "structured"
    assert run_cli(capsys, "convert", str(there), "--to", "decorated", "--out", str(back))[0] == 0
    assert back.read_bytes() == sir.read_bytes()


def test_convert_to_the_same_representation_passes_through(tmp_path, capsys, models_dir):
    sir = models_dir / "sir.json"
    out = tmp_path / "same.json"
    assert run_cli(capsys, "convert", str(sir), "--to", "decorated", "--out", str(out))[0] == 0
    assert out.read_bytes() == sir.read_bytes()


def test_nondiscrete_structured_foot_is_rejected(tmp_path, capsys):
    bad = {
        "version": "1",
        "kind": "graph",
        "representation": "structured",
        "payload": {
            "footLeft": {"nodes": 1, "edges": 1, "src": [0], "tgt": [0]},
            "footRight": 1,
            "legLeft": [0],
            "legRight": [0],
            "system": {"nodes": 1, "edges": 1, "src": [0], "tgt": [0]},
            "representation": "structured",
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "convert", str(path), "--to", "decorated", "--out", str(tmp_path / "o.json"))
    assert code == 2 and "foot" in err


# -- gray-boxing and simulation --------------------------------------------------------


def test_graybox_then_simulate_produces_a_named_trajectory(tmp_path, capsys, models_dir):
    dynam = tmp_path / "sir_dynam.json"
    csv = tmp_path / "run.csv"
    assert run_cli(capsys, "graybox", str(models_dir / "sir.json"), "--out", str(dynam))[0] == 0
    assert load_model(str(dynam)).kind == "dynam"
    config = write_sim_config(tmp_path)
    assert run_cli(capsys, "simulate", str(dynam), "--config", config, "--out", str(csv))[0] == 0
    header, rows = read_csv(csv)
    assert header == ["t", "S", "I", "R"]
    assert rows[0][1:] == [0.99, 0.01, 0.0]
    assert rows[-1][0] == 1.0
    # mass is conserved with no boundary flows
    assert abs(sum(rows[-1][1:]) - 1.0) < 1e-9


def test_trajectory_matches_the_open_rate_equation(tmp_path, capsys, models_dir):
    csv = tmp_path / "run.csv"
    config = write_sim_config(tmp_path, inflows={"i3": 0.05}, outflows={"o1": 0.02})
    code, _, _ = run_cli(
        capsys, "simulate", str(models_dir / "sir.json"), "--config", config, "--out", str(csv)
    )
    assert code == 0
    _, rows = read_csv(csv)
    t0, t1, t2 = rows[0][0], rows[1][0], rows[2][0]
    system = graybox(sir_open_net())
    schedule = FlowSchedule(
        (PiecewiseConstant.ZERO, PiecewiseConstant.ZERO, PiecewiseConstant.constant(0.05)),
        (PiecewiseConstant.constant(0.02),),
    )
    # central difference around the second sample is accurate to O(dt^2)
    rhs = open_rate_rhs(system, schedule, t1, rows[1][1:])
    central = [(hi - lo) / (t2 - t0) for hi, lo in zip(rows[2][1:], rows[0][1:])]
    assert all(abs(a - b) < 1e-6 for a, b in zip(central, rhs))


def test_simulating_the_net_directly_grayboxes_on_the_fly(tmp_path, capsys, models_dir):
    direct = tmp_path / "direct.csv"
    via_dynam = tmp_path / "via.csv"
    dynam = tmp_path / "dynam.json"
    config = write_sim_config(tmp_path)
    assert run_cli(capsys, "simulate", str(models_dir / "sir.json"), "--config", config, "--out", str(direct))[0] == 0
    assert run_cli(capsys, "graybox", str(models_dir / "sir.json"), "--out", str(dynam))[0] == 0
    assert run_cli(capsys, "simulate", str(dynam), "--config", config, "--out", str(via_dynam))[0] == 0
    assert direct.read_bytes() == via_dynam.read_bytes()


def test_simulate_rejects_nonpositive_step(tmp_path, capsys, models_dir):
    config = write_sim_config(tmp_path, dt=0.0)
    code, _, err = run_cli(
        capsys, "simulate", str(models_dir / "sir.json"), "--config", config, "--out", str(tmp_path / "x.csv")
    )
    assert code == 2 and "dt" in err


def test_simulate_rejects_unknown_place_names(tmp_path, capsys, models_dir):
    config = write_sim_config(tmp_path, initialState={"Q": 1.0})
    code, _, err = run_cli(
        capsys, "simulate", str(models_dir / "sir.json"), "--config", config, "--out", str(tmp_path / "x.csv")
    )
    assert code == 2 and "Q" in err


def test_kind_mismatches_exit_with_a_domain_error(tmp_path, capsys, models_dir):
    dynam = tmp_path / "dynam.json"
    run_cli(capsys, "graybox", str(models_dir / "sir.json"), "--out", str(dynam))
    for args in (
        ("graybox", str(dynam), "--out", str(tmp_path / "x.json")),
        ("convert", str(dynam), "--to", "structured", "--out", str(tmp_path / "x.json")),
        ("tensor", str(dynam), str(dynam), "--out", str(tmp_path / "x.json")),
        ("compose", str(dynam), str(models_dir / "sir.json"), "--out", str(tmp_path / "x.json")),
    ):
        code, _, _ = run_cli(capsys, *args)
        assert code == 2


# The digest pins every float operation of the integrator.  `**` calls the C
# library's pow; the digest was recorded on x86-64 Linux with glibc and CPython 3.11.
SIR_CSV_SHA256 = "ee57c0aec23b995735735579e90516fae99e3a2650cf171bb1cd96ada4c14ad5"


def test_simulate_writes_the_pinned_csv_bytes(tmp_path, capsys, models_dir):
    csv = tmp_path / "sir.csv"
    code, _, _ = run_cli(
        capsys, "simulate", str(models_dir / "sir.json"),
        "--config", str(models_dir / "sir_sim.json"), "--out", str(csv),
    )
    assert code == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == SIR_CSV_SHA256


# -- failure modes ------------------------------------------------------------------------


def simulate_expecting_a_format_error(tmp_path, capsys, model, config):
    csv = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "simulate", str(model), "--config", config, "--out", str(csv))
    assert code == 3 and not csv.exists()
    return err


def test_an_infinite_rate_is_refused_at_load_time(tmp_path, capsys, models_dir):
    doc = json.loads((models_dir / "sir.json").read_text())
    doc["payload"]["system"]["transitions"][1]["rate"] = math.inf
    model = tmp_path / "sir.json"
    model.write_text(json.dumps(doc))
    err = simulate_expecting_a_format_error(tmp_path, capsys, model, write_sim_config(tmp_path))
    assert "transition 1 rate must be a finite number" in err


def test_a_nan_field_coefficient_is_refused_at_load_time(tmp_path, capsys, models_dir):
    dynam = tmp_path / "dynam.json"
    assert run_cli(capsys, "graybox", str(models_dir / "sir.json"), "--out", str(dynam))[0] == 0
    doc = json.loads(dynam.read_text())
    doc["payload"]["system"]["field"][1][0][0] = math.nan
    dynam.write_text(json.dumps(doc))
    err = simulate_expecting_a_format_error(tmp_path, capsys, dynam, write_sim_config(tmp_path))
    assert "field component 1 term 0 coefficient must be a finite number" in err


def test_a_nan_initial_state_is_refused_at_load_time(tmp_path, capsys, models_dir):
    config = write_sim_config(tmp_path, initialState={"S": 0.99, "I": math.nan})
    err = simulate_expecting_a_format_error(tmp_path, capsys, models_dir / "sir.json", config)
    assert "initialState[I] must be a finite number" in err


def test_missing_and_malformed_files_exit_3(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "graybox", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.json"))
    assert code == 3
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{]")
    code, _, _ = run_cli(capsys, "graybox", str(garbled), "--out", str(tmp_path / "x.json"))
    assert code == 3


def test_unknown_law_names_exit_3(capsys):
    code, _, err = run_cli(capsys, "check", "--laws", "transmutation")
    assert code == 3 and "unknown law" in err


def test_iso_check_needs_exactly_two_files(capsys, models_dir):
    code, _, _ = run_cli(capsys, "check", str(models_dir / "sir.json"), "--laws", "iso")
    assert code == 2


def write_one_edge_lgraph(tmp_path, name, label):
    doc = {
        "version": "1",
        "kind": "lgraph",
        "representation": "decorated",
        "payload": {
            "footLeft": 1,
            "footRight": 1,
            "legLeft": [0],
            "legRight": [1],
            "system": {"nodes": 2, "edges": 1, "src": [0], "tgt": [1], "labels": [label]},
            "representation": "decorated",
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("other", [True, 1.0])
def test_iso_check_compares_labels_by_type_and_value(tmp_path, capsys, other):
    one = write_one_edge_lgraph(tmp_path, "one.json", 1)
    code, out, _ = run_cli(capsys, "check", one, one, "--laws", "iso")
    assert code == 0 and out.startswith("PASS iso")
    two = write_one_edge_lgraph(tmp_path, "two.json", other)
    code, out, _ = run_cli(capsys, "check", one, two, "--laws", "iso")
    assert code == 2 and out.startswith("FAIL iso")


@pytest.mark.parametrize("label", [math.nan, math.inf])
def test_a_nonfinite_label_is_refused_at_load_time(tmp_path, capsys, label):
    path = write_one_edge_lgraph(tmp_path, "bad.json", label)
    code, _, err = run_cli(capsys, "check", path, path, "--laws", "iso")
    assert code == 3 and "edge 0 label must be finite" in err


def test_iso_check_covers_dynam_models(tmp_path, capsys, models_dir):
    dynam = tmp_path / "dynam.json"
    run_cli(capsys, "graybox", str(models_dir / "sir.json"), "--out", str(dynam))
    code, out, _ = run_cli(capsys, "check", str(dynam), str(dynam), "--laws", "iso")
    assert code == 0 and out.startswith("PASS iso")
    code, _, _ = run_cli(
        capsys, "check", str(dynam), str(models_dir / "sir.json"), "--laws", "iso"
    )
    assert code == 2  # a field and a net are never isomorphic


# -- law suites from the command line --------------------------------------------------------


def test_check_companion_and_conjoint_for_a_given_map(capsys):
    code, out, _ = run_cli(capsys, "check", "--laws", "companion,conjoint", "--map", "0,0")
    assert code == 0
    assert out.splitlines() == ["PASS companion (1 cases)", "PASS conjoint (1 cases)"]
    code, out, _ = run_cli(capsys, "check", "--laws", "companion", "--map", "1,0,2", "--cod", "4")
    assert code == 0


def test_check_runs_registered_suites(capsys):
    code, out, _ = run_cli(capsys, "check", "--laws", "simulation")
    assert code == 0
    assert out.startswith("PASS simulation")


def test_iso_check_respects_the_search_budget(tmp_path, capsys, monkeypatch):
    free = {
        "version": "1",
        "kind": "graph",
        "representation": "decorated",
        "payload": {
            "footLeft": 0,
            "footRight": 0,
            "legLeft": [],
            "legRight": [],
            "system": {"nodes": 3, "edges": 0, "src": [], "tgt": []},
            "representation": "decorated",
        },
    }
    path = tmp_path / "free.json"
    path.write_text(json.dumps(free))
    monkeypatch.setenv(ISO_BUDGET_ENV, "1")
    code, _, err = run_cli(capsys, "check", str(path), str(path), "--laws", "iso")
    assert code == 2 and "budget" in err
    monkeypatch.setenv(ISO_BUDGET_ENV, "1000")
    code, out, _ = run_cli(capsys, "check", str(path), str(path), "--laws", "iso")
    assert code == 0 and out.startswith("PASS iso")


def test_module_entrypoint_runs_standalone():
    # the child imports the same package as this test, installed or not
    package_root = str(pathlib.Path(opencospan.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "opencospan.cli", "check", "--laws", "companion", "--map", "0,0"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "PASS companion" in result.stdout
