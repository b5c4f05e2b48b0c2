"""End-to-end runs of the command line against the bundled example models."""

import csv
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
from functools import reduce
from random import Random

import pytest

import opencospan
from opencospan import (
    FinFunction,
    FlowSchedule,
    Multiset,
    PiecewiseConstant,
    compose_open_dynam,
    graybox,
    hcompose,
    load_model,
    open_rate_rhs,
    save_model,
    tensor,
    to_structured,
)
from opencospan import cli
from opencospan.cli import MAX_APEX_SIZE, MAX_MAP_SIZE, _pairwise_fold, _parse_map, main
from opencospan.dynamics import MAX_FIELD_EXPONENTS
from opencospan.errors import OpenCospanError
from opencospan.finset import ISO_BUDGET_ENV
from opencospan.laws import random_composable, random_cospan, sir_open_net
from opencospan.modelio import ModelFile, canonical_json


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


def test_structured_feet_that_disagree_name_their_sizes(tmp_path, capsys):
    rng = Random("structured-feet")
    chain = [to_structured(random_cospan(rng, "petri", *feet)) for feet in ((0, 1), (2, 0))]
    paths = write_chain(tmp_path, "structured-feet", chain)
    code, _, err = run_cli(capsys, "compose", *paths, "--out", str(tmp_path / "x.json"))
    assert (code, err) == (2, "error: feet disagree: right foot has size 1, left foot has size 2\n")


def test_tensor_doubles_the_boundary(tmp_path, capsys, models_dir):
    out = tmp_path / "pair.json"
    sir = str(models_dir / "sir.json")
    code, _, _ = run_cli(capsys, "tensor", sir, sir, "--out", str(out))
    assert code == 0
    pair = load_model(str(out))
    assert pair.payload.foot_left.size == 6
    assert pair.payload.foot_right.size == 2
    assert pair.payload.decoration.attrs == (0.3, 0.1, 0.3, 0.1)


# -- folding a chain of files --------------------------------------------------------

KINDS = ("graph", "lgraph", "petri", "petri_rates")
FOLDS = {"compose": hcompose, "tensor": tensor}


def write_chain(tmp_path, name, payloads):
    paths = []
    for i, payload in enumerate(payloads):
        paths.append(str(tmp_path / f"{name}-{i}.json"))
        save_model(paths[-1], ModelFile(payload.kind, payload))
    return paths


def left_fold_outcome(tmp_path, command, paths):
    """Exit code, stderr and written bytes of reduce(op, payloads), the fold
    the command line made before it folded pairwise."""
    models = [load_model(path) for path in paths]
    try:
        combined = reduce(FOLDS[command], [m.payload for m in models])
    except OpenCospanError as exc:
        return 2, f"error: {exc}\n", None
    out = tmp_path / "left_fold.json"
    save_model(str(out), ModelFile(models[0].kind, combined))
    return 0, "", out.read_bytes()


def cli_outcome(tmp_path, capsys, command, paths):
    out = tmp_path / "cli_fold.json"
    if out.exists():
        out.unlink()
    code, _, err = run_cli(capsys, command, *paths, "--out", str(out))
    return code, err, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("kind", KINDS)
def test_folding_a_chain_writes_the_bytes_of_the_left_fold(tmp_path, capsys, kind):
    for k in (2, 3, 5, 16, 33):
        chain = random_composable(Random(f"fold-{kind}-{k}"), kind, k)
        for present in (lambda c: c, to_structured):
            paths = write_chain(tmp_path, kind, [present(c) for c in chain])
            for command in FOLDS:
                want = left_fold_outcome(tmp_path, command, paths)
                assert want[0] == 0
                assert cli_outcome(tmp_path, capsys, command, paths) == want, (k, command)


def faulty_chains(kind):
    """Chains with two faults each, where the pairwise fold would meet the
    second fault first: one at pair (1, 2) and one at pair (2, 3)."""
    other = "petri" if kind != "petri" else "graph"

    def chain(feet, kinds=(kind,) * 5):
        rng = Random(f"faults-{kind}-{feet}-{kinds}")
        return [random_cospan(rng, kd, left, right) for kd, (left, right) in zip(kinds, feet)]

    # feet 1 vs 3 at (1, 2), then 2 vs 0 at (2, 3)
    two_feet = chain(((1, 2), (2, 1), (3, 2), (0, 1), (1, 1)))
    yield "feet", two_feet
    # feet 1 vs 3 at (1, 2), then a kind clash at (2, 3)
    yield "kind", chain(((1, 2), (2, 1), (3, 2), (2, 1), (1, 1)), (kind,) * 3 + (other, kind))
    # feet 1 vs 3 at (1, 2), then a structured cospan after decorated ones
    yield "mix", two_feet[:3] + [to_structured(c) for c in two_feet[3:]]
    # tensor ignores feet: a kind clash at (1, 2), then a mix at (2, 3)
    clash = chain(((1, 1),) * 5, (kind, kind, other, kind, kind))
    yield "kind-then-mix", clash[:3] + [to_structured(c) for c in clash[3:]]


@pytest.mark.parametrize("kind", KINDS)
def test_a_faulty_chain_fails_as_the_left_fold_does(tmp_path, capsys, kind):
    for name, chain in faulty_chains(kind):
        paths = write_chain(tmp_path, name, chain)
        for command in FOLDS:
            want = left_fold_outcome(tmp_path, command, paths)
            if want[0] == 0:
                continue  # tensor of the chains whose faults are only feet
            assert cli_outcome(tmp_path, capsys, command, paths) == want, (name, command)


def test_composing_dynam_files_keeps_the_left_fold(tmp_path, capsys):
    # a dynam composite sums float coefficients of like terms, and only the
    # left fold's association gives its bytes: four decays at rates 0.1, 0.2,
    # 0.3, 0.6 sum to 1.2000000000000002 from the left but to 1.2 pairwise
    decays = []
    for i, rate in enumerate((0.1, 0.2, 0.3, 0.6)):
        net = tmp_path / f"decay{i}.json"
        system = {"places": 1, "transitions": [{"src": {"0": 1}, "tgt": {}, "rate": rate}]}
        net.write_text(json.dumps(_small_model("petri_rates", system)))
        decays.append(str(tmp_path / f"decay{i}-dynam.json"))
        assert run_cli(capsys, "graybox", str(net), "--out", decays[-1])[0] == 0
    chains = [decays] + [
        write_chain(tmp_path, f"dynam{seed}", map(graybox, random_composable(Random(seed), "petri_rates", 5)))
        for seed in range(8)
    ]
    for paths in chains:
        payloads = [load_model(path).payload for path in paths]
        want = tmp_path / "want.json"
        save_model(str(want), ModelFile("dynam", reduce(compose_open_dynam, payloads)))
        assert cli_outcome(tmp_path, capsys, "compose", paths) == (0, "", want.read_bytes())
    decay_payloads = [load_model(path).payload for path in decays]
    for fold, coefficient in ((reduce, -1.2000000000000002), (_pairwise_fold, -1.2)):
        composite = fold(compose_open_dynam, decay_payloads)
        assert composite.field.components[0].terms == ((coefficient, (1,)),)


def test_composing_sixteen_rated_nets_moves_each_cell_at_most_four_times(
    tmp_path, capsys, monkeypatch
):
    chain = random_composable(Random("count"), "petri_rates", 16, max_cells=4)
    paths = write_chain(tmp_path, "petri_rates", chain)
    cells = sum(c.decoration.cells.size for c in chain)
    counts = {"hcompose": 0, "pushforward": 0}
    pushforward = Multiset.pushforward

    def counted_hcompose(m, n):
        counts["hcompose"] += 1
        return hcompose(m, n)

    def counted_pushforward(ms, f):
        counts["pushforward"] += 1
        return pushforward(ms, f)

    monkeypatch.setattr(opencospan.cli, "hcompose", counted_hcompose)
    monkeypatch.setattr(Multiset, "pushforward", counted_pushforward)
    code, _, err = run_cli(capsys, "compose", *paths, "--out", str(tmp_path / "out.json"))
    assert (code, err) == (0, "")
    assert counts["hcompose"] == 15
    # two ends per cell, each moved once per level of the fold: log2(16) = 4
    assert 0 < counts["pushforward"] <= 2 * cells * 4


def test_convert_roundtrip_is_byte_identical(tmp_path, capsys, models_dir):
    sir = models_dir / "sir.json"
    there = tmp_path / "structured.json"
    back = tmp_path / "decorated.json"
    assert run_cli(capsys, "convert", str(sir), "--to", "structured", "--out", str(there))[0] == 0
    assert load_model(str(there)).representation == "structured"
    assert run_cli(capsys, "convert", str(there), "--to", "decorated", "--out", str(back))[0] == 0
    assert back.read_bytes() == sir.read_bytes()


def _small_model(kind, system):
    payload = {
        "footLeft": 1,
        "footRight": 1,
        "legLeft": [0],
        "legRight": [system.get("nodes", system.get("places", 0)) - 1],
        "representation": "decorated",
        "system": system,
    }
    return {"version": "1", "kind": kind, "representation": "decorated", "payload": payload}


_PATH = {"nodes": 3, "edges": 2, "src": [0, 1], "tgt": [1, 2]}
_NET = {
    "places": 2,
    "transitions": [
        {"src": {"0": 1}, "tgt": {"1": 1}},
        {"src": {"1": 2}, "tgt": {"0": 1, "1": 1}},
    ],
}
SMALL_MODELS = {
    "graph": _small_model("graph", _PATH),
    "lgraph": _small_model("lgraph", dict(_PATH, labels=["a", 2])),
    "petri": _small_model("petri", _NET),
    "petri_rates": _small_model(
        "petri_rates",
        dict(
            _NET,
            transitions=[
                dict(t, rate=r) for t, r in zip(_NET["transitions"], (0.5, 1.25))
            ],
        ),
    ),
}

# SHA-256 of the files the workflow below writes, recorded before the four
# kinds shared one code path; keys are the step names of `_small_workflow`
# (its two conversions back are compared with other files instead)
SMALL_MODEL_SHA256 = {
    "graph": {
        "composed": "382ab9c8a4a011514b24055addbd7d2235ee9a60d648e4377a9677e997520b5e",
        "tensored": "4acfca92125c1b4a14b0963a56c2aea8564b47659fac5cace1c4b7315e17c52b",
        "structured": "bbd2b4508a8b1a007d117e5040640ea90257b21c99e3ea6cd7c3f12b4d9157f7",
        "structured_composed": "82a5abb22ebe23dbd02ffa0fe5974fd905a2c4d8c1d0f3923d221fe69e0141ad",
        "structured_tensored": "7ffb1209fe5642848ba8b29353dd5cb5feaf150dfa90d46d18e9ab96f9160190",
    },
    "lgraph": {
        "composed": "c2053a50b7a89bc64b0eb2a4687eab9ea9c7f539e2a0c54a5e2d89d28ffa1434",
        "tensored": "738889208ccf4aaeeefd5b5decbbf24624a6ce53e8e8c5cb1e6805ada0e8ec0b",
        "structured": "384d5d0bc80d8308ae5996df497dcf2c8c079e9911a430ca87b2cce9dc09cc5e",
        "structured_composed": "6180c7e4784758ab747acb3faaaff43810d4d975f8d439670ce0475de9dba261",
        "structured_tensored": "9a589b63a103b899de8a8f9fab4e3d27ebfab7858f56856a0b093f4841c8dc66",
    },
    "petri": {
        "composed": "73a86067ba036f57396644f75ffe4e3e2b14f96cab8f0e6f6d064c26ff7fa737",
        "tensored": "28d88a946092f777d40a4532b56f22ef5a43bcb3bc18a6f3b068b6dd0bf700a0",
        "structured": "c6fbe622569bf55390f5c9541bf7ca82b8cfe107b0d075eed571248144f7470f",
        "structured_composed": "0b6680fcf7317961b0a72dff1e93e04064c203a6cc7d9a43acbf1ea039e60d05",
        "structured_tensored": "27b19bd8ac8f660d09d54a83e2f56cce7abfd4f97f4313562e2f468533bf6988",
    },
    "petri_rates": {
        "composed": "21240ce451bdfe981e86583b70c9507d655f7133c7a21ac1336bb4e6a8276750",
        "tensored": "83bfd803b50fd163f646dc7713dd19e8d826a6865cf085d37a6a90e41113a07a",
        "structured": "7dda0e32c4cece5885330b6bc4a0e4067fa80aea383fdaa2f2b9cb2616751e90",
        "structured_composed": "f58a7dde47a8f390e7e70acf2b8fe58dc126f70461f78fdb104fe99cc5fd8f40",
        "structured_tensored": "d684b4366422b530e109ad1a89bdb47ae527e6a299e06acfed65ac147395f82c",
    },
}


def _small_workflow(capsys, tmp_path, kind):
    """compose, tensor and convert one small model through the command line,
    in both presentations; returns {step: written bytes}.  An argument
    "@step" names the file that step wrote."""
    model = tmp_path / f"{kind}.json"
    model.write_text(json.dumps(SMALL_MODELS[kind]))
    steps = [
        ("composed", "compose", "@model", "@model"),
        ("tensored", "tensor", "@model", "@model"),
        ("structured", "convert", "@model", "--to", "structured"),
        ("structured_composed", "compose", "@structured", "@structured"),
        ("structured_tensored", "tensor", "@structured", "@structured"),
        ("decorated_again", "convert", "@structured", "--to", "decorated"),
        ("composed_again", "convert", "@structured_composed", "--to", "decorated"),
    ]
    paths = {"model": model}
    for name, command, *args in steps:
        paths[name] = tmp_path / f"{kind}-{name}.json"
        argv = [str(paths[a[1:]]) if a.startswith("@") else a for a in args]
        code, _, err = run_cli(capsys, command, *argv, "--out", str(paths[name]))
        assert (code, err) == (0, ""), name
    return {name: paths[name].read_bytes() for name, *_ in steps}


@pytest.mark.parametrize("kind", sorted(SMALL_MODELS))
def test_small_models_of_every_kind_write_pinned_bytes(tmp_path, capsys, kind):
    written = _small_workflow(capsys, tmp_path, kind)
    assert written.pop("decorated_again") == (canonical_json(SMALL_MODELS[kind]) + "\n").encode()
    assert written.pop("composed_again") == written["composed"]
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in written.items()}
    assert digests == SMALL_MODEL_SHA256[kind]


def test_convert_to_the_same_representation_passes_through(tmp_path, capsys, models_dir):
    sir = models_dir / "sir.json"
    out = tmp_path / "same.json"
    assert run_cli(capsys, "convert", str(sir), "--to", "decorated", "--out", str(out))[0] == 0
    assert out.read_bytes() == sir.read_bytes()


def test_convert_to_decorated_passes_a_dynam_file_through(tmp_path, capsys, models_dir):
    dynam = tmp_path / "dynam.json"
    out = tmp_path / "same.json"
    assert run_cli(capsys, "graybox", str(models_dir / "sir.json"), "--out", str(dynam))[0] == 0
    canonical = tmp_path / "canonical.json"
    save_model(str(canonical), load_model(str(dynam)))
    assert run_cli(capsys, "convert", str(dynam), "--to", "decorated", "--out", str(out)) == (0, "", "")
    assert out.read_bytes() == canonical.read_bytes()


def test_tensoring_dynam_files_writes_the_graybox_of_the_tensored_nets(tmp_path, capsys):
    for seed in range(6):
        nets = [random_cospan(Random(f"tensor-{seed}-{i}"), "petri_rates") for i in range(3)]
        paths = write_chain(tmp_path, f"dynam{seed}", map(graybox, nets))
        want = tmp_path / "want.json"
        save_model(str(want), ModelFile("dynam", graybox(reduce(tensor, nets))))
        assert cli_outcome(tmp_path, capsys, "tensor", paths) == (0, "", want.read_bytes())


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


def test_simulate_quotes_header_names_that_need_it(tmp_path, capsys, models_dir):
    doc = json.loads((models_dir / "sir.json").read_text())
    doc["names"]["places"] = ["S,susceptible", "I\ninfected", "R"]
    model = tmp_path / "named.json"
    model.write_text(json.dumps(doc))
    config = json.loads((models_dir / "sir_sim.json").read_text())
    config["initialState"] = {"S,susceptible": 0.99, "I\ninfected": 0.01}
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "named.csv"
    code, _, _ = run_cli(
        capsys, "simulate", str(model), "--config", str(config_path), "--out", str(out)
    )
    assert code == 0
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    # a header and 10,001 rows, as written, every one with four columns
    assert rows[0] == ["t", "S,susceptible", "I\ninfected", "R"]
    assert len(rows) == 10_002 and {len(row) for row in rows} == {4}
    # the values are those of the plainly named model
    plain = tmp_path / "plain.csv"
    run_cli(
        capsys, "simulate", str(models_dir / "sir.json"),
        "--config", str(models_dir / "sir_sim.json"), "--out", str(plain),
    )
    assert out.read_bytes().split(b"\n", 2)[2] == plain.read_bytes().split(b"\n", 1)[1]


@pytest.mark.parametrize(
    "window",
    [
        {"t0": -1e308, "t1": 1e308, "dt": 1.0},
        {"t0": 0.0, "t1": 10.0, "dt": 5e-324},
        {"t0": 0.0, "t1": 1e9, "dt": 1e-9},
    ],
)
def test_simulate_refuses_an_unbounded_run_with_one_error_line(tmp_path, capsys, models_dir, window):
    config = write_sim_config(tmp_path, **window)
    csv_path = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "simulate", str(models_dir / "sir.json"), "--config", config, "--out", str(csv_path)
    )
    assert (code, out) == (2, "") and not csv_path.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "over the cap of 10000000 values" in err


def test_a_huge_step_count_is_named_in_one_short_line(tmp_path, capsys, models_dir):
    # 1e300 steps: the count and the values are 301-digit integers, cut short
    config = write_sim_config(tmp_path, t0=0.0, t1=1.0, dt=1e-300)
    code, out, err = run_cli(
        capsys, "simulate", str(models_dir / "sir.json"), "--config", config, "--out",
        str(tmp_path / "x.csv"),
    )
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    assert "steps over 3 places make" in err and "over the cap of 10000000 values" in err
    assert len(err) < 200, err


def one_place_net(src, tgt, rate):
    """A rated net on one place with the transition src X -> tgt X."""
    return open_system("petri_rates", {
        "places": 1, "transitions": [{"src": {"0": src}, "tgt": {"0": tgt}, "rate": rate}],
    })


# one place, x' = rate * (tgt - src) * x ** src, and where the run fails
DIVERGING_RUNS = {
    # x ** 2 overflows in the second stage of the first step
    "first step": ((2, 3, 1.0), 1e100, 1.0, 0.1, "state blew up near t = 0.05"),
    # twelve rows are good before the blow-up near t = 1
    "after twelve rows": ((2, 3, 1.0), 1.0, 2.0, 0.1, "state blew up near t = 1.2000000000000002"),
    # the product overflows to inf without raising
    "non-finite state": ((1, 2, 1e308), 10.0, 1.0, 0.25, "state became non-finite at t = 0.25"),
}


@pytest.mark.parametrize("run", sorted(DIVERGING_RUNS))
def test_a_diverging_run_writes_no_csv_and_keeps_an_existing_one(tmp_path, capsys, run):
    net, x0, t1, dt, message = DIVERGING_RUNS[run]
    model = tmp_path / "net.json"
    model.write_text(json.dumps(one_place_net(*net)))
    config = write_sim_config(tmp_path, t1=t1, dt=dt, initialState={"p0": x0})
    csv_path = tmp_path / "x.csv"
    argv = ("simulate", str(model), "--config", config, "--out", str(csv_path))
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not csv_path.exists()
    csv_path.write_bytes(b"previous contents\n")
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert csv_path.read_bytes() == b"previous contents\n"


# an exponent of 10 ** 400, in a field or gray-boxed from a net's count
# of 10 ** 400 tokens that it consumes and puts back, with the config's
# initial state; its term is refused before the first row, where the
# generated run read it as a divergence at t = 0.0
HUGE_EXPONENTS = {
    "dynam": (
        {"places": 1, "field": [[[-1.0, [10**400]]]]},
        {"p0": 0.5},
        "term 0 of place 0 raises place 0 to",
    ),
    "petri_rates": (
        {
            "places": 2,
            "transitions": [
                {"src": {"0": 10**400}, "tgt": {"0": 10**400, "1": 1}, "rate": 0.5},
            ],
        },
        {"p0": 0.5, "p1": 0.0},
        "term 0 of place 1 raises place 0 to",
    ),
}


@pytest.mark.parametrize("kind", sorted(HUGE_EXPONENTS))
def test_simulate_names_a_term_whose_exponent_is_too_large_for_a_float(tmp_path, capsys, kind):
    system, initial, names = HUGE_EXPONENTS[kind]
    doc = open_system(kind, system)
    model = tmp_path / "huge.json"
    model.write_text(json.dumps(doc))
    config = write_sim_config(tmp_path, t1=1.0, dt=0.5, initialState=initial)
    csv_path = tmp_path / "x.csv"
    argv = ("simulate", str(model), "--config", config, "--out", str(csv_path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and not csv_path.exists()
    assert err == (
        f"error: {names} 100000000000000000...0000000000000000000, "
        "an exponent too large for a float\n"
    )
    # 10 ** 30 converts to a float, and the run goes through
    model.write_text(json.dumps(doc).replace("1" + "0" * 400, "1" + "0" * 30))
    assert run_cli(capsys, *argv) == (0, "", "")
    assert csv_path.read_text().count("\n") == 4


def test_simulate_holds_about_one_line_of_text_per_row(tmp_path, capsys, models_dir):
    config = json.loads((models_dir / "sir_sim.json").read_text())
    config["dt"] = 1e-4
    config_path = tmp_path / "fine.json"
    config_path.write_text(json.dumps(config))
    csv_path = tmp_path / "fine.csv"
    argv = ("simulate", str(models_dir / "sir.json"), "--config", str(config_path), "--out", str(csv_path))
    # traced right after other tests, the run took about five times as long
    # as it does after an untraced one
    assert run_cli(capsys, *argv)[0] == 0
    tracemalloc.start()
    try:
        code = run_cli(capsys, *argv)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    values = 100_001 * 4
    assert csv_path.read_bytes().count(b"\n") == 100_002
    # 34 bytes per value, its line of text; holding the trajectory, the
    # joined text and its encoded copy as well peaked at 109
    assert peak / values <= 60, peak / values


def test_simulate_prints_a_negative_zero_as_given_then_as_x_plus_zero(tmp_path, capsys):
    # place 1 is untouched, so the first step makes its -0.0 into 0.0
    doc = open_system("petri_rates", {
        "places": 2, "transitions": [{"src": {"0": 1}, "tgt": {}, "rate": 0.5}],
    })
    model = tmp_path / "net.json"
    model.write_text(json.dumps(doc))
    config = write_sim_config(tmp_path, t1=0.5, dt=0.25, initialState={"p0": 1.0, "p1": -0.0})
    csv_path = tmp_path / "x.csv"
    argv = ("simulate", str(model), "--config", config, "--out", str(csv_path))
    assert run_cli(capsys, *argv) == (0, "", "")
    lines = csv_path.read_text().splitlines()
    assert [line.rsplit(",", 1)[1] for line in lines] == ["p1", "-0", "0", "0"]


def test_simulate_refuses_a_wide_run_before_gray_boxing_or_naming(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the cap is checked first")

    monkeypatch.setattr("opencospan.modelio.graybox", unreachable)
    monkeypatch.setattr("opencospan.modelio.default_names", unreachable)
    doc = {
        "version": "1",
        "kind": "petri_rates",
        "representation": "decorated",
        "payload": {
            "footLeft": 0,
            "footRight": 0,
            "legLeft": [],
            "legRight": [],
            "system": {"places": 2_000_000, "transitions": []},
            "representation": "decorated",
        },
    }
    model = tmp_path / "wide.json"
    model.write_text(json.dumps(doc))
    config = write_sim_config(tmp_path, t0=0.0, t1=10.0, dt=1.0, initialState={})
    csv_path = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, "simulate", str(model), "--config", config, "--out", str(csv_path))
    assert (code, out) == (2, "") and not csv_path.exists()
    assert err == (
        "error: 10 steps over 2000000 places make 22000011 values, over the cap of "
        "10000000 values, (steps + 1) * (places + 1)\n"
    )


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


def test_an_overflowing_graybox_is_a_domain_error_and_keeps_the_output_file(tmp_path, capsys):
    # a finite rate whose mass-action coefficient, 1.5e308 * (3 - 1), overflows
    net = {
        "version": "1",
        "kind": "petri_rates",
        "representation": "decorated",
        "payload": {
            "footLeft": 0,
            "footRight": 0,
            "legLeft": [],
            "legRight": [],
            "representation": "decorated",
            "system": {
                "places": 1,
                "transitions": [{"src": {"0": 1}, "tgt": {"0": 3}, "rate": 1.5e308}],
            },
        },
    }
    model, out = tmp_path / "net.json", tmp_path / "out.json"
    model.write_text(json.dumps(net))
    out.write_bytes(b"previous contents\n")
    code, stdout, err = run_cli(capsys, "graybox", str(model), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: coefficient overflow: inf is not a finite float\n"
    assert out.read_bytes() == b"previous contents\n"


def test_a_graybox_over_the_dense_size_cap_exits_2_and_keeps_the_output_file(tmp_path, capsys):
    # 50 transitions make 100 terms; the places bring places x terms just over the cap
    places = MAX_FIELD_EXPONENTS // 100 + 1
    net = {
        "version": "1",
        "kind": "petri_rates",
        "representation": "decorated",
        "payload": {
            "footLeft": 0,
            "footRight": 0,
            "legLeft": [],
            "legRight": [],
            "representation": "decorated",
            "system": {
                "places": places,
                "transitions": [
                    {"src": {str(places - 1 - t): 1}, "tgt": {str(t): 2}, "rate": 1.0}
                    for t in range(50)
                ],
            },
        },
    }
    model, out = tmp_path / "net.json", tmp_path / "out.json"
    model.write_text(json.dumps(net))
    out.write_bytes(b"previous contents\n")
    code, stdout, err = run_cli(capsys, "graybox", str(model), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == (
        f"error: the dense form of a field of {places} places and 100 terms holds "
        f"{places * 100} exponents, over the cap of {MAX_FIELD_EXPONENTS} (places x terms)\n"
    )
    assert out.read_bytes() == b"previous contents\n"


def write_cell_free_net(path, places):
    """A rated net with empty feet, no transitions and `places` places."""
    path.write_text(json.dumps({
        "version": "1",
        "kind": "petri_rates",
        "representation": "decorated",
        "payload": {
            "footLeft": 0,
            "footRight": 0,
            "legLeft": [],
            "legRight": [],
            "representation": "decorated",
            "system": {"places": places, "transitions": []},
        },
    }))
    return str(path)


def run_on_cell_free_nets(tmp_path, capsys, command, sizes):
    """Run `command` on cell-free nets of the given sizes (two for compose,
    tensor and iso, one for graybox) over an existing output file."""
    paths = [write_cell_free_net(tmp_path / f"net{i}.json", n) for i, n in enumerate(sizes)]
    out = tmp_path / "out.json"
    out.write_bytes(b"previous contents\n")
    if command == "iso":
        argv = ["check", *paths, "--laws", "iso"]
    else:
        argv = [command, *paths, "--out", str(out)]
    code, stdout, err = run_cli(capsys, *argv)
    return code, stdout, err, out.read_bytes()


@pytest.mark.parametrize(
    "command, sizes, what",
    [
        ("compose", (MAX_APEX_SIZE * 10, MAX_APEX_SIZE * 10), "summed apex"),
        ("tensor", (MAX_APEX_SIZE // 2, MAX_APEX_SIZE // 2 + 1), "summed apex"),
        ("graybox", (MAX_APEX_SIZE * 10,), "apex"),
        ("iso", (3, MAX_APEX_SIZE * 10), "apex"),
    ],
)
def test_an_apex_over_the_cap_exits_2_and_keeps_the_output_file(
    tmp_path, capsys, command, sizes, what
):
    size = sum(sizes) if what == "summed apex" else max(sizes)
    assert run_on_cell_free_nets(tmp_path, capsys, command, sizes) == (
        2,
        "",
        f"error: {what} of size {size} is over the cap of {MAX_APEX_SIZE}\n",
        b"previous contents\n",
    )


@pytest.mark.parametrize(
    "command, at_cap, over",
    [
        ("compose", (3, 3), (3, 4)),
        ("tensor", (3, 3), (3, 4)),
        ("graybox", (6,), (7,)),
        ("iso", (6, 6), (7, 7)),
    ],
)
def test_the_apex_cap_admits_its_own_size(tmp_path, capsys, monkeypatch, command, at_cap, over):
    monkeypatch.setattr(cli, "MAX_APEX_SIZE", 6)
    code, stdout, err, _ = run_on_cell_free_nets(tmp_path, capsys, command, at_cap)
    assert (code, err) == (0, "")
    assert stdout == ("PASS iso (1 cases)\n" if command == "iso" else "")
    code, stdout, err, written = run_on_cell_free_nets(tmp_path, capsys, command, over)
    assert (code, stdout, written) == (2, "", b"previous contents\n")
    assert err.startswith("error: ") and err.endswith(" is over the cap of 6\n")
    assert err.count("\n") == 1


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
    code, _, long_err = run_cli(capsys, "check", "--laws", "x" * 100_000)
    assert code == 3 and long_err.count("\n") == 1 and len(long_err) < len(err) + 40


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


@pytest.mark.parametrize(
    "args, size, what",
    [
        (["--map", "0", "--cod", "99999999999999999999"], 99999999999999999999, "codomain"),
        (["--map", "0", "--cod", str(MAX_MAP_SIZE + 1)], MAX_MAP_SIZE + 1, "codomain"),
        (["--map", str(MAX_MAP_SIZE)], MAX_MAP_SIZE + 1, "codomain"),
        (["--map", ",".join(["0"] * (MAX_MAP_SIZE + 1)), "--cod", "1"], MAX_MAP_SIZE + 1,
         "--map table"),
    ],
    ids=["past any list", "one over", "inferred", "long table"],
)
def test_a_map_over_the_cap_is_refused_before_anything_is_built(capsys, args, size, what):
    for law in ("companion", "conjoint"):
        code, out, err = run_cli(capsys, "check", "--laws", law, *args)
        assert (code, out) == (2, "")
        assert err == f"error: {what} of size {size} is over the cap of {MAX_MAP_SIZE}\n"


def test_a_map_that_is_not_a_list_of_ints_is_named_in_one_short_line(capsys):
    for raw in ("0,x", "0," * 100_000 + "x"):
        code, _, err = run_cli(capsys, "check", "--laws", "companion", "--map", raw)
        assert code == 3 and err.count("\n") == 1 and len(err) < 120, err[:200]
        assert err.startswith("error: --map must be a comma-separated list of ints, got '0,")


def test_a_cod_that_is_not_an_int_is_named_in_one_short_line(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for raw, shown in (("x", "'x'"), ("9" * 100_000, "'99999999999")):
        with pytest.raises(SystemExit) as exit_:
            main(["check", "--laws", "companion", "--map", "0", "--cod", raw])
        err = capsys.readouterr().err
        assert exit_.value.code == 2 and max(map(len, err.splitlines())) < 120, err[:200]
        assert err.splitlines()[-1].startswith(
            f"opencospan check: error: argument --cod: invalid int value: {shown}"
        )


def test_a_map_at_the_cap_is_accepted():
    f = _parse_map(str(MAX_MAP_SIZE - 1), None)
    assert (f.dom.size, f.cod.size) == (1, MAX_MAP_SIZE)
    assert _parse_map("0", MAX_MAP_SIZE).cod.size == MAX_MAP_SIZE


def test_check_runs_registered_suites(capsys):
    code, out, _ = run_cli(capsys, "check", "--laws", "simulation")
    assert code == 0
    assert out.startswith("PASS simulation")


def test_iso_check_respects_the_search_budget(tmp_path, capsys, monkeypatch):
    # one edge 0 -> 1 against one edge 1 -> 2: the untouched node is pinned,
    # and the search assigns the two others, one node each
    paths = []
    for source in (0, 1):
        edge = {
            "version": "1",
            "kind": "graph",
            "representation": "decorated",
            "payload": {
                "footLeft": 0,
                "footRight": 0,
                "legLeft": [],
                "legRight": [],
                "system": {"nodes": 3, "edges": 1, "src": [source], "tgt": [source + 1]},
                "representation": "decorated",
            },
        }
        paths.append(tmp_path / f"edge{source}.json")
        paths[-1].write_text(json.dumps(edge))
    monkeypatch.setenv(ISO_BUDGET_ENV, "1")
    code, _, err = run_cli(capsys, "check", *map(str, paths), "--laws", "iso")
    assert code == 2 and "budget" in err
    monkeypatch.setenv(ISO_BUDGET_ENV, "2")
    code, out, _ = run_cli(capsys, "check", *map(str, paths), "--laws", "iso")
    assert code == 0 and out.startswith("PASS iso")


def rated_cycles_file(tmp_path, name, places, cycles):
    """A `petri_rates` file with empty feet: one arc of rate 0.5 from each
    place of a cycle to the next."""
    arcs = [(c[j], c[(j + 1) % len(c)]) for c in cycles for j in range(len(c))]
    transitions = [{"src": {str(s): 1}, "tgt": {str(t): 1}, "rate": 0.5} for s, t in arcs]
    doc = {
        "version": "1",
        "kind": "petri_rates",
        "representation": "decorated",
        "payload": {
            "footLeft": 0,
            "footRight": 0,
            "legLeft": [],
            "legRight": [],
            "system": {"places": places, "transitions": transitions},
            "representation": "decorated",
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_iso_check_decides_a_ten_place_ring_against_two_five_cycles(tmp_path, capsys):
    # profiles alone cannot tell these equal-rate nets apart, and the search
    # over them ran out of its default budget
    paths = [
        rated_cycles_file(tmp_path, "ring.json", 10, [range(10)]),
        rated_cycles_file(tmp_path, "cycles.json", 10, [range(5), range(5, 10)]),
    ]
    code, out, err = run_cli(capsys, "check", *paths, "--laws", "iso")
    assert (code, err) == (2, "") and out.startswith("FAIL iso")


@pytest.mark.parametrize("kind", ["petri_rates", "dynam"])
def test_iso_check_tells_a_shuffled_ring_from_two_equal_cycles(tmp_path, capsys, kind):
    # numbered out of ring order, the 18-place ring spent the million-node
    # budget while only 1-dimensional colours pruned; component shapes tell
    # it from two 9-cycles at the first place
    order = Random(18).sample(range(18), 18)
    paths = [
        rated_cycles_file(tmp_path, "ring.json", 18, [order]),
        rated_cycles_file(tmp_path, "cycles.json", 18, [range(9), range(9, 18)]),
    ]
    if kind == "dynam":
        for path in paths:
            code, _, err = run_cli(capsys, "graybox", path, "--out", path)
            assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "check", *paths, "--laws", "iso")
    assert (code, err) == (2, "") and out.startswith("FAIL iso") and out.count("\n") == 1


def petri_file(tmp_path, name, places, leg_left, transitions=()):
    """A `petri` file whose left foot has one element, at place `leg_left`,
    whose right foot is empty, and which has the given transitions."""
    doc = {
        "version": "1",
        "kind": "petri",
        "representation": "decorated",
        "payload": {
            "footLeft": 1,
            "footRight": 0,
            "legLeft": [leg_left],
            "legRight": [],
            "system": {"places": places, "transitions": list(transitions)},
            "representation": "decorated",
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_iso_check_decides_free_places_past_the_recursion_limit(tmp_path, capsys, monkeypatch):
    # a chain, transition i from place i to place i + 1, listed in opposite
    # orders: the search runs and takes one node per place after the pinned
    # place 0, 1,999 levels past the recursion limit of 1,000.  That is its
    # least budget
    chain = [{"src": {str(i): 1}, "tgt": {str(i + 1): 1}} for i in range(1999)]
    forward = petri_file(tmp_path, "forward.json", 2000, 0, chain)
    backward = petri_file(tmp_path, "backward.json", 2000, 0, reversed(chain))
    monkeypatch.setenv(ISO_BUDGET_ENV, "1999")
    code, out, err = run_cli(capsys, "check", forward, backward, "--laws", "iso")
    assert (code, out, err) == (0, "PASS iso (1 cases)\n", "")
    monkeypatch.setenv(ISO_BUDGET_ENV, "1998")
    code, out, err = run_cli(capsys, "check", forward, backward, "--laws", "iso")
    assert (code, out, err) == (2, "", "error: isomorphism search exceeded its budget of 1998 nodes\n")


def test_iso_check_of_two_million_free_places_ends_within_seconds(tmp_path, capsys, monkeypatch):
    # the equal pair is decided by comparison; in the other, every place the
    # legs leave free is untouched, so it is pinned and nothing is searched
    monkeypatch.delenv(ISO_BUDGET_ENV, raising=False)
    places = 2_000_000
    assert places <= MAX_APEX_SIZE
    same = petri_file(tmp_path, "same.json", places, 0)
    moved = petri_file(tmp_path, "moved.json", places, 1)
    for pair in ((same, same), (same, moved)):
        start = time.process_time()
        code, out, err = run_cli(capsys, "check", *pair, "--laws", "iso")
        assert time.process_time() - start < 10
        assert (code, out, err) == (0, "PASS iso (1 cases)\n", "")


def test_iso_check_of_equal_files_builds_no_witness(tmp_path, capsys, monkeypatch):
    # the check needs only the verdict: equal files are decided by `==`, so
    # no identity map is built over the apex, and the budget is still read
    # first, so a malformed one is refused whatever the files
    path = petri_file(tmp_path, "same.json", 1000, 0, [{"src": {"0": 1}, "tgt": {"1": 1}}])
    real = FinFunction.identity
    sizes = []
    monkeypatch.setattr(FinFunction, "identity", lambda a: sizes.append(a.size) or real(a))
    monkeypatch.delenv(ISO_BUDGET_ENV, raising=False)
    assert run_cli(capsys, "check", path, path, "--laws", "iso") == (0, "PASS iso (1 cases)\n", "")
    assert 1000 not in sizes
    monkeypatch.setenv(ISO_BUDGET_ENV, "many")
    assert run_cli(capsys, "check", path, path, "--laws", "iso") == (
        2, "", "error: OPENCOSPAN_ISO_BUDGET must be an integer, got 'many'\n"
    )


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


# -- place keys and repeated keys -----------------------------------------------


def convert_expecting_a_format_error(tmp_path, capsys, text):
    model = tmp_path / "model.json"
    model.write_text(text)
    out = tmp_path / "out.json"
    code, _, err = run_cli(capsys, "convert", str(model), "--to", "structured", "--out", str(out))
    assert code == 3 and not out.exists()
    return err


@pytest.mark.parametrize(
    "key, canonical", [("01", "1"), (" 0", "0"), ("+1", "1"), ("1 ", "1")]
)
def test_a_place_key_in_any_other_form_than_the_number_is_refused(
    tmp_path, capsys, models_dir, key, canonical
):
    # int() would read the key as a place, and two keys for one place would
    # silently merge their tokens
    doc = json.loads((models_dir / "sir.json").read_text())
    doc["payload"]["system"]["transitions"][0]["src"] = {"1": 2, key: 3}
    err = convert_expecting_a_format_error(tmp_path, capsys, json.dumps(doc))
    assert f"transition 0 src has place key {key!r}, expected {canonical!r}" in err


def open_system(kind, system, legs=()):
    """A decorated model file of kind over system, with a left foot of
    len(legs) elements and an empty right foot."""
    payload = {
        "footLeft": len(legs),
        "footRight": 0,
        "legLeft": list(legs),
        "legRight": [],
        "representation": "decorated",
        "system": system,
    }
    return {"version": "1", "kind": kind, "representation": "decorated", "payload": payload}


def nested(depth):
    value = [0]
    for _ in range(depth):
        value = [value]
    return value


WIDE = 100_000


@pytest.mark.parametrize(
    "doc",
    [
        open_system("dynam", {"places": WIDE, "field": [[[1.0, [1] * (WIDE - 1) + [0.0]]]]}),
        open_system("petri", {"places": WIDE, "transitions": [
            {"src": {str(p): 1 if p < WIDE - 1 else -1 for p in range(WIDE)}, "tgt": {}}
        ]}),
        open_system(
            "petri", {"places": 1, "transitions": [{"src": {"0": nested(500)}, "tgt": {}}]}
        ),
        open_system("petri", {"places": 1, "transitions": []}, legs=[nested(500)]),
    ],
    ids=["wide exponent vector", "wide multiset", "nested count", "nested leg entry"],
)
def test_a_refused_value_is_named_in_one_short_line_however_large(tmp_path, capsys, doc):
    err = convert_expecting_a_format_error(tmp_path, capsys, json.dumps(doc))
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 120, err


MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def sir_sim_config(**overrides):
    config = json.loads((MODELS / "sir_sim.json").read_text())
    config.update(overrides)
    return config


def structured(doc):
    doc["representation"] = doc["payload"]["representation"] = "structured"
    return doc


CONVERT = ["convert", "in.json", "--to", "decorated", "--out", "out"]
SIMULATE_SIR = ["simulate", str(MODELS / "sir.json"), "--config", "in.json", "--out", "out"]

# refusals no other test reaches, each as (arguments, the document written
# to in.json, exit code, stderr)
REFUSALS = {
    "no laws": (["check", "--laws", ","], None, 3, "no laws requested"),
    "map off its codomain": (
        ["check", "--laws", "companion", "--map=-1", "--cod", "2"],
        None,
        2,
        "table[0] = -1 is outside the codomain of size 2",
    ),
    "structured dynam": (
        CONVERT,
        structured(open_system("dynam", {"places": 3, "field": [[], [], []]})),
        3,
        "dynam models only have a decorated representation",
    ),
    "field not an array": (
        CONVERT,
        open_system("dynam", {"places": 3, "field": 5}),
        3,
        "field must be an array of 3 components",
    ),
    "field component not an array": (
        CONVERT,
        open_system("dynam", {"places": 3, "field": [5, [], []]}),
        3,
        "field component 0 must be an array of terms",
    ),
    "initialState a list": (
        SIMULATE_SIR,
        sir_sim_config(initialState=[0.99, 0.01, 0.0]),
        3,
        "initialState must map place names to numbers",
    ),
    "inflows a list": (
        SIMULATE_SIR, sir_sim_config(inflows=[]), 3, "inflows must be an object"
    ),
    "breakpoints not an array": (
        SIMULATE_SIR,
        sir_sim_config(inflows={"x0": {"breakpoints": 0.5, "values": [1.0, 2.0]}}),
        3,
        "inflows[x0] breakpoints and values must be arrays",
    ),
    "t1 a 400-digit integer": (
        SIMULATE_SIR, sir_sim_config(t1=10**399), 3, "t1 must be a finite number"
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_remaining_refusal_keeps_its_exit_code_and_line(tmp_path, capsys, monkeypatch, case):
    argv, doc, code, message = REFUSALS[case]
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        (tmp_path / "in.json").write_text(json.dumps(doc))
    assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


LONG_KEY = "k" * WIDE


def edited(edit):
    """doc -> the text of doc after edit(doc)."""

    def text(doc):
        edit(doc)
        return json.dumps(doc)

    return text


def first_src(doc):
    return doc["payload"]["system"]["transitions"][0]["src"]


# a shape fault in a model file whose value or key is huge; name: doc -> text
HUGE_SHAPE_FAULTS = {
    "kind": edited(lambda d: d.update(kind=[0] * WIDE)),
    "version": edited(lambda d: d.update(version=[0] * WIDE)),
    "representation": edited(lambda d: d.update(representation=[0] * WIDE)),
    "unknown field": edited(lambda d: d.update({LONG_KEY: 1})),
    "duplicate key": lambda d: json.dumps(d)[:-1] + f', "{LONG_KEY}": 1, "{LONG_KEY}": 2}}',
    "non-numeric place key": edited(lambda d: first_src(d).update({LONG_KEY: 1})),
    "place key with leading zeros": edited(lambda d: first_src(d).update({"0" * 4000 + "1": 1})),
}


@pytest.mark.parametrize("fault", sorted(HUGE_SHAPE_FAULTS))
def test_a_file_shape_fault_is_named_in_one_short_line_however_large(
    tmp_path, capsys, models_dir, fault
):
    doc = json.loads((models_dir / "sir.json").read_text())
    err = convert_expecting_a_format_error(tmp_path, capsys, HUGE_SHAPE_FAULTS[fault](doc))
    assert err.startswith("error: ") and err.count("\n") == 1, err[:200]
    assert len(err) - len(str(tmp_path)) < 120, err[:200]


def test_a_long_unknown_name_in_a_config_is_named_in_one_short_line(
    tmp_path, capsys, models_dir
):
    for block in ("initialState", "inflows"):
        config = write_sim_config(tmp_path, **{block: {LONG_KEY: 1.0}})
        code, _, err = run_cli(
            capsys, "simulate", str(models_dir / "sir.json"), "--config", str(config),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2 and err.count("\n") == 1 and len(err) < 120, err[:200]


@pytest.mark.parametrize(
    "block, entry, message",
    [
        ("initialState", math.nan, "must be a finite number"),
        ("inflows", {"breakpoints": [2.0, 1.0], "values": [0.0, 1.0, 2.0]},
         "breakpoints must be strictly increasing"),
    ],
)
def test_a_long_name_in_a_bad_config_entry_is_cut_to_40_characters(
    tmp_path, capsys, models_dir, block, entry, message
):
    config = write_sim_config(tmp_path, **{block: {LONG_KEY: entry}})
    err = simulate_expecting_a_format_error(tmp_path, capsys, models_dir / "sir.json", config)
    assert err.startswith(f"error: {block}[{'k' * 37}...]") and message in err
    assert err.count("\n") == 1 and len(err) < 120, err[:200]


def test_a_repeated_key_in_a_model_or_config_file_is_refused(tmp_path, capsys, models_dir):
    text = (models_dir / "sir.json").read_text()
    repeated = text.replace('"src":{"0":1,"1":1}', '"src":{"0":1,"1":1,"0":4}', 1)
    assert repeated != text
    err = convert_expecting_a_format_error(tmp_path, capsys, repeated)
    assert "duplicate key '0' in one JSON object" in err

    config = tmp_path / "sim.json"
    config.write_text('{"t0": 0, "t1": 1, "dt": 0.5, "dt": 0.1, "initialState": {}}')
    csv = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "simulate", str(models_dir / "sir.json"), "--config", str(config), "--out", str(csv)
    )
    assert code == 3 and not csv.exists()
    assert f"{config}: duplicate key 'dt' in one JSON object" in err


def test_a_deeply_nested_model_or_config_file_is_refused_in_one_short_line(
    tmp_path, capsys, models_dir
):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    csv = tmp_path / "x.csv"
    sir = str(models_dir / "sir.json")
    for args in (
        ("convert", str(deep), "--to", "structured", "--out", str(tmp_path / "x.json")),
        ("simulate", sir, "--config", str(deep), "--out", str(csv)),
    ):
        code, _, err = run_cli(capsys, *args)
        assert code == 3 and not csv.exists()
        assert err == f"error: {deep} is not valid JSON: nested too deeply\n"


@pytest.mark.parametrize(
    "old, new",
    [
        ('"rate":0.3', '"rate":1' + "0" * 5000),
        ('"places":3', '"places":1' + "0" * 5000),
        ('"places":["S"', '"places":[1' + "0" * 5000),
    ],
    ids=["rate", "size", "name"],
)
def test_an_integer_literal_too_long_to_read_is_refused_in_one_line(
    tmp_path, capsys, models_dir, old, new
):
    text = (models_dir / "sir.json").read_text()
    assert text.count(old) == 1
    huge = tmp_path / "huge.json"
    huge.write_text(text.replace(old, new))
    out = tmp_path / "x.json"
    code, _, err = run_cli(capsys, "convert", str(huge), "--to", "structured", "--out", str(out))
    assert code == 3 and not out.exists()
    assert err == (
        f"error: {huge} is not valid JSON: an integer literal has more than "
        f"{sys.get_int_max_str_digits()} digits\n"
    )


def test_a_count_too_large_for_a_float_is_refused_by_graybox_and_simulate(
    tmp_path, capsys, models_dir
):
    """A count of 309 or more digits is an int a net holds and moves, but its
    mass-action coefficient is no float."""
    text = (models_dir / "sir.json").read_text()
    old = '"tgt":{"1":2}'
    assert text.count(old) == 1
    big = tmp_path / "big.json"
    big.write_text(text.replace(old, '"tgt":{"1":1' + "0" * 400 + "}"))
    config, out = str(models_dir / "sir_sim.json"), tmp_path / "out"
    for args in (("graybox", str(big)), ("simulate", str(big), "--config", config)):
        code, stdout, err = run_cli(capsys, *args, "--out", str(out))
        assert (code, stdout, err) == (
            2, "",
            "error: coefficient overflow: rate 0.3 times the count change "
            "999999999999999999...9999999999999999999 at place 1 is not a finite float\n",
        )
        assert not out.exists()
    code, _, _ = run_cli(capsys, "convert", str(big), "--to", "structured", "--out", str(out))
    assert code == 0


@pytest.mark.parametrize("key, old", [("places", '"S"'), ("footLeft", '"i2"')])
def test_a_name_with_a_lone_surrogate_is_refused(tmp_path, capsys, models_dir, key, old):
    """A lone surrogate is no text UTF-8 can write: a CSV header holds the
    place names, so every command refuses such a name when it reads it."""
    text = (models_dir / "sir.json").read_text()
    assert text.count(old) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace(old, '"\\ud800"'))
    csv = tmp_path / "x.csv"
    for args in (
        ("convert", str(bad), "--to", "structured", "--out", str(tmp_path / "x.json")),
        ("simulate", str(bad), "--config", str(models_dir / "sir_sim.json"), "--out", str(csv)),
    ):
        code, out, err = run_cli(capsys, *args)
        assert (code, out, err) == (3, "", f"error: names.{key} must hold no lone surrogate\n")
        assert not csv.exists()


# a model or config file is read as text-mode reading gives it: CR LF and a
# lone CR count as one newline, and a UTF-8 byte order mark is kept, then refused
UNREADABLE_FILES = [
    ("crlf", b'{\r\n"a": 1,\r\n"bc" 2\r\n}',
     "is not valid JSON: Expecting ':' delimiter: line 3 column 6 (char 15)"),
    ("cr", b'{\r"a": 1,\r"bc" 2\r}',
     "is not valid JSON: Expecting ':' delimiter: line 3 column 6 (char 15)"),
    ("bom", b"\xef\xbb\xbf{}",
     "is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("deep", b"[" * 100_000 + b"]" * 100_000, "is not valid JSON: nested too deeply"),
    ("utf-16", b"\xff\xfe{}", "is not valid UTF-8: invalid start byte at byte 0"),
    ("cut", b'{"\xe2\x82', "is not valid UTF-8: unexpected end of data at byte 2"),
]


@pytest.mark.parametrize(
    "data, message", [pytest.param(*case[1:], id=case[0]) for case in UNREADABLE_FILES]
)
def test_an_unreadable_model_or_config_file_is_refused_in_one_line(
    tmp_path, capsys, models_dir, data, message
):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    csv = tmp_path / "x.csv"
    sir = str(models_dir / "sir.json")
    for args in (
        ("convert", str(bad), "--to", "structured", "--out", str(tmp_path / "x.json")),
        ("simulate", sir, "--config", str(bad), "--out", str(csv)),
    ):
        code, out, err = run_cli(capsys, *args)
        assert (code, out, err) == (3, "", f"error: {bad} {message}\n")
        assert not csv.exists()


# -- one parser per process ------------------------------------------------------


@pytest.fixture
def fresh_parser():
    """The parser cache emptied before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_importing_the_cli_builds_no_parser():
    package_root = str(pathlib.Path(opencospan.__file__).resolve().parent.parent)
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import opencospan.cli\n"
        "print(len(built))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert (result.returncode, result.stdout) == (0, "0\n"), result.stderr


def test_main_builds_its_parser_once(fresh_parser, monkeypatch, capsys, models_dir, tmp_path):
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    sir, left, right = (str(models_dir / f"{n}.json") for n in ("sir", "sir_left", "sir_right"))
    runs = [
        ["compose", left, right, "--out", str(tmp_path / "c.json")],
        ["check", sir, sir, "--laws", "iso"],
        ["convert", sir, "--to", "structured", "--out", str(tmp_path / "s.json")],
        ["check", "--laws", "companion", "--map", "0,0"],
    ]
    for argv in runs:
        assert run_cli(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit):
        main(["convert", sir, "--to", "bogus"])
    assert len(built) == 1
    assert cli.build_parser() is not cli.build_parser()


def test_a_usage_error_leaves_the_next_call_as_in_a_fresh_process(
    fresh_parser, capsys, models_dir
):
    sir, left = str(models_dir / "sir.json"), str(models_dir / "sir_left.json")
    argv = ["check", sir, left, "--laws", "iso"]
    fresh = run_cli(capsys, *argv)
    assert fresh[0] == 2 and fresh[1].startswith("FAIL iso")
    namespace = vars(cli.build_parser().parse_args(argv))
    assert run_cli(capsys, "check", "--laws", "companion", "--map", "1,0", "--cod", "3")[0] == 0
    for mistake in (
        ["check", sir, left, "--laws", "iso", "--cod", "x"],
        ["check", sir, left],
        ["convert", sir, "--to", "bogus"],
        ["bogus", sir],
    ):
        with pytest.raises(SystemExit) as exit_:
            main(mistake)
        assert exit_.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *argv) == fresh
        assert vars(cli._parser().parse_args(argv)) == namespace


# -- help pages on every supported Python -----------------------------------------

HELP_PAGES = ([], ["compose"], ["tensor"], ["convert"], ["graybox"], ["simulate"], ["check"])
# prints the top-level help page, then each command's
HELP_SCRIPT = (
    "from opencospan.cli import main\n"
    f"for page in {HELP_PAGES!r}:\n"
    "    try:\n"
    "        main([*page, '--help'])\n"
    "    except SystemExit:\n"
    "        pass\n"
)


def pyenv_python(version):
    """The newest interpreter of `version` (say "3.13") in pyenv's versions
    folder that starts, or None."""
    root = pathlib.Path(os.environ.get("PYENV_ROOT") or pathlib.Path.home() / ".pyenv")
    for python in sorted(root.glob(f"versions/{version}.*/bin/python"), reverse=True):
        if subprocess.run([str(python), "-c", ""], capture_output=True).returncode == 0:
            return python
    return None


@pytest.mark.parametrize("version", ("3.10", "3.12", "3.13"))
def test_help_pages_are_the_same_bytes_on_every_supported_python(capsys, monkeypatch, version):
    python = pyenv_python(version)
    if python is None:
        pytest.skip(f"no Python {version} that starts in pyenv's versions folder")
    monkeypatch.setenv("COLUMNS", "80")
    for page in HELP_PAGES:
        with pytest.raises(SystemExit):
            main([*page, "--help"])
    expected = capsys.readouterr().out.encode()
    package_root = str(pathlib.Path(opencospan.__file__).resolve().parent.parent)
    result = subprocess.run(
        [str(python), "-c", HELP_SCRIPT],
        capture_output=True,
        env={**os.environ, "COLUMNS": "80", "PYTHONPATH": package_root},
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == expected


# the ledger of tests/test_ledger.py, run in this folder's copy, prints the
# families whose digests differ from its pins
LEDGER_SCRIPT = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from test_ledger import PINNED, ledger\n"
    "digests = ledger(sys.argv[2])\n"
    "print([family for family in PINNED if digests[family] != PINNED[family]])\n"
)


@pytest.mark.parametrize("version", ("3.10", "3.12", "3.13"))
def test_the_ledger_is_the_same_bytes_on_every_supported_python(tmp_path, version):
    python = pyenv_python(version)
    if python is None:
        pytest.skip(f"no Python {version} that starts in pyenv's versions folder")
    package_root = str(pathlib.Path(opencospan.__file__).resolve().parent.parent)
    env = {name: value for name, value in os.environ.items() if name != ISO_BUDGET_ENV}
    env.update(COLUMNS="80", PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=package_root)
    tests = str(pathlib.Path(__file__).resolve().parent)
    result = subprocess.run(
        [str(python), "-c", LEDGER_SCRIPT, tests, str(tmp_path)], capture_output=True, env=env
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == b"[]\n"
