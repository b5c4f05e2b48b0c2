"""JSON model files: canonical serialization, strict parsing, sim configs."""

import copy
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from opencospan import (
    EMPTY,
    DecoratedCospan,
    FinFunction,
    FinSet,
    Graph,
    LabeledGraph,
    ModelFile,
    ModelFormatError,
    ModelValidationError,
    Names,
    NotInImageOfL,
    OpenDynam,
    PiecewiseConstant,
    StructuredCospan,
    canonical_json,
    default_names,
    graybox,
    load_model,
    model_from_json,
    resolve_simulation,
    save_model,
    sim_config_from_json,
    to_structured,
    trajectory_to_csv,
)
from opencospan.laws import intro_open_graph, sir_open_net


def fn(table, cod):
    return FinFunction(FinSet(len(table)), FinSet(cod), tuple(table))


def open_lgraph():
    graph = Graph(FinSet(2), FinSet(2), fn([0, 1], 2), fn([1, 0], 2))
    return DecoratedCospan(
        FinSet(1), FinSet(1), fn([0], 2), fn([1], 2), LabeledGraph(graph, ("a", "b"))
    )


def sir_model():
    return ModelFile(
        "petri_rates",
        sir_open_net(),
        Names(("S", "I", "R"), ("i1", "i2", "i3"), ("o1",)),
    )


ALL_MODELS = {
    "graph": lambda: ModelFile("graph", intro_open_graph()),
    "lgraph": lambda: ModelFile("lgraph", open_lgraph()),
    "petri_rates": sir_model,
    "structured": lambda: ModelFile("graph", to_structured(intro_open_graph())),
    "dynam": lambda: ModelFile("dynam", graybox(sir_open_net())),
}


# -- canonical JSON -------------------------------------------------------------------


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1.5, 0.1]}) == '{"a":[1.5,0.1],"b":1}'
    with pytest.raises(ModelFormatError):
        canonical_json({"x": math.nan})


@pytest.mark.parametrize("name", sorted(ALL_MODELS))
def test_save_load_save_is_byte_identical(tmp_path, name):
    model = ALL_MODELS[name]()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    save_model(str(first), model)
    loaded = load_model(str(first))
    assert loaded.payload == model.payload
    assert loaded.kind == model.kind and loaded.names == model.names
    save_model(str(second), loaded)
    assert first.read_bytes() == second.read_bytes()


def test_a_model_that_cannot_be_serialized_leaves_the_file_as_it_was(tmp_path):
    # an lgraph built through the API may carry a NaN label, which
    # canonical JSON refuses
    graph = Graph(FinSet(1), FinSet(1), fn([0], 1), fn([0], 1))
    bad = ModelFile(
        "lgraph",
        DecoratedCospan(EMPTY, EMPTY, fn([], 1), fn([], 1), LabeledGraph(graph, (math.nan,))),
    )
    out = tmp_path / "out.json"
    out.write_bytes(b"previous contents\n")
    with pytest.raises(ModelFormatError, match="not serializable canonically"):
        save_model(str(out), bad)
    assert out.read_bytes() == b"previous contents\n"


def test_float_rates_survive_the_roundtrip_exactly():
    raw = ModelFile("petri_rates", sir_open_net()).to_json()
    again = model_from_json(json.loads(canonical_json(raw)))
    assert again.payload.decoration.rates == (0.3, 0.1)


# -- strict schema ---------------------------------------------------------------------


def valid_json():
    return sir_model().to_json()


def rejects(raw, exc=ModelFormatError):
    with pytest.raises(exc):
        model_from_json(raw)


def test_unknown_fields_are_rejected_at_every_level():
    for path in (
        ("extra",),
        ("payload", "extra"),
        ("payload", "system", "extra"),
        ("payload", "system", "transitions", 0, "extra"),
        ("names", "extra"),
    ):
        raw = copy.deepcopy(valid_json())
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 1
        rejects(raw)


def test_missing_required_fields_are_rejected():
    for key in ("version", "kind", "representation", "payload"):
        raw = copy.deepcopy(valid_json())
        del raw[key]
        rejects(raw)


def test_version_kind_and_representation_are_checked():
    raw = valid_json()
    rejects({**raw, "version": "2"})
    rejects({**raw, "kind": "hypergraph"})
    rejects({**raw, "representation": "mixed"})
    mismatched = copy.deepcopy(raw)
    mismatched["representation"] = "structured"
    rejects(mismatched)  # payload still says decorated


def test_petri_transitions_reject_rates_in_the_unrated_kind():
    raw = copy.deepcopy(valid_json())
    raw["kind"] = "petri"
    rejects(raw)  # transition entries carry a rate field
    for entry in raw["payload"]["system"]["transitions"]:
        del entry["rate"]
    model = model_from_json(raw)
    assert model.kind == "petri"


def test_rates_are_validated_when_present():
    raw = copy.deepcopy(valid_json())
    raw["payload"]["system"]["transitions"][0]["rate"] = -1.0
    rejects(raw)
    raw["payload"]["system"]["transitions"][0]["rate"] = "fast"
    rejects(raw)


def test_leg_tables_must_land_in_the_apex():
    raw = copy.deepcopy(valid_json())
    raw["payload"]["legLeft"] = [0, 0, 9]
    rejects(raw)
    raw["payload"]["legLeft"] = [0, "one", 1]
    rejects(raw)


def test_multisets_are_checked_per_place():
    raw = copy.deepcopy(valid_json())
    raw["payload"]["system"]["transitions"][0]["src"] = {"7": 1}
    rejects(raw)
    raw["payload"]["system"]["transitions"][0]["src"] = {"0": -1}
    rejects(raw)


def test_names_must_fit_and_not_repeat():
    raw = copy.deepcopy(valid_json())
    raw["names"]["places"] = ["S", "I"]
    rejects(raw)
    raw = copy.deepcopy(valid_json())
    raw["names"]["places"] = ["S", "S", "R"]
    rejects(raw)
    raw = copy.deepcopy(valid_json())
    raw["names"]["footLeft"] = ["i1", 2, "i3"]
    rejects(raw)


def test_dynam_fields_must_be_canonical():
    raw = ModelFile("dynam", graybox(sir_open_net())).to_json()
    good = model_from_json(copy.deepcopy(raw))
    assert isinstance(good.payload, OpenDynam)
    broken = copy.deepcopy(raw)
    # duplicate exponent vectors are not canonical
    term = broken["payload"]["system"]["field"][0][0]
    broken["payload"]["system"]["field"][0] = [term, term]
    rejects(broken)
    broken = copy.deepcopy(raw)
    broken["payload"]["system"]["field"][0] = [[1.0, [1]]]
    rejects(broken)  # exponent vector has the wrong arity


# -- structured feet ---------------------------------------------------------------------


def structured_json():
    return ModelFile("graph", to_structured(intro_open_graph())).to_json()


def test_structured_feet_load_from_sizes_or_discrete_objects():
    raw = structured_json()
    assert raw["payload"]["footLeft"] == 1
    by_size = model_from_json(copy.deepcopy(raw))
    expanded = copy.deepcopy(raw)
    expanded["payload"]["footLeft"] = {"nodes": 1, "edges": 0, "src": [], "tgt": []}
    by_object = model_from_json(expanded)
    assert by_object.payload == by_size.payload
    assert isinstance(by_object.payload, StructuredCospan)


def test_structured_foot_with_cells_has_no_decorated_reading():
    raw = structured_json()
    raw["payload"]["footLeft"] = {"nodes": 1, "edges": 1, "src": [0], "tgt": [0]}
    rejects(raw, NotInImageOfL)


# -- sim configs ---------------------------------------------------------------------------


def sim_config_json(**overrides):
    base = {
        "t0": 0.0,
        "t1": 1.0,
        "dt": 0.1,
        "initialState": {"S": 0.9, "I": 0.1},
        "inflows": {},
        "outflows": {},
    }
    base.update(overrides)
    return base


def test_sim_config_parses_numbers_and_breakpoint_flows():
    config = sim_config_from_json(
        sim_config_json(inflows={"i1": 2.0, "i2": {"breakpoints": [1.0], "values": [0.0, 3.0]}})
    )
    assert config.dt == 0.1
    assert config.inflows["i1"](99.0) == 2.0
    assert config.inflows["i2"](0.5) == 0.0 and config.inflows["i2"](1.5) == 3.0


def test_sim_config_rejects_malformed_input():
    with pytest.raises(ModelFormatError):
        sim_config_from_json(sim_config_json(extra=1))
    with pytest.raises(ModelFormatError):
        sim_config_from_json(sim_config_json(t0="start"))
    with pytest.raises(ModelFormatError):
        sim_config_from_json(sim_config_json(t1=math.inf))
    with pytest.raises(ModelFormatError):
        sim_config_from_json(sim_config_json(initialState={"S": "lots"}))
    with pytest.raises(ModelFormatError):
        sim_config_from_json(
            sim_config_json(inflows={"i1": {"breakpoints": [2.0, 1.0], "values": [0, 1, 2]}})
        )


def test_sim_config_windows_are_validated_not_just_parsed():
    with pytest.raises(ModelValidationError):
        sim_config_from_json(sim_config_json(dt=0.0))
    with pytest.raises(ModelValidationError):
        sim_config_from_json(sim_config_json(dt=-0.5))
    with pytest.raises(ModelValidationError):
        sim_config_from_json(sim_config_json(t1=0.0))


def test_resolve_simulation_maps_names_to_positions():
    model = sir_model()
    config = sim_config_from_json(
        sim_config_json(initialState={"R": 1.0, "S": 2.0}, inflows={"i3": 0.5}, outflows={"o1": 1.5})
    )
    system, schedule, state, names = resolve_simulation(model, config)
    assert state == [2.0, 0.0, 1.0]
    assert schedule.inflows[2](0.0) == 0.5 and schedule.inflows[0] is PiecewiseConstant.ZERO
    assert schedule.outflows[0](0.0) == 1.5
    assert names.places == ("S", "I", "R")
    assert system.field.components[0].terms == ((-0.3, (1, 1, 0)),)


def test_resolve_simulation_validates_names_and_kinds():
    model = sir_model()
    with pytest.raises(ModelValidationError):
        resolve_simulation(model, sim_config_from_json(sim_config_json(initialState={"X": 1.0})))
    with pytest.raises(ModelValidationError):
        resolve_simulation(model, sim_config_from_json(sim_config_json(inflows={"nope": 1.0})))
    graph_model = ModelFile("graph", intro_open_graph())
    with pytest.raises(ModelValidationError):
        resolve_simulation(graph_model, sim_config_from_json(sim_config_json(initialState={})))


def test_default_names_fall_back_to_positional_labels():
    model = ModelFile("petri_rates", sir_open_net())
    names = default_names(model)
    assert names.places == ("p0", "p1", "p2")
    assert names.foot_left == ("x0", "x1", "x2")
    assert names.foot_right == ("y0",)


def test_dynam_models_resolve_directly():
    model = ModelFile("dynam", graybox(sir_open_net()))
    config = sim_config_from_json(sim_config_json(initialState={"p0": 1.0}))
    system, _, state, _ = resolve_simulation(model, config)
    assert isinstance(system, OpenDynam) and state == [1.0, 0.0, 0.0]


# -- loading and CSV --------------------------------------------------------------------------


def test_load_model_distinguishes_parse_and_io_failures(tmp_path):
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(str(garbled))
    with pytest.raises(OSError):
        load_model(str(tmp_path / "missing.json"))


def test_trajectory_csv_has_a_header_and_full_precision():
    csv = trajectory_to_csv([(0.0, (1.0, 0.1)), (0.5, (0.25, 1e-17))], ("a", "b"))
    lines = csv.strip().split("\n")
    assert lines[0] == "t,a,b"
    assert lines[1].startswith("0,1,")
    # every value round-trips through its printed form exactly
    assert [float(x) for x in lines[1].split(",")] == [0.0, 1.0, 0.1]
    assert [float(x) for x in lines[2].split(",")] == [0.5, 0.25, 1e-17]


def test_trajectory_csv_quotes_header_names_that_need_it():
    names = ("S,susceptible", "I\ninfected", 'say "R"', "carriage\rreturn", "plain name")
    text = trajectory_to_csv([(0.0, (1.0,) * 5), (0.5, (2.0,) * 5)], names)
    assert text.startswith(
        't,"S,susceptible","I\ninfected","say ""R""","carriage\rreturn",plain name\n0,1,'
    )
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows == [["t", *names], ["0"] + ["1"] * 5, ["0.5"] + ["2"] * 5]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False),
            st.lists(st.floats(allow_nan=False), min_size=3, max_size=3),
        ),
        max_size=5,
    )
)
def test_trajectory_csv_rows_print_every_value_as_its_17_digit_form(rows):
    trajectory = [(t, tuple(state)) for t, state in rows]
    want = ["t,a,b,c"] + [",".join(f"{x:.17g}" for x in (t, *state)) for t, state in trajectory]
    assert trajectory_to_csv(trajectory, ("a", "b", "c")) == "\n".join(want) + "\n"
