"""JSON model files: canonical serialization, strict parsing, sim configs."""

import copy
import csv
import io
import json
import math
import sys
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from opencospan import (
    EMPTY,
    DecoratedCospan,
    FieldTooLarge,
    FinFunction,
    FinSet,
    Graph,
    KindError,
    LabeledGraph,
    ModelFile,
    ModelFormatError,
    ModelValidationError,
    Multiset,
    Names,
    NotInImageOfL,
    OpenDynam,
    PiecewiseConstant,
    Poly,
    PolyVectorField,
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
from opencospan import modelio, systems
from opencospan.dynamics import MAX_FIELD_EXPONENTS
from opencospan.finset import _short
from opencospan.laws import intro_open_graph, random_cospan, sir_open_net
from opencospan.systems import COEFF_DROP


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



def test_a_model_file_refuses_a_payload_of_another_kind(tmp_path):
    # such a file would be written, then refused when it is loaded
    out = tmp_path / "out.json"
    with pytest.raises(KindError, match="a graph model file cannot hold a petri_rates cospan"):
        save_model(str(out), ModelFile("graph", sir_open_net()))
    assert not out.exists()
    with pytest.raises(KindError, match="dynam.*petri_rates"):
        ModelFile("dynam", to_structured(sir_open_net()))


@pytest.mark.parametrize(
    "names, message",
    [
        (Names(("S",), None, None), "names.places has 1 entries, expected 3"),
        (Names(None, ("i1",), None), "names.footLeft has 1 entries, expected 3"),
        (Names(("S", "I", "R"), None, ("o1", "o2")), "names.footRight has 2 entries, expected 1"),
    ],
)
def test_a_model_file_refuses_names_that_do_not_fit_as_loading_does(tmp_path, names, message):
    out = tmp_path / "out.json"
    with pytest.raises(ModelFormatError) as built:
        save_model(str(out), ModelFile("petri_rates", sir_open_net(), names))
    assert str(built.value) == message and not out.exists()
    raw = ModelFile("petri_rates", sir_open_net()).to_json()
    raw["names"] = names.to_json()
    with pytest.raises(ModelFormatError) as loaded:
        model_from_json(raw)
    assert str(loaded.value) == message

# dynam models only have a decorated representation
PRESENTED_KINDS = [
    (kind, representation)
    for kind in ("graph", "lgraph", "petri", "petri_rates", "dynam")
    for representation in ("decorated", "structured")
    if kind != "dynam" or representation == "decorated"
]


@pytest.mark.parametrize("kind, representation", PRESENTED_KINDS)
@pytest.mark.parametrize("named", [False, True], ids=["no names", "names"])
def test_a_saved_file_is_the_canonical_json_of_its_model(tmp_path, kind, representation, named):
    rng = Random(f"saved bytes {kind} {representation} {named}")
    for case in range(12):
        base = "petri_rates" if kind == "dynam" else kind
        payload = random_cospan(rng, base, max_apex=12, max_cells=8)
        if kind == "dynam":
            payload = graybox(payload)
        if representation == "structured":
            payload = to_structured(payload)
        model = ModelFile(kind, payload)
        if named:
            model = ModelFile(kind, model.payload, default_names(model))
        out = tmp_path / f"{case}.json"
        save_model(str(out), model)
        assert out.read_text() == canonical_json(model.to_json()) + "\n"


def test_saving_a_grayboxed_net_builds_no_dense_exponent_list(tmp_path, monkeypatch):
    net = random_cospan(Random("no dense save"), "petri_rates", 2, 2, max_apex=9, max_cells=9)
    names = Names(places=tuple(f"s{i}" for i in range(net.apex.size)))
    model = ModelFile("dynam", graybox(net), names)
    want = canonical_json(model.to_json()) + "\n"

    def dense_of(*args):
        raise AssertionError("a dense exponent list was built")

    monkeypatch.setattr(systems, "_dense_of", dense_of)
    # the patch reaches the dense path: to_json goes through it
    with pytest.raises(AssertionError, match="dense exponent list"):
        model.to_json()
    out = tmp_path / "dynam.json"
    save_model(str(out), model)
    assert out.read_text() == want


def test_a_field_over_the_dense_size_cap_is_refused_before_any_text(tmp_path, monkeypatch):
    # 50 transitions make 100 terms; the places bring places x terms just over the cap
    places = MAX_FIELD_EXPONENTS // 100 + 1
    net = {
        "places": places,
        "transitions": [
            {"src": {str(2 * t): 1}, "tgt": {str(2 * t + 1): 1}, "rate": 0.5} for t in range(50)
        ],
    }
    system = modelio.system_from_json("petri_rates", net)
    open_net = DecoratedCospan(EMPTY, EMPTY, fn([], places), fn([], places), system)
    model = ModelFile("dynam", graybox(open_net))

    def field_pieces(field):
        raise AssertionError("field text was built")

    monkeypatch.setattr(modelio, "_field_pieces", field_pieces)
    out = tmp_path / "out.json"
    out.write_bytes(b"previous contents\n")
    message = (
        f"the dense form of a field of {places} places and 100 terms holds {places * 100} "
        f"exponents, over the cap of {MAX_FIELD_EXPONENTS} (places x terms)"
    )
    for write in (lambda: save_model(str(out), model), model.to_json):
        with pytest.raises(FieldTooLarge) as caught:
            write()
        assert str(caught.value) == message
    assert out.read_bytes() == b"previous contents\n"


def dense_field(field):
    """A field's "field" value as the dense lists `json` is given."""
    return [[[c, list(e)] for c, e in p.terms] for p in field.components]


JUST_ABOVE_DROP = math.nextafter(COEFF_DROP, 1.0)
SPECIAL_COEFFICIENTS = (
    1e-05, 1.5e300, -2.5e-07, sys.float_info.max, -sys.float_info.max,
    JUST_ABOVE_DROP, -JUST_ABOVE_DROP, 1.0, -3.0, 0.1, 123456789.0, 1e16,
)
COEFFICIENTS = st.one_of(
    st.sampled_from(SPECIAL_COEFFICIENTS),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda c: abs(c) > COEFF_DROP),
)


@st.composite
def sparse_fields(draw):
    n = draw(st.integers(0, 13))
    if n == 0:
        return PolyVectorField(FinSet(0), ())
    # (component, coefficient, nonzero exponents by place), some of 10 or more
    terms = draw(st.lists(st.tuples(
        st.integers(0, n - 1),
        COEFFICIENTS,
        st.dictionaries(st.integers(0, n - 1), st.sampled_from((1, 2, 3, 9, 10, 12)), max_size=3),
    ), max_size=12))
    raw = [{} for _ in range(n)]
    for i, c, exponents in terms:
        raw[i][tuple(exponents.get(j, 0) for j in range(n))] = c
    components = [Poly.from_terms(n, [(c, e) for e, c in r.items()]) for r in raw]
    return PolyVectorField(FinSet(n), tuple(components))


def edge_field():
    """12 places; nonzero exponents of 10 or more at the first and last place;
    an empty component; coefficients whose reprs are in exponent form."""
    n = 12
    first, last = [10] + [0] * (n - 1), [0] * (n - 1) + [11]
    both, constant = [1] + [0] * (n - 2) + [12], [0] * n
    terms = [
        [(1e-05, first), (-sys.float_info.max, last)],
        [],
        [(1.5e300, both), (JUST_ABOVE_DROP, constant), (-JUST_ABOVE_DROP, last)],
    ]
    components = [Poly.from_terms(n, t) for t in terms] + [Poly.zero(n)] * (n - 3)
    return PolyVectorField(FinSet(n), tuple(components))


@settings(max_examples=200, deadline=None)
@example(field=PolyVectorField(FinSet(0), ()))
@example(field=PolyVectorField.zero(FinSet(3)))
@example(field=edge_field())
@given(field=sparse_fields())
def test_the_field_writer_writes_what_json_writes_of_the_dense_lists(field):
    want = json.dumps(dense_field(field), separators=(",", ":"))
    assert "".join(modelio._field_pieces(field)) == want


def test_float_rates_survive_the_roundtrip_exactly():
    raw = ModelFile("petri_rates", sir_open_net()).to_json()
    again = model_from_json(json.loads(canonical_json(raw)))
    assert again.payload.decoration.attrs == (0.3, 0.1)


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


def dynam_json():
    return ModelFile("dynam", graybox(sir_open_net())).to_json()


def with_src(value):
    def edit(raw):
        raw["payload"]["system"]["transitions"][0]["src"] = value

    return edit


def with_exponents(exps):
    def edit(raw):
        raw["payload"]["system"]["field"][1] = [[1.0, exps]]

    return edit


def with_leg(table):
    def edit(raw):
        raw["payload"]["legLeft"] = table

    return edit


# value checks owned by a constructor, met in a file: the constructor's
# message, behind the place in the file where the value sits
MOVED_CHECKS = [
    ("place 7 of 3", valid_json, with_src({"7": 1}),
     "transition 0 src: place 7 is outside the set of size 3"),
    ("count -1", valid_json, with_src({"0": -1}),
     "transition 0 src: count at 0 must be a nonnegative int, got -1"),
    ("count true", valid_json, with_src({"0": True}),
     "transition 0 src: count at 0 must be a nonnegative int, got True"),
    ("count 1.5", valid_json, with_src({"0": 1.5}),
     "transition 0 src: count at 0 must be a nonnegative int, got 1.5"),
    ("short exponents", dynam_json, with_exponents([1, 0]),
     "field component 1: exponent vector has 2 entries, not 3"),
    ("negative exponent", dynam_json, with_exponents([0, -1, 0]),
     "field component 1: exponents must be nonnegative ints, got -1 at 1"),
    ("float exponent", dynam_json, with_exponents([1.5, 0, 0]),
     "field component 1: exponents must be nonnegative ints, got 1.5 at 0"),
    ("bool exponent", dynam_json, with_exponents([0, 0, True]),
     "field component 1: exponents must be nonnegative ints, got True at 2"),
    ("leg entry 9", valid_json, with_leg([0, 0, 9]),
     "legLeft: table[2] = 9 is outside the codomain of size 3"),
    ("leg entry 'one'", valid_json, with_leg([0, "one", 1]),
     "legLeft: table[1] = 'one' is outside the codomain of size 3"),
    ("leg entry true", valid_json, with_leg([0, True, 1]),
     "legLeft: table[1] = True is outside the codomain of size 3"),
    ("leg entry [0]", valid_json, with_leg([[0], 1, 2]),
     "legLeft: table[0] = [0] is outside the codomain of size 3"),
    ("leg table of the wrong length", valid_json, with_leg([0, 1]),
     "legLeft: table length 2 does not match domain size 3"),
]


@pytest.mark.parametrize(
    "base, edit, message", [pytest.param(*case[1:], id=case[0]) for case in MOVED_CHECKS]
)
def test_a_value_a_constructor_refuses_is_a_format_error_at_its_place(base, edit, message):
    raw = copy.deepcopy(base())
    edit(raw)
    with pytest.raises(ModelFormatError) as caught:
        model_from_json(raw)
    assert str(caught.value) == message


def counted(monkeypatch, owner, name):
    """The arguments of each call of owner.name while the test runs."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_loading_checks_each_stored_pair_once(monkeypatch):
    net = random_cospan(Random("one check per datum"), "petri_rates", 2, 2, max_apex=6, max_cells=9)
    field = graybox(net)
    raws = [ModelFile("petri_rates", net).to_json(), ModelFile("dynam", field).to_json()]
    checks = counted(monkeypatch, systems, "_check_pairs")
    scans = counted(monkeypatch, systems, "_nonzero_pairs")
    dense = counted(monkeypatch, Multiset, "__init__")
    dense_polys = counted(monkeypatch, Poly, "__init__")
    model_from_json(raws[0])
    transitions = net.decoration.cells.size
    assert transitions >= 5 and len(checks) == 2 * transitions
    checks.clear()
    model_from_json(raws[1])
    terms = sum(len(p.sparse) for p in field.decoration.components)
    assert terms >= 5 and len(checks) == terms
    # each dense exponent vector is scanned once, and the Poly is built from its pairs
    assert len(scans) == terms and all(type(vector) is list for vector, _ in scans)
    assert dense == [] and dense_polys == []


def parsed_then_from_dict(value, places, where):
    """A multiset object read key by key into a dict, then built by
    `Multiset.from_dict`: the reading the loader's single pass must match."""
    entries = {}
    for key, count in value.items():
        try:
            place = int(key)
        except ValueError:
            raise ModelFormatError(f"{where} has non-numeric place key {_short(key)}") from None
        if key != str(place):
            raise ModelFormatError(
                f"{where} has place key {_short(key)}, expected {_short(str(place))}"
            )
        entries[place] = count
    try:
        return Multiset.from_dict(places, entries)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc


MULTISET_KEYS = st.one_of(
    st.integers(-2, 6).map(str), st.sampled_from(["01", "a", "+1", " 2", "1.0", ""])
)
MULTISET_COUNTS = st.one_of(
    st.integers(1, 3),
    st.sampled_from([0, 0.0, False, [], True, -1, 1.5, None, "1"]),
)


def read_in_a_net(value, places, where):
    """The multiset as the loader reads it: transition 0's src in a net."""
    net = {"places": places.size, "transitions": [{"src": value, "tgt": {}}]}
    return modelio.system_from_json("petri", net).src[0]


def outcome(read, value, places):
    try:
        ms = read(value, places, "transition 0 src")
    except ModelFormatError as exc:
        return "refused", str(exc)
    return "read", ms, [type(k) for _, k in ms.pairs]


@settings(max_examples=400, deadline=None)
@given(
    value=st.dictionaries(MULTISET_KEYS, MULTISET_COUNTS, max_size=6),
    size=st.integers(0, 5),
)
@example(value={"a": 0, "9": 1}, size=3)
@example(value={"1": [], "0": False, "4": 0}, size=3)
@example(value={"2": 2, "0": True, "1": 0.0}, size=3)
@example(value={"2": -1, "0": 1.5}, size=3)
def test_reading_a_multiset_matches_parsing_then_from_dict(value, size):
    places = FinSet(size)
    assert outcome(read_in_a_net, value, places) == outcome(parsed_then_from_dict, value, places)


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
