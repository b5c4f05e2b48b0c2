"""Reading and writing models as canonical JSON.

A model file looks like

    {"version": "1", "kind": "petri_rates", "representation": "decorated",
     "payload": {...}, "names": {...}}

where the payload is a cospan object: footLeft/footRight (sizes, or full
system objects in structured files), legLeft/legRight (tables into the
apex), a system object, and a representation tag matching the top level.
Unknown fields are rejected everywhere.  The optional names block carries
presentation-only labels for places and boundary elements; it never
affects composition or conversion.

Canonical output sorts keys, drops insignificant whitespace, and prints
floats as their shortest round-tripping decimal, so files written from
equal models compare equal byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional, Union

from .errors import ModelFormatError, ModelValidationError, NotInImageOfL
from .finset import EMPTY, FinFunction, FinSet
from .systems import (
    Graph,
    LabeledGraph,
    Multiset,
    PetriNet,
    PetriNetWithRates,
    System,
    SystemMorphism,
    cells_of,
    discrete,
    interface_of,
    is_discrete,
)
from .cospans import Cospan, DecoratedCospan, StructuredCospan, representation_of
from .dynamics import (
    FlowSchedule,
    OpenDynam,
    PiecewiseConstant,
    Poly,
    PolyVectorField,
)

MODEL_VERSION = "1"
KINDS_IN_FILES = ("graph", "lgraph", "petri", "petri_rates", "dynam")


def canonical_json(value: Any) -> str:
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise ModelFormatError(f"value not serializable canonically: {exc}") from exc


def _require_keys(obj: dict, required: tuple[str, ...], optional: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} must be an object")
    for key in required:
        if key not in obj:
            raise ModelFormatError(f"{where} is missing required field {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise ModelFormatError(f"{where} has unknown field {key!r}")


def _as_size(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ModelFormatError(f"{where} must be a nonnegative integer")
    return value


def _as_finite(value: Any, where: str) -> float:
    """A JSON number as a float; NaN, infinities and too-large ints are refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ModelFormatError(f"{where} must be a finite number")


def _as_table(value: Any, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise ModelFormatError(f"{where} must be an array of integers")
    return tuple(value)


def _finfunction(value: Any, cod: FinSet, where: str, dom: Optional[FinSet] = None) -> FinFunction:
    table = _as_table(value, where)
    domain = dom if dom is not None else FinSet(len(table))
    if dom is not None and len(table) != dom.size:
        raise ModelFormatError(f"{where} has {len(table)} entries, expected {dom.size}")
    try:
        return FinFunction(domain, cod, table)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc


def system_to_json(system: Union[System, PolyVectorField]) -> dict:
    if isinstance(system, Graph):
        return {
            "nodes": system.nodes.size,
            "edges": system.edges.size,
            "src": list(system.src.table),
            "tgt": list(system.tgt.table),
        }
    if isinstance(system, LabeledGraph):
        out = system_to_json(system.graph)
        out["labels"] = list(system.labels)
        return out
    if isinstance(system, PetriNet):
        return {
            "places": system.places.size,
            "transitions": [
                {
                    "src": {str(p): k for p, k in enumerate(system.src[t].counts) if k},
                    "tgt": {str(p): k for p, k in enumerate(system.tgt[t].counts) if k},
                }
                for t in system.transitions
            ],
        }
    if isinstance(system, PetriNetWithRates):
        out = system_to_json(system.net)
        for t, entry in enumerate(out["transitions"]):
            entry["rate"] = system.rates[t]
        return out
    if isinstance(system, PolyVectorField):
        return {
            "places": system.over.size,
            "field": [
                [[c, list(exps)] for c, exps in p.terms] for p in system.components
            ],
        }
    raise ModelFormatError(f"cannot serialize {type(system).__name__}")


def _multiset_from_json(value: Any, places: FinSet, where: str) -> Multiset:
    if not isinstance(value, dict):
        raise ModelFormatError(f"{where} must be an object of place -> count")
    entries = {}
    for key, count in value.items():
        try:
            place = int(key)
        except (TypeError, ValueError):
            raise ModelFormatError(f"{where} has non-numeric place key {key!r}") from None
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ModelFormatError(f"{where}[{key}] must be a nonnegative integer")
        if place not in places:
            raise ModelFormatError(f"{where} refers to place {place} of {places.size}")
        entries[place] = count
    return Multiset.from_dict(places, entries)


def system_from_json(kind: str, value: Any) -> Union[System, PolyVectorField]:
    where = f"{kind} system"
    if kind in ("graph", "lgraph"):
        required = ("nodes", "edges", "src", "tgt") + (("labels",) if kind == "lgraph" else ())
        _require_keys(value, required, (), where)
        nodes = FinSet(_as_size(value["nodes"], "nodes"))
        edges = FinSet(_as_size(value["edges"], "edges"))
        graph = Graph(
            nodes,
            edges,
            _finfunction(value["src"], nodes, "src", dom=edges),
            _finfunction(value["tgt"], nodes, "tgt", dom=edges),
        )
        if kind == "graph":
            return graph
        labels = value["labels"]
        if not isinstance(labels, list) or not all(
            isinstance(l, (str, int, float, bool)) for l in labels
        ):
            raise ModelFormatError("labels must be an array of scalars")
        if len(labels) != edges.size:
            raise ModelFormatError(f"{len(labels)} labels for {edges.size} edges")
        for i, label in enumerate(labels):
            if isinstance(label, float) and not math.isfinite(label):
                raise ModelFormatError(f"edge {i} label must be finite, got {label!r}")
        return LabeledGraph(graph, tuple(labels))
    if kind in ("petri", "petri_rates"):
        _require_keys(value, ("places", "transitions"), (), where)
        places = FinSet(_as_size(value["places"], "places"))
        raw = value["transitions"]
        if not isinstance(raw, list):
            raise ModelFormatError("transitions must be an array")
        src, tgt, rates = [], [], []
        per_transition = ("src", "tgt") + (("rate",) if kind == "petri_rates" else ())
        for i, entry in enumerate(raw):
            _require_keys(entry, per_transition, (), f"transition {i}")
            src.append(_multiset_from_json(entry["src"], places, f"transition {i} src"))
            tgt.append(_multiset_from_json(entry["tgt"], places, f"transition {i} tgt"))
            if kind == "petri_rates":
                rates.append(_as_finite(entry["rate"], f"transition {i} rate"))
        net = PetriNet(places, FinSet(len(raw)), tuple(src), tuple(tgt))
        if kind == "petri":
            return net
        try:
            return PetriNetWithRates(net, tuple(rates))
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc
    if kind == "dynam":
        _require_keys(value, ("places", "field"), (), where)
        places = FinSet(_as_size(value["places"], "places"))
        raw = value["field"]
        if not isinstance(raw, list) or len(raw) != places.size:
            raise ModelFormatError(f"field must be an array of {places.size} components")
        components = []
        for i, comp in enumerate(raw):
            if not isinstance(comp, list):
                raise ModelFormatError(f"field component {i} must be an array of terms")
            terms = []
            for j, term in enumerate(comp):
                if (
                    not isinstance(term, list)
                    or len(term) != 2
                    or not isinstance(term[0], (int, float))
                    or isinstance(term[0], bool)
                ):
                    raise ModelFormatError(
                        f"field component {i} terms must look like [coefficient, [exponents]]"
                    )
                exps = _as_table(term[1], f"field component {i} exponents")
                if len(exps) != places.size or any(k < 0 for k in exps):
                    raise ModelFormatError(
                        f"field component {i} exponent vectors must have "
                        f"{places.size} nonnegative entries"
                    )
                coefficient = _as_finite(term[0], f"field component {i} term {j} coefficient")
                terms.append((coefficient, exps))
            try:
                components.append(Poly(places.size, tuple(terms)))
            except ValueError as exc:
                raise ModelFormatError(f"field component {i} not canonical: {exc}") from exc
        return PolyVectorField(places, tuple(components))
    raise ModelFormatError(f"unknown kind {kind!r}")


Payload = Union[Cospan, OpenDynam]


def cospan_to_json(cospan: Payload) -> dict:
    if isinstance(cospan, OpenDynam):
        return {
            "footLeft": cospan.foot_left.size,
            "footRight": cospan.foot_right.size,
            "legLeft": list(cospan.leg_left.table),
            "legRight": list(cospan.leg_right.table),
            "system": system_to_json(cospan.field),
            "representation": "decorated",
        }
    if isinstance(cospan, DecoratedCospan):
        return {
            "footLeft": cospan.foot_left.size,
            "footRight": cospan.foot_right.size,
            "legLeft": list(cospan.leg_left.table),
            "legRight": list(cospan.leg_right.table),
            "system": system_to_json(cospan.decoration),
            "representation": "decorated",
        }
    out = {
        "footLeft": cospan.foot_left.size
        if is_discrete(cospan.leg_left.dom)
        else system_to_json(cospan.leg_left.dom),
        "footRight": cospan.foot_right.size
        if is_discrete(cospan.leg_right.dom)
        else system_to_json(cospan.leg_right.dom),
        "legLeft": list(cospan.leg_left.node_map.table),
        "legRight": list(cospan.leg_right.node_map.table),
        "system": system_to_json(cospan.system),
        "representation": "structured",
    }
    return out


def _foot_system(kind: str, value: Any, where: str) -> System:
    if isinstance(value, int) and not isinstance(value, bool):
        return discrete(kind, FinSet(_as_size(value, where)))
    system = system_from_json(kind, value)
    if isinstance(system, PolyVectorField):
        raise ModelFormatError(f"{where}: a field cannot be a foot")
    return system


def cospan_from_json(kind: str, representation: str, value: Any) -> Payload:
    _require_keys(
        value,
        ("footLeft", "footRight", "legLeft", "legRight", "system", "representation"),
        (),
        "payload",
    )
    if value["representation"] != representation:
        raise ModelFormatError(
            "payload representation does not match the file's representation field"
        )
    system = system_from_json(kind, value["system"])
    apex = system.over if isinstance(system, PolyVectorField) else interface_of(system)
    if kind == "dynam":
        if representation != "decorated":
            raise ModelFormatError("dynam models only have a decorated representation")
        assert isinstance(system, PolyVectorField)
        foot_left = FinSet(_as_size(value["footLeft"], "footLeft"))
        foot_right = FinSet(_as_size(value["footRight"], "footRight"))
        try:
            return OpenDynam(
                foot_left,
                foot_right,
                _finfunction(value["legLeft"], apex, "legLeft", dom=foot_left),
                _finfunction(value["legRight"], apex, "legRight", dom=foot_right),
                system,
            )
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc
    assert not isinstance(system, PolyVectorField)
    if representation == "decorated":
        foot_left = FinSet(_as_size(value["footLeft"], "footLeft"))
        foot_right = FinSet(_as_size(value["footRight"], "footRight"))
        try:
            return DecoratedCospan(
                foot_left,
                foot_right,
                _finfunction(value["legLeft"], apex, "legLeft", dom=foot_left),
                _finfunction(value["legRight"], apex, "legRight", dom=foot_right),
                system,
            )
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc
    if representation != "structured":
        raise ModelFormatError(f"unknown representation {value['representation']!r}")
    left_foot = _foot_system(kind, value["footLeft"], "footLeft")
    right_foot = _foot_system(kind, value["footRight"], "footRight")

    def leg(foot: System, raw: Any, where: str) -> SystemMorphism:
        node_map = _finfunction(raw, apex, where, dom=interface_of(foot))
        if is_discrete(foot):
            edge_map = FinFunction(EMPTY, cells_of(system), ())
        else:
            raise NotInImageOfL(
                f"{where}: foot carries {cells_of(foot).size} cells and is not "
                "the image of a finite set"
            )
        try:
            return SystemMorphism(foot, system, node_map, edge_map)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc

    cospan = StructuredCospan(
        leg(left_foot, value["legLeft"], "legLeft"),
        leg(right_foot, value["legRight"], "legRight"),
    )
    bad = cospan.violations()
    if bad:
        raise ModelValidationError(f"structured cospan invalid: {bad[0]}")
    return cospan


@dataclass(frozen=True)
class Names:
    """Presentation-only labels for places and boundary elements."""

    places: Optional[tuple[str, ...]] = None
    foot_left: Optional[tuple[str, ...]] = None
    foot_right: Optional[tuple[str, ...]] = None

    @staticmethod
    def from_json(value: Any) -> Names:
        _require_keys(value, (), ("places", "footLeft", "footRight"), "names")

        def str_list(key: str) -> Optional[tuple[str, ...]]:
            if key not in value:
                return None
            raw = value[key]
            if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
                raise ModelFormatError(f"names.{key} must be an array of strings")
            if len(set(raw)) != len(raw):
                raise ModelFormatError(f"names.{key} must not repeat names")
            return tuple(raw)

        return Names(str_list("places"), str_list("footLeft"), str_list("footRight"))

    def to_json(self) -> dict:
        out: dict = {}
        if self.places is not None:
            out["places"] = list(self.places)
        if self.foot_left is not None:
            out["footLeft"] = list(self.foot_left)
        if self.foot_right is not None:
            out["footRight"] = list(self.foot_right)
        return out


@dataclass(frozen=True)
class ModelFile:
    """One model as stored on disk: a cospan plus bookkeeping."""

    kind: str
    payload: Payload
    names: Optional[Names] = None
    version: str = MODEL_VERSION

    @property
    def representation(self) -> str:
        if isinstance(self.payload, OpenDynam):
            return "decorated"
        return representation_of(self.payload)

    def to_json(self) -> dict:
        out = {
            "version": self.version,
            "kind": self.kind,
            "representation": self.representation,
            "payload": cospan_to_json(self.payload),
        }
        if self.names is not None and self.names.to_json():
            out["names"] = self.names.to_json()
        return out


def model_from_json(value: Any) -> ModelFile:
    _require_keys(
        value, ("version", "kind", "representation", "payload"), ("names",), "model file"
    )
    if value["version"] != MODEL_VERSION:
        raise ModelFormatError(f"unsupported version {value['version']!r}")
    kind = value["kind"]
    if kind not in KINDS_IN_FILES:
        raise ModelFormatError(f"unknown kind {kind!r}")
    representation = value["representation"]
    if representation not in ("structured", "decorated"):
        raise ModelFormatError(f"unknown representation {representation!r}")
    payload = cospan_from_json(kind, representation, value["payload"])
    names = Names.from_json(value["names"]) if "names" in value else None
    if names is not None:
        _check_name_lengths(names, payload)
    return ModelFile(kind, payload, names)


def _check_name_lengths(names: Names, payload: Payload) -> None:
    apex = payload.apex.size
    checks = (
        ("places", names.places, apex),
        ("footLeft", names.foot_left, payload.foot_left.size),
        ("footRight", names.foot_right, payload.foot_right.size),
    )
    for label, got, want in checks:
        if got is not None and len(got) != want:
            raise ModelFormatError(f"names.{label} has {len(got)} entries, expected {want}")


def load_model(path: str) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from exc
    return model_from_json(raw)


def save_model(path: str, model: ModelFile) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(model.to_json()))
        handle.write("\n")


def default_names(model: ModelFile) -> Names:
    """The names used for state and flows when the file provides none."""
    payload = model.payload
    given = model.names or Names()
    return Names(
        given.places or tuple(f"p{i}" for i in range(payload.apex.size)),
        given.foot_left or tuple(f"x{i}" for i in range(payload.foot_left.size)),
        given.foot_right or tuple(f"y{i}" for i in range(payload.foot_right.size)),
    )


@dataclass(frozen=True)
class SimConfig:
    """Integration window, step, initial state, and boundary flows."""

    t0: float
    t1: float
    dt: float
    initial: dict[str, float]
    inflows: dict[str, PiecewiseConstant]
    outflows: dict[str, PiecewiseConstant]


def _flow_from_json(value: Any, where: str) -> PiecewiseConstant:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return PiecewiseConstant.constant(_as_finite(value, where))
    _require_keys(value, ("breakpoints", "values"), (), where)
    breakpoints = value["breakpoints"]
    values = value["values"]
    if not isinstance(breakpoints, list) or not isinstance(values, list):
        raise ModelFormatError(f"{where} breakpoints and values must be arrays")
    try:
        return PiecewiseConstant(
            tuple(_as_finite(x, f"{where} breakpoints") for x in breakpoints),
            tuple(_as_finite(x, f"{where} values") for x in values),
        )
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc


def sim_config_from_json(value: Any) -> SimConfig:
    _require_keys(
        value, ("t0", "t1", "dt", "initialState"), ("inflows", "outflows"), "sim config"
    )
    numbers = {}
    for key in ("t0", "t1", "dt"):
        numbers[key] = _as_finite(value[key], key)
    if not numbers["dt"] > 0.0:
        raise ModelValidationError(f"dt must be positive, got {numbers['dt']}")
    if not numbers["t1"] > numbers["t0"]:
        raise ModelValidationError(
            f"need t1 > t0, got [{numbers['t0']}, {numbers['t1']}]"
        )
    initial = value["initialState"]
    if not isinstance(initial, dict) or not all(
        isinstance(k, str) and isinstance(v, (int, float)) and not isinstance(v, bool)
        for k, v in initial.items()
    ):
        raise ModelFormatError("initialState must map place names to numbers")
    initial = {name: _as_finite(v, f"initialState[{name}]") for name, v in initial.items()}
    flows = {}
    for key in ("inflows", "outflows"):
        block = value.get(key, {})
        if not isinstance(block, dict):
            raise ModelFormatError(f"{key} must be an object")
        flows[key] = {
            name: _flow_from_json(raw, f"{key}[{name}]") for name, raw in block.items()
        }
    return SimConfig(
        numbers["t0"],
        numbers["t1"],
        numbers["dt"],
        initial,
        flows["inflows"],
        flows["outflows"],
    )


def load_sim_config(path: str) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from exc
    return sim_config_from_json(raw)


def resolve_simulation(
    model: ModelFile, config: SimConfig
) -> tuple[OpenDynam, FlowSchedule, list[float], Names]:
    """Turn named config entries into positional state and flow schedules."""
    from .dynamics import graybox

    payload = model.payload
    if isinstance(payload, OpenDynam):
        system = payload
    elif model.kind == "petri_rates":
        system = graybox(payload)
    else:
        raise ModelValidationError(
            f"simulation needs a dynam or petri_rates model, got kind {model.kind!r}"
        )
    names = default_names(model)
    assert names.places is not None and names.foot_left is not None
    assert names.foot_right is not None
    place_index = {name: i for i, name in enumerate(names.places)}
    state = [0.0] * len(names.places)
    for name, val in config.initial.items():
        if name not in place_index:
            raise ModelValidationError(f"initialState names unknown place {name!r}")
        state[place_index[name]] = val

    def resolve(block: dict[str, PiecewiseConstant], known: tuple[str, ...], label: str):
        index = {name: i for i, name in enumerate(known)}
        out = [PiecewiseConstant.ZERO] * len(known)
        for name, flow in block.items():
            if name not in index:
                raise ModelValidationError(f"{label} names unknown boundary element {name!r}")
            out[index[name]] = flow
        return tuple(out)

    schedule = FlowSchedule(
        resolve(config.inflows, names.foot_left, "inflows"),
        resolve(config.outflows, names.foot_right, "outflows"),
    )
    return system, schedule, state, names


def trajectory_to_csv(
    trajectory: list[tuple[float, tuple[float, ...]]], place_names: tuple[str, ...]
) -> str:
    """Rows of t plus one column per place, 17 significant digits."""
    lines = ["t," + ",".join(place_names)]
    for t, state in trajectory:
        lines.append(",".join(f"{x:.17g}" for x in (t, *state)))
    return "\n".join(lines) + "\n"
