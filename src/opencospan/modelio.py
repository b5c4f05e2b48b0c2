"""Reading and writing models as canonical JSON.

A model file looks like

    {"version": "1", "kind": "petri_rates", "representation": "decorated",
     "payload": {...}, "names": {...}}

where the payload is a cospan object: footLeft/footRight (sizes, or, in
structured files, system objects with no cells), legLeft/legRight (tables
into the apex), a system object, and a representation tag matching the top
level.  Both presentations are read the same way and written the same way.
Unknown fields are rejected everywhere.  The optional names block carries
presentation-only labels for places and boundary elements; it never
affects composition or conversion.

Each value check has one owner.  The constructors check sizes, ranges,
counts, exponents, table entries and lengths (`FinSet`, `FinFunction`,
`Multiset.from_dict`, `Poly` and the system classes); `_built` reports a
refusal as a `ModelFormatError` at its place in the file.  This module
checks only what they cannot see: the JSON shape (objects, arrays, fields,
repeated keys), the plain spelling of place keys, and finite numbers.  Its
messages, like the constructors', cut any value from the file to 40
characters, so a huge value still gives one short line.

Canonical output sorts keys, drops insignificant whitespace, and prints
floats as their shortest round-tripping decimal, so files written from
equal models compare equal byte for byte.

Dynam files keep their dense form, one exponent per place in each term,
but the sparse field is never expanded into dense lists to write it.
`save_model` writes the "field" value as text straight from the sparse
terms, a slice of one "0,0,...,0" string per run of zeros, and joins it
with the canonical JSON of the rest of the file: byte for byte what
`canonical_json(model.to_json())` gives, at the cost of the terms plus the
bytes of the text.  Reading parses the dense text, as any JSON reader must,
and `system_from_json` then scans each exponent vector once into the
(place, exponent) pairs the `Poly` keeps, with no copy.  A field whose
dense form would hold more than `dynamics.MAX_FIELD_EXPONENTS` exponents
is refused (`FieldTooLarge`, exit 2 on the command line) before any text
is built.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    FieldTooLarge,
    KindError,
    ModelFormatError,
    ModelValidationError,
    NotInImageOfL,
)
from .finset import FinFunction, FinSet, _short
from .systems import (
    KINDS,
    Decoration,
    Graph,
    LabeledGraph,
    Multiset,
    PetriNet,
    PetriNetWithRates,
    Poly,
    PolyVectorField,
    _sparse_terms,
    cells_of,
    decoration_theory,
    interface_of,
)
from .cospans import Cospan, DecoratedCospan, _present
from .dynamics import (
    MAX_FIELD_EXPONENTS,
    FlowSchedule,
    OpenDynam,
    PiecewiseConstant,
    _full_steps,
    graybox,
)

MODEL_VERSION = "1"


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
            raise ModelFormatError(f"{where} is missing required field {_short(key)}")
    for key in obj:
        if key not in required and key not in optional:
            raise ModelFormatError(f"{where} has unknown field {_short(key)}")


def _built(where: str, build: Callable[..., Any], *args: Any) -> Any:
    """build(*args), with a constructor's refusal as a format error at where."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc


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


def _entry(block: str, name: str) -> str:
    """Where a config entry sits, `block[name]`, for a message: a name
    over 40 characters is cut to 40."""
    return f"{block}[{name if len(name) <= 40 else name[:37] + '...'}]"


def _finfunction(value: Any, dom: FinSet, cod: FinSet, where: str) -> FinFunction:
    if not isinstance(value, list):
        raise ModelFormatError(f"{where} must be an array of integers")
    return _built(where, FinFunction, dom, cod, value)


def system_to_json(system: Decoration) -> dict:
    """The kind's base shape, plus its attribute column when it has one."""
    if getattr(system, "kind", None) not in KINDS:
        raise ModelFormatError(f"cannot serialize {type(system).__name__}")
    shape = decoration_theory(system.kind).shape
    if shape == "field":
        _check_dense_size(system)
        return {
            "places": system.over.size,
            "field": [[[c, list(e)] for c, e in p.terms] for p in system.components],
        }
    src, tgt = system.ends
    attrs = system.attrs
    if shape == "graph":
        out: dict = {
            "nodes": interface_of(system).size,
            "edges": cells_of(system).size,
            "src": list(src),
            "tgt": list(tgt),
        }
        if attrs is not None:
            out["labels"] = list(attrs)
        return out
    transitions = [
        {
            "src": {str(p): k for p, k in consumed.pairs},
            "tgt": {str(p): k for p, k in produced.pairs},
        }
        for consumed, produced in zip(src, tgt)
    ]
    if attrs is not None:
        for entry, rate in zip(transitions, attrs):
            entry["rate"] = rate
    return {"places": interface_of(system).size, "transitions": transitions}


def _check_dense_size(field: PolyVectorField) -> None:
    """Refuse a field whose dense form, one exponent per place in each term,
    holds more than `MAX_FIELD_EXPONENTS` exponents."""
    places = field.over.size
    terms = sum([len(p.sparse) for p in field.components])
    if places * terms > MAX_FIELD_EXPONENTS:
        raise FieldTooLarge(
            f"the dense form of a field of {places} places and {terms} terms holds "
            f"{places * terms} exponents, over the cap of {MAX_FIELD_EXPONENTS} (places x terms)"
        )


def _field_pieces(field: PolyVectorField) -> list[str]:
    """The canonical JSON of a field's dense "field" value, in pieces, written
    from its sparse terms: each exponent vector is cut from one "0,0,...,0"
    string, with a %d for each nonzero exponent, and each coefficient is
    written as `json` writes it (its repr)."""
    zeros = ",".join(["0"] * field.over.size)
    pieces = ["["]
    for i, p in enumerate(field.components):
        pieces.append(",[" if i else "[")
        for t, (c, support) in enumerate(p.sparse):
            pieces.append((",[%r,[" if t else "[%r,[") % c)
            start = 0
            for j, k in support:
                pieces.append(zeros[start : 2 * j])
                pieces.append("%d" % k)
                start = 2 * j + 1
            pieces.append(zeros[start:])
            pieces.append("]]")
        pieces.append("]")
    pieces.append("]")
    return pieces


def _spliced(obj: dict, path: tuple[str, ...], pieces: list[str]) -> list[str]:
    """The canonical JSON of obj, in pieces, with the value at path (keys
    into nested objects) given as the pieces of its canonical JSON: each
    object on the path is written as its keys before the held-out one, that
    key and its value, then its keys after it, as `sort_keys` orders them."""
    key, rest = path[0], path[1:]
    value = _spliced(obj[key], rest, pieces) if rest else pieces
    before = canonical_json({k: v for k, v in obj.items() if k < key})[:-1]
    after = canonical_json({k: v for k, v in obj.items() if k > key})[1:]
    return [
        before,
        "," if before != "{" else "",
        canonical_json(key) + ":",
        *value,
        "," if after != "}" else "",
        after,
    ]


def _multiset_from_json(value: Any, places: FinSet, where: str) -> Multiset:
    if not isinstance(value, dict):
        raise ModelFormatError(f"{where} must be an object of place -> count")
    # the pairs are built in the pass that checks the keys; canonical keys
    # are distinct, so are their places, and the sort compares no counts
    pairs = []
    for key, count in value.items():
        try:
            place = int(key)
        except (TypeError, ValueError):
            raise ModelFormatError(f"{where} has non-numeric place key {_short(key)}") from None
        if key != str(place):
            raise ModelFormatError(
                f"{where} has place key {_short(key)}, expected {_short(str(place))}"
            )
        if count:
            pairs.append((place, count))
    if len(pairs) < len(value):
        # a zero count is dropped unseen by the pair check: from_dict checks it
        entries = {int(key): count for key, count in value.items()}
        return _built(where, Multiset.from_dict, places, entries)
    pairs.sort()
    return _built(where, Multiset._from_pairs, places, tuple(pairs))


def system_from_json(kind: str, value: Any) -> Decoration:
    where = f"{kind} system"
    if kind in ("graph", "lgraph"):
        required = ("nodes", "edges", "src", "tgt") + (("labels",) if kind == "lgraph" else ())
        _require_keys(value, required, (), where)
        nodes = _built("nodes", FinSet, value["nodes"])
        edges = _built("edges", FinSet, value["edges"])
        graph = Graph(
            nodes,
            edges,
            _finfunction(value["src"], edges, nodes, "src"),
            _finfunction(value["tgt"], edges, nodes, "tgt"),
        )
        if kind == "graph":
            return graph
        labels = value["labels"]
        if not isinstance(labels, list) or not all(
            isinstance(l, (str, int, float, bool)) for l in labels
        ):
            raise ModelFormatError("labels must be an array of scalars")
        for i, label in enumerate(labels):
            if isinstance(label, float) and not math.isfinite(label):
                raise ModelFormatError(f"edge {i} label must be finite, got {label!r}")
        return _built("labels", LabeledGraph, graph, tuple(labels))
    if kind in ("petri", "petri_rates"):
        _require_keys(value, ("places", "transitions"), (), where)
        places = _built("places", FinSet, value["places"])
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
        return _built("transitions", PetriNetWithRates, net, tuple(rates))
    if kind == "dynam":
        _require_keys(value, ("places", "field"), (), where)
        places = _built("places", FinSet, value["places"])
        raw = value["field"]
        if not isinstance(raw, list):
            raise ModelFormatError(f"field must be an array of {places.size} components")
        components = []
        for i, comp in enumerate(raw):
            if not isinstance(comp, list):
                raise ModelFormatError(f"field component {i} must be an array of terms")
            terms = []
            for j, term in enumerate(comp):
                if not isinstance(term, list) or len(term) != 2 or not isinstance(term[1], list):
                    raise ModelFormatError(
                        f"field component {i} terms must look like [coefficient, [exponents]]"
                    )
                coefficient = _as_finite(term[0], f"field component {i} term {j} coefficient")
                terms.append((coefficient, term[1]))
            # each dense vector is read once, into the pairs the Poly keeps
            sparse = _built(f"field component {i}", _sparse_terms, places.size, terms)
            components.append(
                _built(f"field component {i}", Poly._from_sparse, places.size, sparse)
            )
        return _built("field", PolyVectorField, places, tuple(components))
    raise ModelFormatError(f"unknown kind {_short(kind)}")


def _foot(kind: str, representation: str, value: Any, where: str) -> tuple[FinSet, int]:
    """A foot's node set and the number of cells it carries.  Structured
    files may spell a foot as a system object instead of a size."""
    if representation == "structured" and (not isinstance(value, int) or isinstance(value, bool)):
        foot = system_from_json(kind, value)
        return interface_of(foot), cells_of(foot).size
    return _built(where, FinSet, value), 0


def cospan_from_json(kind: str, representation: str, value: Any) -> Cospan:
    """Both presentations are read as a decorated cospan, then presented."""
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
    apex = interface_of(system)
    if kind == "dynam" and representation != "decorated":
        raise ModelFormatError("dynam models only have a decorated representation")
    feet = [_foot(kind, representation, value[key], key) for key in ("footLeft", "footRight")]
    legs = []
    for (foot, cells), where in zip(feet, ("legLeft", "legRight")):
        legs.append(_finfunction(value[where], foot, apex, where))
        if cells:
            raise NotInImageOfL(
                f"{where}: foot carries {cells} cells and is not the image of a finite set"
            )
    (foot_left, _), (foot_right, _) = feet
    return _present(DecoratedCospan(foot_left, foot_right, *legs, system), representation)


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
    """One model as stored on disk: a cospan of its kind plus bookkeeping."""

    kind: str
    payload: Cospan
    names: Optional[Names] = None

    def __post_init__(self) -> None:
        if self.payload.kind != self.kind:
            raise KindError(f"a {self.kind} model file cannot hold a {self.payload.kind} cospan")

    @property
    def representation(self) -> str:
        return self.payload.representation

    def to_json(self) -> dict:
        return self._json(system_to_json(self.payload.decoration))

    def _json(self, system: dict) -> dict:
        """to_json(), with system as the payload's system object."""
        cospan = self.payload
        leg_left, leg_right = cospan.leg_maps
        out = {
            "version": MODEL_VERSION,
            "kind": self.kind,
            "representation": self.representation,
            "payload": {
                "footLeft": cospan.foot_left.size,
                "footRight": cospan.foot_right.size,
                "legLeft": list(leg_left.table),
                "legRight": list(leg_right.table),
                "system": system,
                "representation": cospan.representation,
            },
        }
        names = self.names.to_json() if self.names is not None else {}
        if names:
            out["names"] = names
        return out


def model_from_json(value: Any) -> ModelFile:
    _require_keys(
        value, ("version", "kind", "representation", "payload"), ("names",), "model file"
    )
    if value["version"] != MODEL_VERSION:
        raise ModelFormatError(f"unsupported version {_short(value['version'])}")
    kind = value["kind"]
    if kind not in KINDS:
        raise ModelFormatError(f"unknown kind {_short(kind)}")
    representation = value["representation"]
    if representation not in ("structured", "decorated"):
        raise ModelFormatError(f"unknown representation {_short(representation)}")
    payload = cospan_from_json(kind, representation, value["payload"])
    names = Names.from_json(value["names"]) if "names" in value else None
    if names is not None:
        _check_name_lengths(names, payload)
    return ModelFile(kind, payload, names)


def _check_name_lengths(names: Names, payload: Cospan) -> None:
    apex = payload.apex.size
    checks = (
        ("places", names.places, apex),
        ("footLeft", names.foot_left, payload.foot_left.size),
        ("footRight", names.foot_right, payload.foot_right.size),
    )
    for label, got, want in checks:
        if got is not None and len(got) != want:
            raise ModelFormatError(f"names.{label} has {len(got)} entries, expected {want}")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ModelFormatError(f"duplicate key {_short(key)} in one JSON object")
    return obj


def _read_json(path: str) -> Any:
    """A JSON file's value; invalid JSON and repeated keys in an object are refused."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ModelFormatError(f"{path} is not valid JSON: nested too deeply") from None
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def load_model(path: str) -> ModelFile:
    return model_from_json(_read_json(path))


def _model_text(model: ModelFile) -> str:
    """The text of a model file: canonical_json(model.to_json()) + "\n".

    A dynam field is not built as dense lists: its "field" value is written
    from the sparse terms (`_field_pieces`), at the cost of the text, and
    joined with the canonical JSON of the rest of the file, which is
    serialized with "field" held out.  A field over `MAX_FIELD_EXPONENTS`
    is refused before any text is built."""
    system = model.payload.decoration
    if getattr(system, "kind", None) != "dynam":
        return canonical_json(model.to_json()) + "\n"
    _check_dense_size(system)
    document = model._json({"places": system.over.size})
    pieces = _spliced(document, ("payload", "system", "field"), _field_pieces(system))
    pieces.append("\n")
    return "".join(pieces)


def save_model(path: str, model: ModelFile) -> None:
    """Write a model as canonical JSON.  It is serialized before the file is
    opened, so a model that cannot be written leaves the file as it was."""
    text = _model_text(model)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


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
    return _built(
        where,
        PiecewiseConstant,
        tuple(_as_finite(x, f"{where} breakpoints") for x in breakpoints),
        tuple(_as_finite(x, f"{where} values") for x in values),
    )


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
    if not isinstance(initial, dict):
        raise ModelFormatError("initialState must map place names to numbers")
    initial = {name: _as_finite(v, _entry("initialState", name)) for name, v in initial.items()}
    flows = {}
    for key in ("inflows", "outflows"):
        block = value.get(key, {})
        if not isinstance(block, dict):
            raise ModelFormatError(f"{key} must be an object")
        flows[key] = {
            name: _flow_from_json(raw, _entry(key, name)) for name, raw in block.items()
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
    return sim_config_from_json(_read_json(path))


def resolve_simulation(
    model: ModelFile, config: SimConfig
) -> tuple[OpenDynam, FlowSchedule, list[float], Names]:
    """Turn named config entries into positional state and flow schedules."""
    if model.kind not in ("dynam", "petri_rates"):
        raise ModelValidationError(
            f"simulation needs a dynam or petri_rates model, got kind {model.kind!r}"
        )
    # refuse an over-cap run before gray-boxing and naming every place
    _full_steps(config.t0, config.t1, config.dt, model.payload.apex.size)
    system = graybox(model.payload) if model.kind == "petri_rates" else model.payload
    names = default_names(model)
    assert names.places is not None and names.foot_left is not None
    assert names.foot_right is not None
    place_index = {name: i for i, name in enumerate(names.places)}
    state = [0.0] * len(names.places)
    for name, val in config.initial.items():
        if name not in place_index:
            raise ModelValidationError(f"initialState names unknown place {_short(name)}")
        state[place_index[name]] = val

    def resolve(block: dict[str, PiecewiseConstant], known: tuple[str, ...], label: str):
        index = {name: i for i, name in enumerate(known)}
        out = [PiecewiseConstant.ZERO] * len(known)
        for name, flow in block.items():
            if name not in index:
                raise ModelValidationError(
                    f"{label} names unknown boundary element {_short(name)}"
                )
            out[index[name]] = flow
        return tuple(out)

    schedule = FlowSchedule(
        resolve(config.inflows, names.foot_left, "inflows"),
        resolve(config.outflows, names.foot_right, "outflows"),
    )
    return system, schedule, state, names


def _csv_field(name: str) -> str:
    """A header name as an RFC 4180 field: quoted, with `"` doubled, when it
    holds a comma, a quote, CR or LF; as it is otherwise."""
    if any(c in name for c in ',"\r\n'):
        return '"' + name.replace('"', '""') + '"'
    return name


def csv_lines(
    rows: Iterable[tuple[float, Sequence[float]]], place_names: tuple[str, ...]
) -> Iterator[str]:
    """The lines of a trajectory's CSV text, each with its newline: the
    header, then one line per row as the row arrives.  Rows are t plus one
    column per place, 17 significant digits; a place name that needs it is
    quoted in the header (`_csv_field`)."""
    row = ",".join(["%.17g"] * (len(place_names) + 1)) + "\n"
    yield "t," + ",".join(map(_csv_field, place_names)) + "\n"
    for t, state in rows:
        yield row % (t, *state)


def trajectory_to_csv(
    trajectory: list[tuple[float, tuple[float, ...]]], place_names: tuple[str, ...]
) -> str:
    """The CSV text of a whole trajectory: its `csv_lines`, joined."""
    return "".join(csv_lines(trajectory, place_names))
