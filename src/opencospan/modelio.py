"""Reading and writing models as canonical JSON.

A model file looks like

    {"version": "1", "kind": "petri_rates", "representation": "decorated",
     "payload": {...}, "names": {...}}

where the payload is a cospan object: footLeft/footRight (sizes, or, in
structured files, system objects with no cells), legLeft/legRight (tables
into the apex), a system object laid out by its kind's shape (`_LAYOUTS`),
and a representation tag matching the top level.  Both presentations are
read and written the same way.  Unknown fields are rejected everywhere.
The optional names block labels places and boundary elements; it never
affects composition or conversion.

Each value check has one owner.  The constructors check sizes, ranges,
counts, exponents, table entries and lengths, graph ends, labels, rates
and names; a reader reports their refusal as a `ModelFormatError` at its
place in the file.  This module checks only the JSON shape (objects,
arrays, fields, repeated keys), the plain spelling of place keys, and JSON
numbers, and cuts any value from the file in a message to 40 characters.

A file is read in one pass: its bytes are decoded once as UTF-8, as
text-mode reading would, and parsed by one decoder; then the reader of the
kind's shape, looked up once per file, builds each cell as it checks it.
The text that places a fault in the file is built only when a check fails.

Canonical output sorts keys, drops insignificant whitespace, and prints
floats as their shortest round-tripping decimal, so equal models give
equal bytes.  A dynam file keeps its dense form, one exponent per place in
each term, but `save_model` writes the "field" text straight from the
sparse terms (`_field_pieces`) and refuses a field over
`dynamics.MAX_FIELD_EXPONENTS` exponents (`FieldTooLarge`, exit 2) before
building any; reading scans each exponent vector once into the pairs a
`Poly` keeps.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import FieldTooLarge, KindError, ModelFormatError, ModelValidationError, NotInImageOfL
from .finset import FinFunction, FinSet, _short
from .systems import (
    KINDS,
    Decoration,
    DecorationTheory,
    Multiset,
    Poly,
    PolyVectorField,
    System,
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


def _require_keys(obj: Any, required: tuple, optional: tuple, where: str) -> None:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} must be an object")
    if len(obj.keys() & required) < len(required):
        key = next(key for key in required if key not in obj)
        raise ModelFormatError(f"{where} is missing required field {_short(key)}")
    if len(obj) > len(required):  # every required field is there: one more is another
        for key in obj:
            if key not in required and key not in optional:
                raise ModelFormatError(f"{where} has unknown field {_short(key)}")


def _built(where: Optional[str], build: Callable[..., Any], *args: Any) -> Any:
    """build(*args), with a constructor's refusal as a format error at where, if given."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ModelFormatError(str(exc) if where is None else f"{where}: {exc}") from exc


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


def _write_graph(system: System) -> dict:
    out = {"nodes": interface_of(system).size, "edges": cells_of(system).size,
           "src": list(system.src), "tgt": list(system.tgt)}
    if system.attrs is not None:
        out["labels"] = list(system.attrs)
    return out


def _write_petri(system: System) -> dict:
    transitions = [
        {
            "src": {str(p): k for p, k in consumed.pairs},
            "tgt": {str(p): k for p, k in produced.pairs},
        }
        for consumed, produced in zip(system.src, system.tgt)
    ]
    for entry, rate in zip(transitions, system.attrs or ()):
        entry["rate"] = rate
    return {"places": interface_of(system).size, "transitions": transitions}


def _write_field(field: PolyVectorField) -> dict:
    _check_dense_size(field)
    dense = [[[c, list(e)] for c, e in p.terms] for p in field.components]
    return {"places": field.over.size, "field": dense}


def _field_text(field: PolyVectorField) -> tuple[dict, list[str]]:
    """`_write_field` with "field" held out as null, and its text, which is
    built only once the size check has passed."""
    _check_dense_size(field)
    return {"places": field.over.size, "field": None}, _field_pieces(field)


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


def _read_graph(value: Any, theory: DecorationTheory) -> System:
    attributed = theory.attributed
    required = ("nodes", "edges", "src", "tgt") + (("labels",) if attributed else ())
    _require_keys(value, required, (), f"{theory.kind} system")
    nodes = _built("nodes", FinSet, value["nodes"])
    edges = _built("edges", FinSet, value["edges"])
    for name in ("src", "tgt"):
        if not isinstance(value[name], list):
            raise ModelFormatError(f"{name} must be an array of integers")
    labels = value["labels"] if attributed else None
    if attributed and not isinstance(labels, list):
        raise ModelFormatError("labels must be an array of scalars")
    return _built(None, System, theory.kind, nodes, edges, value["src"], value["tgt"], labels)


# the plain keys of the first places, each with its place: a key found here is not parsed
_PLACE_KEYS = {str(p): p for p in range(256)}


def _multiset_from_json(value: Any, places: FinSet, i: int, side: str) -> Multiset:
    """Transition i's "src" or "tgt" (side): an object of place key -> count."""
    if not isinstance(value, dict):
        raise ModelFormatError(f"transition {i} {side} must be an object of place -> count")
    # the pairs are built in the pass that checks the keys; canonical keys
    # are distinct, so are their places, and the sort compares no counts
    pairs = []
    for key, count in value.items():
        place = _PLACE_KEYS.get(key)
        if place is None:
            where = f"transition {i} {side}"
            try:
                place = int(key)
            except (TypeError, ValueError):
                raise ModelFormatError(f"{where} has non-numeric place key {_short(key)}") from None
            if key != str(place):
                expected = _short(str(place))
                raise ModelFormatError(f"{where} has place key {_short(key)}, expected {expected}")
        if count:
            pairs.append((place, count))
    try:
        if len(pairs) < len(value):
            # a zero count is dropped unseen by the pair check: from_dict checks it
            return Multiset.from_dict(places, {int(key): count for key, count in value.items()})
        pairs.sort()
        return Multiset._from_pairs(places, tuple(pairs))
    except ValueError as exc:
        raise ModelFormatError(f"transition {i} {side}: {exc}") from exc


def _read_petri(value: Any, theory: DecorationTheory) -> System:
    _require_keys(value, ("places", "transitions"), (), f"{theory.kind} system")
    places = _built("places", FinSet, value["places"])
    raw = value["transitions"]
    if not isinstance(raw, list):
        raise ModelFormatError("transitions must be an array")
    rated = theory.attributed
    fields = ("src", "tgt", "rate") if rated else ("src", "tgt")
    exact = frozenset(fields)
    src, tgt, rates = [], [], ([] if rated else None)
    for i, entry in enumerate(raw):
        if entry.__class__ is not dict or entry.keys() != exact:
            _require_keys(entry, fields, (), f"transition {i}")
        src.append(_multiset_from_json(entry["src"], places, i, "src"))
        tgt.append(_multiset_from_json(entry["tgt"], places, i, "tgt"))
        if rated:
            rate = entry["rate"]
            if rate.__class__ is not float or rate - rate:  # not a finite float
                rate = _as_finite(rate, f"transition {i} rate")
            rates.append(rate)
    cells = FinSet(len(raw))
    return _built("transitions", System, theory.kind, places, cells, src, tgt, rates)


def _read_field(value: Any, theory: DecorationTheory) -> PolyVectorField:
    _require_keys(value, ("places", "field"), (), f"{theory.kind} system")
    places = _built("places", FinSet, value["places"])
    raw = value["field"]
    if not isinstance(raw, list):
        raise ModelFormatError(f"field must be an array of {places.size} components")
    components = []
    for i, comp in enumerate(raw):
        if not isinstance(comp, list):
            raise ModelFormatError(f"field component {i} must be an array of terms")
        sparse = []
        for j, term in enumerate(comp):
            if not isinstance(term, list) or len(term) != 2 or not isinstance(term[1], list):
                raise ModelFormatError(
                    f"field component {i} terms must look like [coefficient, [exponents]]"
                )
            c = term[0]
            # a float is finite when c - c is 0.0, not NaN
            if c.__class__ is not float or c - c:
                c = _as_finite(c, f"field component {i} term {j} coefficient")
            sparse.append((c, term[1]))
        # each dense vector is read once, into the pairs the Poly keeps
        try:
            components.append(Poly._from_sparse(places.size, _sparse_terms(places.size, sparse)))
        except ValueError as exc:
            raise ModelFormatError(f"field component {i}: {exc}") from exc
    return _built("field", PolyVectorField, places, tuple(components))


class _Layout(NamedTuple):
    """How a shape's system objects sit in a file.  `text`, if not None,
    writes one with its "field" value held out as null, and that value's
    text (`_field_text`)."""

    read: Callable[[Any, DecorationTheory], Decoration]
    write: Callable[[Decoration], dict]
    text: Optional[Callable[[Decoration], tuple[dict, list[str]]]]


_LAYOUTS = {
    "graph": _Layout(_read_graph, _write_graph, None),
    "petri": _Layout(_read_petri, _write_petri, None),
    "field": _Layout(_read_field, _write_field, _field_text),
}
_KIND_LAYOUTS = {k: (decoration_theory(k), _LAYOUTS[decoration_theory(k).shape]) for k in KINDS}


def _layout(kind: Any, refusal: Optional[str] = None) -> tuple[DecorationTheory, _Layout]:
    """The kind's theory and its shape's layout; any other value is refused,
    by default as an unknown kind."""
    try:
        return _KIND_LAYOUTS[kind]
    except (KeyError, TypeError):
        raise ModelFormatError(refusal or f"unknown kind {_short(kind)}") from None


def system_to_json(system: Decoration) -> dict:
    """The kind's base shape, plus its attribute column when it has one."""
    _, layout = _layout(getattr(system, "kind", None), f"cannot serialize {type(system).__name__}")
    return layout.write(system)


def system_from_json(kind: str, value: Any) -> Decoration:
    theory, layout = _layout(kind)
    return layout.read(value, theory)


# the keys of a names block: labels of places, of the left and of the right foot
_NAME_KEYS = ("places", "footLeft", "footRight")


@dataclass(frozen=True)
class Names:
    """Presentation-only labels for places and boundary elements: each list,
    when given, is a list or tuple of distinct strings, stored as a tuple."""

    places: Optional[tuple[str, ...]] = None
    foot_left: Optional[tuple[str, ...]] = None
    foot_right: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        for key, field in zip(_NAME_KEYS, ("places", "foot_left", "foot_right")):
            names = getattr(self, field)
            if names is not None:
                if names.__class__ not in (list, tuple) or not set(map(type, names)) <= {str}:
                    raise ModelFormatError(f"names.{key} must be an array of strings")
                if len(set(names)) != len(names):
                    raise ModelFormatError(f"names.{key} must not repeat names")
                object.__setattr__(self, field, tuple(names))

    @staticmethod
    def from_json(value: Any) -> Names:
        _require_keys(value, (), _NAME_KEYS, "names")
        for key in _NAME_KEYS:  # a null is no array; an absent key is no list
            if key in value and value[key] is None:
                raise ModelFormatError(f"names.{key} must be an array of strings")
        return Names(*map(value.get, _NAME_KEYS))

    def to_json(self) -> dict:
        lists = zip(_NAME_KEYS, (self.places, self.foot_left, self.foot_right))
        return {key: list(names) for key, names in lists if names is not None}


@dataclass(frozen=True)
class ModelFile:
    """One model as stored on disk: a cospan of its kind plus bookkeeping.
    Each list of names it carries has one name per apex place or foot element."""

    kind: str
    payload: Cospan
    names: Optional[Names] = None

    def __post_init__(self) -> None:
        payload, names = self.payload, self.names
        if payload.kind != self.kind:
            raise KindError(f"a {self.kind} model file cannot hold a {payload.kind} cospan")
        if names is None:
            return
        lists = (names.places, names.foot_left, names.foot_right)
        sizes = (payload.apex.size, payload.foot_left.size, payload.foot_right.size)
        for label, got, want in zip(_NAME_KEYS, lists, sizes):
            if got is not None and len(got) != want:
                raise ModelFormatError(f"names.{label} has {len(got)} entries, expected {want}")

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
    """Both presentations are read as a decorated cospan, then presented."""
    _require_keys(value, ("version", "kind", "representation", "payload"), ("names",), "model file")
    if value["version"] != MODEL_VERSION:
        raise ModelFormatError(f"unsupported version {_short(value['version'])}")
    theory, layout = _layout(value["kind"])
    representation = value["representation"]
    if representation not in ("structured", "decorated"):
        raise ModelFormatError(f"unknown representation {_short(representation)}")
    payload = value["payload"]
    fields = ("footLeft", "footRight", "legLeft", "legRight", "system", "representation")
    _require_keys(payload, fields, (), "payload")
    if payload["representation"] != representation:
        raise ModelFormatError(
            "payload representation does not match the file's representation field"
        )
    system = layout.read(payload["system"], theory)
    apex = interface_of(system)
    if representation != "decorated" and not theory.structured:
        raise ModelFormatError(f"{theory.kind} models only have a decorated representation")
    feet = []
    for where in ("footLeft", "footRight"):
        foot = payload[where]
        if representation == "structured" and (not isinstance(foot, int) or isinstance(foot, bool)):
            foot = layout.read(foot, theory)
            feet.append((interface_of(foot), cells_of(foot).size))
        else:
            feet.append((_built(where, FinSet, foot), 0))
    legs = []
    for (foot, cells), where in zip(feet, ("legLeft", "legRight")):
        if not isinstance(payload[where], list):
            raise ModelFormatError(f"{where} must be an array of integers")
        legs.append(_built(where, FinFunction, foot, apex, payload[where]))
        if cells:
            raise NotInImageOfL(
                f"{where}: foot carries {cells} cells and is not the image of a finite set"
            )
    (foot_left, _), (foot_right, _) = feet
    cospan = _present(DecoratedCospan(foot_left, foot_right, *legs, system), representation)
    names = Names.from_json(value["names"]) if "names" in value else None
    return ModelFile(value["kind"], cospan, names)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ModelFormatError(f"duplicate key {_short(key)} in one JSON object")
    return obj


# `json.load` builds a decoder on every call that passes a hook; this one serves every file
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _read_json(path: str) -> Any:
    """A JSON file's value, decoded as text-mode reading would: universal
    newlines, and a byte order mark refused.  Invalid UTF-8 or JSON, an
    integer literal too long for `int` to read, and repeated keys are
    refused."""
    with open(path, "rb", buffering=0) as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except UnicodeDecodeError as exc:
        where = f"{exc.reason} at byte {exc.start}"
        raise ModelFormatError(f"{path} is not valid UTF-8: {where}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ModelFormatError(f"{path} is not valid JSON: nested too deeply") from None
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    except ValueError as exc:  # the decoder's refusal of an integer literal too long to read
        where = f"an integer literal has more than {sys.get_int_max_str_digits()} digits"
        raise ModelFormatError(f"{path} is not valid JSON: {where}") from exc


def load_model(path: str) -> ModelFile:
    return model_from_json(_read_json(path))


def _model_text(model: ModelFile) -> str:
    """The text of a model file: canonical_json(model.to_json()) + "\n".  A
    value the layout holds out as text (the dynam field) is written as null
    in the canonical JSON of the rest of the file, which is split once at
    `"field":null` and joined around that text, not built as lists.  No
    other object in a model file has a "field" key, and no JSON string
    holds an unescaped quote, so the split finds exactly that value."""
    _, layout = _layout(model.kind)
    if layout.text is None:
        return canonical_json(model.to_json()) + "\n"
    system, pieces = layout.text(model.payload.decoration)
    head, tail = canonical_json(model._json(system)).split('"field":null')
    return "".join([head, '"field":', *pieces, tail, "\n"])


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
    breakpoints = tuple(_as_finite(x, f"{where} breakpoints") for x in breakpoints)
    values = tuple(_as_finite(x, f"{where} values") for x in values)
    return _built(where, PiecewiseConstant, breakpoints, values)


def sim_config_from_json(value: Any) -> SimConfig:
    _require_keys(value, ("t0", "t1", "dt", "initialState"), ("inflows", "outflows"), "sim config")
    t0, t1, dt = [_as_finite(value[key], key) for key in ("t0", "t1", "dt")]
    if not dt > 0.0:
        raise ModelValidationError(f"dt must be positive, got {dt}")
    if not t1 > t0:
        raise ModelValidationError(f"need t1 > t0, got [{t0}, {t1}]")
    initial = value["initialState"]
    if not isinstance(initial, dict):
        raise ModelFormatError("initialState must map place names to numbers")
    initial = {name: _as_finite(v, _entry("initialState", name)) for name, v in initial.items()}
    flows = []
    for key in ("inflows", "outflows"):
        block = value.get(key, {})
        if not isinstance(block, dict):
            raise ModelFormatError(f"{key} must be an object")
        flows.append({name: _flow_from_json(raw, _entry(key, name)) for name, raw in block.items()})
    return SimConfig(t0, t1, dt, initial, *flows)


def load_sim_config(path: str) -> SimConfig:
    return sim_config_from_json(_read_json(path))


def resolve_simulation(
    model: ModelFile, config: SimConfig
) -> tuple[OpenDynam, FlowSchedule, list[float], Names]:
    """Turn named config entries into positional state and flow schedules."""
    theory = decoration_theory(model.kind)
    if theory.has_cells and not theory.rated:
        raise ModelValidationError(
            f"simulation needs a dynam or petri_rates model, got kind {model.kind!r}"
        )
    # refuse an over-cap run before gray-boxing and naming every place
    _full_steps(config.t0, config.t1, config.dt, model.payload.apex.size)
    system = graybox(model.payload) if theory.rated else model.payload
    names = default_names(model)
    assert names.places is not None and names.foot_left is not None
    assert names.foot_right is not None

    def resolve(block: dict, known: tuple[str, ...], zero: Any, unknown: str) -> list:
        index = {name: i for i, name in enumerate(known)}
        out = [zero] * len(known)
        for name, value in block.items():
            if name not in index:
                raise ModelValidationError(f"{unknown} {_short(name)}")
            out[index[name]] = value
        return out

    state = resolve(config.initial, names.places, 0.0, "initialState names unknown place")
    zero, unknown = PiecewiseConstant.ZERO, "names unknown boundary element"
    inflows = resolve(config.inflows, names.foot_left, zero, f"inflows {unknown}")
    outflows = resolve(config.outflows, names.foot_right, zero, f"outflows {unknown}")
    return system, FlowSchedule(tuple(inflows), tuple(outflows)), state, names


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
