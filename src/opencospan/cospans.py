"""Open systems as cospans, glued end to end and tensored side by side.

Two interchangeable presentations are provided.  A `DecoratedCospan` is a
cospan of finite sets whose apex carries a system as decoration; a
`StructuredCospan` is a cospan of systems L(a) -> x <- L(b) whose feet are
discrete, the images of finite sets, by construction: a foot with cells is
refused with `NotInImageOfL`.  Both carry the same data, and both are read
the same way: `representation` names the presentation, `foot_left` and
`foot_right` are finite sets, `leg_maps` are the two node maps into the
apex, and `decoration` is the apex system.  Everything below is written
once on that reading.  `_present(cospan, representation)` is the one
switch between the presentations, through `to_structured` and
`to_decorated`, which are mutually inverse; both translations preserve
composition and tensor on the nose because both presentations choose the
same colimits.  So `hcompose` and `tensor` build the decorated result and
present it as their inputs are: a discrete foot has no cells, so the
pushout in X that a structured composite calls for glues no cells, and it
lists x's cells before y's just as the decoration's union does
(`laws.conversion_roundtrip` checks this against `systems.system_pushout`
and `system_coproduct`).

Conventions: `hcompose(m, n)` glues m's right foot to n's left foot, so
composites read left to right.  `vcompose(a, b)` applies a first, then b.
Both presentations number pushout classes by their least member and
concatenate cells, so `hcompose` and `tensor` are associative on the nose
(`==`) but unital only up to isomorphism; `cospan_iso` decides that
equivalence and returns an explicit witness.  A square out of a composite
takes its apex map from the chosen pushout's universal property
(`finset.induced`): `hcompose_cells` induces it from the two squares' apex
maps, and each unitor from m's leg and the identity on m's apex.  Both
reuse the pushout their composite was glued along (`_glue`), so a square
costs no pushout beyond its composites'.

Open dynamical systems are the fifth decorated kind ("dynam"): the
decoration is a polynomial vector field, and the union of two decorations
is the sum of their pushforwards, so dynam `hcompose` is associative only
up to rounding.  `cospan_iso` compares fields within `field_close`'s
tolerance at the leaves of the search, term by term under the bijection.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import attrgetter
from typing import Optional, Union

from .errors import (
    BoundaryError,
    ComposabilityError,
    KindError,
    MorphismShapeError,
    NotInImageOfL,
)
from .finset import (
    EMPTY,
    FinFunction,
    FinSet,
    PushoutResult,
    compose,
    coproduct_map,
    find_iso,
    induced,
    pushout,
    _iso_budget,
)
from .systems import (
    Decoration,
    System,
    SystemMorphism,
    cells_of,
    decoration_theory,
    discrete,
    interface_of,
    is_discrete,
    validate_morphism,
    _push_pairs,
    _terms_close,
)


@dataclass(frozen=True)
class DecoratedCospan:
    """A cospan of finite sets whose apex carries a system (a field for dynam)."""

    foot_left: FinSet
    foot_right: FinSet
    leg_left: FinFunction
    leg_right: FinFunction
    decoration: Decoration

    representation = "decorated"

    def __post_init__(self) -> None:
        apex = interface_of(self.decoration)
        # sets are compared by identity before equality: a leg most often
        # starts at the very foot object and ends at the apex object
        legs = (("left", self.leg_left, self.foot_left), ("right", self.leg_right, self.foot_right))
        for side, leg, foot in legs:
            if leg.dom is not foot and leg.dom != foot or leg.cod is not apex and leg.cod != apex:
                raise ValueError(f"{side} leg must map the {side} foot into the apex")

    @property
    def apex(self) -> FinSet:
        return interface_of(self.decoration)

    @property
    def kind(self) -> str:
        return self.decoration.kind

    leg_maps = property(attrgetter("leg_left", "leg_right"))
    # the decoration, under the name an open dynamical system gives it
    field = property(attrgetter("decoration"))


@dataclass(frozen=True)
class StructuredCospan:
    """A cospan of systems L(a) -> x <- L(b), where L sends a finite set to
    the structureless system on it.  The feet are discrete by construction:
    a foot with cells is refused with `NotInImageOfL`, so every structured
    cospan has a decorated form.
    """

    leg_left: SystemMorphism
    leg_right: SystemMorphism

    representation = "structured"

    def __post_init__(self) -> None:
        if self.leg_left.cod != self.leg_right.cod:
            raise ValueError("both legs must land in one shared apex system")
        for name, leg in (("left", self.leg_left), ("right", self.leg_right)):
            if not is_discrete(leg.dom):
                raise NotInImageOfL(
                    f"{name} foot carries {cells_of(leg.dom).size} cells; "
                    "only structureless feet have a decorated form"
                )

    @property
    def apex(self) -> FinSet:
        return interface_of(self.decoration)

    @property
    def foot_left(self) -> FinSet:
        return interface_of(self.leg_left.dom)

    @property
    def foot_right(self) -> FinSet:
        return interface_of(self.leg_right.dom)

    @property
    def kind(self) -> str:
        return self.decoration.kind

    leg_maps = property(attrgetter("leg_left.node_map", "leg_right.node_map"))
    # the apex system, which both legs share
    decoration = property(attrgetter("leg_left.cod"))


Cospan = Union[DecoratedCospan, StructuredCospan]


def identity_cospan(kind: str, feet: FinSet, representation: str = "decorated") -> Cospan:
    """The unit cospan on a set: both legs the identity, structureless apex."""
    ident = FinFunction.identity(feet)
    return _present(DecoratedCospan(feet, feet, ident, ident, discrete(kind, feet)), representation)


def _present(cospan: Cospan, representation: str) -> Cospan:
    """The one place that picks the presentation of a cospan: `cospan` itself
    if it is already in that presentation, else its translation."""
    if representation not in ("decorated", "structured"):
        raise ValueError(f"unknown representation {representation!r}")
    if cospan.representation == representation:
        return cospan
    return to_structured(cospan) if representation == "structured" else to_decorated(cospan)


def _check_pair(m: Cospan, n: Cospan, what: str) -> None:
    """Raise what `hcompose` (what="compose") or `tensor` (what="tensor")
    would raise on m and n before doing any work: first a species clash,
    then, for compose, feet that disagree."""
    if m.representation != n.representation:
        raise ComposabilityError(f"cannot {what} a decorated and a structured cospan")
    if m.kind != n.kind:
        raise KindError(f"cannot {what} cospans of kinds {m.kind!r} and {n.kind!r}")
    if what == "compose" and m.foot_right != n.foot_left:
        raise ComposabilityError(
            f"feet disagree: right foot has size {m.foot_right.size}, "
            f"left foot has size {n.foot_left.size}"
        )


def hcompose(m: Cospan, n: Cospan) -> Cospan:
    """Glue m's right foot to n's left foot over the chosen pushout."""
    return _glue(m, n)[0]


def _glue(m: Cospan, n: Cospan) -> tuple[Cospan, PushoutResult]:
    """`hcompose(m, n)` and the pushout of m's right leg and n's left leg
    that it glued along, which a square out of the composite needs too."""
    _check_pair(m, n, "compose")
    (m_left, m_right), (n_left, n_right) = m.leg_maps, n.leg_maps
    po = pushout(m_right, n_left)
    # po.left and po.right are the quotient after the two injections, so
    # this is reindex(po.quotient, laxator(d, e)) with each cell moved once
    composite = DecoratedCospan(
        m.foot_left,
        n.foot_right,
        compose(po.left, m_left),
        compose(po.right, n_right),
        decoration_theory(m.kind).union(m.decoration, po.left, n.decoration, po.right),
    )
    return _present(composite, m.representation), po


def tensor(m: Cospan, n: Cospan) -> Cospan:
    """Set two open systems side by side; feet and apexes become coproducts."""
    _check_pair(m, n, "tensor")
    (m_left, m_right), (n_left, n_right) = m.leg_maps, n.leg_maps
    product = DecoratedCospan(
        FinSet(m.foot_left.size + n.foot_left.size),
        FinSet(m.foot_right.size + n.foot_right.size),
        coproduct_map(m_left, n_left),
        coproduct_map(m_right, n_right),
        decoration_theory(m.kind).laxator(m.decoration, n.decoration),
    )
    return _present(product, m.representation)


def to_structured(cospan: DecoratedCospan) -> StructuredCospan:
    """Repackage a decorated cospan with its feet made structureless systems."""
    kind = cospan.kind
    if not decoration_theory(kind).structured:
        raise KindError(f"{kind} models only have a decorated representation")
    no_cells = FinFunction.from_empty(cells_of(cospan.decoration))
    return StructuredCospan(
        SystemMorphism(discrete(kind, cospan.foot_left), cospan.decoration, cospan.leg_left, no_cells),
        SystemMorphism(discrete(kind, cospan.foot_right), cospan.decoration, cospan.leg_right, no_cells),
    )


def to_decorated(cospan: StructuredCospan) -> DecoratedCospan:
    """Read a structured cospan as a decorated one; its feet are discrete."""
    return DecoratedCospan(cospan.foot_left, cospan.foot_right, *cospan.leg_maps, cospan.decoration)


def reverse(cospan: Cospan) -> Cospan:
    """Swap the two feet; the apex and its structure stay put."""
    d = _present(cospan, "decorated")
    swapped = DecoratedCospan(d.foot_right, d.foot_left, d.leg_right, d.leg_left, d.decoration)
    return _present(swapped, cospan.representation)


@dataclass(frozen=True)
class TwoMorphism:
    """A square between two parallel-ish cospans.

    `left` and `right` rename the feet, `apex_map` the apex, and `cell_map`
    the edges or transitions; together (apex_map, cell_map) must be a valid
    morphism of the apex systems, and the two leg squares must commute.
    """

    src: Cospan
    tgt: Cospan
    left: FinFunction
    right: FinFunction
    apex_map: FinFunction
    cell_map: FinFunction

    def violations(self) -> list[str]:
        out: list[str] = []
        src_l, src_r = self.src.leg_maps
        tgt_l, tgt_r = self.tgt.leg_maps
        if self.src.representation != self.tgt.representation or self.src.kind != self.tgt.kind:
            return ["source and target cospans are of different species"]
        if self.left.dom != self.src.foot_left or self.left.cod != self.tgt.foot_left:
            return ["left foot map has the wrong endpoints"]
        if self.right.dom != self.src.foot_right or self.right.cod != self.tgt.foot_right:
            return ["right foot map has the wrong endpoints"]
        if self.apex_map.dom != self.src.apex or self.apex_map.cod != self.tgt.apex:
            return ["apex map has the wrong endpoints"]
        if compose(self.apex_map, src_l) != compose(tgt_l, self.left):
            out.append("left leg square does not commute")
        if compose(self.apex_map, src_r) != compose(tgt_r, self.right):
            out.append("right leg square does not commute")
        try:
            carrier = SystemMorphism(
                self.src.decoration, self.tgt.decoration, self.apex_map, self.cell_map
            )
        except MorphismShapeError as exc:  # a cell map that does not fit
            out.append(f"apex morphism ill-shaped: {exc}")
            return out
        out.extend(validate_morphism(carrier))
        return out

    @staticmethod
    def identity(cospan: Cospan) -> TwoMorphism:
        return TwoMorphism(
            cospan,
            cospan,
            FinFunction.identity(cospan.foot_left),
            FinFunction.identity(cospan.foot_right),
            FinFunction.identity(cospan.apex),
            FinFunction.identity(cells_of(cospan.decoration)),
        )


def unit_cell(f: FinFunction, kind: str, representation: str = "decorated") -> TwoMorphism:
    """The square between unit cospans induced by a function on feet."""
    return TwoMorphism(
        identity_cospan(kind, f.dom, representation),
        identity_cospan(kind, f.cod, representation),
        f,
        f,
        f,
        FinFunction.identity(EMPTY),
    )


def vcompose(a: TwoMorphism, b: TwoMorphism) -> TwoMorphism:
    """Stack two squares: a first, then b."""
    if a.tgt != b.src:
        raise BoundaryError("vertical composition needs a.tgt == b.src")
    return TwoMorphism(
        a.src,
        b.tgt,
        compose(b.left, a.left),
        compose(b.right, a.right),
        compose(b.apex_map, a.apex_map),
        compose(b.cell_map, a.cell_map),
    )


def hcompose_cells(a: TwoMorphism, b: TwoMorphism) -> TwoMorphism:
    """Paste two squares side by side over the composed cospans.

    The composite apex map is the one the source pushout's universal
    property induces from the two apex maps followed into the target
    pushout; squares that do not agree on a glued class fail loudly.
    """
    if a.right != b.left:
        raise BoundaryError("horizontal pasting needs a.right == b.left")
    src, src_po = _glue(a.src, b.src)
    tgt, tgt_po = _glue(a.tgt, b.tgt)
    apex_map = induced(
        src_po, compose(tgt_po.left, a.apex_map), compose(tgt_po.right, b.apex_map)
    )
    if apex_map is None:
        raise BoundaryError(
            "squares do not agree on the glued apex; are both valid 2-morphisms?"
        )
    cell_map = coproduct_map(a.cell_map, b.cell_map)
    return TwoMorphism(src, tgt, a.left, b.right, apex_map, cell_map)


def _unitor(cospan: Cospan, on_left: bool) -> TwoMorphism:
    """The square from (unit ; m) or (m ; unit) down to m itself: its apex
    map is induced by m's leg on the unit's side and the identity on m."""
    foot = cospan.foot_left if on_left else cospan.foot_right
    unit = identity_cospan(cospan.kind, foot, cospan.representation)
    first, second = (unit, cospan) if on_left else (cospan, unit)
    composite, po = _glue(first, second)
    ident = FinFunction.identity(cospan.apex)
    leg_l, leg_r = cospan.leg_maps
    apex_map = induced(po, leg_l, ident) if on_left else induced(po, ident, leg_r)
    return TwoMorphism(
        composite,
        cospan,
        FinFunction.identity(cospan.foot_left),
        FinFunction.identity(cospan.foot_right),
        apex_map,  # type: ignore[arg-type]  # a cocone by construction
        FinFunction.identity(cells_of(cospan.decoration)),
    )


def left_unitor(cospan: Cospan) -> TwoMorphism:
    """hcompose(unit, m) -> m, collapsing the glued-in identity foot."""
    return _unitor(cospan, on_left=True)


def right_unitor(cospan: Cospan) -> TwoMorphism:
    """hcompose(m, unit) -> m."""
    return _unitor(cospan, on_left=False)


@dataclass(frozen=True)
class AdjointPair:
    """A one-leg-trivial cospan built from a function, with its two squares."""

    cospan: Cospan
    to_unit: TwoMorphism
    from_unit: TwoMorphism


def companion(f: FinFunction, kind: str = "graph", representation: str = "decorated") -> AdjointPair:
    """Turn a function into a horizontal cospan that travels with it.

    The cospan runs f on the left leg and the identity on the right;
    `to_unit` squashes it onto the unit at the codomain, `from_unit`
    grows it out of the unit at the domain.
    """
    a, b = f.dom, f.cod
    ident_b = FinFunction.identity(b)
    cospan = _present(DecoratedCospan(a, b, f, ident_b, discrete(kind, b)), representation)
    no_cells = FinFunction.identity(EMPTY)
    to_unit = TwoMorphism(
        cospan, identity_cospan(kind, b, representation), f, ident_b, ident_b, no_cells
    )
    from_unit = TwoMorphism(
        identity_cospan(kind, a, representation), cospan, FinFunction.identity(a), f, f, no_cells
    )
    return AdjointPair(cospan, to_unit, from_unit)


def _mirror(cell: TwoMorphism) -> TwoMorphism:
    """The same square seen in a mirror: both cospans reversed, feet swapped."""
    return TwoMorphism(
        reverse(cell.src), reverse(cell.tgt), cell.right, cell.left, cell.apex_map, cell.cell_map
    )


def conjoint(f: FinFunction, kind: str = "graph", representation: str = "decorated") -> AdjointPair:
    """The mirror image of `companion`: the same cospan with its legs swapped."""
    comp = companion(f, kind, representation)
    return AdjointPair(reverse(comp.cospan), _mirror(comp.to_unit), _mirror(comp.from_unit))


def check_companion(f: FinFunction, kind: str = "graph", representation: str = "decorated") -> tuple[bool, str]:
    """Verify the two defining equations of the companion of f.

    The straight equation stacks from_unit over to_unit and must equal the
    unit square on f.  The bent equation pastes the two squares side by
    side and must match one unitor through the other, both unitors being
    computed from the chosen pushouts.
    """
    return _check_adjoint(companion(f, kind, representation), f, kind, representation, False)


def check_conjoint(f: FinFunction, kind: str = "graph", representation: str = "decorated") -> tuple[bool, str]:
    """Verify the two defining equations of the conjoint of f (mirror image)."""
    return _check_adjoint(conjoint(f, kind, representation), f, kind, representation, True)


def _check_adjoint(
    pair: AdjointPair, f: FinFunction, kind: str, representation: str, mirrored: bool
) -> tuple[bool, str]:
    for name, cell in (("to_unit", pair.to_unit), ("from_unit", pair.from_unit)):
        bad = cell.violations()
        if bad:
            return False, f"{name} is not a valid square: {bad[0]}"
    straight = vcompose(pair.from_unit, pair.to_unit)
    if straight != unit_cell(f, kind, representation):
        return False, "stacked squares do not equal the unit square on f"
    # the mirror image pastes the squares the other way round and swaps the unitors
    first, second = (pair.to_unit, pair.from_unit) if mirrored else (pair.from_unit, pair.to_unit)
    through, onto = (left_unitor, right_unitor) if mirrored else (right_unitor, left_unitor)
    if vcompose(hcompose_cells(first, second), through(pair.cospan)) != onto(pair.cospan):
        return False, "bent composite does not match the unitors"
    return True, ""


@dataclass(frozen=True)
class IsoWitness:
    """An explicit isomorphism between two cospans over the same feet."""

    node_map: FinFunction
    cell_map: FinFunction


def _cell_keys(system: System, h: Optional[FinFunction] = None):
    """Each cell's key (consumed support, produced support,
    label_key(attribute)), in cell order; the ends move along h if given."""
    theory = decoration_theory(system.kind)
    src, tgt = system.src, system.tgt
    if h is not None:
        src, tgt = theory.move(src, h), theory.move(tgt, h)
    attrs = system.attrs
    # zip(map(type, attrs), attrs) is map(label_key, attrs) without a call per cell
    return zip(
        theory.hashable(src),
        theory.hashable(tgt),
        repeat(None) if attrs is None else zip(map(type, attrs), attrs),
    )


def match_cells(d: System, e: System, h: FinFunction) -> Optional[FinFunction]:
    """Given a node bijection h, find the matching bijection on cells.

    Cells are grouped by their structural fingerprint after relabeling
    through h; the bijection pairs groups in ascending order, so the
    witness is deterministic.  Returns None when the fingerprints differ.
    """
    groups_d: dict = {}
    for c, key in enumerate(_cell_keys(d, h)):
        groups_d.setdefault(key, []).append(c)
    groups_e: dict = {}
    for c, key in enumerate(_cell_keys(e)):
        groups_e.setdefault(key, []).append(c)
    if set(groups_d) != set(groups_e):
        return None
    table = [-1] * cells_of(d).size
    for key, members in groups_d.items():
        partners = groups_e[key]
        if len(members) != len(partners):
            return None
        for c, c2 in zip(members, partners):
            table[c] = c2
    return FinFunction(cells_of(d), cells_of(e), tuple(table))


def _count(counts: dict, key) -> None:
    counts[key] = counts.get(key, 0) + 1


def _incidences(decoration: Decoration):
    """Every cell or term as (consumed support, produced support, key): an
    edge consumes its source and produces its target, a transition its two
    multisets, and a term of component x its monomial and x itself.  The key
    is a cell's label or rate key, and None for a term, whose coefficient
    only the leaf check reads."""
    if not decoration_theory(decoration.kind).has_cells:
        return (
            (support, ((x, 1),), None)
            for x, poly in enumerate(decoration.components)
            for _, support in poly.sparse
        )
    return _cell_keys(decoration)


def _profiles(decoration: Decoration, colours: dict):
    """One pass over the incidences.  Per place, its colour: the bag of
    ((consumed, produced) at the place, key) over the cells that touch it,
    interned in `colours` as a small int; a place no cell touches has the
    empty bag's colour, 0.  Per touched place x, its row: per other place x2,
    the counts of (at x, at x2, key) over the cells that touch both.  And
    the counts of the keys over all cells."""
    bags: defaultdict = defaultdict(dict)
    rows: defaultdict = defaultdict(dict)
    keys: dict = {}
    for consumed, produced, key in _incidences(decoration):
        _count(keys, key)
        at = {x: (k, 0) for x, k in consumed}
        for x, k in produced:
            at[x] = (at.get(x, (0, 0))[0], k)
        for x, here in at.items():
            _count(bags[x], (here, key))
            row = rows[x]
            for x2, there in at.items():
                if x2 != x:
                    _count(row.setdefault(x2, {}), (here, there, key))
    colour = [0] * interface_of(decoration).size
    for x, bag in bags.items():
        colour[x] = colours.setdefault(frozenset(bag.items()), len(colours))
    return colour, rows, keys


_NO_CELLS = FinFunction.identity(EMPTY)


def _shapes(colour: list[int], rows: dict, colours: dict, shapes: dict) -> list[int]:
    """Each touched place's colour joined with its component's shape.  Two
    places are joined when some cell or term touches both, that is when
    one is in the other's row.  The shape is the sorted colours of the
    component's members, interned in `shapes`, and (colour, shape) is
    interned in `colours`.  An untouched place keeps colour 0."""
    joined = [0] * len(colour)
    for start in rows:
        if joined[start]:
            continue
        component, stack = [start], [start]
        joined[start] = -1
        while stack:
            for x in rows[stack.pop()]:
                if not joined[x]:
                    joined[x] = -1
                    component.append(x)
                    stack.append(x)
        shape = shapes.setdefault(tuple(sorted([colour[x] for x in component])), len(shapes))
        for x in component:
            joined[x] = colours.setdefault((colour[x], shape), len(colours))
    return joined


def _search_rules(d: Decoration, e: Decoration):
    """The `compatible` rule, the leaf check (node bijection -> cell map or
    None) and the colour lists of d and e for a search from d to e, or None
    when their cells' keys (for fields, their term counts) differ.  A place
    maps only to a place of its colour, and meets each assigned place in the
    same cells, by `_profiles`, as its image meets that place's image.  A
    touched place's colour also names its component's shape (`_shapes`), so
    no place of a ring may map into two equal cycles, which 1-dimensional
    colour refinement cannot tell from it.  The meetings are read from
    x's row: each assigned place in it must meet x as its image meets y,
    and y must meet no more assigned places than x does, so a test costs
    the two places' degrees.  The leaf check is `match_cells`, or for a
    field a term by term comparison: each component of d, its supports
    moved along h, against e's component at its image, by `_terms_close`.
    That is `field_close(pushforward_field(h, d), e)` for a bijection h,
    which merges no terms and drops none.  A place of colour 0 is touched
    by no cell or term: it is in no row and no leaf check reads it."""
    colours: dict = {frozenset(): 0}
    bags_d, rows_d, keys_d = _profiles(d, colours)
    bags_e, rows_e, keys_e = _profiles(e, colours)
    if keys_d != keys_e:
        return None
    shapes: dict = {}
    colour_d = _shapes(bags_d, rows_d, colours, shapes)
    colour_e = _shapes(bags_e, rows_e, colours, shapes)

    # x's row as a tuple, which the rule walks, and y's as a dict, which it
    # looks places up in
    walks = {x: tuple(row.items()) for x, row in rows_d.items()}

    def compatible(x: int, y: int, assignment: list[Optional[int]], used: list[bool]) -> bool:
        if colour_d[x] != colour_e[y]:
            return False
        row_e = rows_e.get(y)
        if row_e is None:  # y, so x too, has the empty bag's colour
            return True
        met = 0
        for x2, meets in walks[x]:
            y2 = assignment[x2]
            if y2 is not None:
                if row_e.get(y2) != meets:
                    return False
                met += 1
        for y2 in row_e:
            if used[y2]:
                met -= 1
        return met == 0

    if decoration_theory(d.kind).has_cells:
        return compatible, partial(match_cells, d, e), colour_d, colour_e
    wants = [{support: c for c, support in poly.sparse} for poly in e.components]

    def leaf(h: FinFunction) -> Optional[FinFunction]:
        table = h.table
        for x, poly in enumerate(d.components):
            moved = {_push_pairs(support, table): c for c, support in poly.sparse}
            if not _terms_close(moved, wants[table[x]]):
                return None
        return _NO_CELLS

    return compatible, leaf, colour_d, colour_e


def cospan_iso(m: Cospan, n: Cospan, budget: Optional[int] = None) -> Optional[IsoWitness]:
    """Decide whether two cospans over the same feet are isomorphic.

    The budget is resolved first, so a malformed OPENCOSPAN_ISO_BUDGET is
    reported whatever the inputs.  Equal cospans are then decided by that
    comparison alone and charge nothing: the witness is the identity on
    the apex and on the cells (`_NO_CELLS` for a field), the one the
    search finds first.

    Other pairs go to `find_iso`, which searches for an apex bijection
    commuting with both pairs of legs.  Every kind is pruned by one rule,
    on one reading of its cells or terms as incidences (`_incidences`): a
    place maps only to a place of the same colour, and meets each assigned
    place in the same cells as its image meets that place's image.  A
    touched place's colour names its own bag of incidences and the shape
    of its component, the sorted bags of the places that cells or terms
    link it to, so a ring and two equal cycles share no colour.  Places
    that no leg pins and no cell or term touches are interchangeable, so
    they are pinned to each other in ascending order, or the pair refused
    if the sides have different numbers of them.  The leaf check is
    `match_cells`, or for fields a term by term `field_close` under the
    bijection; the cell part of the witness is the one the leaf check
    found there.  Budget, node counting and witness order are those of
    `find_iso`, and the test at a node costs at most the two places'
    degrees, so the budget bounds the search's time."""
    budget = _iso_budget(budget)
    if m == n:
        has_cells = decoration_theory(m.kind).has_cells
        cells = FinFunction.identity(cells_of(m.decoration)) if has_cells else _NO_CELLS
        return IsoWitness(FinFunction.identity(m.apex), cells)
    if m.representation != n.representation or m.kind != n.kind:
        return None
    if m.foot_left != n.foot_left or m.foot_right != n.foot_right:
        return None
    if m.apex.size != n.apex.size:
        return None
    rules = _search_rules(m.decoration, n.decoration)
    if rules is None:
        return None
    compatible, leaf, *colours = rules
    constraints = list(zip(m.leg_maps, n.leg_maps))
    if 0 in colours[0] or 0 in colours[1]:
        # per side, the places of colour 0 that no leg pins, ascending; both
        # sides take their ints from one list, so each place's is made once
        places, idle = list(range(m.apex.size)), []
        for cospan, colour in zip((m, n), colours):
            pinned = set().union(*(leg.table for leg in cospan.leg_maps))
            kept = tuple(x for x, c in zip(places, colour) if c == 0 and x not in pinned)
            idle.append(FinFunction(FinSet(len(kept)), cospan.apex, kept))
        if idle[0].dom != idle[1].dom:
            return None
        constraints.append(idle)
    cells: Optional[FinFunction] = None

    def cells_match(h: FinFunction) -> bool:
        nonlocal cells
        cells = leaf(h)
        return cells is not None

    h = find_iso(
        m.apex,
        n.apex,
        constraints=constraints,
        predicate=cells_match,
        budget=budget,
        compatible=compatible,
    )
    return None if h is None else IsoWitness(h, cells)  # type: ignore[arg-type]
