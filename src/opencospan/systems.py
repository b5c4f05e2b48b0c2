"""Concrete system kinds and the fiberwise calculus they share.

Five kinds are supported: directed multigraphs ("graph"), edge-labeled
graphs ("lgraph", labels are opaque scalars compared exactly: by type and
value, so 1, 1.0 and True are three different labels), whole-grain Petri
nets ("petri"), Petri nets with a nonnegative rate per transition
("petri_rates"), and polynomial vector fields ("dynam").  Each kind
assigns to a finite set N of nodes (places) the collection of structures
over N; relabeling along a function, disjoint union, and the structureless
decoration make those collections compose.

Every cell system, whatever its kind, is one record, `System`: a node set
and a cell set (`interface`, `cells`), the two ends of each cell (`src`,
`tgt`: node indices for graph kinds, `Multiset`s of places for Petri kinds),
and an attribute column (`attrs`: the labels of an lgraph, the rates of a
rated net, None otherwise).  The kinds differ only in their rules, stated
once, in the kind's `DecorationTheory` row (`_THEORIES`): what an end is and
how it is checked and moved along a node map, what the attribute column
must hold, and what it demands of a morphism.  A record is checked by its
row when it is built, and each operation below is written once on the
record, reading the rules from the row, looked up once per operation.
`Graph`, `PetriNet`, `LabeledGraph` and `PetriNetWithRates` build a record
of their kind from the parts they are named for.

The "dynam" row of the kind table rests on the field algebra kept beside
it (`Poly`, `PolyVectorField`, `pushforward_field`): a field has no cells,
moves by pushing forward, and the union of two fields is their sum.

A `SystemMorphism` maps nodes and edges separately.  For Petri kinds the
node map acts on places and the edge map on transitions; token counts are
transported by summing over merged places, and a rated morphism must give
every target transition exactly the sum of the rates mapped onto it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import Optional, Sequence, Union

from .errors import (
    CoefficientOverflow,
    DimensionError,
    KindError,
    MorphismShapeError,
    SpanError,
    UnsupportedGluing,
)
from .finset import (
    EMPTY,
    FinFunction,
    FinSet,
    compose,
    coproduct,
    pushout,
    _short,
)

Label = Union[str, int, float, bool]
_LABEL_TYPES = frozenset((str, int, float, bool))  # a label's exact type


def label_key(label: Label) -> tuple[type, Label]:
    """The key two labels must share to count as equal: type and value."""
    return (type(label), label)


# the nonzero (place, count) pairs of a multiset, in place order: also the
# (variable, exponent) pairs of a monomial
Support = tuple[tuple[int, int], ...]


# how a refusal words a bad count or exponent, given its place and value
_COUNT_FAULT = "count at {} must be a nonnegative int, got {}"
_EXPONENT_FAULT = "exponents must be nonnegative ints, got {1} at {0}"


def _check_pairs(pairs: Support, size: int, fault: str = _COUNT_FAULT) -> None:
    """Sparse support over {0..size-1}: increasing int places, positive int
    counts.  This is the one check of every pair that enters from outside
    (a multiset's or a monomial's constructor, the file reader); pairs moved
    from checked pairs along a checked map are not checked again.  A
    refusal names the first bad pair, with its values cut short."""
    last = -1
    for p, k in pairs:
        if type(p) is not int or not last < p:
            raise ValueError(f"place {_short(p)} must be an int in {last + 1}..{size - 1}")
        if type(k) is not int or k <= 0:
            raise ValueError(fault.format(p, _short(k)) if k else f"place {p} stores a zero")
        last = p
    if last >= size:
        raise ValueError(f"place {last} is outside the set of size {size}")


def _nonzero_pairs(values: Sequence, fault: str) -> Support:
    """A dense vector's nonzero (index, value) pairs, for `_check_pairs`; a
    zero is dropped unseen by it, so here it must be the int 0."""
    pairs = []
    for i, k in enumerate(values):
        if k:
            pairs.append((i, k))
        elif type(k) is not int:
            raise ValueError(fault.format(i, _short(k)))
    return tuple(pairs)


def _push_pairs(pairs: Support, table: Sequence[int]) -> Support:
    """Sparse support moved along a map's table, summing over merged places.

    This is the one move of a support: `Multiset.pushforward`,
    `Poly.substitute_along` and the dynam iso leaf all call it.  The ends
    of real nets touch one or two places, so supports of one or two pairs
    take a path without a dict or a sort that gives what the merge below
    gives.  One pair moves to the one pair (table[p], k): nothing merges,
    and one pair is in order.  Two pairs take one comparison of their
    images: kept in order when the first is smaller, swapped when it is
    larger, and merged into one pair holding the sum of both counts when
    both land on one place.  Any other support is summed per image in a
    dict and sorted by place."""
    n = len(pairs)
    if n == 1:
        ((p, k),) = pairs
        return ((table[p], k),)
    if n == 2:
        (p, k), (p2, k2) = pairs
        q, q2 = table[p], table[p2]
        if q < q2:
            return ((q, k), (q2, k2))
        if q2 < q:
            return ((q2, k2), (q, k))
        return ((q, k + k2),)
    moved: dict[int, int] = {}
    for p, k in pairs:
        q = table[p]
        moved[q] = moved.get(q, 0) + k
    return tuple(sorted(moved.items()))


@dataclass(frozen=True, init=False, repr=False)
class Multiset:
    """A finite multiset over {0..n-1}, stored sparsely as its nonzero
    (place, count) `pairs` in place order; built from and read back as one
    count per place (`counts`).

    Every pair that enters from outside passes `_check_pairs` once.
    `pushforward` stores the moved pairs without it: pairs moved from
    checked pairs along a checked map are increasing, positive and inside
    the map's codomain by construction.  It (like a Petri system's end
    check) compares place sets by identity before equality: the set a
    multiset lives over is most often the very object a map starts from."""

    over: FinSet
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, over: FinSet, counts: Sequence[int]) -> None:
        counts = tuple(counts)
        if len(counts) != over.size:
            raise ValueError(f"multiset has {len(counts)} counts over a set of size {over.size}")
        self.__post_init__(over, _nonzero_pairs(counts, _COUNT_FAULT))

    def __post_init__(self, over: FinSet, pairs: tuple[tuple[int, int], ...]) -> None:
        """Check the pairs, in O(len(pairs)), and set the fields."""
        _check_pairs(pairs, over.size)
        # the frozen fields, set in the __dict__ where object.__setattr__ sets them
        fields = self.__dict__
        fields["over"], fields["pairs"] = over, pairs

    @classmethod
    def _from_pairs(cls, over: FinSet, pairs: tuple[tuple[int, int], ...]) -> Multiset:
        ms = object.__new__(cls)
        ms.__post_init__(over, pairs)
        return ms

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(_dense_of(self.over.size, self.pairs))

    def __repr__(self) -> str:
        return f"Multiset(over={self.over!r}, counts={self.counts!r})"

    @staticmethod
    def zero(over: FinSet) -> Multiset:
        return Multiset._from_pairs(over, ())

    @staticmethod
    def from_dict(over: FinSet, entries: dict[int, int]) -> Multiset:
        """A zero count is dropped unseen by `_check_pairs`: checked here."""
        for place, k in entries.items():
            if not k:
                if place not in over:
                    raise ValueError(f"place {_short(place)} is outside the set of size {over.size}")
                if type(k) is not int:
                    raise ValueError(_COUNT_FAULT.format(place, _short(k)))
        pairs = [(p, k) for p, k in entries.items() if k]
        try:
            pairs.sort()
        except TypeError:
            raise ValueError(f"places must be ints, got {_short(list(entries))}") from None
        return Multiset._from_pairs(over, tuple(pairs))

    def pushforward(self, f: FinFunction) -> Multiset:
        """Transport counts along f, summing over merged elements.  The moved
        pairs are sorted sums of positive counts at places of f's codomain,
        so they are stored unchecked."""
        over = self.over
        if f.dom is not over and f.dom != over:
            raise MorphismShapeError("multiset pushforward along a map with the wrong domain")
        ms = object.__new__(Multiset)
        fields = ms.__dict__
        fields["over"], fields["pairs"] = f.cod, _push_pairs(self.pairs, f.table)
        return ms

    def total(self) -> int:
        return sum(k for _, k in self.pairs)


@dataclass(frozen=True, init=False, eq=False)
class System:
    """A cell system of one kind: a node set (`interface`), a cell set
    (`cells`), the two ends of each cell (`src`, `tgt`: node indices in the
    graph shape, `Multiset`s of places in the Petri shape) and an attribute
    column (`attrs`: the labels of an lgraph, the rates of a rated net, None
    for the other kinds).

    It is checked when built, by its kind's `DecorationTheory` row: first
    the row's `check_ends`, then its `check_attrs`, which stores the column
    as a tuple (rates as floats); an attributed kind reads None as the
    empty column.  Two systems are equal when their kinds, parts and
    attributes are, attributes compared by `label_key`, so 1, 1.0 and True
    are three different labels; hashing follows the same rule.  A record
    the library derives from checked records along checked maps (a union,
    a pushout, a relabeling, a structureless record) is built by `_made`,
    which skips the row's checks.
    """

    kind: str
    interface: FinSet
    cells: FinSet
    src: tuple
    tgt: tuple
    attrs: Optional[tuple]

    def __init__(
        self, kind: str, interface: FinSet, cells: FinSet, src: Sequence, tgt: Sequence, attrs=None
    ) -> None:
        theory = decoration_theory(kind)
        if not theory.has_cells:
            raise KindError(f"{kind} decorations have no cells")
        src, tgt = tuple(src), tuple(tgt)
        theory.check_ends(interface, cells, src, tgt)
        if theory.check_attrs is not None:
            attrs = theory.check_attrs(cells, () if attrs is None else attrs)
        elif attrs is not None:
            raise ValueError(f"{kind} systems carry no attributes, got {_short(attrs)}")
        self._set(kind, interface, cells, src, tgt, attrs)

    def _set(self, kind, interface, cells, src, tgt, attrs) -> None:
        # the frozen fields, set in the __dict__ where object.__setattr__ sets them
        fields = self.__dict__
        fields["kind"], fields["interface"], fields["cells"] = kind, interface, cells
        fields["src"], fields["tgt"], fields["attrs"] = src, tgt, attrs

    @classmethod
    def _made(
        cls, kind: str, interface: FinSet, cells: FinSet, src: tuple, tgt: tuple, attrs
    ) -> System:
        """A record derived from checked values, its columns tuples as the
        row stores them: stored as given.  Only `systems` calls it."""
        system = object.__new__(cls)
        system._set(kind, interface, cells, src, tgt, attrs)
        return system

    def _key(self) -> tuple:
        attrs = self.attrs
        types = None if attrs is None else tuple(map(type, attrs))
        return (self.kind, self.interface, self.cells, self.src, self.tgt, attrs, types)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not System:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def Graph(nodes: FinSet, edges: FinSet, src: FinFunction, tgt: FinFunction) -> System:
    """A directed multigraph, its ends given as maps edges -> nodes: parallel
    edges and loops allowed."""
    for name, leg in (("src", src), ("tgt", tgt)):
        if leg.dom != edges or leg.cod != nodes:
            raise ValueError(f"{name} must map edges to nodes")
    return System("graph", nodes, edges, src.table, tgt.table)


def PetriNet(places: FinSet, transitions: FinSet, src: Sequence, tgt: Sequence) -> System:
    """A Petri net: each transition consumes and produces multisets of places."""
    return System("petri", places, transitions, src, tgt)


def LabeledGraph(graph: System, labels: Sequence[Label]) -> System:
    """A graph with one opaque label per edge; labels compare exactly."""
    return System("lgraph", graph.interface, graph.cells, graph.src, graph.tgt, labels)


def PetriNetWithRates(net: System, rates: Sequence[float]) -> System:
    """A Petri net together with a nonnegative rate constant per transition."""
    return System("petri_rates", net.interface, net.cells, net.src, net.tgt, rates)


def _lacks(value: object, what: str) -> KindError:
    """The error for a value with no node or cell set.  It names the kind or
    the type, not the repr, which for a field is as long as the field."""
    kind = getattr(value, "kind", None)
    if kind in KINDS:
        return KindError(f"{kind} decorations have no {what}")
    return KindError(f"not a system: {type(value).__name__}")


def interface_of(system: System) -> FinSet:
    """The node or place set: the part an open system exposes for gluing."""
    try:
        return system.interface
    except AttributeError:
        raise _lacks(system, "nodes") from None


def cells_of(system: System) -> FinSet:
    """The edge or transition set."""
    try:
        return system.cells
    except AttributeError:
        raise _lacks(system, "cells") from None


def is_discrete(system: System) -> bool:
    return cells_of(system).size == 0


def discrete(kind: str, nodes: FinSet) -> Decoration:
    """The structureless system on a given node set (the zero field for dynam)."""
    return decoration_theory(kind).trivial(nodes)


@dataclass(frozen=True)
class SystemMorphism:
    """A structure-preserving map between systems of the same kind.

    `node_map` acts on nodes (places for Petri kinds) and `edge_map` on
    edges (transitions).  Construction checks shapes only; semantic
    validity is the job of `validate_morphism`.
    """

    dom: System
    cod: System
    node_map: FinFunction
    edge_map: FinFunction

    def __post_init__(self) -> None:
        if self.dom.kind != self.cod.kind:
            raise KindError(
                f"morphism between kinds {self.dom.kind!r} and {self.cod.kind!r}"
            )
        # sets are compared by identity before equality: a map most often
        # starts and ends at the very sets of the two systems
        maps = (("node", self.node_map, interface_of), ("edge", self.edge_map, cells_of))
        for name, f, part in maps:
            a, b = part(self.dom), part(self.cod)
            if f.dom is not a and f.dom != a or f.cod is not b and f.cod != b:
                raise MorphismShapeError(f"{name} map does not fit the two systems")

    @staticmethod
    def identity(system: System) -> SystemMorphism:
        return SystemMorphism(
            system,
            system,
            FinFunction.identity(interface_of(system)),
            FinFunction.identity(cells_of(system)),
        )


def compose_morphism(g: SystemMorphism, f: SystemMorphism) -> SystemMorphism:
    """The composite g after f."""
    if f.cod != g.dom:
        raise MorphismShapeError("morphisms do not meet end to end")
    return SystemMorphism(
        f.dom, g.cod, compose(g.node_map, f.node_map), compose(g.edge_map, f.edge_map)
    )


def validate_morphism(m: SystemMorphism, check_rates: bool = True) -> list[str]:
    """All the ways m fails to be a morphism; empty means valid.

    Every cell's two ends, moved along the node map, must equal the ends of
    its image: for graph kinds the source and target squares commute, for
    Petri kinds the consumed and produced multisets are transported.  Then
    the row's `attribute_faults(m)` apply: labels are preserved exactly, and
    every target transition's rate equals the sum of the rates mapped onto
    it (so transitions outside the image must have rate zero).  Violations
    are listed per cell, source side first, then the attribute rule's.

    Pass check_rates=False to skip the rate rule (the rule takes only m:
    this function alone decides when it is skipped).  It makes an inclusion
    into a larger net invalid whenever the rest of that net carries positive
    rates, so boundary legs of open rated systems are held to the underlying
    conditions; the full rule is for maps that account for rates, such as
    decoration morphisms of squares.
    """
    theory = decoration_theory(m.dom.kind)
    g = m.edge_map.table
    d_src, d_tgt, c_src, c_tgt = m.dom.src, m.dom.tgt, m.cod.src, m.cod.tgt
    src_fault, tgt_fault = theory.end_faults
    violations: list[str] = []
    moved = zip(theory.move(d_src, m.node_map), theory.move(d_tgt, m.node_map))
    for e, (s, t) in enumerate(moved):
        image = g[e]
        if s != c_src[image]:
            violations.append(src_fault.format(e, s, c_src[image]))
        if t != c_tgt[image]:
            violations.append(tgt_fault.format(e, t, c_tgt[image]))
    if check_rates or not theory.rated:
        violations.extend(theory.attribute_faults(m))
    return violations


def system_union(x: System, f: FinFunction, y: System, g: FinFunction) -> System:
    """The disjoint union of x and y, its nodes moved along f and g into one
    shared node set: `relabel(copair(f, g), x + y)`, with each cell moved once.

    Along the coproduct injections this is the coproduct; along the two maps
    of a pushout it is the decoration of a composite cospan.
    """
    if x.kind != y.kind:
        raise KindError(f"cannot form a coproduct of kinds {x.kind!r} and {y.kind!r}")
    if f.dom != interface_of(x) or g.dom != interface_of(y) or f.cod != g.cod:
        raise MorphismShapeError("union maps must start at the two node sets and share a target")
    move = decoration_theory(x.kind).move
    return System._made(
        x.kind, f.cod, FinSet(cells_of(x).size + cells_of(y).size),
        move(x.src, f) + move(y.src, g),
        move(x.tgt, f) + move(y.tgt, g),
        None if x.attrs is None else x.attrs + y.attrs,
    )


def system_coproduct(x: System, y: System) -> tuple[System, SystemMorphism, SystemMorphism]:
    """Disjoint union of two systems of the same kind, with its injections."""
    _, node_inl, node_inr = coproduct(interface_of(x), interface_of(y))
    _, cell_inl, cell_inr = coproduct(cells_of(x), cells_of(y))
    out = system_union(x, node_inl, y, node_inr)
    return (
        out,
        SystemMorphism(x, out, node_inl, cell_inl),
        SystemMorphism(y, out, node_inr, cell_inr),
    )


def system_pushout(
    f: SystemMorphism, g: SystemMorphism
) -> tuple[System, SystemMorphism, SystemMorphism]:
    """Glue f.cod and g.cod along their shared domain system.

    Nodes and edges are pushed out separately and the structure maps are
    induced on representatives.  Rated nets are only glued along spans
    whose domain has no transitions: merging rated transitions has no
    canonical rate, so anything else raises UnsupportedGluing.
    """
    if f.dom != g.dom:
        raise SpanError("pushout needs a span: both morphisms must share their domain")
    for name, leg in (("left", f), ("right", g)):
        bad = validate_morphism(leg, check_rates=False)
        if bad:
            raise MorphismShapeError(f"{name} leg of the span is not a morphism: {bad[0]}")
    theory = decoration_theory(f.dom.kind)
    if theory.rated and cells_of(f.dom).size > 0:
        raise UnsupportedGluing(
            "rated nets can only be glued along spans with no transitions"
        )
    x, y = f.cod, g.cod
    node_po = pushout(f.node_map, g.node_map)
    edge_po = pushout(f.edge_map, g.edge_map)

    # each class is represented by its least member, and classes are numbered
    # in that order: the representatives from x come first, then those from
    # y.  Scanning x's cells, then y's, a class is first met at its least member
    reps: list[int] = []
    for z, cls in enumerate(chain(edge_po.left.table, edge_po.right.table)):
        if cls == len(reps):
            reps.append(z)
    x_cells = cells_of(x).size

    def glued(x_column: tuple, y_column: tuple) -> tuple:
        return theory.move(
            [x_column[z] for z in reps if z < x_cells], node_po.left
        ) + theory.move([y_column[z - x_cells] for z in reps if z >= x_cells], node_po.right)

    out = System._made(
        x.kind, node_po.apex, edge_po.apex,
        glued(x.src, y.src),
        glued(x.tgt, y.tgt),
        None if x.attrs is None else tuple(map((x.attrs + y.attrs).__getitem__, reps)),
    )
    return (
        out,
        SystemMorphism(x, out, node_po.left, edge_po.left),
        SystemMorphism(y, out, node_po.right, edge_po.right),
    )


def relabel(f: FinFunction, system: System) -> System:
    """Carry a system over M to one over N along f: M -> N, keeping its cells.

    Graphs get their endpoints re-addressed; Petri nets get their token
    counts summed over merged places.  The edge or transition set never
    changes, which is what makes relabeling strictly functorial.
    """
    if f.dom != interface_of(system):
        raise MorphismShapeError("relabeling map must start at the system's node set")
    move = decoration_theory(system.kind).move
    src, tgt = move(system.src, f), move(system.tgt, f)
    return System._made(system.kind, f.cod, cells_of(system), src, tgt, system.attrs)


# -- the field algebra: the decorations of the "dynam" kind


COEFF_DROP = 1e-12
# poly_close's relative tolerance.  An unmatched term passes only up to
# _CLOSE_REL / 1e3, which is COEFF_DROP (pinned in the tests), so no stored
# term passes unmatched and the iso search may count every term.
_CLOSE_REL = 1e-9


def _dense_order(support: Support) -> Support:
    """A sort key on sparse supports that orders them as their dense exponent
    vectors order lexicographically: at the first variable where two vectors
    differ, the one with an entry there (or the larger entry) is the larger."""
    return tuple([(-p, k) for p, k in support])


def _support_of(nvars: int, exps: Sequence[int]) -> Support:
    """The nonzero (variable, exponent) pairs of a dense exponent vector, in
    one scan; a list or tuple is read as it is, not copied."""
    if not isinstance(exps, (list, tuple)):
        exps = tuple(exps)
    if len(exps) != nvars:
        raise ValueError(f"exponent vector has {len(exps)} entries, not {_short(nvars)}")
    return _nonzero_pairs(exps, _EXPONENT_FAULT)


def _sparse_terms(
    nvars: int, terms: Sequence[tuple[float, Sequence[int]]]
) -> tuple[tuple[float, Support], ...]:
    """Dense (coefficient, exponents) terms as (coefficient, support) terms."""
    return tuple([(float(c), _support_of(nvars, e)) for c, e in terms])


def _dense_of(nvars: int, support: Support) -> list[int]:
    """The dense exponent vector of a support, as a list."""
    exps = [0] * nvars
    for j, k in support:
        exps[j] = k
    return exps


@dataclass(frozen=True, init=False, repr=False)
class Poly:
    """A sparse real polynomial in nvars variables, in canonical form.

    Each term is stored as its coefficient and the support of its monomial:
    the nonzero (variable, exponent) pairs in variable order (`sparse`), so
    a term costs the number of variables it reads, not nvars.  Terms are
    distinct, sorted as their dense exponent vectors sort lexicographically,
    and every coefficient is finite and more than 1e-12 away from zero.
    `Poly(nvars, terms)` takes and `.terms` reads back dense (coefficient,
    exponents) pairs; use `from_terms` to build one from raw dense terms.
    """

    nvars: int
    sparse: tuple[tuple[float, Support], ...]

    def __init__(self, nvars: int, terms: Sequence[tuple[float, Sequence[int]]]) -> None:
        self.__post_init__(nvars, _sparse_terms(nvars, terms))

    def __post_init__(self, nvars: int, sparse: tuple[tuple[float, Support], ...]) -> None:
        """Check the terms, in O(their total support), and set the fields."""
        last = None
        for c, support in sparse:
            if not math.isfinite(c):
                raise CoefficientOverflow(f"coefficient overflow: {c!r} is not a finite float")
            if abs(c) <= COEFF_DROP:
                raise ValueError(f"coefficient {c!r} is below the storage threshold")
            _check_pairs(support, nvars, _EXPONENT_FAULT)
            key = _dense_order(support)
            if last is not None and not last < key:
                raise ValueError("terms must be sorted by distinct exponent vectors")
            last = key
        fields = self.__dict__
        fields["nvars"], fields["sparse"] = nvars, sparse

    @classmethod
    def _from_sparse(cls, nvars: int, sparse: tuple[tuple[float, Support], ...]) -> Poly:
        poly = object.__new__(cls)
        poly.__post_init__(nvars, sparse)
        return poly

    @classmethod
    def _canonical(cls, nvars: int, raw: Sequence[tuple[float, Support]]) -> Poly:
        """Canonicalize raw sparse terms: combine, drop near-zeros, sort.  A
        non-finite sum is kept, so that the checks refuse it."""
        acc: dict[Support, float] = {}
        for c, support in raw:
            acc[support] = acc.get(support, 0.0) + c
        return cls._from_sparse(
            nvars,
            tuple([
                (acc[s], s) for s in sorted(acc, key=_dense_order) if not abs(acc[s]) <= COEFF_DROP
            ]),
        )

    @property
    def terms(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        """The terms as (coefficient, dense exponent vector) pairs."""
        return tuple([(c, tuple(_dense_of(self.nvars, s))) for c, s in self.sparse])

    def __repr__(self) -> str:
        return f"Poly(nvars={self.nvars!r}, terms={self.terms!r})"

    @staticmethod
    def zero(nvars: int) -> Poly:
        return Poly._from_sparse(nvars, ())

    @staticmethod
    def from_terms(nvars: int, raw: Sequence[tuple[float, Sequence[int]]]) -> Poly:
        """Canonicalize raw dense terms: combine, drop near-zeros, sort."""
        return Poly._canonical(nvars, _sparse_terms(nvars, raw))

    def evaluate(self, point: Sequence[float]) -> float:
        if len(point) != self.nvars:
            raise DimensionError(
                f"point of length {len(point)} for a polynomial in {self.nvars} variables"
            )
        return _values((self,), point)[0]

    def substitute_along(self, f: FinFunction) -> Poly:
        """Rename variable i to variable f(i); merged variables add exponents:
        each monomial is pushed forward along f, as a multiset is."""
        if f.dom.size != self.nvars:
            raise DimensionError("substitution map must cover every variable")
        table = f.table
        return Poly._canonical(
            f.cod.size, [(c, _push_pairs(support, table)) for c, support in self.sparse]
        )


def _values(polys: Sequence[Poly], point: Sequence[float]) -> list[float]:
    """Each polynomial's value at a point whose length the caller checked:
    per term, its coefficient times its powers left to right, and the terms
    summed in order from 0.0."""
    values = []
    for poly in polys:
        total = 0.0
        for c, support in poly.sparse:
            value = c
            for j, k in support:
                value *= point[j] ** k
            total += value
        values.append(total)
    return values


def poly_add(*polys: Poly) -> Poly:
    if not polys:
        raise ValueError("need at least one polynomial")
    nvars = polys[0].nvars
    raw: list[tuple[float, Support]] = []
    for p in polys:
        if p.nvars != nvars:
            raise DimensionError("cannot add polynomials in different variable counts")
        raw.extend(p.sparse)
    return Poly._canonical(nvars, raw)


def poly_close(p: Poly, q: Poly) -> bool:
    """Structural equality: identical exponent sets, coefficients within
    1e-9 relative.

    A term unmatched on the other side passes only if its coefficient is at
    most 1e-12, which is COEFF_DROP, so no stored term passes unmatched:
    one dropped at the storage threshold along one route fails against the
    same term kept along another.  A non-finite coefficient is close to
    nothing.
    """
    if p.nvars != q.nvars:
        return False
    return _terms_close({e: c for c, e in p.sparse}, {e: c for c, e in q.sparse})


def _terms_close(a: dict[Support, float], b: dict[Support, float]) -> bool:
    """`poly_close`'s rule on two polynomials' terms, each a dict from
    support to coefficient."""
    for e in a.keys() | b.keys():
        ca, cb = a.get(e, 0.0), b.get(e, 0.0)
        # the difference is non-finite when either side is, and when two
        # finite coefficients of opposite sign are too far apart to compare
        difference = ca - cb
        bound = max(_CLOSE_REL * max(abs(ca), abs(cb)), _CLOSE_REL / 1e3)
        if not math.isfinite(difference) or abs(difference) > bound:
            return False
    return True


@dataclass(frozen=True)
class PolyVectorField:
    """One polynomial per place: the right-hand side of an autonomous ODE."""

    over: FinSet
    components: tuple[Poly, ...]

    kind = "dynam"
    interface = property(attrgetter("over"))

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.over.size:
            raise ValueError(
                f"{len(self.components)} components over a set of size {self.over.size}"
            )
        for i, p in enumerate(self.components):
            if p.nvars != self.over.size:
                raise ValueError(f"component {i} uses {p.nvars} variables, need {self.over.size}")

    @staticmethod
    def zero(over: FinSet) -> PolyVectorField:
        return PolyVectorField(over, (Poly.zero(over.size),) * over.size)

    def evaluate(self, point: Sequence[float]) -> list[float]:
        if len(point) != self.over.size:
            raise DimensionError(
                f"state of length {len(point)} for a field over {self.over.size} places"
            )
        return _values(self.components, point)


def field_close(u: PolyVectorField, v: PolyVectorField) -> bool:
    return u.over == v.over and all(map(poly_close, u.components, v.components))


def pushforward_field(f: FinFunction, v: PolyVectorField) -> PolyVectorField:
    """Transport a field over M to one over N along f: M -> N.

    Incoming states are pulled back (each variable reads the value of its
    image), components over a shared image are added.  This is functorial
    on the nose, which the tests pin down.
    """
    if v.over != f.dom:
        raise DimensionError("field must live over the map's domain")
    buckets: list[list[Poly]] = [[] for _ in range(f.cod.size)]
    for i, p in enumerate(v.components):
        buckets[f.table[i]].append(p.substitute_along(f))
    components = tuple(
        poly_add(*bucket) if bucket else Poly.zero(f.cod.size) for bucket in buckets
    )
    return PolyVectorField(f.cod, components)


Decoration = Union[System, PolyVectorField]


# -- the kinds' rules: a kind is a shape (what a cell's two ends are) plus an
# optional attribute column; each rule is looked up once per operation


def _move_nodes(column: Sequence[int], f: FinFunction) -> tuple[int, ...]:
    """Graph shape: an end is a node index, moved by f's table."""
    table = f.table
    return tuple([table[v] for v in column])


def _move_multisets(column: Sequence[Multiset], f: FinFunction) -> tuple[Multiset, ...]:
    """Petri shape: an end is a multiset of places, pushed forward along f."""
    return tuple([ms.pushforward(f) for ms in column])


def _check_nodes(nodes: FinSet, edges: FinSet, src: tuple, tgt: tuple) -> None:
    """Graph shape: each end column is a map edges -> nodes, checked by
    `FinFunction` and refused in its words after the column's name."""
    for name, column in (("src", src), ("tgt", tgt)):
        try:
            FinFunction(edges, nodes, column)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None


def _check_multisets(places: FinSet, transitions: FinSet, src: tuple, tgt: tuple) -> None:
    """Petri shape: each end is a multiset over the places, one per
    transition; like `Multiset.pushforward`, it compares place sets by
    identity before equality."""
    for name, side in (("src", src), ("tgt", tgt)):
        if len(side) != transitions.size:
            raise ValueError(f"{len(side)} {name} multisets for {transitions.size} transitions")
        for i, ms in enumerate(side):
            if ms.__class__ is not Multiset:
                raise ValueError(f"{name}[{i}] is not a multiset: {_short(ms)}")
            if ms.over is not places and ms.over != places:
                raise ValueError(f"{name}[{i}] is a multiset over the wrong place set")


def _check_labels(edges: FinSet, labels: Sequence[Label]) -> tuple[Label, ...]:
    """lgraph: one label per edge, a str, int, float or bool (by exact type),
    a float one finite and an int one that a file can hold: of at most
    `sys.get_int_max_str_digits()` digits, the most a number in JSON text
    is read or written with."""
    labels = tuple(labels)
    types = set(map(type, labels))
    if not types <= _LABEL_TYPES:
        raise ValueError("labels must be an array of scalars")
    if float in types:
        for i, label in enumerate(labels):
            if label.__class__ is float and label - label:  # NaN or an infinity
                raise ValueError(f"edge {i} label must be finite, got {label!r}")
    digits = sys.get_int_max_str_digits()
    if int in types and digits:
        bound = 10**digits
        for i, label in enumerate(labels):
            if label.__class__ is int and not -bound < label < bound:
                raise ValueError(f"edge {i} label must be an int of at most {digits} digits")
    if len(labels) != edges.size:
        raise ValueError(f"labels: {len(labels)} labels for {edges.size} edges")
    return labels


def _check_rates(transitions: FinSet, rates: Sequence[float]) -> tuple[float, ...]:
    """petri_rates: one finite nonnegative rate per transition, an int or a
    float (by exact type), stored as a float."""
    rates = tuple(rates)
    if len(rates) != transitions.size:
        raise ValueError(f"{len(rates)} rates for {transitions.size} transitions")
    floats = []
    for i, r in enumerate(rates):
        if r.__class__ is not float:
            if r.__class__ is not int:
                fault = f"must be an int or a float, got {_short(r)}"
                raise ValueError(f"rate at transition {i} {fault}")
            try:
                r = float(r)
            except OverflowError:
                fault = "must be finite, got an int too large for a float"
                raise ValueError(f"rate at transition {i} {fault}") from None
        if not (0.0 <= r < math.inf):
            fault = "finite" if r == math.inf else "nonnegative"
            raise ValueError(f"rate at transition {i} must be {fault}, got {r}")
        floats.append(r)
    return tuple(floats)


def _label_faults(m: SystemMorphism) -> list[str]:
    """lgraph: every edge keeps its label exactly, by `label_key`."""
    g, cod = m.edge_map.table, m.cod.attrs
    return [
        f"label not preserved at edge {e}: {label!r} != {cod[g[e]]!r}"
        for e, label in enumerate(m.dom.attrs)
        if label_key(label) != label_key(cod[g[e]])
    ]


def _rate_faults(m: SystemMorphism) -> list[str]:
    """petri_rates: each target rate is the sum of the rates mapped onto it."""
    g, dom = m.edge_map.table, m.dom.attrs
    faults = []
    for t_out, rate in enumerate(m.cod.attrs):
        fiber_sum = sum(dom[t] for t in range(len(dom)) if g[t] == t_out)
        if fiber_sum != rate:
            faults.append(
                f"rate sum mismatch at transition {t_out}: "
                f"expected {fiber_sum!r}, found {rate!r}"
            )
    return faults


# shape: (move, hashable (a multiset by its pairs, which hash in C), check_ends,
#         end_faults), as `DecorationTheory` names them
_SHAPES = {
    "graph": (
        _move_nodes,
        lambda column: [((v, 1),) for v in column],
        _check_nodes,
        (
            "source square fails at edge {0}: {1} != {2}",
            "target square fails at edge {0}: {1} != {2}",
        ),
    ),
    "petri": (
        _move_multisets,
        partial(map, attrgetter("pairs")),
        _check_multisets,
        (
            "consumed multiset not preserved at transition {0}",
            "produced multiset not preserved at transition {0}",
        ),
    ),
}

class DecorationTheory:
    """One kind's fiberwise interface: what lives over a node set and how it moves.

    `reindex` relabels along a function, `union(x, f, y, g)` moves x and y
    along f and g into one shared node set and joins them there, `laxator`
    is that union along the coproduct injections (a structure over M and
    one over N as a structure over M + N), `unit` is the empty structure,
    and `trivial` the structureless decoration on a given set.  Reindexing
    is strictly functorial; the laxator is natural only up to the
    isomorphisms that re-address the coproduct, which is exactly why
    composites of decorated cospans live over a chosen pushout.

    Each row states four facts about its kind, which other modules read
    instead of its name: `has_cells` (its decorations are systems of cells,
    not fields), `structured` (its cospans have a structured presentation),
    `associative` (`hcompose` is associative on the nose: `union` adds no
    floats) and `rated` (cells carry rates, so gluing merges none and the
    kind gray-boxes).  A row is built from its kind's named rules: `shape`
    ("graph" or "petri"; by default "field"), `check_attrs` (the attribute
    column's check, None for a kind without one, which is not `attributed`)
    and `attribute_faults(m)` (what the column demands of a morphism; by
    default nothing).  A row with cells takes its shape's `move(column, f)`,
    `hashable(column)` (the ends as supports, a node v as ((v, 1),)),
    `check_ends` and `end_faults` (the wording of a broken end) from
    `_SHAPES`, which nothing else reads.
    """

    has_cells = structured = associative = True

    def __init__(
        self, kind: str, shape="field", check_attrs=None, attribute_faults=lambda m: [], rated=False
    ) -> None:
        self.kind, self.shape, self.rated = kind, shape, rated
        self.check_attrs, self.attributed = check_attrs, check_attrs is not None
        self.attribute_faults = attribute_faults
        if self.has_cells:
            self.move, self.hashable, self.check_ends, self.end_faults = _SHAPES[shape]

    def trivial(self, a: FinSet) -> Decoration:
        return System._made(self.kind, a, EMPTY, (), (), () if self.attributed else None)

    def unit(self) -> Decoration:
        return self.trivial(EMPTY)

    def reindex(self, f: FinFunction, decoration: System) -> System:
        if decoration.kind != self.kind:
            raise KindError(f"decoration of kind {decoration.kind!r} in a {self.kind!r} theory")
        return relabel(f, decoration)

    def union(self, x: System, f: FinFunction, y: System, g: FinFunction) -> System:
        return system_union(x, f, y, g)

    def laxator(self, d: Decoration, e: Decoration) -> Decoration:
        if d.kind != self.kind or e.kind != self.kind:
            raise KindError("laxator arguments must match the theory's kind")
        _, inl, inr = coproduct(interface_of(d), interface_of(e))
        return self.union(d, inl, e, inr)

    def fiber_violations(self, d: System, e: System, cell_map: FinFunction) -> list[str]:
        """Why cell_map is not a morphism d -> e over a shared node set."""
        if d.kind != self.kind or e.kind != self.kind:
            raise KindError("fiber morphisms must match the theory's kind")
        if interface_of(d) != interface_of(e):
            raise MorphismShapeError("fiber morphisms live over one shared node set")
        m = SystemMorphism(d, e, FinFunction.identity(interface_of(d)), cell_map)
        return validate_morphism(m)


class _FieldTheory(DecorationTheory):
    """The "dynam" row: a decoration over S is a polynomial vector field on
    R^S, reindexed by `pushforward_field`; the union of two fields is the
    sum of their pushforwards, so the laxator is the direct sum."""

    has_cells = structured = associative = False

    def trivial(self, a: FinSet) -> PolyVectorField:
        return PolyVectorField.zero(a)

    def reindex(self, f: FinFunction, decoration: PolyVectorField) -> PolyVectorField:
        if decoration.kind != self.kind:
            raise KindError(f"decoration of kind {decoration.kind!r} in a {self.kind!r} theory")
        return pushforward_field(f, decoration)

    def union(
        self, x: PolyVectorField, f: FinFunction, y: PolyVectorField, g: FinFunction
    ) -> PolyVectorField:
        left = pushforward_field(f, x)
        right = pushforward_field(g, y)
        return PolyVectorField(
            f.cod, tuple(poly_add(p, q) for p, q in zip(left.components, right.components))
        )


_THEORIES = {
    "graph": DecorationTheory("graph", "graph"),
    "lgraph": DecorationTheory("lgraph", "graph", _check_labels, _label_faults),
    "petri": DecorationTheory("petri", "petri"),
    "petri_rates": DecorationTheory("petri_rates", "petri", _check_rates, _rate_faults, rated=True),
    "dynam": _FieldTheory("dynam"),
}
KINDS = tuple(_THEORIES)


def decoration_theory(kind: str) -> DecorationTheory:
    try:
        return _THEORIES[kind]
    except (KeyError, TypeError):
        raise KindError(f"unknown system kind {kind!r}") from None
