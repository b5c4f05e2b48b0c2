"""Concrete system kinds and the fiberwise calculus they share.

Four kinds are supported: directed multigraphs ("graph"), edge-labeled
graphs ("lgraph", labels are opaque scalars compared exactly: by type and
value, so 1, 1.0 and True are three different labels), whole-grain
Petri nets ("petri"), and Petri nets with a nonnegative rate per transition
("petri_rates").  Each kind assigns to a finite set N of nodes (places) the
collection of structures over N; relabeling along a function, disjoint
union, and the structureless decoration make those collections compose.

A `SystemMorphism` maps nodes and edges separately.  For Petri kinds the
node map acts on places and the edge map on transitions; token counts are
transported by summing over merged places, and a rated morphism must give
every target transition exactly the sum of the rates mapped onto it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import KindError, MorphismShapeError, SpanError, UnsupportedGluing
from .finset import (
    EMPTY,
    FinFunction,
    FinSet,
    compose,
    coproduct,
    coproduct_map,
    pushout,
)

KINDS = ("graph", "lgraph", "petri", "petri_rates")

Label = Union[str, int, float, bool]


def label_key(label: Label) -> tuple[type, Label]:
    """The key two labels must share to count as equal: type and value."""
    return (type(label), label)


@dataclass(frozen=True)
class Multiset:
    """A finite multiset over {0..n-1}, stored as a count per element."""

    over: FinSet
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) != self.over.size:
            raise ValueError(
                f"multiset has {len(self.counts)} counts over a set of size {self.over.size}"
            )
        for i, k in enumerate(self.counts):
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise ValueError(f"count at {i} must be a nonnegative int, got {k!r}")

    @staticmethod
    def zero(over: FinSet) -> Multiset:
        return Multiset(over, (0,) * over.size)

    @staticmethod
    def from_dict(over: FinSet, entries: dict[int, int]) -> Multiset:
        counts = [0] * over.size
        for place, k in entries.items():
            if place not in over:
                raise ValueError(f"place {place} is outside the set of size {over.size}")
            counts[place] += k
        return Multiset(over, tuple(counts))

    def pushforward(self, f: FinFunction) -> Multiset:
        """Transport counts along f, summing over merged elements."""
        if f.dom != self.over:
            raise MorphismShapeError("multiset pushforward along a map with the wrong domain")
        counts = [0] * f.cod.size
        for place, k in enumerate(self.counts):
            counts[f.table[place]] += k
        return Multiset(f.cod, tuple(counts))

    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class Graph:
    """A directed multigraph: parallel edges and loops allowed."""

    nodes: FinSet
    edges: FinSet
    src: FinFunction
    tgt: FinFunction

    kind = "graph"

    def __post_init__(self) -> None:
        for name, leg in (("src", self.src), ("tgt", self.tgt)):
            if leg.dom != self.edges or leg.cod != self.nodes:
                raise ValueError(f"{name} must map edges to nodes")


@dataclass(frozen=True)
class LabeledGraph:
    """A graph with one opaque label per edge; labels compare exactly."""

    graph: Graph
    labels: tuple[Label, ...]

    kind = "lgraph"

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != self.graph.edges.size:
            raise ValueError(
                f"{len(self.labels)} labels for {self.graph.edges.size} edges"
            )


@dataclass(frozen=True)
class PetriNet:
    """A Petri net: each transition consumes and produces multisets of places."""

    places: FinSet
    transitions: FinSet
    src: tuple[Multiset, ...]
    tgt: tuple[Multiset, ...]

    kind = "petri"

    def __post_init__(self) -> None:
        object.__setattr__(self, "src", tuple(self.src))
        object.__setattr__(self, "tgt", tuple(self.tgt))
        for name, side in (("src", self.src), ("tgt", self.tgt)):
            if len(side) != self.transitions.size:
                raise ValueError(
                    f"{len(side)} {name} multisets for {self.transitions.size} transitions"
                )
            for i, ms in enumerate(side):
                if ms.over != self.places:
                    raise ValueError(f"{name}[{i}] is a multiset over the wrong place set")


@dataclass(frozen=True)
class PetriNetWithRates:
    """A Petri net together with a nonnegative rate constant per transition."""

    net: PetriNet
    rates: tuple[float, ...]

    kind = "petri_rates"

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.rates) != self.net.transitions.size:
            raise ValueError(
                f"{len(self.rates)} rates for {self.net.transitions.size} transitions"
            )
        for i, r in enumerate(self.rates):
            if not (r >= 0.0):
                raise ValueError(f"rate at transition {i} must be nonnegative, got {r}")

    @property
    def places(self) -> FinSet:
        return self.net.places

    @property
    def transitions(self) -> FinSet:
        return self.net.transitions


System = Union[Graph, LabeledGraph, PetriNet, PetriNetWithRates]


def interface_of(system: System) -> FinSet:
    """The node or place set: the part an open system exposes for gluing."""
    if isinstance(system, Graph):
        return system.nodes
    if isinstance(system, LabeledGraph):
        return system.graph.nodes
    if isinstance(system, PetriNet):
        return system.places
    if isinstance(system, PetriNetWithRates):
        return system.net.places
    raise KindError(f"not a system: {system!r}")


def cells_of(system: System) -> FinSet:
    """The edge or transition set."""
    if isinstance(system, Graph):
        return system.edges
    if isinstance(system, LabeledGraph):
        return system.graph.edges
    if isinstance(system, PetriNet):
        return system.transitions
    if isinstance(system, PetriNetWithRates):
        return system.net.transitions
    raise KindError(f"not a system: {system!r}")


def is_discrete(system: System) -> bool:
    return cells_of(system).size == 0


def discrete(kind: str, nodes: FinSet) -> System:
    """The structureless system on a given node set."""
    if kind == "graph":
        return Graph(nodes, EMPTY, FinFunction.from_empty(nodes), FinFunction.from_empty(nodes))
    if kind == "lgraph":
        return LabeledGraph(discrete("graph", nodes), ())
    if kind == "petri":
        return PetriNet(nodes, EMPTY, (), ())
    if kind == "petri_rates":
        return PetriNetWithRates(PetriNet(nodes, EMPTY, (), ()), ())
    raise KindError(f"unknown system kind {kind!r}")


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
        if self.node_map.dom != interface_of(self.dom) or self.node_map.cod != interface_of(self.cod):
            raise MorphismShapeError("node map does not fit the two systems")
        if self.edge_map.dom != cells_of(self.dom) or self.edge_map.cod != cells_of(self.cod):
            raise MorphismShapeError("edge map does not fit the two systems")

    @property
    def place_map(self) -> FinFunction:
        return self.node_map

    @property
    def transition_map(self) -> FinFunction:
        return self.edge_map

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


def _graph_of(system: System) -> Graph:
    return system.graph if isinstance(system, LabeledGraph) else system


def _net_of(system: System) -> PetriNet:
    return system.net if isinstance(system, PetriNetWithRates) else system


def validate_morphism(m: SystemMorphism, check_rates: bool = True) -> list[str]:
    """All the ways m fails to be a morphism; empty means valid.

    Graph kinds need the source and target squares to commute (and labels to
    be preserved).  Petri kinds need each transition's consumed and produced
    multisets, pushed forward along the place map, to equal those of its
    image.  Rated nets additionally need every target transition's rate to
    equal the sum of the rates mapped onto it (so transitions outside the
    image must have rate zero).

    Pass check_rates=False to check only the underlying-net conditions.
    The rate rule makes an inclusion into a larger net invalid whenever the
    rest of that net carries positive rates, so boundary legs of open rated
    systems are held to the underlying conditions; the full rule is for
    maps that account for rates, such as decoration morphisms of squares.
    """
    violations: list[str] = []
    f, g = m.node_map, m.edge_map
    if isinstance(m.dom, (Graph, LabeledGraph)):
        d, c = _graph_of(m.dom), _graph_of(m.cod)
        for e in d.edges:
            if f.table[d.src.table[e]] != c.src.table[g.table[e]]:
                violations.append(
                    f"source square fails at edge {e}: "
                    f"{f.table[d.src.table[e]]} != {c.src.table[g.table[e]]}"
                )
            if f.table[d.tgt.table[e]] != c.tgt.table[g.table[e]]:
                violations.append(
                    f"target square fails at edge {e}: "
                    f"{f.table[d.tgt.table[e]]} != {c.tgt.table[g.table[e]]}"
                )
        if isinstance(m.dom, LabeledGraph):
            assert isinstance(m.cod, LabeledGraph)
            for e in d.edges:
                if label_key(m.dom.labels[e]) != label_key(m.cod.labels[g.table[e]]):
                    violations.append(
                        f"label not preserved at edge {e}: "
                        f"{m.dom.labels[e]!r} != {m.cod.labels[g.table[e]]!r}"
                    )
    else:
        d, c = _net_of(m.dom), _net_of(m.cod)
        for t in d.transitions:
            if d.src[t].pushforward(f) != c.src[g.table[t]]:
                violations.append(f"consumed multiset not preserved at transition {t}")
            if d.tgt[t].pushforward(f) != c.tgt[g.table[t]]:
                violations.append(f"produced multiset not preserved at transition {t}")
        if check_rates and isinstance(m.dom, PetriNetWithRates):
            assert isinstance(m.cod, PetriNetWithRates)
            for t_out in c.transitions:
                fiber_sum = sum(
                    m.dom.rates[t] for t in d.transitions if g.table[t] == t_out
                )
                if fiber_sum != m.cod.rates[t_out]:
                    violations.append(
                        f"rate sum mismatch at transition {t_out}: "
                        f"expected {fiber_sum!r}, found {m.cod.rates[t_out]!r}"
                    )
    return violations


def system_coproduct(x: System, y: System) -> tuple[System, SystemMorphism, SystemMorphism]:
    """Disjoint union of two systems of the same kind, with its injections."""
    if x.kind != y.kind:
        raise KindError(f"cannot form a coproduct of kinds {x.kind!r} and {y.kind!r}")
    if isinstance(x, Graph):
        assert isinstance(y, Graph)
        nodes, _, _ = coproduct(x.nodes, y.nodes)
        edges, edge_inl, edge_inr = coproduct(x.edges, y.edges)
        out: System = Graph(
            nodes, edges, coproduct_map(x.src, y.src), coproduct_map(x.tgt, y.tgt)
        )
    elif isinstance(x, LabeledGraph):
        assert isinstance(y, LabeledGraph)
        g, _, _ = system_coproduct(x.graph, y.graph)
        out = LabeledGraph(g, x.labels + y.labels)
    elif isinstance(x, PetriNet):
        assert isinstance(y, PetriNet)
        places, place_inl, place_inr = coproduct(x.places, y.places)
        transitions, _, _ = coproduct(x.transitions, y.transitions)
        src = tuple(ms.pushforward(place_inl) for ms in x.src) + tuple(
            ms.pushforward(place_inr) for ms in y.src
        )
        tgt = tuple(ms.pushforward(place_inl) for ms in x.tgt) + tuple(
            ms.pushforward(place_inr) for ms in y.tgt
        )
        out = PetriNet(places, transitions, src, tgt)
    elif isinstance(x, PetriNetWithRates):
        assert isinstance(y, PetriNetWithRates)
        net, _, _ = system_coproduct(x.net, y.net)
        out = PetriNetWithRates(net, x.rates + y.rates)
    else:
        raise KindError(f"not a system: {x!r}")
    _, node_inl, node_inr = coproduct(interface_of(x), interface_of(y))
    _, cell_inl, cell_inr = coproduct(cells_of(x), cells_of(y))
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
    if isinstance(f.dom, PetriNetWithRates) and cells_of(f.dom).size > 0:
        raise UnsupportedGluing(
            "rated nets can only be glued along spans with no transitions"
        )
    x, y = f.cod, g.cod
    node_po = pushout(f.node_map, g.node_map)
    edge_po = pushout(f.edge_map, g.edge_map)

    x_cells = cells_of(x).size
    reps: list[int] = [-1] * edge_po.apex.size
    for z, cls in enumerate(edge_po.quotient.table):
        if reps[cls] < 0:
            reps[cls] = z

    def rep_sides(cls: int) -> tuple[bool, int]:
        z = reps[cls]
        return (z < x_cells, z if z < x_cells else z - x_cells)

    if isinstance(x, (Graph, LabeledGraph)):
        gx, gy = _graph_of(x), _graph_of(y)
        src_table, tgt_table = [], []
        for cls in edge_po.apex:
            from_x, e = rep_sides(cls)
            if from_x:
                src_table.append(node_po.left.table[gx.src.table[e]])
                tgt_table.append(node_po.left.table[gx.tgt.table[e]])
            else:
                src_table.append(node_po.right.table[gy.src.table[e]])
                tgt_table.append(node_po.right.table[gy.tgt.table[e]])
        glued_graph = Graph(
            node_po.apex,
            edge_po.apex,
            FinFunction(edge_po.apex, node_po.apex, tuple(src_table)),
            FinFunction(edge_po.apex, node_po.apex, tuple(tgt_table)),
        )
        if isinstance(x, LabeledGraph):
            assert isinstance(y, LabeledGraph)
            labels = tuple(
                x.labels[e] if from_x else y.labels[e]
                for from_x, e in map(rep_sides, edge_po.apex)
            )
            out: System = LabeledGraph(glued_graph, labels)
        else:
            out = glued_graph
    else:
        nx, ny = _net_of(x), _net_of(y)
        src_ms, tgt_ms = [], []
        for cls in edge_po.apex:
            from_x, t = rep_sides(cls)
            if from_x:
                src_ms.append(nx.src[t].pushforward(node_po.left))
                tgt_ms.append(nx.tgt[t].pushforward(node_po.left))
            else:
                src_ms.append(ny.src[t].pushforward(node_po.right))
                tgt_ms.append(ny.tgt[t].pushforward(node_po.right))
        glued_net = PetriNet(node_po.apex, edge_po.apex, tuple(src_ms), tuple(tgt_ms))
        if isinstance(x, PetriNetWithRates):
            assert isinstance(y, PetriNetWithRates)
            # the span domain is transition-free, so classes never merge and
            # the class order is plain concatenation
            rates = tuple(
                x.rates[t] if from_x else y.rates[t]
                for from_x, t in map(rep_sides, edge_po.apex)
            )
            out = PetriNetWithRates(glued_net, rates)
        else:
            out = glued_net
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
    if isinstance(system, Graph):
        return Graph(f.cod, system.edges, compose(f, system.src), compose(f, system.tgt))
    if isinstance(system, LabeledGraph):
        inner = relabel(f, system.graph)
        assert isinstance(inner, Graph)
        return LabeledGraph(inner, system.labels)
    if isinstance(system, PetriNet):
        return PetriNet(
            f.cod,
            system.transitions,
            tuple(ms.pushforward(f) for ms in system.src),
            tuple(ms.pushforward(f) for ms in system.tgt),
        )
    if isinstance(system, PetriNetWithRates):
        inner = relabel(f, system.net)
        assert isinstance(inner, PetriNet)
        return PetriNetWithRates(inner, system.rates)
    raise KindError(f"not a system: {system!r}")


class DecorationTheory:
    """One kind's fiberwise interface: what lives over a node set and how it moves.

    `reindex` relabels along a function, `laxator` is the disjoint union of
    a structure over M and one over N as a structure over M + N, `unit` is
    the empty structure, and `trivial` the structureless decoration on a
    given set.  Reindexing is strictly functorial; the laxator is natural
    only up to the isomorphisms that re-address the coproduct, which is
    exactly why composites of decorated cospans live over a chosen pushout.
    """

    def __init__(self, kind: str):
        if kind not in KINDS:
            raise KindError(f"unknown system kind {kind!r}")
        self.kind = kind

    def trivial(self, a: FinSet) -> System:
        return discrete(self.kind, a)

    def unit(self) -> System:
        return discrete(self.kind, EMPTY)

    def reindex(self, f: FinFunction, decoration: System) -> System:
        if decoration.kind != self.kind:
            raise KindError(f"decoration of kind {decoration.kind!r} in a {self.kind!r} theory")
        return relabel(f, decoration)

    def laxator(self, d: System, e: System) -> System:
        if d.kind != self.kind or e.kind != self.kind:
            raise KindError("laxator arguments must match the theory's kind")
        return system_coproduct(d, e)[0]

    def fiber_violations(self, d: System, e: System, cell_map: FinFunction) -> list[str]:
        """Why cell_map is not a morphism d -> e over a shared node set."""
        if d.kind != self.kind or e.kind != self.kind:
            raise KindError("fiber morphisms must match the theory's kind")
        if interface_of(d) != interface_of(e):
            raise MorphismShapeError("fiber morphisms live over one shared node set")
        m = SystemMorphism(d, e, FinFunction.identity(interface_of(d)), cell_map)
        return validate_morphism(m)


_THEORIES = {kind: DecorationTheory(kind) for kind in KINDS}


def decoration_theory(kind: str) -> DecorationTheory:
    try:
        return _THEORIES[kind]
    except KeyError:
        raise KindError(f"unknown system kind {kind!r}") from None
