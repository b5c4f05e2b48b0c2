"""One record for every cell system: `systems.System`.

A graph, an lgraph, a Petri net and a rated net are each a node set, a cell
set, the two ends of each cell and an attribute column; the kinds differ
only in their rules, which check a record when it is built.  These tests pin
those checks and the equality rule, and two guards: no code in the package
reads a per-kind accessor (`.net`, `.rates`, `.labels`, ...), and `systems`
defines one class for cell systems.  Building a morphism or a cospan from
the very sets of its systems compares no sets through `FinSet.__eq__`.
"""

import ast
import gc
import pathlib
import sys

import pytest

import opencospan
from opencospan import (
    EMPTY,
    DecoratedCospan,
    FinFunction,
    FinSet,
    KindError,
    Multiset,
    System,
    SystemMorphism,
    discrete,
    systems,
)

# -- the record's checks ---------------------------------------------------------


def test_a_field_kind_or_an_unknown_kind_is_not_a_cell_system():
    with pytest.raises(KindError, match="dynam decorations have no cells"):
        System("dynam", FinSet(1), EMPTY, (), ())
    with pytest.raises(KindError, match="unknown system kind 'petri_net'"):
        System("petri_net", FinSet(1), EMPTY, (), ())
    with pytest.raises(KindError, match="unknown system kind"):
        System(["graph"], FinSet(1), EMPTY, (), ())


@pytest.mark.parametrize("kind", ["graph", "petri"])
def test_a_kind_without_attributes_refuses_a_column(kind):
    with pytest.raises(ValueError, match=f"{kind} systems carry no attributes"):
        System(kind, FinSet(1), EMPTY, (), (), ())


def test_an_attribute_column_has_one_entry_per_cell():
    with pytest.raises(ValueError, match="2 labels for 1 edges"):
        System("lgraph", FinSet(1), FinSet(1), (0,), (0,), ("a", "b"))
    ms = Multiset(FinSet(1), (1,))
    with pytest.raises(ValueError, match="0 rates for 1 transitions"):
        System("petri_rates", FinSet(1), FinSet(1), (ms,), (ms,), ())
    with pytest.raises(ValueError, match="rate at transition 0 must be nonnegative"):
        System("petri_rates", FinSet(1), FinSet(1), (ms,), (ms,), (-1,))
    rated = System("petri_rates", FinSet(1), FinSet(1), (ms,), (ms,), (1,))
    assert rated.attrs == (1.0,) and type(rated.attrs[0]) is float


@pytest.mark.parametrize(
    "src, tgt, message",
    [
        ((2,), (0,), "src must map edges to nodes"),
        ((0,), (-1,), "tgt must map edges to nodes"),
        ((0,), (True,), "tgt must map edges to nodes"),
        ((0, 1), (0,), "src must map edges to nodes"),
    ],
)
def test_a_graph_end_lies_in_the_node_set(src, tgt, message):
    with pytest.raises(ValueError, match=message):
        System("graph", FinSet(2), FinSet(1), src, tgt)


def test_a_petri_end_is_a_multiset_over_the_places():
    places = FinSet(2)
    ms = Multiset(places, (1, 0))
    with pytest.raises(ValueError, match="1 tgt multisets for 2 transitions"):
        System("petri", places, FinSet(2), (ms, ms), (ms,))
    with pytest.raises(ValueError, match=r"src\[0\] is not a multiset: 0"):
        System("petri", places, FinSet(1), (0,), (ms,))
    with pytest.raises(ValueError, match=r"tgt\[0\] is a multiset over the wrong place set"):
        System("petri", places, FinSet(1), (ms,), (Multiset(FinSet(1), (1,)),))


@pytest.mark.parametrize("plain, attributed", [("graph", "lgraph"), ("petri", "petri_rates")])
def test_kinds_with_the_same_parts_stay_apart(plain, attributed):
    nodes = FinSet(2)
    a, b = discrete(plain, nodes), discrete(attributed, nodes)
    assert a.attrs is None and b.attrs == ()
    assert a != b and hash(a) != hash(b)
    assert len({a, b, discrete(plain, FinSet(2)), discrete(attributed, FinSet(2))}) == 2


def test_labels_compare_by_type_and_value():
    one, one_float, true = (
        System("lgraph", FinSet(1), FinSet(1), (0,), (0,), (label,)) for label in (1, 1.0, True)
    )
    assert len({one, one_float, true}) == 3
    assert one != one_float != true != one
    assert one == System("lgraph", FinSet(1), FinSet(1), [0], [0], [1])


# -- set comparisons saved by identity ------------------------------------------


def finset_comparisons(build):
    """build() and the number of FinSet.__eq__ calls it made."""
    code = FinSet.__eq__.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is code

    gc.disable()
    sys.setprofile(count)
    try:
        built = build()
    finally:
        sys.setprofile(None)
        gc.enable()
    return built, calls


def test_a_morphism_of_its_systems_own_sets_compares_none():
    places = FinSet(2)
    ms = Multiset(places, (1, 1))
    net = System("petri_rates", places, FinSet(1), (ms,), (ms,), (0.5,))
    identity, calls = finset_comparisons(lambda: SystemMorphism.identity(net))
    assert identity.node_map.dom is places and calls == 0
    # an equal set that is another object is still compared and accepted
    copy = System("petri_rates", FinSet(2), FinSet(1), (ms,), (ms,), (0.5,))
    _, calls = finset_comparisons(lambda: SystemMorphism.identity(copy))
    assert calls == 0
    maps = (FinFunction.identity(FinSet(2)), FinFunction.identity(FinSet(1)))
    _, calls = finset_comparisons(lambda: SystemMorphism(net, copy, *maps))
    assert calls == 4


def test_a_cospan_whose_legs_start_at_its_feet_compares_none():
    feet, apex = FinSet(1), FinSet(2)
    left, right = FinFunction(feet, apex, (0,)), FinFunction(EMPTY, apex, ())
    graph = System("graph", apex, FinSet(1), (0,), (1,))
    cospan, calls = finset_comparisons(lambda: DecoratedCospan(feet, EMPTY, left, right, graph))
    assert cospan.apex is apex and calls == 0
    _, calls = finset_comparisons(lambda: DecoratedCospan(FinSet(1), EMPTY, left, right, graph))
    assert calls == 1


# -- guards ------------------------------------------------------------------------

# what the retired per-kind classes called their parts
ACCESSORS = {"net", "rates", "labels", "graph", "transitions", "edges", "base"}
# what a class storing a cell system binds: its cells, their ends, their attributes
CELL_PARTS = {"cells", "src", "tgt", "ends", "attrs"}


def accessor_reads(tree):
    """(enclosing top-level name, accessor) of each per-kind accessor read:
    `x.rates`, or a dotted `attrgetter("net.places")` path."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            names = []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "attrgetter"
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        names += arg.value.split(".")
            found += [(getattr(top, "name", None), n) for n in names if n in ACCESSORS]
    return sorted(found)


def cell_system_classes(tree):
    """The top-level classes whose body binds a cell system's part, as a
    field, a class attribute, a property or a method."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            bound = set()
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    bound.add(stmt.target.id)
                elif isinstance(stmt, ast.Assign):
                    bound |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
                elif isinstance(stmt, ast.FunctionDef):
                    bound.add(stmt.name)
            if bound & CELL_PARTS:
                found.append(node.name)
    return found


def test_no_module_reads_a_per_kind_accessor():
    package = pathlib.Path(opencospan.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.stem, top, name) for top, name in accessor_reads(tree)]
    assert found == []


def test_systems_defines_one_class_for_cell_systems():
    tree = ast.parse(pathlib.Path(systems.__file__).read_text(encoding="utf-8"))
    assert cell_system_classes(tree) == ["System"]


def test_the_guards_see_the_per_kind_classes_and_their_readers():
    reader = (
        "def mass_action(net):\n"
        "    n = net.places.size\n"
        "    for consumed, produced, rate in zip(net.net.src, net.net.tgt, net.rates):\n"
        "        pass\n"
    )
    assert accessor_reads(ast.parse(reader)) == [
        ("mass_action", "net"),
        ("mass_action", "net"),
        ("mass_action", "rates"),
    ]
    classes = (
        "class Multiset:\n"
        "    over: FinSet\n"
        "class Graph:\n"
        "    nodes: FinSet\n"
        "    src: FinFunction\n"
        "class _Attributed:\n"
        "    cells = property(attrgetter('base.cells'))\n"
        "class PetriNetWithRates(_Attributed):\n"
        "    net: PetriNet\n"
        "    attrs = property(attrgetter('rates'))\n"
    )
    tree = ast.parse(classes)
    assert cell_system_classes(tree) == ["Graph", "_Attributed", "PetriNetWithRates"]
    assert sorted(name for _, name in accessor_reads(tree)) == ["base", "rates"]
