"""One record for every cell system: `systems.System`.

A graph, an lgraph, a Petri net and a rated net are each a node set, a cell
set, the two ends of each cell and an attribute column; the kinds differ
only in their rules, which check a record when it is built.  These tests pin
those checks and the equality rule, and three guards: no code in the
package reads a per-kind accessor (`.net`, `.rates`, `.labels`, ...),
`systems` defines one class for cell systems, and each kind's rules are
stated once, in its `DecorationTheory` row: no `_KIND_RULES` table, `_SHAPES`
read only by the row's constructor, and no morphism rule (`*_faults`) that
takes the `check_rates` flag, which `validate_morphism` alone reads.
Building a morphism or a cospan from the very sets of its systems compares
no sets through `FinSet.__eq__`.
"""

import ast
import gc
import math
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
    identity_cospan,
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


@pytest.mark.parametrize("build", [discrete, identity_cospan])
def test_an_unhashable_kind_is_refused_by_name(build):
    # the kind lookup refuses it as `System` does, not with a TypeError
    with pytest.raises(KindError) as caught:
        build(["graph"], FinSet(1))
    assert str(caught.value) == "unknown system kind ['graph']"


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
    with pytest.raises(ValueError, match="rate at transition 0 must be nonnegative, got nan"):
        System("petri_rates", FinSet(1), FinSet(1), (ms,), (ms,), (math.nan,))
    with pytest.raises(ValueError, match="rate at transition 0 must be finite, got inf"):
        System("petri_rates", FinSet(1), FinSet(1), (ms,), (ms,), (math.inf,))
    rated = System("petri_rates", FinSet(1), FinSet(1), (ms,), (ms,), (1,))
    assert rated.attrs == (1.0,) and type(rated.attrs[0]) is float


@pytest.mark.parametrize(
    "rate, message",
    [
        ("2", "rate at transition 0 must be an int or a float, got '2'"),
        (True, "rate at transition 0 must be an int or a float, got True"),
        (10**400, "rate at transition 0 must be finite, got an int too large for a float"),
    ],
    ids=["a string", "a bool", "an int past the floats"],
)
def test_a_rate_is_a_finite_int_or_float(rate, message):
    # a file's rate is a JSON number, which the reader checks as such
    ms = Multiset(FinSet(1), (1,))
    with pytest.raises(ValueError) as caught:
        System("petri_rates", FinSet(1), FinSet(1), (ms,), (ms,), (rate,))
    assert str(caught.value) == message


# the most digits a number in JSON text is read or written with
DIGITS = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "labels, message",
    [
        ([[1, 2]], "labels must be an array of scalars"),
        ([None], "labels must be an array of scalars"),
        ([math.nan, {}], "labels must be an array of scalars"),
        ([-math.inf], "edge 0 label must be finite, got -inf"),
        (["a", -(10**5000)], f"edge 1 label must be an int of at most {DIGITS} digits"),
    ],
)
def test_a_label_is_a_finite_scalar(labels, message):
    # the words a model file with such a label is refused in
    with pytest.raises(ValueError) as caught:
        System("lgraph", FinSet(1), FinSet(1), (0,), (0,), labels)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "src, tgt, message",
    [
        ((2,), (0,), "src: table[0] = 2 is outside the codomain of size 2"),
        ((0,), (-1,), "tgt: table[0] = -1 is outside the codomain of size 2"),
        ((0,), (True,), "tgt: table[0] = True is outside the codomain of size 2"),
        ((0, 1), (0,), "src: table length 2 does not match domain size 1"),
    ],
    ids=["src past the nodes", "tgt negative", "tgt a bool", "src too long"],
)
def test_a_graph_end_lies_in_the_node_set(src, tgt, message):
    with pytest.raises(ValueError) as caught:
        System("graph", FinSet(2), FinSet(1), src, tgt)
    assert str(caught.value) == message


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


def rule_table_faults(tree):
    """How a module states a kind's rules outside its theory row: a
    `_KIND_RULES` name, a read of `_SHAPES` outside
    `DecorationTheory.__init__`, a `*_faults` function taking `check_rates`."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.Name) and node.id == "_KIND_RULES":
            found.append(f"{where} names _KIND_RULES")
        if (
            isinstance(node, ast.Name)
            and node.id == "_SHAPES"
            and isinstance(node.ctx, ast.Load)
            and where != "DecorationTheory.__init__"
        ):
            found.append(f"{where} reads _SHAPES")
        if isinstance(node, ast.FunctionDef):
            if node.name.endswith("_faults") and any(
                a.arg == "check_rates" for a in node.args.args + node.args.kwonlyargs
            ):
                found.append(f"{node.name} takes check_rates")
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for top in tree.body:
        visit(top, "<module>")
    return found


def test_each_kinds_rules_are_stated_once_in_its_row():
    tree = ast.parse(pathlib.Path(systems.__file__).read_text(encoding="utf-8"))
    assert rule_table_faults(tree) == []


def test_the_rule_guard_sees_a_positional_rule_table():
    source = (
        "class System:\n"
        "    def __init__(self, kind, interface, cells, src, tgt, attrs=None):\n"
        "        shape, check_attrs, _, _ = _KIND_RULES[kind]\n"
        "        _SHAPES[shape][2](interface, cells, src, tgt)\n"
        "def _rate_faults(m, check_rates):\n"
        "    return []\n"
        "_KIND_RULES = {'graph': ('graph', None, lambda m, check_rates: [], False)}\n"
        "class DecorationTheory:\n"
        "    def __init__(self, kind):\n"
        "        self.move, self.hashable, _, self.end_faults = _SHAPES[_KIND_RULES[kind][0]]\n"
    )
    assert rule_table_faults(ast.parse(source)) == [
        "System.__init__ names _KIND_RULES",
        "System.__init__ reads _SHAPES",
        "_rate_faults takes check_rates",
        "<module> names _KIND_RULES",
        "DecorationTheory.__init__ names _KIND_RULES",
    ]
