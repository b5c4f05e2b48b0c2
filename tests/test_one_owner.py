"""Each job has one owner: four AST guards, each with a self-test.

- A trajectory is owned by the generated `run`: `dynamics` builds a
  DivergenceError only in `_diverged`, which `_compile` binds into the
  namespace of the code it runs, and `simulate_rows` holds no loop, no
  comprehension and no `yield`, so it cannot lay out or check rows itself.
- A table into a finite set is checked by `FinFunction`: the graph shape's
  `_check_nodes` builds one per end column and compares no index or
  length itself.
- A kind is looked up by `decoration_theory`: no other function in
  `systems` indexes `_THEORIES`, `System.__init__` included.

Each self-test feeds its guard the shape the code had before these owners
were made, and the guard must find it.
"""

import ast
import pathlib

import opencospan

PACKAGE = pathlib.Path(opencospan.__file__).resolve().parent


def module_tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def function(tree, name, cls=None):
    """The top-level function `name`, or the method `name` of class `cls`."""
    body = tree.body
    if cls is not None:
        body = next(top for top in body if isinstance(top, ast.ClassDef) and top.name == cls).body
    return next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == name)


def called(node, name):
    return any(
        isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == name
        for call in ast.walk(node)
    )


# -- the generated run owns the whole trajectory ---------------------------------

LOOPS = (
    ast.For, ast.AsyncFor, ast.While, ast.Yield, ast.YieldFrom,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def divergence_faults(tree):
    """Where `dynamics` builds a DivergenceError outside `_diverged`, or
    `_compile` fails to bind `_diverged` into the code it runs."""
    faults = [
        f"DivergenceError built in {top.name}"
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name != "_diverged"
        and called(top, "DivergenceError")
    ]
    bound = [
        node
        for node in ast.walk(function(tree, "_compile"))
        if isinstance(node, ast.Dict)
        and any(isinstance(v, ast.Name) and v.id == "_diverged" for v in node.values)
    ]
    if not bound:
        faults.append("_compile binds no _diverged")
    return faults


def row_faults(tree):
    """The loops, comprehensions and yields in `simulate_rows`."""
    return [
        f"{type(node).__name__} at line {node.lineno}"
        for node in ast.walk(function(tree, "simulate_rows"))
        if isinstance(node, LOOPS)
    ]


def test_the_generated_run_owns_the_whole_trajectory():
    tree = module_tree("dynamics")
    assert divergence_faults(tree) == []
    assert row_faults(tree) == []


PARENT_DYNAMICS = '''
def _blew_up(at, last_good):
    return DivergenceError(f"state blew up near t = {at}", last_good_time=last_good)

def _compile(system):
    namespace = {"blew_up": _blew_up}

def simulate_rows(system, schedule, initial, t0, t1, dt):
    state = [float(x) for x in initial]
    def rows(state):
        yield t0, state.copy()
        for t, out in run(state, t0, t1, dt, n_full, flows_at):
            if not all(map(isfinite, out)):
                raise DivergenceError(f"state became non-finite at t = {t}", last_good_time=t0)
            yield t, out
    return rows(state)
'''


def test_the_trajectory_guards_see_a_second_owner():
    tree = ast.parse(PARENT_DYNAMICS)
    assert divergence_faults(tree) == [
        "DivergenceError built in _blew_up",
        "DivergenceError built in simulate_rows",
        "_compile binds no _diverged",
    ]
    assert sorted(fault.split()[0] for fault in row_faults(tree)) == [
        "For", "ListComp", "Yield", "Yield",
    ]


# -- graph ends and kind lookups ---------------------------------------------


def node_check_faults(tree):
    """What `_check_nodes` does that `FinFunction` owns."""
    check = function(tree, "_check_nodes")
    faults = [] if called(check, "FinFunction") else ["no FinFunction built"]
    compares = [node for node in ast.walk(check) if isinstance(node, ast.Compare)]
    return faults + [f"compares at line {node.lineno}" for node in compares]


def theory_index_faults(tree):
    """The functions and methods of `systems`, other than
    `decoration_theory`, that index `_THEORIES`."""
    faults = []
    for top in ast.walk(tree):
        if not isinstance(top, ast.FunctionDef) or top.name == "decoration_theory":
            continue
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == "_THEORIES"
            ):
                faults.append(top.name)
    return faults


def test_graph_ends_and_kind_lookups_have_one_owner_each():
    tree = module_tree("systems")
    assert node_check_faults(tree) == []
    assert theory_index_faults(tree) == []
    assert called(function(tree, "__init__", cls="System"), "decoration_theory")


PARENT_SYSTEMS = '''
class System:
    def __init__(self, kind, interface, cells, src, tgt, attrs=None):
        try:
            theory = _THEORIES[kind]
        except (KeyError, TypeError):
            raise KindError(f"unknown system kind {kind!r}") from None

def _check_nodes(nodes, edges, src, tgt):
    size, m = nodes.size, edges.size
    for name, column in (("src", src), ("tgt", tgt)):
        if len(column) != m:
            raise ValueError(f"{name}: table length {len(column)}")
        for v in column:
            if not (type(v) is int and 0 <= v < size):
                raise ValueError(f"{name}: outside the codomain of size {size}")

def decoration_theory(kind):
    return _THEORIES[kind]
'''


def test_the_systems_guards_see_a_second_owner():
    tree = ast.parse(PARENT_SYSTEMS)
    assert node_check_faults(tree) == [
        "no FinFunction built",
        "compares at line 12",
        "compares at line 15",
        "compares at line 15",
    ]
    assert theory_index_faults(tree) == ["__init__"]
