"""One file layer: `modelio` reads and writes a system by its shape's layout.

Two guards.  The AST guard fails on any test in `modelio` of a kind or a
shape against a kind or shape name (a string, or `KINDS`): the layout of a
kind is looked up in `modelio._LAYOUTS`, keyed by the shape its theory
names, not picked by a chain of comparisons.  The cost guard counts the
Python-level calls (`sys.setprofile`) made while loading seeded files of
64 and 512 cells, and bounds how many each further cell adds, so a frame
per cell that comes back shows here without a clock.
"""

import ast
import gc
import pathlib
import sys
from random import Random

import pytest

from opencospan import (
    EMPTY,
    DecoratedCospan,
    FinFunction,
    FinSet,
    ModelFile,
    Poly,
    PolyVectorField,
    canonical_json,
    load_model,
    modelio,
    save_model,
)

KIND_WORDS = {"kind", "shape"}


def _reads_a_kind(node):
    """An expression that reads a kind or a shape: `kind`, `x.shape`,
    `getattr(x, "kind", None)`."""
    return any(
        (isinstance(n, ast.Name) and n.id in KIND_WORDS)
        or (isinstance(n, ast.Attribute) and n.attr in KIND_WORDS)
        or (isinstance(n, ast.Constant) and n.value in KIND_WORDS)
        for n in ast.walk(node)
    )


def _names_a_kind(node):
    """A string, or KINDS: what a dispatch on the kind compares with."""
    return any(
        (isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value not in KIND_WORDS)
        or (isinstance(n, ast.Name) and n.id == "KINDS")
        for n in ast.walk(node)
    )


def kind_tests(tree):
    """(enclosing top-level name, source) of each comparison of a kind or
    shape with a kind or shape name."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(
                    _reads_a_kind(a) and _names_a_kind(b) for a in sides for b in sides if a is not b
                ):
                    found.append((getattr(top, "name", None), ast.unparse(node)))
    return found


def test_modelio_picks_no_layout_by_comparing_kinds():
    source = pathlib.Path(modelio.__file__).read_text(encoding="utf-8")
    assert kind_tests(ast.parse(source)) == []


def test_the_guard_sees_a_dispatch_on_the_kind_or_the_shape():
    source = (
        "def system_from_json(kind, value):\n"
        "    if kind in ('graph', 'lgraph'):\n"
        "        pass\n"
        "    if getattr(value, 'kind', None) not in KINDS:\n"
        "        pass\n"
        "def system_to_json(system):\n"
        "    if decoration_theory(system.kind).shape == 'field':\n"
        "        pass\n"
        "class ModelFile:\n"
        "    def check(self):\n"
        "        assert self.payload.kind == self.kind\n"
    )
    assert [name for name, _ in kind_tests(ast.parse(source))] == [
        "system_from_json",
        "system_from_json",
        "system_to_json",
    ]


# -- the cost of a load, in Python-level calls --------------------------------------


def petri_file(path, cells):
    """A rated open net of `cells` transitions over as many places."""
    rng = Random(f"petri {cells}")
    transitions = [
        {
            "src": {str(rng.randrange(cells)): rng.randint(1, 2)},
            "tgt": {str(p): 1 for p in sorted(rng.sample(range(cells), 2))},
            "rate": rng.uniform(0.1, 2.0),
        }
        for _ in range(cells)
    ]
    payload = {
        "footLeft": 2,
        "footRight": 2,
        "legLeft": [0, 1],
        "legRight": [2, 3],
        "system": {"places": cells, "transitions": transitions},
        "representation": "decorated",
    }
    doc = {"version": "1", "kind": "petri_rates", "representation": "decorated", "payload": payload}
    pathlib.Path(path).write_text(canonical_json(doc))


def dynam_file(path, cells):
    """An open field of `cells` terms over 8 places, spread over its 8 components."""
    rng = Random(f"dynam {cells}")
    monomials = [set() for _ in range(8)]
    for t in range(cells):
        while len(monomials[t % 8]) <= t // 8:
            monomials[t % 8].add(tuple(rng.randint(0, 3) for _ in range(8)))
    over = FinSet(8)
    field = PolyVectorField(
        over,
        tuple(Poly.from_terms(8, [(rng.uniform(0.5, 2.0), e) for e in m]) for m in monomials),
    )
    legs = [FinFunction(EMPTY, over, ())] * 2
    save_model(path, ModelFile("dynam", DecoratedCospan(EMPTY, EMPTY, *legs, field)))


def calls_to_load(path):
    """The Python-level calls (profile "call" events) load_model makes."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    load_model(path)  # warm: nothing lazily built on a first load is counted
    gc.disable()  # nor a collection's finalizers
    sys.setprofile(count)
    try:
        load_model(path)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


# calls per further cell.  A transition: the duplicate-key hook on its three
# JSON objects, and for each multiset its reader, Multiset._from_pairs, its
# __post_init__ and _check_pairs.  A term: _support_of, _nonzero_pairs, and
# in Poly's checks _check_pairs and _dense_order with its list comprehension.
PER_CELL = {"petri_rates": (petri_file, 11), "dynam": (dynam_file, 5)}


@pytest.mark.parametrize("kind", sorted(PER_CELL))
def test_a_load_costs_a_few_calls_per_cell(tmp_path, kind):
    write, bound = PER_CELL[kind]
    counts = {}
    for cells in (64, 512):
        path = str(tmp_path / f"{kind}{cells}.json")
        write(path, cells)
        counts[cells] = calls_to_load(path)
    assert (counts[512] - counts[64]) / (512 - 64) <= bound, counts
