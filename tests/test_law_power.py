"""A mutant matrix: each law suite fails where it should.

Each mutant below breaks one part of the library, or one input of an
oracle, by monkeypatching.  Then every suite in `LAW_SUITES` runs at a
small size, and the test pins the exact FAIL line of each suite the mutant
turns, with every other suite still passing.  A change to the suites that
alters what they report, or where they stop, shows here (mutation
analysis: Jia & Harman, IEEE TSE 37(5), 2011).

The up-to-iso suites (unitors, associativity, interchange) check every
witness the search returns from its tables alone, so an iso search with
its legs unpinned and one that always answers yes both fail there.
Associativity holds on the nose, so the identity is a true witness there
and neither mutant turns it.

The two rate mutants change `dynamics.mass_action`, which both routes of
the `graybox` suite run, so the routes still agree; the suite's rate
equation oracle, built from the composite net in exact arithmetic, turns
them.  A guard pins that the oracle names nothing from `systems`,
`dynamics` or `cospans`.
"""

import ast
import dataclasses
import functools
import pathlib

import pytest

from opencospan import cospans, dynamics, finset, laws, systems
from opencospan.cli import main
from opencospan.cospans import IsoWitness, TwoMorphism, reverse
from opencospan.finset import FinFunction, FinSet
from opencospan.laws import LAW_SUITES
from opencospan.systems import DecorationTheory, PetriNetWithRates, system_union

SMALL = {
    "pushout": {"cases": 60},
    "universal": {"cases": 10},
    "unitors": {"cases": 30},
    "associativity": {"cases": 30},
    "interchange": {"cases": 30},
    "companion": {"max_size": 2},
    "conjoint": {"max_size": 2},
    "conversion": {"cases": 40},
    "graybox": {"cases": 25},
    "rates": {"cases": 60},
    "noleftadjoint": {"max_places": 1},
    "simulation": {},
}

REAL_PUSHOUT, REAL_SIMULATE, REAL_FIND_ISO = finset.pushout, laws.simulate, finset.find_iso
REAL_MASS_ACTION = dynamics.mass_action
REAL_TO_DECORATED, REAL_GRAYBOX = laws.to_decorated, laws.graybox


def _pushout_skipping_the_last_pair(f, g):
    if f.dom.size:
        dom = FinSet(f.dom.size - 1)
        f, g = FinFunction(dom, f.cod, f.table[:-1]), FinFunction(dom, g.cod, g.table[:-1])
    return REAL_PUSHOUT(f, g)


def _find_iso_without_pins(a, b, constraints=(), **kwargs):
    return REAL_FIND_ISO(a, b, **kwargs)


def _iso_always_found(m, n, budget=None):
    return IsoWitness(FinFunction.identity(m.apex), FinFunction.identity(m.decoration.cells))


def _leaking_simulate(*args, **kwargs):
    return [(t, [x * 1.001 for x in state]) for t, state in REAL_SIMULATE(*args, **kwargs)]


def _mass_action_doubling(doubled):
    """mass_action with the rate of each transition whose consumed multiset
    is doubled(consumed) multiplied by two."""

    def mutant(net):
        rates = [2 * r if doubled(ms) else r for ms, r in zip(net.src, net.attrs)]
        return REAL_MASS_ACTION(PetriNetWithRates(net, rates))

    return mutant


def _mass_action_drifting(net):
    """mass_action with every rate scaled by 1 + 1e-6 per transition of the
    net, so a composite drifts from the sum of its parts."""
    scale = 1 + 1e-6 * net.cells.size
    return REAL_MASS_ACTION(PetriNetWithRates(net, [r * scale for r in net.attrs]))


def _graybox_right_leg_at_place_0(net):
    box = REAL_GRAYBOX(net)
    leg = box.leg_right
    return dataclasses.replace(box, leg_right=FinFunction(leg.dom, leg.cod, (0,) * leg.dom.size))


SQUARES = "squares do not agree on the glued apex; are both valid 2-morphisms?"
GRAYBOX_OFF = "FAIL graybox (1 cases): the gray-boxed composite is off its rate equation at case 0"

# mutant: (the attributes it rebinds, the FAIL line of each suite it turns)
MUTANTS = {
    "iso never found": (
        [(laws, "cospan_iso", lambda m, n, budget=None: None)],
        {
            "unitors": "FAIL unitors (1 cases): left unit composite not isomorphic",
            "associativity": "FAIL associativity (1 cases): composites not isomorphic at case 0",
            "interchange": "FAIL interchange (1 cases): "
            "tensor and composition do not interchange at case 0",
        },
    ),
    "legs unpinned": (
        [(cospans, "find_iso", _find_iso_without_pins)],
        {
            "unitors": "FAIL unitors (2 cases): "
            "witness does not commute with the legs for the left unit composite",
            "interchange": "FAIL interchange (2 cases): "
            "witness does not commute with the legs at case 1",
        },
    ),
    "an iso that always answers yes": (
        [(laws, "cospan_iso", _iso_always_found)],
        {
            "unitors": "FAIL unitors (1 cases): "
            "witness does not commute with the legs for the left unit composite",
            "interchange": "FAIL interchange (2 cases): "
            "witness does not commute with the legs at case 1",
        },
    ),
    "union lists y's cells first": (
        [(DecorationTheory, "union", lambda theory, x, f, y, g: system_union(y, g, x, f))],
        {
            "conversion": "FAIL conversion (2 cases): "
            "composition not preserved on the nose for kind lgraph",
        },
    ),
    "validator finds nothing": (
        [(laws, "validate_morphism", lambda morphism: [])],
        {"rates": "FAIL rates (4 cases): validator said True, oracle said False at case 3"},
    ),
    "every field admits the empty map": (
        [(laws, "admits_morphism_from_empty", lambda field: True)],
        {
            "noleftadjoint": "FAIL noleftadjoint (2 cases): witness check wrong for field "
            "(Poly(nvars=1, terms=((-1.0, (0,)), (-1.0, (1,)), (-1.0, (2,)))),)",
        },
    ),
    "companion and conjoint refused": (
        [
            (laws, "check_companion", lambda f, kind="graph": (False, "no")),
            (laws, "check_conjoint", lambda f, kind="graph": (False, "no")),
        ],
        {
            "companion": "FAIL companion (1 cases): f=[]:0->0 (graph): no",
            "conjoint": "FAIL conjoint (1 cases): f=[]:0->0 (graph): no",
        },
    ),
    "no induced map": (
        [(laws, "induced", lambda po, u, w: None)],
        {
            "universal": "FAIL universal (1 cases): induced map differs for "
            "f=[0, 0], g=[0, 2], u=[0, 0], w=[0, 0, 0, 0]",
        },
    ),
    "pushout skips its last glue pair": (
        [(module, "pushout", _pushout_skipping_the_last_pair) for module in (laws, cospans, systems)],
        {
            "pushout": "FAIL pushout (3 cases): partition mismatch for "
            "f=[2, 6, 1, 2, 3], g=[3, 2, 4, 1, 3]",
            "unitors": "FAIL unitors (1 cases): left unit composite not isomorphic",
            "interchange": "FAIL interchange (9 cases): "
            "tensor and composition do not interchange at case 8",
            # a suite whose case raises reports the error as that case's verdict
            "companion": f"FAIL companion (7 cases): BoundaryError: {SQUARES}",
            "conjoint": f"FAIL conjoint (7 cases): BoundaryError: {SQUARES}",
        },
    ),
    "simulation leaks a thousandth": (
        [(laws, "simulate", _leaking_simulate)],
        {
            "simulation": "FAIL simulation (1 cases): "
            "decay differs from the closed form by 1.000e-03",
        },
    ),
    "the rate of a transition consuming three or more tokens doubled": (
        [(dynamics, "mass_action", _mass_action_doubling(lambda ms: ms.total() >= 3))],
        {"graybox": GRAYBOX_OFF},
    ),
    "left unitor is the identity square": (
        [(laws, "left_unitor", TwoMorphism.identity)],
        {"unitors": "FAIL unitors (1 cases): left unitor has wrong boundary"},
    ),
    "to_decorated reverses the cospan": (
        [(laws, "to_decorated", lambda cospan: reverse(REAL_TO_DECORATED(cospan)))],
        {"conversion": "FAIL conversion (1 cases): roundtrip broke a graph cospan"},
    ),
    "conjoint is the companion": (
        [(laws, "conjoint", laws.companion)],
        {"conjoint": "FAIL conjoint (2 cases): conjoint of f=[] is not the reversed companion"},
    ),
    "graybox sends its right leg to place 0": (
        [(laws, "graybox", _graybox_right_leg_at_place_0)],
        {"graybox": "FAIL graybox (1 cases): legs disagree at case 0"},
    ),
    "rates drift with the transition count": (
        [(dynamics, "mass_action", _mass_action_drifting)],
        {"graybox": "FAIL graybox (1 cases): fields disagree beyond 1e-9 at case 0"},
    ),
    "every rate doubled": (
        [(dynamics, "mass_action", _mass_action_doubling(lambda ms: True))],
        {
            "graybox": GRAYBOX_OFF,
            "simulation": "FAIL simulation (1 cases): "
            "decay differs from the closed form by 2.500e-01",
        },
    ),
}


def _failures() -> dict[str, str]:
    """The line of every suite, run small, that does not pass."""
    reports = [suite(**SMALL[name]) for name, suite in LAW_SUITES.items()]
    return {report.law: report.line() for report in reports if not report.passed}


def test_every_suite_passes_small_without_a_mutant() -> None:
    assert set(SMALL) == set(LAW_SUITES)
    assert _failures() == {}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_fails_exactly_its_suites(monkeypatch, mutant) -> None:
    patches, expected = MUTANTS[mutant]
    for owner, attribute, replacement in patches:
        monkeypatch.setattr(owner, attribute, replacement)
    assert _failures() == expected


def test_check_all_prints_every_verdict_when_a_suite_raises(monkeypatch, capsys) -> None:
    patches, expected = MUTANTS["pushout skips its last glue pair"]
    for owner, attribute, replacement in patches:
        monkeypatch.setattr(owner, attribute, replacement)
    for name, suite in list(LAW_SUITES.items()):
        monkeypatch.setitem(LAW_SUITES, name, functools.partial(suite, **SMALL[name]))
    assert main(["check", "--laws", "all"]) == 2
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == len(LAW_SUITES) and err == ""
    assert [line for line in lines if not line.startswith("PASS")] == list(expected.values())


# -- the rate equation oracle shares no code with what it checks ---------------------


def foreign_names(tree, functions, modules=("systems", "dynamics", "cospans")):
    """The names, imported into the module from one of modules, that the
    named top-level functions read (annotations included)."""
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module in modules
        for alias in node.names
    }
    return sorted(
        {
            node.id
            for top in tree.body
            if isinstance(top, ast.FunctionDef) and top.name in functions
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id in imported
        }
    )


ORACLE = ("_rate_equation", "_off_rate_equation")


def test_the_rate_equation_oracle_names_nothing_from_the_library_it_checks():
    tree = ast.parse(pathlib.Path(laws.__file__).read_text(encoding="utf-8"))
    assert {top.name for top in tree.body if isinstance(top, ast.FunctionDef)} >= set(ORACLE)
    assert foreign_names(tree, ORACLE) == []


def test_the_oracle_guard_sees_the_field_algebra():
    source = (
        "from .systems import Poly, PolyVectorField, field_close, poly_close\n"
        "from .dynamics import mass_action, pushforward_field\n"
        "from fractions import Fraction\n"
        "def _rate_equation(net) -> PolyVectorField:\n"
        "    return pushforward_field(net.f, mass_action(net))\n"
        "def _off_rate_equation(exact, field):\n"
        "    return not field_close(field, exact) or poly_close(Poly.zero(1), Fraction(0))\n"
        "def graybox_functoriality():\n"
        "    return field_close\n"
    )
    assert foreign_names(ast.parse(source), ORACLE) == [
        "Poly",
        "PolyVectorField",
        "field_close",
        "mass_action",
        "poly_close",
        "pushforward_field",
    ]
