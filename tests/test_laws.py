"""Smoke coverage for the law-suite registry.

The suites themselves are the oracles; the acceptance tests run them at
full size.  Here each one runs small, so a broken suite fails fast in a
normal development cycle, and the registry and report formatting are
pinned down because the CLI `check` command builds its output from them.
"""

import ast
import pathlib

import pytest

import opencospan
from opencospan import DecoratedCospan, FinFunction, FinSet, IsoWitness, Multiset, laws
from opencospan.systems import DecorationTheory, System, system_union
from opencospan.laws import (
    LAW_SUITES,
    LawReport,
    associator_law,
    companion_laws,
    conjoint_laws,
    conversion_roundtrip,
    decay_open_net,
    graybox_functoriality,
    interchange_law,
    intro_open_graph,
    no_left_adjoint_witness,
    pushout_matches_oracle,
    pushout_universal_property,
    rate_sum_validation,
    simulation_fidelity,
    sir_halves,
    sir_open_net,
    unitor_laws,
)


EXPECTED_SUITES = {
    "pushout",
    "universal",
    "unitors",
    "associativity",
    "interchange",
    "companion",
    "conjoint",
    "conversion",
    "graybox",
    "rates",
    "noleftadjoint",
    "simulation",
}


def test_registry_names_every_suite() -> None:
    assert set(LAW_SUITES) == EXPECTED_SUITES
    for name, suite in LAW_SUITES.items():
        assert callable(suite), name


def test_report_line_format() -> None:
    ok = LawReport("pushout", True, 500)
    assert ok.line() == "PASS pushout (500 cases)"
    bad = LawReport("unitors", False, 3, "left unit composite not isomorphic")
    assert bad.line() == "FAIL unitors (3 cases): left unit composite not isomorphic"


def test_example_systems_have_the_advertised_shapes() -> None:
    sir = sir_open_net()
    assert sir.decoration.interface.size == 3
    assert sir.decoration.attrs == (0.3, 0.1)
    assert (sir.foot_left.size, sir.foot_right.size) == (3, 1)

    left, right = sir_halves()
    assert left.foot_right.size == right.foot_left.size == 1

    decay = decay_open_net()
    assert decay.foot_left.size == decay.foot_right.size == 0

    graph = intro_open_graph()
    assert graph.decoration.interface.size == 4
    assert graph.decoration.cells.size == 5


def test_pushout_suite_smoke() -> None:
    report = pushout_matches_oracle(cases=60, max_size=5, seed=5)
    assert report.passed
    assert report.cases == 60
    assert report.detail == ""


def test_universal_property_smoke() -> None:
    report = pushout_universal_property(cases=10, max_size=4, max_target=2, seed=3)
    assert report.passed
    assert report.cases > 0  # counts cocones, not spans


def test_unitor_suite_smoke() -> None:
    assert unitor_laws(cases=15, seed=1).passed
    assert unitor_laws(cases=10, seed=2, kind="petri_rates").passed


def test_associator_suite_smoke() -> None:
    assert associator_law(cases=10, seed=1).passed
    assert associator_law(cases=6, seed=2, kind="lgraph").passed


def test_interchange_suite_smoke() -> None:
    assert interchange_law(cases=8, seed=1).passed


def _open_system(kind, places, cells, left=(), right=()):
    """A decorated cospan over `places` with one cell per (src, tgt, attr)."""
    theory = opencospan.decoration_theory(kind)
    nodes = FinSet(places)
    if theory.shape == "petri":
        cells = [(Multiset(nodes, s), Multiset(nodes, t), a) for s, t, a in cells]
    src, tgt, attrs = (tuple(column) for column in zip(*cells)) if cells else ((), (), ())
    system = System(kind, nodes, FinSet(len(cells)), src, tgt, attrs if theory.attributed else None)
    legs = [FinFunction(FinSet(len(leg)), nodes, leg) for leg in (left, right)]
    return DecoratedCospan(legs[0].dom, legs[1].dom, *legs, system)


WITNESS_CASES = {
    # (m, n, the node table the iso returns, the verdict)
    "carried": (
        _open_system("petri", 2, [((1, 2), (0, 1), None)]),
        _open_system("petri", 2, [((2, 1), (1, 0), None)]),
        (1, 0),
        "",
    ),
    "not a bijection": (
        _open_system("graph", 2, []),
        _open_system("graph", 2, []),
        (0, 0),
        "witness is not a bijection of the apexes at case 0",
    ),
    "legs": (
        _open_system("graph", 2, [], left=(0,)),
        _open_system("graph", 2, [], left=(0,)),
        (1, 0),
        "witness does not commute with the legs at case 0",
    ),
    "ends": (
        _open_system("graph", 2, [(0, 1, None)]),
        _open_system("graph", 2, [(0, 1, None)]),
        (1, 0),
        "witness does not carry the cells at case 0",
    ),
    "label types": (
        _open_system("lgraph", 1, [(0, 0, 1)]),
        _open_system("lgraph", 1, [(0, 0, True)]),
        (0,),
        "witness does not carry the cells at case 0",
    ),
}


@pytest.mark.parametrize("case", sorted(WITNESS_CASES))
def test_each_iso_witness_is_checked_from_its_tables(monkeypatch, case) -> None:
    m, n, table, verdict = WITNESS_CASES[case]
    apexes = m.leg_left.cod, n.leg_left.cod
    witness = IsoWitness(FinFunction(*apexes, table), FinFunction.identity(m.decoration.cells))
    monkeypatch.setattr(laws, "cospan_iso", lambda m, n: witness)
    assert laws._iso_broken(m, n, "not isomorphic", "at case 0") == verdict
    monkeypatch.setattr(laws, "cospan_iso", lambda m, n: None)
    assert laws._iso_broken(m, n, "not isomorphic", "at case 0") == "not isomorphic"


def test_companion_and_conjoint_smoke() -> None:
    # dom, cod <= 2 is still exhaustive over its range: 11 functions per kind
    companion_report = companion_laws(max_size=2, kinds=("graph",))
    assert companion_report.passed
    assert companion_report.cases == 11
    conjoint_report = conjoint_laws(max_size=2, kinds=("petri",))
    assert conjoint_report.passed
    assert conjoint_report.cases == 11


def test_conversion_suite_smoke() -> None:
    assert conversion_roundtrip(cases=24, seed=4).passed


def test_conversion_catches_a_union_that_lists_cells_out_of_order(monkeypatch) -> None:
    # both presentations compose through the decoration's union, so the law
    # must build the pushout in X itself to see a union that puts y's cells
    # before x's
    def swapped(theory, x, f, y, g):
        return system_union(y, g, x, f)

    monkeypatch.setattr(DecorationTheory, "union", swapped)
    report = conversion_roundtrip(cases=40, seed=4)
    assert not report.passed
    assert "not preserved on the nose" in report.detail


def test_graybox_suite_smoke() -> None:
    assert graybox_functoriality(cases=25, seed=6).passed


def test_rate_validation_suite_smoke() -> None:
    assert rate_sum_validation(cases=60, seed=8).passed


def test_no_left_adjoint_smoke() -> None:
    report = no_left_adjoint_witness(max_places=1, max_degree=2)
    # one empty field, then 3 coefficient choices for each of 3 monomials
    assert report.passed
    assert report.cases == 1 + 27


def test_simulation_suite_runs() -> None:
    report = simulation_fidelity()
    assert report.passed
    assert report.line() == "PASS simulation (2 cases)"


def test_a_suite_reports_a_package_error_and_lets_others_through(monkeypatch) -> None:
    def refused(f, kind):
        raise opencospan.BoundaryError("squares do not agree")

    monkeypatch.setattr(opencospan.laws, "check_companion", refused)
    report = companion_laws(max_size=2, kinds=("graph",))
    assert report.line() == "FAIL companion (1 cases): BoundaryError: squares do not agree"
    # only the package's own errors are verdicts: a bad argument still raises
    with pytest.raises(ValueError, match="no random systems of kind 'dynam'"):
        unitor_laws(cases=1, kind="dynam")


def report_builders(tree, module):
    """(module, enclosing top-level name) of each `LawReport(...)` call."""
    return [
        (module, getattr(top, "name", None))
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "LawReport"
    ]


def test_only_the_report_rule_and_the_cli_build_reports() -> None:
    # every suite's verdicts become a report in `_suite`; the CLI builds the
    # reports of the iso check and of companion/conjoint with --map
    package = pathlib.Path(opencospan.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        found.update(report_builders(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert found == {("laws", "_suite"), ("cli", "_check_iso"), ("cli", "_cmd_check")}


def test_the_guard_sees_reports_built_in_a_suite() -> None:
    source = (
        "def unitor_laws(cases):\n"
        "    return laws.LawReport('unitors', False, 1, 'broken')\n"
        "def _suite(law):\n"
        "    return LawReport(law, True, 0)\n"
    )
    assert report_builders(ast.parse(source), "laws") == [
        ("laws", "unitor_laws"),
        ("laws", "_suite"),
    ]
