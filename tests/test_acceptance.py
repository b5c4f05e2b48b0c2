"""Acceptance gate: one test per shipped guarantee.

`pytest -v tests/test_acceptance.py` prints one PASS/FAIL line per
criterion; run with -s to also see each law suite's own report line.
Every criterion carries a wall-clock budget enforced with perf_counter,
sized for an unremarkable laptop.  Each also pins its suites' exact report
lines, the twelve lines that `opencospan check --laws all` prints.
"""

from __future__ import annotations

import time
from typing import Callable

from opencospan import FlowSchedule, PiecewiseConstant, graybox, open_rate_rhs
from opencospan.laws import (
    LawReport,
    associator_law,
    companion_laws,
    conjoint_laws,
    conversion_roundtrip,
    graybox_functoriality,
    interchange_law,
    no_left_adjoint_witness,
    pushout_matches_oracle,
    pushout_universal_property,
    rate_sum_validation,
    simulation_fidelity,
    sir_open_net,
    unitor_laws,
)


def _within(budget: float, *suites: Callable[[], LawReport]) -> list[LawReport]:
    """Run law suites, print their report lines, enforce verdicts and budget."""
    started = time.perf_counter()
    reports = [suite() for suite in suites]
    elapsed = time.perf_counter() - started
    for report in reports:
        print(report.line())
    for report in reports:
        assert report.passed, report.line()
    assert elapsed < budget, f"{elapsed:.2f}s exceeds the {budget:.0f}s budget"
    return reports


def test_criterion_1_epidemic_graybox_is_symbolically_exact() -> None:
    started = time.perf_counter()
    open_sir = graybox(sir_open_net())
    s_dot, i_dot, r_dot = open_sir.field.components
    assert s_dot.terms == ((-0.3, (1, 1, 0)),)
    assert i_dot.terms == ((-0.1, (0, 1, 0)), (0.3, (1, 1, 0)))
    assert r_dot.terms == ((0.1, (0, 1, 0)),)

    # boundary routing: the first two inflows feed S, the third feeds I,
    # and the single outflow drains R
    schedule = FlowSchedule(
        (
            PiecewiseConstant.constant(0.25),
            PiecewiseConstant.constant(0.5),
            PiecewiseConstant.constant(1.5),
        ),
        (PiecewiseConstant.constant(0.75),),
    )
    assert open_rate_rhs(open_sir, schedule, 0.0, [0.0, 0.0, 0.0]) == [0.75, 1.5, -0.75]

    state = [0.9, 0.05, 0.05]
    expected = open_sir.field.evaluate(state)
    expected[0] += 0.25
    expected[0] += 0.5
    expected[1] += 1.5
    expected[2] -= 0.75
    assert open_rate_rhs(open_sir, schedule, 2.0, state) == expected

    elapsed = time.perf_counter() - started
    print("PASS sir-exactness (5 cases)")
    assert elapsed < 1.0, f"{elapsed:.2f}s exceeds the 1s budget"


def test_criterion_2_graybox_commutes_with_composition() -> None:
    (report,) = _within(10.0, graybox_functoriality)
    assert report.cases >= 200
    assert report.line() == "PASS graybox (200 cases)"


def test_criterion_3_conversion_is_a_strict_roundtrip() -> None:
    (report,) = _within(10.0, conversion_roundtrip)
    assert report.cases >= 200
    assert report.line() == "PASS conversion (200 cases)"


def test_criterion_4_pushouts_match_the_brute_force_oracle() -> None:
    matches, universal = _within(30.0, pushout_matches_oracle, pushout_universal_property)
    assert matches.cases >= 500
    assert universal.cases > 0  # counts commuting cocones, not spans
    assert matches.line() == "PASS pushout (500 cases)"
    assert universal.line() == "PASS universal (12888 cases)"


def test_criterion_5_unit_associativity_interchange_up_to_iso() -> None:
    reports = _within(60.0, unitor_laws, associator_law, interchange_law)
    assert all(report.cases >= 100 for report in reports)
    assert [report.line() for report in reports] == [
        "PASS unitors (100 cases)",
        "PASS associativity (100 cases)",
        "PASS interchange (100 cases)",
    ]


def test_criterion_6_companion_and_conjoint_equations_exhaustively() -> None:
    reports = _within(10.0, companion_laws, conjoint_laws)
    # 499 functions with dom, cod <= 4, over two system kinds
    assert all(report.cases == 2 * 499 for report in reports)
    assert [report.line() for report in reports] == [
        "PASS companion (998 cases)",
        "PASS conjoint (998 cases)",
    ]


def test_criterion_7_simulation_tracks_closed_forms() -> None:
    (report,) = _within(5.0, simulation_fidelity)
    assert report.line() == "PASS simulation (2 cases)"


def test_criterion_8_only_the_zero_field_admits_an_empty_morphism() -> None:
    (report,) = _within(5.0, no_left_adjoint_witness)
    # exhaustive: all fields on <= 2 places, degree <= 2, coefficients in {-1, 0, 1}
    assert report.cases == 1 + 27 + 729**2
    assert report.line() == "PASS noleftadjoint (531469 cases)"


def test_criterion_9_rate_sums_validate_exactly_the_fiber_condition() -> None:
    (report,) = _within(5.0, rate_sum_validation)
    assert report.cases >= 200
    assert report.line() == "PASS rates (200 cases)"
