"""Cospan composition, tensoring, squares, companions, and iso search."""

import math
import re
import sys
import time
from collections import Counter
from dataclasses import replace
from functools import reduce
from itertools import permutations
from random import Random

import pytest

from opencospan import (
    EMPTY,
    AdjointPair,
    BoundaryError,
    BudgetExceeded,
    ComposabilityError,
    DecoratedCospan,
    FinFunction,
    FinSet,
    Graph,
    KindError,
    LabeledGraph,
    ModelValidationError,
    Multiset,
    NotInImageOfL,
    PetriNet,
    PetriNetWithRates,
    Poly,
    PolyVectorField,
    StructuredCospan,
    SystemMorphism,
    TwoMorphism,
    check_companion,
    check_conjoint,
    companion,
    conjoint,
    cospan_iso,
    discrete,
    graybox,
    hcompose,
    hcompose_cells,
    identity_cospan,
    left_unitor,
    match_cells,
    relabel,
    reverse,
    right_unitor,
    tensor,
    to_decorated,
    to_structured,
    unit_cell,
    vcompose,
)
from opencospan.cospans import _check_adjoint, _present, _search_rules
from opencospan.finset import ISO_BUDGET_ENV, compose, find_iso, pushout
from opencospan.systems import (
    COEFF_DROP,
    _CLOSE_REL,
    decoration_theory,
    field_close,
    interface_of,
    poly_close,
    pushforward_field,
    validate_morphism,
)
from opencospan.laws import (
    intro_open_graph,
    random_composable,
    random_cospan,
    random_system,
    sir_halves,
    sir_open_net,
)


def fn(table, cod):
    return FinFunction(FinSet(len(table)), FinSet(cod), tuple(table))


def open_edge():
    """One directed edge with each endpoint exposed on its own side."""
    nodes = FinSet(2)
    graph = Graph(nodes, FinSet(1), fn([0], 2), fn([1], 2))
    return DecoratedCospan(FinSet(1), FinSet(1), fn([0], 2), fn([1], 2), graph)


def open_loop():
    graph = Graph(FinSet(1), FinSet(1), fn([0], 1), fn([0], 1))
    return DecoratedCospan(FinSet(1), FinSet(1), fn([0], 1), fn([0], 1), graph)


# -- composition and tensor -------------------------------------------------------


def test_composing_two_edges_builds_a_path():
    path = hcompose(open_edge(), open_edge())
    assert path.apex == FinSet(3)
    assert path.decoration.src == (0, 1)
    assert path.decoration.tgt == (1, 2)
    assert path.leg_left.table == (0,) and path.leg_right.table == (2,)


def test_composition_needs_matching_feet_and_kinds():
    wide = DecoratedCospan(
        FinSet(1), FinSet(2), fn([0], 2), fn([0, 1], 2), discrete("graph", FinSet(2))
    )
    with pytest.raises(ComposabilityError):
        hcompose(wide, open_edge())
    petri_unit = identity_cospan("petri", FinSet(1))
    with pytest.raises(KindError):
        hcompose(open_edge(), petri_unit)
    with pytest.raises(ComposabilityError):
        hcompose(open_edge(), to_structured(open_edge()))


def test_recomposing_the_split_epidemic_net():
    left, right = sir_halves()
    rebuilt = hcompose(left, right)
    whole = sir_open_net()
    witness = cospan_iso(rebuilt, whole)
    assert witness is not None
    h = witness.node_map
    assert h.is_bijection()
    # legs are carried, the decoration is carried, cellwise
    assert tuple(h.table[y] for y in rebuilt.leg_left.table) == tuple(whole.leg_left.table)
    assert tuple(h.table[y] for y in rebuilt.leg_right.table) == tuple(whole.leg_right.table)
    moved = relabel(h, rebuilt.decoration)
    theory = decoration_theory("petri_rates")
    assert theory.fiber_violations(moved, whole.decoration, witness.cell_map) == []


def test_unit_cospans_absorb_under_composition_up_to_iso():
    m = intro_open_graph()
    left = hcompose(identity_cospan("graph", m.foot_left), m)
    right = hcompose(m, identity_cospan("graph", m.foot_right))
    assert cospan_iso(left, m) is not None
    assert cospan_iso(right, m) is not None


def test_unit_absorption_is_not_on_the_nose():
    # the left leg avoids node 0, so gluing the unit in renumbers the apex
    graph = Graph(FinSet(2), FinSet(1), fn([0], 2), fn([1], 2))
    shifted = DecoratedCospan(FinSet(1), FinSet(1), fn([1], 2), fn([0], 2), graph)
    composite = hcompose(identity_cospan("graph", FinSet(1)), shifted)
    assert composite != shifted
    assert cospan_iso(composite, shifted) is not None


def test_unitor_cells_are_iso_squares():
    m = intro_open_graph()
    for cell, composite in (
        (left_unitor(m), hcompose(identity_cospan("graph", m.foot_left), m)),
        (right_unitor(m), hcompose(m, identity_cospan("graph", m.foot_right))),
    ):
        assert cell.src == composite and cell.tgt == m
        assert cell.violations() == []
        assert cell.apex_map.is_bijection()


def unitor_apex_oracle(cospan, on_left):
    """The unitor's apex table worked out class by class on the quotient of
    the chosen pushout, apart from `finset.induced`: a class holding foot
    element z goes where the leg sends z, one holding apex element x to x."""
    representation, kind = cospan.representation, cospan.kind
    leg_l, leg_r = cospan.leg_maps
    if on_left:
        unit = identity_cospan(kind, cospan.foot_left, representation)
        po = pushout(unit.leg_maps[1], leg_l)
        foot = cospan.foot_left
        apex_table = [-1] * po.apex.size
        for z, cls in enumerate(po.quotient.table):
            apex_table[cls] = leg_l.table[z] if z < foot.size else z - foot.size
    else:
        unit = identity_cospan(kind, cospan.foot_right, representation)
        po = pushout(leg_r, unit.leg_maps[0])
        apex_size = cospan.apex.size
        apex_table = [-1] * po.apex.size
        for z, cls in enumerate(po.quotient.table):
            apex_table[cls] = z if z < apex_size else leg_r.table[z - apex_size]
    return tuple(apex_table)


@pytest.mark.parametrize("representation", ["decorated", "structured"])
@pytest.mark.parametrize("kind", ["graph", "lgraph", "petri", "petri_rates"])
def test_unitors_match_the_class_by_class_oracle(kind, representation):
    rng = Random(f"unitors-{kind}")
    for _ in range(25):
        m = _present(random_cospan(rng, kind), representation)
        for on_left, unitor in ((True, left_unitor), (False, right_unitor)):
            unit = identity_cospan(kind, m.foot_left if on_left else m.foot_right, representation)
            cell = unitor(m)
            assert cell.src == (hcompose(unit, m) if on_left else hcompose(m, unit))
            assert cell.tgt == m
            assert cell.apex_map.table == unitor_apex_oracle(m, on_left)
            assert cell.apex_map.is_bijection()
            assert cell.violations() == []


def test_associativity_holds_up_to_iso():
    a, b, c = open_edge(), open_edge(), open_edge()
    lhs = hcompose(hcompose(a, b), c)
    rhs = hcompose(a, hcompose(b, c))
    assert cospan_iso(lhs, rhs) is not None


def test_tensor_adds_feet_and_concatenates_structure():
    m, n = open_edge(), open_loop()
    both = tensor(m, n)
    assert both.foot_left == FinSet(m.foot_left.size + n.foot_left.size)
    assert both.foot_right == FinSet(2)
    assert both.apex == FinSet(m.apex.size + n.apex.size)
    assert both.decoration.src == (0, 2)
    assert both.leg_left.table == (0, 2)


def test_tensor_symmetry_via_the_block_swap():
    m, n = open_edge(), open_loop()
    mn, nm = tensor(m, n), tensor(n, m)
    swap_apex = fn([1, 2, 0], 3)  # m's two nodes after n's one
    swap_l = fn([1, 0], 2)
    assert tuple(swap_apex.table[y] for y in mn.leg_left.table) == tuple(
        nm.leg_left.table[x] for x in swap_l.table
    )
    moved = relabel(swap_apex, mn.decoration)
    k = match_cells(moved, nm.decoration, FinFunction.identity(FinSet(3)))
    assert k is not None
    assert decoration_theory("graph").fiber_violations(moved, nm.decoration, k) == []


# -- squares -----------------------------------------------------------------------


def test_unit_cell_is_a_valid_square():
    f = fn([0, 0], 1)
    cell = unit_cell(f, "graph")
    assert cell.violations() == []
    ident = TwoMorphism.identity(open_edge())
    assert ident.violations() == []


def test_vertical_composition_runs_first_then_second():
    f, g = fn([0, 0], 1), fn([0], 1)
    stacked = vcompose(unit_cell(f, "graph"), unit_cell(g, "graph"))
    assert stacked.apex_map.table == (0, 0)
    assert stacked.src == identity_cospan("graph", FinSet(2))
    assert stacked.tgt == identity_cospan("graph", FinSet(1))
    with pytest.raises(BoundaryError):
        vcompose(unit_cell(f, "graph"), unit_cell(f, "graph"))


def test_pasting_squares_respects_the_boundary():
    m = open_edge()
    ident = TwoMorphism.identity(m)
    pasted = hcompose_cells(ident, ident)
    assert pasted.src == hcompose(m, m) == pasted.tgt
    assert pasted.violations() == []
    src_po_left = fn([0, 1], 3)
    # restricting the pasted apex map along the left injection recovers the
    # left component
    assert tuple(pasted.apex_map.table[y] for y in src_po_left.table) == (0, 1)


def test_pasting_inconsistent_squares_fails_loudly():
    apex = discrete("graph", FinSet(2))
    m = DecoratedCospan(FinSet(1), FinSet(1), fn([0], 2), fn([1], 2), apex)
    good = TwoMorphism.identity(m)
    twisted = TwoMorphism(
        m, m, FinFunction.identity(FinSet(1)), FinFunction.identity(FinSet(1)),
        fn([1, 0], 2), FinFunction.identity(EMPTY),
    )
    assert twisted.violations() != []  # its legs do not commute
    with pytest.raises(BoundaryError):
        hcompose_cells(good, twisted)
    wide = TwoMorphism.identity(identity_cospan("graph", FinSet(2)))
    with pytest.raises(BoundaryError):
        hcompose_cells(good, wide)  # foot maps do not meet
    with pytest.raises(BoundaryError):
        vcompose(good, wide)


def test_pasting_refuses_in_a_fixed_order():
    """Foot maps that do not meet come first, then feet that do not compose,
    then squares that disagree on the glued apex."""
    one, two = FinSet(1), FinSet(2)
    m = DecoratedCospan(one, one, fn([0], 2), fn([1], 2), discrete("graph", two))
    wide = DecoratedCospan(two, one, fn([0, 1], 2), fn([1], 2), discrete("graph", two))
    good = TwoMorphism.identity(m)
    # foot maps that meet, but over cospans whose feet do not: an ill-formed b
    misfit = TwoMorphism(
        wide, wide, FinFunction.identity(one), FinFunction.identity(one),
        fn([1, 0], 2), FinFunction.identity(EMPTY),
    )
    twisted = TwoMorphism(
        m, m, FinFunction.identity(one), FinFunction.identity(one),
        fn([1, 0], 2), FinFunction.identity(EMPTY),
    )
    with pytest.raises(BoundaryError, match=r"^horizontal pasting needs a\.right == b\.left$"):
        hcompose_cells(good, TwoMorphism.identity(wide))
    with pytest.raises(
        ComposabilityError, match="^feet disagree: right foot has size 1, left foot has size 2$"
    ):
        hcompose_cells(good, misfit)
    with pytest.raises(
        BoundaryError,
        match=r"^squares do not agree on the glued apex; are both valid 2-morphisms\?$",
    ):
        hcompose_cells(good, twisted)


@pytest.mark.parametrize("apex_map", [fn([0, 1, 2], 3), fn([0, 1, 2, 3], 5)])
def test_square_with_a_misfit_apex_map_is_reported(apex_map):
    m = intro_open_graph()
    square = TwoMorphism(
        m,
        m,
        FinFunction.identity(m.foot_left),
        FinFunction.identity(m.foot_right),
        apex_map,
        FinFunction.identity(FinSet(5)),
    )
    assert square.violations() == ["apex map has the wrong endpoints"]


@pytest.mark.parametrize(
    "misfit, expected",
    [
        ({"left": fn([0], 2)}, "left foot map has the wrong endpoints"),
        ({"right": fn([0, 0], 1)}, "right foot map has the wrong endpoints"),
        (
            {"cell_map": fn([0, 1, 2, 3], 5)},
            "apex morphism ill-shaped: edge map does not fit the two systems",
        ),
    ],
)
def test_square_with_a_misfit_foot_or_cell_map_is_reported(misfit, expected):
    m = intro_open_graph()
    maps = {
        "left": FinFunction.identity(m.foot_left),
        "right": FinFunction.identity(m.foot_right),
        "apex_map": FinFunction.identity(m.apex),
        "cell_map": FinFunction.identity(FinSet(5)),
    }
    assert TwoMorphism(m, m, **{**maps, **misfit}).violations() == [expected]


def labeled(m):
    """The graph cospan m with the label "x" on every edge."""
    labels = ("x",) * m.decoration.cells.size
    decoration = LabeledGraph(m.decoration, labels)
    return DecoratedCospan(m.foot_left, m.foot_right, m.leg_left, m.leg_right, decoration)


@pytest.mark.parametrize("other", [to_structured, labeled], ids=["presentation", "kind"])
def test_a_square_between_cospans_of_different_species_is_reported(other):
    m = intro_open_graph()
    square = replace(TwoMorphism.identity(m), tgt=other(m))
    assert square.violations() == ["source and target cospans are of different species"]


def test_square_validation_catches_label_breakage():
    inner = Graph(FinSet(1), FinSet(1), fn([0], 1), fn([0], 1))
    a = DecoratedCospan(EMPTY, EMPTY, fn([], 1), fn([], 1), LabeledGraph(inner, ("x",)))
    b = DecoratedCospan(EMPTY, EMPTY, fn([], 1), fn([], 1), LabeledGraph(inner, ("y",)))
    cell = TwoMorphism(
        a, b, FinFunction.identity(EMPTY), FinFunction.identity(EMPTY),
        FinFunction.identity(FinSet(1)), FinFunction.identity(FinSet(1)),
    )
    assert any("label" in v for v in cell.violations())


# -- companions and conjoints --------------------------------------------------------


def test_companion_of_identity_is_the_unit_cospan():
    ident = FinFunction.identity(FinSet(2))
    pair = companion(ident, "graph")
    assert pair.cospan == identity_cospan("graph", FinSet(2))


def test_companion_equations_hold_for_sample_functions():
    for table, cod in ([(0, 0), 1], [(1, 0, 2), 3], [(), 2]):
        f = fn(list(table), cod)
        for representation in ("decorated", "structured"):
            ok, why = check_companion(f, "graph", representation)
            assert ok, why
            ok, why = check_conjoint(f, "graph", representation)
            assert ok, why


def _companion_with_a_broken_to_unit(f):
    pair = companion(f)
    return AdjointPair(pair.cospan, replace(pair.to_unit, left=fn([1, 1], 2)), pair.from_unit)


@pytest.mark.parametrize(
    "pair, f, mirrored, why",
    [
        # a square whose left leg square does not commute
        (_companion_with_a_broken_to_unit(fn([0, 0], 2)), fn([0, 0], 2), False,
         "to_unit is not a valid square: left leg square does not commute"),
        # the squares of another function
        (companion(fn([0, 0], 2)), fn([1, 1], 2), False,
         "stacked squares do not equal the unit square on f"),
        # the companion's squares pasted the conjoint's way
        (companion(fn([0, 0], 2)), fn([0, 0], 2), True,
         "bent composite does not match the unitors"),
    ],
    ids=["invalid square", "another function", "mirrored"],
)
def test_the_adjoint_check_refuses_each_broken_equation(pair, f, mirrored, why):
    assert _check_adjoint(pair, f, "graph", "decorated", mirrored) == (False, why)


def test_conjoint_is_the_reversed_companion():
    f = fn([0, 0, 1], 2)
    assert conjoint(f, "petri").cospan == reverse(companion(f, "petri").cospan)


def test_reverse_is_an_involution():
    m = intro_open_graph()
    assert reverse(reverse(m)) == m
    assert reverse(m).foot_left == m.foot_right
    s = to_structured(m)
    assert reverse(reverse(s)) == s


# -- conversion --------------------------------------------------------------------


def test_conversion_roundtrips_on_the_nose():
    for m in (sir_open_net(), intro_open_graph(), open_edge()):
        assert to_decorated(to_structured(m)) == m


def test_structured_composition_matches_decorated_composition():
    left, right = sir_halves()
    assert to_structured(hcompose(left, right)) == hcompose(
        to_structured(left), to_structured(right)
    )
    assert to_structured(tensor(left, right)) == tensor(
        to_structured(left), to_structured(right)
    )


def test_structured_feet_must_be_discrete_to_convert_back():
    loop = Graph(FinSet(1), FinSet(1), fn([0], 1), fn([0], 1))
    leg = SystemMorphism.identity(loop)
    with pytest.raises(NotInImageOfL, match="left foot carries 1 cells"):
        StructuredCospan(leg, leg)


def _two_nodes():
    return discrete("graph", FinSet(2))


def _two_apex_legs():
    """Two structured legs from the empty system into two different apexes."""
    return [
        SystemMorphism(discrete("graph", EMPTY), discrete("graph", FinSet(n)), fn([], n), fn([], 0))
        for n in (1, 2)
    ]


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: DecoratedCospan(FinSet(2), EMPTY, fn([0], 2), fn([], 2), _two_nodes()),
            "left leg must map the left foot into the apex",
            id="left leg misses its foot",
        ),
        pytest.param(
            lambda: DecoratedCospan(EMPTY, FinSet(1), fn([], 2), fn([0], 3), _two_nodes()),
            "right leg must map the right foot into the apex",
            id="right leg misses the apex",
        ),
        pytest.param(
            lambda: StructuredCospan(*_two_apex_legs()),
            "both legs must land in one shared apex system",
            id="structured legs with two apexes",
        ),
    ],
)
def test_cospan_legs_that_do_not_fit_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_structured_unit_and_feet_accessors():
    unit = identity_cospan("lgraph", FinSet(2), representation="structured")
    assert isinstance(unit, StructuredCospan)
    assert unit.foot_left == unit.foot_right == FinSet(2)
    assert to_structured(to_decorated(unit)) == unit


CELL_KINDS = ("graph", "lgraph", "petri", "petri_rates")


def seeded_cospans(kind, count=20):
    rng = Random(f"present-{kind}")
    return [random_cospan(rng, kind) for _ in range(count)]


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_present_is_the_one_switch_between_presentations(kind):
    for d in seeded_cospans(kind):
        s = to_structured(d)
        assert (d.representation, s.representation) == ("decorated", "structured")
        for c in (d, s):
            assert _present(c, c.representation) is c
        assert _present(d, "structured") == s
        assert _present(s, "decorated") == to_decorated(s) == d
        assert _present(_present(d, "structured"), "decorated") == d
        assert _present(_present(s, "decorated"), "structured") == s
        # the shared reading gives the same feet, legs and apex either way
        assert (s.foot_left, s.foot_right, s.leg_maps, s.decoration) == (
            d.foot_left, d.foot_right, d.leg_maps, d.decoration
        )
        with pytest.raises(ValueError, match="unknown representation"):
            _present(d, "skewed")


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_reverse_of_a_structured_cospan_swaps_its_legs(kind):
    for d in seeded_cospans(kind):
        s = to_structured(d)
        assert reverse(s) == StructuredCospan(s.leg_right, s.leg_left)
        assert reverse(s) == to_structured(reverse(d))


def test_presenting_a_field_as_structured_keeps_its_kind_error():
    with pytest.raises(KindError, match="^dynam models only have a decorated representation$"):
        _present(graybox(sir_open_net()), "structured")


def test_structured_feet_that_disagree_name_their_sizes():
    m = to_structured(random_cospan(Random("feet"), "graph", 1, 1))
    n = to_structured(random_cospan(Random("feet"), "graph", 2, 1))
    with pytest.raises(
        ComposabilityError, match="^feet disagree: right foot has size 1, left foot has size 2$"
    ):
        hcompose(m, n)


def test_squares_over_fields_name_the_kind_not_the_field():
    small = graybox(sir_open_net())
    large = graybox(tensor(sir_open_net(), tensor(sir_open_net(), sir_open_net())))
    messages = set()
    for field in (small, large):
        for call in (
            lambda: TwoMorphism.identity(field),
            lambda: left_unitor(field),
            lambda: check_companion(fn([0, 0], 1), "dynam"),
        ):
            with pytest.raises(KindError) as caught:
                call()
            messages.add(str(caught.value))
    assert messages == {"dynam decorations have no cells"}


# -- isomorphism decisions ------------------------------------------------------------


def permuted(m: DecoratedCospan, sigma: FinFunction) -> DecoratedCospan:
    from opencospan import compose

    return DecoratedCospan(
        m.foot_left,
        m.foot_right,
        compose(sigma, m.leg_left),
        compose(sigma, m.leg_right),
        relabel(sigma, m.decoration),
    )


def test_cospan_iso_recovers_a_permutation():
    m = sir_open_net()
    sigma = fn([2, 0, 1], 3)
    witness = cospan_iso(m, permuted(m, sigma))
    assert witness is not None and witness.node_map == sigma


def test_cospan_iso_rejects_structural_mismatches():
    m = intro_open_graph()
    extra = Graph(FinSet(4), FinSet(6), fn([0, 0, 1, 2, 1, 3], 4), fn([1, 2, 3, 3, 2, 3], 4))
    n = DecoratedCospan(m.foot_left, m.foot_right, m.leg_left, m.leg_right, extra)
    assert cospan_iso(m, n) is None  # different edge counts
    # node 3 has no outgoing edges, so no iso can swap the two exposed ends
    assert cospan_iso(m, reverse(m)) is None
    assert cospan_iso(m, to_structured(m)) is None  # different species


def test_cospan_iso_distinguishes_rates():
    m = sir_open_net()
    slower = DecoratedCospan(
        m.foot_left,
        m.foot_right,
        m.leg_left,
        m.leg_right,
        PetriNetWithRates(m.decoration, (0.3, 0.2)),
    )
    assert cospan_iso(m, slower) is None


def test_cospan_iso_budget_is_charged_per_assignment():
    # node 2 of the one edge 0 -> 1 is pinned to node 0 of the edge 1 -> 2;
    # nodes 0 and 1 are searched, one assignment each
    m, n = (build("graph", (3, (), (), [(s, s + 1, None)])) for s in (0, 1))
    with pytest.raises(BudgetExceeded):
        cospan_iso(m, n, budget=1)
    assert cospan_iso(m, n, budget=2).node_map.table == (1, 2, 0)


def _early_mismatches():
    """Pairs that cospan_iso turns down before any search, one per check."""
    m = intro_open_graph()
    fewer_cells = DecoratedCospan(
        m.foot_left, m.foot_right, m.leg_left, m.leg_right, discrete("graph", m.apex)
    )
    bigger = DecoratedCospan(
        m.foot_left,
        m.foot_right,
        FinFunction(m.foot_left, FinSet(5), m.leg_left.table),
        FinFunction(m.foot_right, FinSet(5), m.leg_right.table),
        discrete("graph", FinSet(5)),
    )
    return {
        "species": (m, to_structured(m)),
        "kind": (identity_cospan("graph", FinSet(1)), identity_cospan("petri", FinSet(1))),
        "feet": (identity_cospan("graph", FinSet(1)), identity_cospan("graph", FinSet(2))),
        "structured feet": (
            identity_cospan("graph", FinSet(1), "structured"),
            identity_cospan("graph", FinSet(2), "structured"),
        ),
        "apex": (fewer_cells, bigger),
        "cells": (m, fewer_cells),
    }


@pytest.mark.parametrize("case", sorted(_early_mismatches()))
def test_a_malformed_budget_is_reported_on_every_early_return(monkeypatch, case):
    m, n = _early_mismatches()[case]
    assert cospan_iso(m, n) is None
    monkeypatch.setenv(ISO_BUDGET_ENV, "abc")
    with pytest.raises(ModelValidationError):
        cospan_iso(m, n)


def test_label_equality_agrees_with_cospan_iso():
    loop = Graph(FinSet(1), FinSet(1), fn([0], 1), fn([0], 1))
    one, true = LabeledGraph(loop, (1,)), LabeledGraph(loop, (True,))
    assert one != true and hash(one) != hash(true)
    assert one == LabeledGraph(loop, (1,)) and hash(one) == hash(LabeledGraph(loop, (1,)))
    m, n = (DecoratedCospan(EMPTY, EMPTY, fn([], 1), fn([], 1), d) for d in (one, true))
    assert m != n and cospan_iso(m, n) is None
    assert m == m and cospan_iso(m, m) is not None


# Plain data for an open system: (apex size, left leg table, right leg table,
# cells).  A graph cell is (src node, tgt node, label); a net cell is
# (consumed counts, produced counts, rate).  The oracle reads only this
# form, so it shares no code with the search it checks.

GRAPH_KINDS = ("graph", "lgraph")
LABELS = ("a", "b", 1, True, 1.0)
RATES = (0.5, 1.0)


def build(kind, data):
    size, left, right, cells = data
    nodes = FinSet(size)
    srcs, tgts, attrs = zip(*cells) if cells else ((), (), ())
    if kind in GRAPH_KINDS:
        graph = Graph(nodes, FinSet(len(cells)), fn(srcs, size), fn(tgts, size))
        system = graph if kind == "graph" else LabeledGraph(graph, attrs)
    else:
        consumed = tuple(Multiset(nodes, c) for c in srcs)
        produced = tuple(Multiset(nodes, c) for c in tgts)
        net = PetriNet(nodes, FinSet(len(cells)), consumed, produced)
        system = net if kind == "petri" else PetriNetWithRates(net, attrs)
    legs = fn(left, size), fn(right, size)
    return DecoratedCospan(FinSet(len(left)), FinSet(len(right)), *legs, system)


def random_data(rng, kind, size, left, right):
    def end():
        if kind in GRAPH_KINDS:
            return rng.randrange(size)
        return tuple(rng.choice((0, 0, 1, 2)) for _ in range(size))

    attr = {"lgraph": LABELS, "petri_rates": RATES}.get(kind, (None,))
    n_cells = rng.randint(0, 4) if size or kind not in GRAPH_KINDS else 0
    cells = [(end(), end(), rng.choice(attr)) for _ in range(n_cells)]
    legs = [tuple(rng.randrange(size) for _ in range(k)) for k in (left, right)]
    return size, legs[0], legs[1], cells


def relabel_cell(p, cell):
    def move(end):
        if isinstance(end, int):
            return p[end]
        out = [0] * len(end)
        for i, k in enumerate(end):
            out[p[i]] = k
        return tuple(out)

    return move(cell[0]), move(cell[1]), cell[2]


def permuted_data(rng, data):
    size, left, right, cells = data
    p = list(range(size))
    rng.shuffle(p)
    moved = [relabel_cell(p, c) for c in cells]
    rng.shuffle(moved)
    return size, tuple(p[x] for x in left), tuple(p[x] for x in right), moved


def oracle_node_maps(m, n):
    """Every apex bijection m -> n that commutes with both legs and carries
    m's bag of cells onto n's, in lexicographic order.  Labels and rates
    must agree in type and value."""
    size, left, right, cells = m
    size2, left2, right2, cells2 = n

    def key(cell):
        return cell[0], cell[1], type(cell[2]), cell[2]

    if size != size2 or len(cells) != len(cells2):
        return []
    target = Counter(key(c) for c in cells2)
    return [
        p
        for p in permutations(range(size))
        if all(p[x] == y for x, y in zip(left, left2))
        and all(p[x] == y for x, y in zip(right, right2))
        and Counter(key(relabel_cell(p, c)) for c in cells) == target
    ]


def assert_witness_square(a, b, witness, node_map, case):
    """The witness has the oracle's node map, and with identity feet it makes
    a square from a to b with no violations."""
    assert witness is not None and witness.node_map.table == node_map, case
    square = TwoMorphism(
        a,
        b,
        FinFunction.identity(a.foot_left),
        FinFunction.identity(a.foot_right),
        witness.node_map,
        witness.cell_map,
    )
    assert square.violations() == [], case


def test_cospan_iso_agrees_with_a_brute_force_oracle():
    rng = Random(20261018)
    cases, isos = 1500, 0
    for i in range(cases):
        kind = ("graph", "lgraph", "petri", "petri_rates")[i % 4]
        size = rng.randint(0, 5)
        left, right = (rng.randint(0, 2), rng.randint(0, 2)) if size else (0, 0)
        m = random_data(rng, kind, size, left, right)
        n = permuted_data(rng, m) if i % 2 else random_data(rng, kind, size, left, right)
        # `again` is built a second time from m's data, so it equals a
        a, b, again = build(kind, m), build(kind, n), build(kind, m)
        if (i // 4) % 4 == 0:
            a, b, again = to_structured(a), to_structured(b), to_structured(again)
        expected = oracle_node_maps(m, n)
        witness = cospan_iso(a, b)
        assert (witness is not None) == bool(expected), (i, m, n)
        if witness is not None:
            isos += 1
            assert_witness_square(a, b, witness, expected[0], (i, m, n))
        assert a == again and a is not again
        assert_witness_square(a, again, cospan_iso(a, again), oracle_node_maps(m, m)[0], (i, m))
    # every permuted copy is isomorphic, and some independent draws are too
    assert cases // 2 < isos < cases


# Plain data for an open dynamical system: (apex size, left leg table, right
# leg table, components), a component being a list of (coefficient,
# exponents) with distinct exponents.  The oracle reads only this form.


def build_field(data):
    size, left, right, comps = data
    field = PolyVectorField(FinSet(size), tuple(Poly.from_terms(size, c) for c in comps))
    return DecoratedCospan(FinSet(len(left)), FinSet(len(right)), fn(left, size), fn(right, size), field)


def grayboxed_data(data):
    """The field data of a rated net's gray-box, from the net's data."""
    cospan = graybox(build("petri_rates", data))
    comps = [list(poly.terms) for poly in cospan.decoration.components]
    return data[0], cospan.leg_left.table, cospan.leg_right.table, comps


def random_field_data(rng, size, left, right):
    """Half the time a gray-boxed random rated net, else random terms."""
    if rng.random() < 0.5:
        return grayboxed_data(random_data(rng, "petri_rates", size, left, right))
    comps = []
    for _ in range(size):
        terms = {
            tuple(rng.choice((0, 0, 1, 2)) for _ in range(size)): rng.choice((-1.0, 0.5, 2.0))
            for _ in range(rng.randint(0, 3))
        }
        comps.append([(c, e) for e, c in terms.items()])
    legs = [tuple(rng.randrange(size) for _ in range(k)) for k in (left, right)]
    return size, legs[0], legs[1], comps


def move_field(p, comps, scale=1.0):
    """Component i becomes component p[i], and variable j variable p[j]."""
    moved = [[] for _ in comps]
    for i, comp in enumerate(comps):
        for c, exps in comp:
            e = [0] * len(exps)
            for j, k in enumerate(exps):
                e[p[j]] = k
            moved[p[i]].append((c * scale, tuple(e)))
    return moved


def permuted_field_data(rng, data):
    size, left, right, comps = data
    p = list(range(size))
    rng.shuffle(p)
    scale = rng.choice((1.0, 1 + 1e-10))  # within field_close's relative 1e-9
    return size, tuple(p[x] for x in left), tuple(p[x] for x in right), move_field(p, comps, scale)


def oracle_field_maps(m, n):
    """Every apex bijection m -> n that commutes with both legs and moves m's
    field onto n's: the same exponents in each component, coefficients
    within a relative 1e-9 (absolute 1e-12 near zero), in lexicographic order."""
    size, left, right, comps = m
    size2, left2, right2, comps2 = n
    if size != size2:
        return []
    target = [{e: c for c, e in comp} for comp in comps2]

    def close(moved):
        for comp, want in zip(moved, target):
            got = {e: c for c, e in comp}
            if got.keys() != want.keys():
                return False
            for e, c in got.items():
                if abs(c - want[e]) > 1e-9 * max(abs(c), abs(want[e]), 1e-3):
                    return False
        return True

    return [
        p
        for p in permutations(range(size))
        if all(p[x] == y for x, y in zip(left, left2))
        and all(p[x] == y for x, y in zip(right, right2))
        and close(move_field(p, comps))
    ]


def test_dynam_cospan_iso_agrees_with_a_brute_force_oracle():
    rng = Random(20261019)
    cases, isos = 600, 0
    for i in range(cases):
        size = rng.randint(0, 5)
        left, right = (rng.randint(0, 2), rng.randint(0, 2)) if size else (0, 0)
        m = random_field_data(rng, size, left, right)
        n = permuted_field_data(rng, m) if i % 2 else random_field_data(rng, size, left, right)
        expected = oracle_field_maps(m, n)
        a = build_field(m)
        witness = cospan_iso(a, build_field(n))
        assert (witness is not None) == bool(expected), (i, m, n)
        if witness is not None:
            isos += 1
            assert witness.node_map.table == expected[0], (i, m, n)
        # built a second time from m's data, so equal to a
        again = build_field(m)
        assert a == again and a is not again
        witness = cospan_iso(a, again)
        assert witness.node_map.table == oracle_field_maps(m, m)[0], (i, m)
        assert witness.cell_map == FinFunction.identity(EMPTY), (i, m)
    # every permuted copy is isomorphic, and some independent draws are too
    assert cases // 2 < isos < cases


def draw_piece(rng, kind, size, ring):
    """Plain data for one piece with empty feet: a directed cycle through
    its places with equal labels or rates if `ring`, else a random draw."""
    if not ring:
        if kind == "dynam":
            return random_field_data(rng, size, 0, 0)
        return random_data(rng, kind, size, 0, 0)
    if kind == "dynam":
        return grayboxed_data(ring_data("petri_rates", cycle_arcs(range(size)), size))
    return ring_data(kind, cycle_arcs(range(size)), size)


def union_data(kind, pieces, left, right):
    """The data of the pieces' tensor, with legs `left` and `right`: each
    piece's places and cells (for dynam, components) shifted past the
    pieces before it."""
    total = sum(piece[0] for piece in pieces)
    offset, cells = 0, []
    for size, _, _, piece_cells in pieces:

        def shift(end):
            if isinstance(end, int):
                return offset + end
            return (0,) * offset + tuple(end) + (0,) * (total - offset - size)

        if kind == "dynam":
            cells += [[(c, shift(e)) for c, e in comp] for comp in piece_cells]
        else:
            cells += [(shift(s), shift(t), attr) for s, t, attr in piece_cells]
        offset += size
    return total, left, right, cells


def split(rng, total):
    """A random list of 1 to 3 positive sizes adding up to total."""
    cuts = sorted(rng.sample(range(1, total), min(rng.randint(0, 2), total - 1)))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


@pytest.mark.parametrize("kind", [*CELL_KINDS, "dynam"])
def test_cospan_iso_agrees_with_the_oracle_on_disjoint_unions(kind):
    # tensors of 1 to 3 pieces and at most 7 places, where places in
    # different pieces share no cell, so component shapes decide candidates;
    # the second side is a relabelled copy, a copy with one piece redrawn,
    # or a fresh draw split into other pieces (for rings: a ring against
    # cycles of equal colours)
    rng = Random(f"unions-{kind}")
    cases, isos = 240, 0
    for case in range(cases):
        ring = rng.random() < 0.5
        representation = "decorated" if kind == "dynam" else ("decorated", "structured")[case % 2]

        def present(data):
            cospan = build_field(data) if kind == "dynam" else build(kind, data)
            return _present(cospan, representation)

        sizes = [rng.randint(1, 7 // k) for k in [rng.randint(1, 3)] for _ in range(k)]
        pieces = [draw_piece(rng, kind, size, ring) for size in sizes]
        # both sides keep m's legs, so only the pieces can differ
        legs = [tuple(rng.randrange(sum(sizes)) for _ in range(rng.randint(0, 2))) for _ in "lr"]
        m = union_data(kind, pieces, *legs)
        a = present(m)
        # the union's data builds the tensor of the pieces, legs aside
        unlegged = reduce(tensor, [present(union_data(kind, [p], (), ())) for p in pieces])
        assert unlegged == present(union_data(kind, pieces, (), ()))
        way = case % 3
        if way == 1:
            i = rng.randrange(len(pieces))
            pieces[i] = draw_piece(rng, kind, sizes[i], ring)
        elif way == 2:
            pieces = [draw_piece(rng, kind, size, ring) for size in split(rng, m[0])]
        n = union_data(kind, pieces, *legs)
        if kind == "dynam":
            n = permuted_field_data(rng, n)
            expected = oracle_field_maps(m, n)
        else:
            n = permuted_data(rng, n)
            expected = oracle_node_maps(m, n)
        b = present(n)
        witness = cospan_iso(a, b)
        assert (witness is not None) == bool(expected), (case, m, n)
        if witness is None:
            continue
        isos += 1
        if kind == "dynam":
            assert witness.node_map.table == expected[0], (case, m, n)
        else:
            assert_witness_square(a, b, witness, expected[0], (case, m, n))
    assert cases // 3 <= isos < cases


def seeded_equal_pair(rng, kind):
    """Two equal cospans of a kind, each built from one seeded draw of data."""
    size = rng.randint(0, 6)
    left, right = (rng.randint(0, 3), rng.randint(0, 3)) if size else (0, 0)
    if kind == "dynam":
        data = random_field_data(rng, size, left, right)
        return build_field(data), build_field(data)
    data = random_data(rng, kind, size, left, right)
    return build(kind, data), build(kind, data)


@pytest.mark.parametrize("kind", [*CELL_KINDS, "dynam"])
def test_equal_cospans_are_decided_as_the_search_decides_them(monkeypatch, kind):
    rng = Random(f"equal-{kind}")
    for case in range(60):
        m, n = seeded_equal_pair(rng, kind)
        if kind != "dynam" and case % 2:
            m, n = to_structured(m), to_structured(n)
        compatible, leaf, _, _ = _search_rules(m.decoration, n.decoration)
        cells = []  # the leaf check's cell maps, the last one the witness's

        def cells_match(h):
            cells.append(leaf(h))
            return cells[-1] is not None

        def search(budget):
            return find_iso(
                m.apex,
                n.apex,
                constraints=list(zip(m.leg_maps, n.leg_maps)),
                predicate=cells_match,
                budget=budget,
                compatible=compatible,
            )

        left, right = m.leg_maps
        # a search with only the legs pinned, one node per other place
        h = search(m.apex.size - len(set(left.table) | set(right.table)))
        searches = count_calls(monkeypatch, "find_iso", find_iso)
        witness = cospan_iso(m, n, budget=1)
        assert searches == [], case  # decided by comparison, charging nothing
        monkeypatch.undo()
        assert witness.node_map.table == h.table, case
        assert witness.cell_map.table == cells[-1].table, case


def one_transition(places, source, target):
    """A `petri` cospan with empty feet: one transition that consumes a token
    of `source` and produces one of `target`."""
    nodes = FinSet(places)
    consumed, produced = (Multiset.from_dict(nodes, {x: 1}) for x in (source, target))
    net = PetriNet(nodes, FinSet(1), (consumed,), (produced,))
    return DecoratedCospan(EMPTY, EMPTY, fn([], places), fn([], places), net)


def test_a_hundred_thousand_free_places_are_decided_in_linear_time(monkeypatch):
    size = 100_000
    m = one_transition(size, 0, 1)
    n = one_transition(size, size - 2, size - 1)
    # the untouched places are pinned in ascending order, and places 0 and
    # 1 each take the first free target
    start = time.process_time()
    witness = cospan_iso(m, n, budget=2)
    assert time.process_time() - start < 1.0
    assert witness.node_map.table == (size - 2, size - 1, *range(size - 2))
    with pytest.raises(BudgetExceeded):
        cospan_iso(m, n, budget=1)
    # the same cell keys, but a self-loop leaves one more place untouched,
    # so the pair is refused by that count, before any search
    loop = one_transition(size, size - 1, size - 1)
    searches = count_calls(monkeypatch, "find_iso", find_iso)
    start = time.process_time()
    assert cospan_iso(m, loop, budget=0) is None
    assert time.process_time() - start < 1.0
    assert searches == []


@pytest.mark.parametrize("k", [6, 7, 8, 9, 10, 11, 1000])
def test_untouched_places_are_pinned_not_searched(k):
    # k untouched places and one place with dx/dt = c * x, c = -1 on one
    # side and -2 on the other: the one search node maps the decaying place,
    # and the leaf check refuses, with no arrangement of the rest to try
    def decay(c, at):
        comps = [[] for _ in range(k + 1)]
        comps[at] = [(c, tuple(int(v == at) for v in range(k + 1)))]
        return build_field((k + 1, (), (), comps))

    m, n = decay(-1.0, 0), decay(-2.0, k)
    start = time.process_time()
    assert cospan_iso(m, n, budget=1) is None
    assert time.process_time() - start < 0.5
    with pytest.raises(BudgetExceeded):
        cospan_iso(m, n, budget=0)


def gappy_data(rng, kind, size, left, right):
    """Plain data, as `random_data` or the field data, whose cells or terms
    touch only some places, with an untouched place between two of them."""
    while True:
        touched = sorted(rng.sample(range(size), rng.randint(2, size - 1)))
        if touched[-1] - touched[0] >= len(touched):
            break
    left, right = (tuple(rng.randrange(size) for _ in range(k)) for k in (left, right))

    def end():
        if kind in GRAPH_KINDS:
            return rng.choice(touched)
        return tuple(rng.choice((0, 1, 2)) if x in touched else 0 for x in range(size))

    if kind == "dynam":
        comps = [[] for _ in range(size)]
        for x in touched:
            terms = {end(): rng.choice((-1.0, 0.5, 2.0)) for _ in range(rng.randint(0, 2))}
            comps[x] = [(c, e) for e, c in terms.items()]
        return size, left, right, comps
    attr = {"lgraph": LABELS, "petri_rates": RATES}.get(kind, (None,))
    return size, left, right, [(end(), end(), rng.choice(attr)) for _ in range(rng.randint(1, 4))]


@pytest.mark.parametrize("kind", [*CELL_KINDS, "dynam"])
def test_pinned_untouched_places_keep_the_least_witness(kind):
    rng = Random(f"gappy-{kind}")
    cases, isos = 150, 0
    for case in range(cases):
        shape = rng.randint(4, 6), rng.randint(0, 2), rng.randint(0, 2)
        m = gappy_data(rng, kind, *shape)
        if kind == "dynam":
            n = permuted_field_data(rng, m) if case % 2 else gappy_data(rng, kind, *shape)
            a, b, expected = build_field(m), build_field(n), oracle_field_maps(m, n)
        else:
            n = permuted_data(rng, m) if case % 2 else gappy_data(rng, kind, *shape)
            a, b, expected = build(kind, m), build(kind, n), oracle_node_maps(m, n)
        witness = cospan_iso(a, b)
        assert (witness is not None) == bool(expected), (case, m, n)
        if witness is not None:
            isos += 1
            assert witness.node_map.table == expected[0], (case, m, n)
    # every permuted copy is isomorphic, and some independent draws are not
    assert cases // 2 <= isos < cases


def ring_data(kind, arcs, size=6):
    """Empty feet, one cell per arc with label "a" or rate 0.5."""

    def end(x):
        return x if kind in GRAPH_KINDS else tuple(int(i == x) for i in range(size))

    attr = {"lgraph": "a", "petri_rates": 0.5}.get(kind)
    return size, (), (), [(end(s), end(t), attr) for s, t in arcs]


def open_ring(kind, arcs, size):
    """`ring_data` built; for dynam, the gray-boxed rated net."""
    if kind == "dynam":
        return graybox(build("petri_rates", ring_data("petri_rates", arcs, size)))
    return build(kind, ring_data(kind, arcs, size))


def cycle_arcs(*cycles):
    return [(c[j], c[(j + 1) % len(c)]) for c in cycles for j in range(len(c))]


RING = [(i, (i + 1) % 6) for i in range(6)]
SIGMA = [3, 0, 5, 1, 4, 2]
OTHER_RINGS = {
    "relabelled": [(SIGMA[s], SIGMA[t]) for s, t in RING],
    "two_triangles": [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
}


# the least budget that decides each pair; the parameters keep the least
# budget from before component shapes joined the colours, and a pinned
# budget may only drop
LEAST_BUDGETS = {"relabelled": 12, "two_triangles": 6}


@pytest.mark.parametrize(
    "kind, other, old_budget, node_map",
    [
        ("graph", "relabelled", 12, (0, 5, 1, 4, 2, 3)),
        ("graph", "two_triangles", 60, None),
        ("lgraph", "relabelled", 12, (0, 5, 1, 4, 2, 3)),
        ("lgraph", "two_triangles", 60, None),
        ("petri", "relabelled", 12, (0, 5, 1, 4, 2, 3)),
        ("petri", "two_triangles", 60, None),
        ("petri_rates", "relabelled", 12, (0, 5, 1, 4, 2, 3)),
        ("petri_rates", "two_triangles", 60, None),
    ],
)
def test_cospan_iso_node_budget_is_pinned(kind, other, old_budget, node_map):
    least_budget = LEAST_BUDGETS[other]
    assert least_budget <= old_budget
    m = build(kind, ring_data(kind, RING))
    n = build(kind, ring_data(kind, OTHER_RINGS[other]))
    with pytest.raises(BudgetExceeded):
        cospan_iso(m, n, budget=least_budget - 1)
    witness = cospan_iso(m, n, budget=least_budget)
    if node_map is None:
        assert witness is None
    else:
        assert witness.node_map.table == node_map
        assert witness.cell_map.table == (1, 2, 3, 4, 5, 0)


PATH = [(i, i + 1) for i in range(5)]


def open_graph(arcs):
    return build("graph", (6, (), (), [(s, t, None) for s, t in arcs]))


def unit_terms(*placed):
    """A field over 6 places with empty feet: a unit term in component x of
    the monomial {variable: exponent}, for each (x, monomial) given."""
    comps = [[] for _ in range(6)]
    for x, monomial in placed:
        comps[x].append((1.0, tuple(monomial.get(v, 0) for v in range(6))))
    return build_field((6, (), (), comps))


@pytest.mark.parametrize(
    "m, n, least_budget, node_map",
    [
        # refused before any search: the cycle leaves one node untouched
        (open_graph(PATH), open_graph(cycle_arcs(range(5))), 0, None),
        (open_graph(PATH), open_graph([(t, s) for s, t in PATH]), 21, (5, 4, 3, 2, 1, 0)),
        (unit_terms((0, {1: 1, 2: 1})), unit_terms((5, {3: 1, 4: 1})), 5, (5, 3, 4, 0, 1, 2)),
        # no place of the second field is read squared by its own component
        (unit_terms((0, {0: 2}), (1, {1: 1})), unit_terms((4, {4: 1}), (5, {5: 1})), 2, None),
    ],
    ids=["path-cycle", "path-reversed", "term-pair", "square"],
)
def test_one_colouring_prunes_paths_and_terms(m, n, least_budget, node_map):
    # least budgets with the per-shape rules: 81, 76, 42 and 1956; before
    # untouched places were pinned: 6, 21, 17 and 6
    if least_budget:
        with pytest.raises(BudgetExceeded):
            cospan_iso(m, n, budget=least_budget - 1)
    witness = cospan_iso(m, n, budget=least_budget)
    assert (witness if witness is None else witness.node_map.table) == node_map


def test_the_search_tolerance_lets_no_stored_term_pass_unmatched():
    # the search counts every term, which holds only while poly_close's floor
    # is the storage threshold
    assert _CLOSE_REL / 1e3 == COEFF_DROP
    least = Poly.from_terms(1, [(math.nextafter(COEFF_DROP, 1.0), (1,))])
    assert least.sparse and not poly_close(least, Poly.zero(1))


# scale factors around field_close's relative 1e-9, on both sides of it
EDGE_SCALES = (1.0, 1 + 5e-10, 1 + 0.999999e-9, 1 + 1.000001e-9, 1 - 0.999999e-9, 1 - 1.000001e-9)
# coefficients just above the storage threshold, within 1e-12 of each other or not
TINY = (1.05e-12, 1.5e-12, 1.9e-12, 2.2e-12, -1.2e-12)


def fresh_exponents(rng, size, comp):
    """An exponent vector that no term of the component has: its first
    exponent is above every term's."""
    first = 1 + max((e[0] for _, e in comp), default=0)
    return (first, *(rng.choice((0, 0, 1, 2)) for _ in range(size - 1)))


def edge_field_pair(rng, size):
    """Two fields of equal term counts, as plain data: d, with terms just
    above 1e-12 added, and e, d moved along a random bijection p with each
    coefficient scaled by one of EDGE_SCALES, and now and then one term moved
    to fresh exponents or a tiny term's coefficient redrawn.  Returns
    (d, e, p)."""
    _, _, _, comps = random_field_data(rng, size, 0, 0)
    for comp in comps:
        if rng.random() < 0.4:
            comp.append((rng.choice(TINY), fresh_exponents(rng, size, comp)))
    p = rng.sample(range(size), size)
    moved = [[(c * rng.choice(EDGE_SCALES), e) for c, e in comp] for comp in move_field(p, comps)]
    terms = [(x, j) for x, comp in enumerate(moved) for j in range(len(comp))]
    if terms and rng.random() < 0.3:
        x, j = rng.choice(terms)
        c, e = moved[x][j]
        if rng.random() < 0.5:
            moved[x][j] = (c, fresh_exponents(rng, size, moved[x]))
        elif abs(c) < 1e-11:
            moved[x][j] = (rng.choice(TINY), e)
    return (size, (), (), comps), (size, (), (), moved), p


def test_the_field_leaf_agrees_with_pushing_the_whole_field_forward():
    # the leaf compares term by term under h; pushing the whole field along
    # h and comparing with field_close must give the same verdict
    rng = Random(20261020)
    verdicts = Counter()
    for case in range(500):
        size = rng.randint(1, 5)
        d_data, e_data, p = edge_field_pair(rng, size)
        d, e = build_field(d_data).decoration, build_field(e_data).decoration
        rules = _search_rules(d, e)
        assert rules is not None, case  # equal term counts
        leaf = rules[1]
        for table in (p, rng.sample(range(size), size)):
            h = FinFunction(FinSet(size), FinSet(size), tuple(table))
            expected = field_close(pushforward_field(h, d), e)
            assert (leaf(h) is not None) == expected, (case, d_data, e_data, table)
            verdicts[expected] += 1
    assert min(verdicts.values()) > 200


@pytest.mark.parametrize("kind", [*CELL_KINDS, "dynam"])
def test_pruning_returns_the_unpruned_witness_on_seven_rings(kind):
    ring = cycle_arcs(range(7))
    sigma = [4, 0, 6, 2, 5, 1, 3]
    relabelled = [(sigma[s], sigma[t]) for s, t in ring]
    m = open_ring(kind, ring, 7)
    for arcs, iso in ((relabelled, True), (cycle_arcs(range(3), range(3, 7)), False)):
        n = open_ring(kind, arcs, 7)
        compatible, leaf, _, _ = _search_rules(m.decoration, n.decoration)
        pruned, unpruned = (
            find_iso(m.apex, n.apex, predicate=lambda h: leaf(h) is not None, compatible=rule)
            for rule in (compatible, None)
        )
        assert pruned == unpruned and (pruned is not None) == iso


@pytest.mark.parametrize("size", [10, 12])
@pytest.mark.parametrize("kind", ["petri", "petri_rates", "dynam"])
def test_ring_searches_are_decided_within_a_thousand_nodes(kind, size):
    # with profiles alone these searches are factorial in the ring size
    ring = cycle_arcs(range(size))
    sigma = Random(size).sample(range(size), size)
    m = open_ring(kind, ring, size)
    relabelled = open_ring(kind, [(sigma[s], sigma[t]) for s, t in ring], size)
    half = size // 2
    two_cycles = open_ring(kind, cycle_arcs(range(half), range(half, size)), size)
    assert cospan_iso(m, relabelled, budget=1000) is not None
    assert cospan_iso(m, two_cycles, budget=1000) is None


@pytest.mark.parametrize("size", [18, 24, 64])
@pytest.mark.parametrize("kind", ["graph", "petri_rates", "dynam"])
def test_a_shuffled_ring_is_told_from_two_cycles_in_as_many_nodes_as_places(kind, size):
    # 1-dimensional colour refinement cannot tell these apart, and with the
    # profiles' colours alone each search spent the million-node budget;
    # the component shapes leave the first place no candidate
    order = Random(size).sample(range(size), size)
    ring = open_ring(kind, cycle_arcs(order), size)
    half = size // 2
    two_cycles = open_ring(kind, cycle_arcs(range(half), range(half, size)), size)
    assert cospan_iso(ring, two_cycles, budget=size) is None
    assert cospan_iso(two_cycles, ring, budget=size) is None


def test_cospan_iso_refuses_clashing_pins_before_searching():
    # the legs pin 0 -> 0 and 1 -> 2, sending the edge 0 -> 1 to a non-edge
    cells = ring_data("graph", RING)[3]
    m = build("graph", (6, (0,), (1,), cells))
    n = build("graph", (6, (0,), (2,), cells))
    assert cospan_iso(m, n, budget=1) is None


def test_match_cells_pairs_parallel_edges_in_order():
    double = Graph(FinSet(2), FinSet(2), fn([0, 0], 2), fn([1, 1], 2))
    k = match_cells(double, double, FinFunction.identity(FinSet(2)))
    assert k == FinFunction.identity(FinSet(2))


def test_match_cells_refuses_groups_of_different_sizes():
    # cells keyed [A, A, B] against [A, B, B]: the same keys, in other numbers
    d = Graph(FinSet(2), FinSet(3), fn([0, 0, 1], 2), fn([0, 0, 1], 2))
    e = Graph(FinSet(2), FinSet(3), fn([0, 1, 1], 2), fn([0, 1, 1], 2))
    assert match_cells(d, e, FinFunction.identity(FinSet(2))) is None


# -- composition moves each cell once -------------------------------------------


def composed_by_the_two_move_formula(m, n):
    """hcompose as defined: the laxator's disjoint union, moved along the quotient."""
    po = pushout(m.leg_right, n.leg_left)
    theory = decoration_theory(m.kind)
    return DecoratedCospan(
        m.foot_left,
        n.foot_right,
        compose(po.left, m.leg_left),
        compose(po.right, n.leg_right),
        theory.reindex(po.quotient, theory.laxator(m.decoration, n.decoration)),
    )


@pytest.mark.parametrize("kind", ["graph", "lgraph", "petri", "petri_rates"])
def test_hcompose_equals_the_two_move_formula_on_seeded_chains(kind):
    for seed in range(12):
        chain = random_composable(Random(f"{kind}-{seed}"), kind, 5)
        decorated = structured = chain[0]
        for n in chain[1:]:
            expected = composed_by_the_two_move_formula(decorated, n)
            decorated = hcompose(decorated, n)
            assert decorated == expected
            structured = hcompose(to_structured(structured), to_structured(n))
            assert structured == to_structured(expected)
            structured = to_decorated(structured)


@pytest.mark.parametrize("kind", ["graph", "lgraph", "petri", "petri_rates"])
def test_hcompose_and_tensor_are_associative_on_the_nose(kind):
    # the CLI folds chains pairwise and relies on ==, not on an isomorphism
    for seed in range(40):
        rng = Random(f"assoc-{kind}-{seed}")
        composable = random_composable(rng, kind, 3)
        loose = [random_composable(rng, kind, 1)[0] for _ in range(3)]
        for present in (lambda c: c, to_structured):
            m, n, p = map(present, composable)
            assert hcompose(hcompose(m, n), p) == hcompose(m, hcompose(n, p))
            m, n, p = map(present, loose)
            assert tensor(tensor(m, n), p) == tensor(m, tensor(n, p))


def test_hcompose_of_rated_nets_pushes_each_end_forward_once(monkeypatch):
    calls = []
    pushforward = Multiset.pushforward

    def counted(ms, f):
        calls.append(f)
        return pushforward(ms, f)

    monkeypatch.setattr(Multiset, "pushforward", counted)
    left, right = sir_halves()
    composite = hcompose(left, right)
    cells = composite.decoration.cells.size
    assert cells == 2
    # one pushforward per consumed and per produced multiset of the composite
    assert len(calls) == 2 * cells


def count_calls(monkeypatch, name, function):
    """The arguments of each call of a package function while the test runs,
    under every module name it is imported by."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("opencospan") and getattr(module, name, None) is function:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_a_structured_composite_is_one_pushout_of_finite_sets(monkeypatch):
    halves = sir_halves()
    left, right = map(to_structured, halves)
    pushouts = count_calls(monkeypatch, "pushout", pushout)
    validations = count_calls(monkeypatch, "validate_morphism", validate_morphism)
    composite = hcompose(left, right)
    # the feet are discrete, so there are no cells to push out or to check
    assert (len(pushouts), len(validations)) == (1, 0)
    assert composite == to_structured(hcompose(*halves))


def multiset_ends(system):
    """The cells' two ends as multisets, an edge read as a transition that
    consumes its source and produces its target."""
    src, tgt = system.src, system.tgt
    if system.kind in GRAPH_KINDS:
        nodes = interface_of(system)
        src, tgt = ([Multiset.from_dict(nodes, {v: 1}) for v in end] for end in (src, tgt))
    return src, tgt


def full_profiles(system):
    """Per place, the sorted (consumed, produced, key) of every cell."""
    src, tgt = multiset_ends(system)
    keys = [None] * len(src) if system.attrs is None else [(type(a), a) for a in system.attrs]
    return [
        sorted((s.counts[p], t.counts[p], key) for s, t, key in zip(src, tgt, keys))
        for p in interface_of(system)
    ]


def shaped_profiles(system):
    """Per place, its full profile and, if some cell touches it, the sorted
    full profiles of its component's members.  Components are found by
    relabelling: each cell merges the labels of the places it touches."""
    profiles = full_profiles(system)
    places = range(interface_of(system).size)
    label = list(places)
    touched = set()
    for s, t in zip(*multiset_ends(system)):
        at = [p for p in places if s.counts[p] or t.counts[p]]
        touched.update(at)
        merged = {label[p] for p in at}
        label = [min(merged) if c in merged else c for c in label]
    return [
        (profiles[p], sorted(profiles[q] for q in places if label[q] == label[p]))
        if p in touched
        else (profiles[p], None)
        for p in places
    ]


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_petri_pruning_agrees_with_full_per_place_profiles(kind):
    rng = Random(kind)
    for _ in range(200):
        nodes = FinSet(rng.randint(0, 4))
        d = random_system(rng, kind, nodes, max_cells=3)
        if rng.random() < 0.5:
            e = random_system(rng, kind, nodes, max_cells=3)
        else:  # the same keys, so profiles decide
            e = relabel(FinFunction(nodes, nodes, tuple(rng.sample(range(nodes.size), nodes.size))), d)
        rules = _search_rules(d, e)
        full_d, full_e = shaped_profiles(d), shaped_profiles(e)
        unassigned, unused = [None] * nodes.size, [False] * nodes.size
        for x in nodes:
            for y in nodes:
                # keys that differ leave no two full profiles equal
                allowed = rules is not None and rules[0](x, y, unassigned, unused)
                assert allowed == (full_d[x] == full_e[y])


def test_squares_reuse_the_pushouts_their_composites_were_glued_along(monkeypatch):
    m = open_edge()
    ident = TwoMorphism.identity(m)
    f = fn([0, 1, 1], 2)
    want = {
        # one pushout per composite: the source's and the target's
        "hcompose_cells": (lambda: hcompose_cells(ident, ident), 2),
        "left_unitor": (lambda: left_unitor(m), 1),
        "right_unitor": (lambda: right_unitor(m), 1),
        # the pasted squares and the two unitors
        "check_companion": (lambda: check_companion(f, "graph"), 4),
    }
    for name, (call, count) in want.items():
        pushouts = count_calls(monkeypatch, "pushout", pushout)
        result = call()
        assert (name, len(pushouts)) == (name, count)
        monkeypatch.undo()
        if name == "check_companion":
            assert result == (True, "")
        else:
            assert result.violations() == []
