"""Cospan composition, tensoring, squares, companions, and iso search."""

import math
import sys
from collections import Counter
from itertools import permutations
from random import Random

import pytest

from opencospan import (
    EMPTY,
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
from opencospan.cospans import _present, _search_rules
from opencospan.finset import ISO_BUDGET_ENV, compose, find_iso, pushout
from opencospan.systems import (
    COEFF_DROP,
    _CLOSE_REL,
    decoration_theory,
    interface_of,
    poly_close,
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
    free = DecoratedCospan(EMPTY, EMPTY, fn([], 3), fn([], 3), discrete("graph", FinSet(3)))
    with pytest.raises(BudgetExceeded):
        cospan_iso(free, free, budget=1)
    assert cospan_iso(free, free, budget=100) is not None


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


def test_cospan_iso_agrees_with_a_brute_force_oracle():
    rng = Random(20261018)
    cases, isos = 1500, 0
    for i in range(cases):
        kind = ("graph", "lgraph", "petri", "petri_rates")[i % 4]
        size = rng.randint(0, 5)
        left, right = (rng.randint(0, 2), rng.randint(0, 2)) if size else (0, 0)
        m = random_data(rng, kind, size, left, right)
        n = permuted_data(rng, m) if i % 2 else random_data(rng, kind, size, left, right)
        a, b = build(kind, m), build(kind, n)
        if (i // 4) % 4 == 0:
            a, b = to_structured(a), to_structured(b)
        expected = oracle_node_maps(m, n)
        witness = cospan_iso(a, b)
        assert (witness is not None) == bool(expected), (i, m, n)
        if witness is None:
            continue
        isos += 1
        assert witness.node_map.table == expected[0], (i, m, n)
        square = TwoMorphism(
            a,
            b,
            FinFunction.identity(a.foot_left),
            FinFunction.identity(a.foot_right),
            witness.node_map,
            witness.cell_map,
        )
        assert square.violations() == [], (i, m, n)
    # every permuted copy is isomorphic, and some independent draws are too
    assert cases // 2 < isos < cases


# Plain data for an open dynamical system: (apex size, left leg table, right
# leg table, components), a component being a list of (coefficient,
# exponents) with distinct exponents.  The oracle reads only this form.


def build_field(data):
    size, left, right, comps = data
    field = PolyVectorField(FinSet(size), tuple(Poly.from_terms(size, c) for c in comps))
    return DecoratedCospan(FinSet(len(left)), FinSet(len(right)), fn(left, size), fn(right, size), field)


def random_field_data(rng, size, left, right):
    """Half the time a gray-boxed random rated net, else random terms."""
    if rng.random() < 0.5:
        net = build("petri_rates", random_data(rng, "petri_rates", size, left, right))
        cospan = graybox(net)
        comps = [list(poly.terms) for poly in cospan.decoration.components]
        return size, cospan.leg_left.table, cospan.leg_right.table, comps
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
        witness = cospan_iso(build_field(m), build_field(n))
        assert (witness is not None) == bool(expected), (i, m, n)
        if witness is not None:
            isos += 1
            assert witness.node_map.table == expected[0], (i, m, n)
    # every permuted copy is isomorphic, and some independent draws are too
    assert cases // 2 < isos < cases


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


@pytest.mark.parametrize(
    "kind, other, least_budget, node_map",
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
def test_cospan_iso_node_budget_is_pinned(kind, other, least_budget, node_map):
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
        # by their colours alone: no node has the path's first node's degrees
        (open_graph(PATH), open_graph(cycle_arcs(range(5))), 6, None),
        (open_graph(PATH), open_graph([(t, s) for s, t in PATH]), 21, (5, 4, 3, 2, 1, 0)),
        (unit_terms((0, {1: 1, 2: 1})), unit_terms((5, {3: 1, 4: 1})), 17, (5, 3, 4, 0, 1, 2)),
        # no place of the second field is read squared by its own component
        (unit_terms((0, {0: 2}), (1, {1: 1})), unit_terms((4, {4: 1}), (5, {5: 1})), 6, None),
    ],
    ids=["path-cycle", "path-reversed", "term-pair", "square"],
)
def test_one_colouring_prunes_paths_and_terms(m, n, least_budget, node_map):
    # least budgets with the per-shape rules: 81, 76, 42 and 1956
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


@pytest.mark.parametrize("kind", [*CELL_KINDS, "dynam"])
def test_pruning_returns_the_unpruned_witness_on_seven_rings(kind):
    ring = cycle_arcs(range(7))
    sigma = [4, 0, 6, 2, 5, 1, 3]
    relabelled = [(sigma[s], sigma[t]) for s, t in ring]
    m = open_ring(kind, ring, 7)
    for arcs, iso in ((relabelled, True), (cycle_arcs(range(3), range(3, 7)), False)):
        n = open_ring(kind, arcs, 7)
        compatible, leaf = _search_rules(m.decoration, n.decoration)
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


def full_profiles(system):
    """Per place, the sorted (consumed, produced, key) of every cell, an edge
    read as a transition that consumes its source and produces its target."""
    src, tgt = system.src, system.tgt
    if system.kind in GRAPH_KINDS:
        nodes = interface_of(system)
        src, tgt = ([Multiset.from_dict(nodes, {v: 1}) for v in end] for end in (src, tgt))
    keys = [None] * len(src) if system.attrs is None else [(type(a), a) for a in system.attrs]
    return [
        sorted((s.counts[p], t.counts[p], key) for s, t, key in zip(src, tgt, keys))
        for p in interface_of(system)
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
        full_d, full_e = full_profiles(d), full_profiles(e)
        for x in nodes:
            for y in nodes:
                # keys that differ leave no two full profiles equal
                allowed = rules is not None and rules[0](x, y, [])
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
