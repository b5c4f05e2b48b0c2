"""Systems over finite sets: morphism validation, coproducts, pushouts,
relabeling, and the per-kind decoration theories."""

from random import Random

import pytest

from opencospan import (
    EMPTY,
    FinFunction,
    FinSet,
    Graph,
    KindError,
    LabeledGraph,
    ModelFile,
    MorphismShapeError,
    Multiset,
    PetriNet,
    PetriNetWithRates,
    SpanError,
    SystemMorphism,
    UnsupportedGluing,
    cells_of,
    coproduct_map,
    decoration_theory,
    discrete,
    interface_of,
    is_discrete,
    mass_action,
    match_cells,
    pushforward_field,
    relabel,
    save_model,
    system_coproduct,
    system_pushout,
    validate_morphism,
)
from opencospan import systems
from opencospan.cli import main
from opencospan.laws import random_composable, random_function, random_system, water_net


def fn(table, cod):
    return FinFunction(FinSet(len(table)), FinSet(cod), tuple(table))


def loop_graph(n_nodes, loops_at):
    nodes = FinSet(n_nodes)
    edges = FinSet(len(loops_at))
    table = fn(list(loops_at), n_nodes)
    return Graph(nodes, edges, table, table)


def two_to_one_rated(rate_a, rate_b, rate_out):
    """Two transitions with identical shape mapped onto one; the single free
    knob is whether rate_out matches rate_a + rate_b."""
    places = FinSet(1)
    ms = Multiset(places, (1,))
    dom = PetriNetWithRates(
        PetriNet(places, FinSet(2), (ms, ms), (ms, ms)), (rate_a, rate_b)
    )
    cod = PetriNetWithRates(PetriNet(places, FinSet(1), (ms,), (ms,)), (rate_out,))
    return SystemMorphism(dom, cod, FinFunction.identity(places), fn([0, 0], 1))


# -- multisets -----------------------------------------------------------------


def test_multiset_from_dict_and_total():
    over = FinSet(3)
    ms = Multiset.from_dict(over, {0: 2, 2: 1})
    assert ms.counts == (2, 0, 1) and ms.total() == 3
    with pytest.raises(ValueError):
        Multiset.from_dict(over, {3: 1})
    with pytest.raises(ValueError):
        Multiset(over, (1, -1, 0))
    # a bool is no place, as it is no table entry
    assert True not in over and 1 in over
    with pytest.raises(ValueError, match="place True must be an int in 0..2"):
        Multiset.from_dict(over, {True: 1})
    with pytest.raises(ValueError, match="place True is outside the set of size 3"):
        Multiset.from_dict(over, {True: 0})
    with pytest.raises(ValueError, match="places must be ints"):
        Multiset.from_dict(over, {"a": 1, 0: 1})


def test_multiset_pushforward_sums_merged_places():
    ms = Multiset(FinSet(3), (2, 3, 5))
    assert ms.pushforward(fn([0, 0, 1], 2)).counts == (5, 5)


# -- construction sanity --------------------------------------------------------


def test_a_net_compares_place_sets_by_value_not_identity():
    places = FinSet(2)
    # multisets over an equal but distinct place set are accepted
    ms = Multiset(FinSet(2), (1, 0))
    assert ms.over is not places
    assert PetriNet(places, FinSet(1), (ms,), (ms,)) == PetriNet(
        places, FinSet(1), (Multiset(places, (1, 0)),), (Multiset(places, (1, 0)),)
    )
    wide = Multiset(FinSet(3), (1, 0, 0))
    for src, tgt, message in (
        ((wide,), (ms,), "src[0] is a multiset over the wrong place set"),
        ((ms,), (wide,), "tgt[0] is a multiset over the wrong place set"),
    ):
        with pytest.raises(ValueError) as caught:
            PetriNet(places, FinSet(1), src, tgt)
        assert str(caught.value) == message


def test_cli_compose_checks_every_moved_multiset_once(tmp_path, monkeypatch):
    chain = random_composable(Random("moved pairs"), "petri_rates", 4, max_cells=4)
    cells = sum(c.decoration.cells.size for c in chain)
    paths = []
    for i, cospan in enumerate(chain):
        paths.append(str(tmp_path / f"net{i}.json"))
        save_model(paths[-1], ModelFile("petri_rates", cospan))
    checked, moves = [], []
    check_pairs, pushforward = systems._check_pairs, Multiset.pushforward

    def checking(pairs, *args):
        checked.append(pairs)
        return check_pairs(pairs, *args)

    def moving(ms, f):
        start = len(checked)
        moved = pushforward(ms, f)
        moves.append((checked[start:], moved.pairs))
        return moved

    monkeypatch.setattr(systems, "_check_pairs", checking)
    monkeypatch.setattr(Multiset, "pushforward", moving)
    assert main(["compose", *paths, "--out", str(tmp_path / "out.json")]) == 0
    # both ends of every cell are moved once on each of the fold's two levels
    assert cells == 11 and len(moves) == 2 * 2 * cells
    # each move checks exactly the pairs it stores, once
    assert all(len(during) == 1 and during[0] is stored for during, stored in moves)


def test_discrete_systems_have_no_cells():
    for kind in ("graph", "lgraph", "petri", "petri_rates"):
        d = discrete(kind, FinSet(3))
        assert is_discrete(d)
        assert interface_of(d) == FinSet(3)
        assert cells_of(d) == EMPTY


def test_rates_must_be_nonnegative_and_match_transitions():
    net = water_net()
    with pytest.raises(ValueError):
        PetriNetWithRates(net, (-0.1,))
    with pytest.raises(ValueError):
        PetriNetWithRates(net, (0.5, 0.5))


def test_morphism_kinds_must_match():
    g = loop_graph(1, [0])
    p = discrete("petri", FinSet(1))
    with pytest.raises(KindError):
        SystemMorphism(g, p, fn([0], 1), FinFunction.from_empty(EMPTY))


# -- validate_morphism -----------------------------------------------------------


def test_identity_is_valid_for_every_kind():
    rng = Random(5)
    for kind in ("graph", "lgraph", "petri", "petri_rates"):
        system = random_system(rng, kind, FinSet(3))
        assert validate_morphism(SystemMorphism.identity(system)) == []


def test_graph_square_violation_names_the_edge():
    # edge 0 runs 0 -> 1; mapping both nodes to 0 but the edge to a loop at 1
    dom = Graph(FinSet(2), FinSet(1), fn([0], 2), fn([1], 2))
    cod = loop_graph(2, [1])
    bad = SystemMorphism(dom, cod, fn([0, 0], 2), fn([0], 1))
    msgs = validate_morphism(bad)
    assert msgs and all("edge 0" in m for m in msgs)


def test_labels_must_be_preserved_exactly():
    inner = loop_graph(1, [0])
    dom = LabeledGraph(inner, ("a",))
    cod = LabeledGraph(inner, ("b",))
    m = SystemMorphism(dom, cod, fn([0], 1), fn([0], 1))
    assert any("label" in v for v in validate_morphism(m))


def _graph(n, src, tgt):
    return Graph(FinSet(n), FinSet(len(src)), fn(src, n), fn(tgt, n))


def _net(n, src, tgt):
    over = FinSet(n)
    return PetriNet(
        over,
        FinSet(len(src)),
        tuple(Multiset.from_dict(over, d) for d in src),
        tuple(Multiset.from_dict(over, d) for d in tgt),
    )


def _failing_morphisms():
    """One morphism per kind that fails at several cells on both sides."""
    d = _graph(3, [0, 1, 2, 0], [1, 2, 0, 0])
    c = _graph(2, [0, 1, 1], [1, 0, 0])
    f, g = fn([0, 1, 1], 2), fn([2, 0, 1, 0], 3)
    dn = _net(3, [{0: 1}, {1: 2}, {0: 1, 2: 1}, {2: 1}], [{1: 1}, {2: 1}, {0: 2}, {1: 1}])
    cn = _net(2, [{1: 1}, {1: 2}, {0: 1}], [{1: 1}, {0: 1}, {}])
    fp, gp = fn([0, 1, 1], 2), fn([0, 1, 1, 0], 3)
    return {
        "graph": SystemMorphism(d, c, f, g),
        "lgraph": SystemMorphism(
            LabeledGraph(d, ("a", 2, True, 1.0)), LabeledGraph(c, (1, "a", 2)), f, g
        ),
        "petri": SystemMorphism(dn, cn, fp, gp),
        "petri_rates": SystemMorphism(
            PetriNetWithRates(dn, (0.5, 0.25, 0.125, 0.25)),
            PetriNetWithRates(cn, (0.75, 0.5, 0.5)),
            fp,
            gp,
        ),
    }


_GRAPH_VIOLATIONS = [
    "source square fails at edge 0: 0 != 1",
    "target square fails at edge 0: 1 != 0",
    "source square fails at edge 1: 1 != 0",
    "target square fails at edge 3: 0 != 1",
]
_NET_VIOLATIONS = [
    "consumed multiset not preserved at transition 0",
    "produced multiset not preserved at transition 1",
    "consumed multiset not preserved at transition 2",
    "produced multiset not preserved at transition 2",
]
# recorded before the four kinds shared one code path: per cell, source side
# first, then target side; attribute checks after all cells
PINNED_VIOLATIONS = {
    "graph": _GRAPH_VIOLATIONS,
    "lgraph": _GRAPH_VIOLATIONS
    + [
        "label not preserved at edge 0: 'a' != 2",
        "label not preserved at edge 1: 2 != 1",
        "label not preserved at edge 2: True != 'a'",
        "label not preserved at edge 3: 1.0 != 1",
    ],
    "petri": _NET_VIOLATIONS,
    "petri_rates": _NET_VIOLATIONS
    + [
        "rate sum mismatch at transition 1: expected 0.375, found 0.5",
        "rate sum mismatch at transition 2: expected 0, found 0.5",
    ],
}


@pytest.mark.parametrize("kind", sorted(PINNED_VIOLATIONS))
def test_violation_lists_are_pinned(kind):
    m = _failing_morphisms()[kind]
    assert validate_morphism(m) == PINNED_VIOLATIONS[kind]
    assert validate_morphism(m, check_rates=False) == PINNED_VIOLATIONS[kind][:4] + (
        PINNED_VIOLATIONS[kind][4:] if kind == "lgraph" else []
    )


@pytest.mark.parametrize("a, b", [(1, True), (1, 1.0), (0, False)])
def test_labels_compare_by_type_and_value(a, b):
    inner = loop_graph(1, [0])

    def morphism(x, y):
        dom, cod = LabeledGraph(inner, (x,)), LabeledGraph(inner, (y,))
        return SystemMorphism(dom, cod, fn([0], 1), fn([0], 1))

    assert any("label" in v for v in validate_morphism(morphism(a, b)))
    assert validate_morphism(morphism(a, a)) == []


def test_petri_multisets_transported_along_merged_places():
    places = FinSet(2)
    dom = PetriNet(
        places, FinSet(1), (Multiset(places, (1, 1)),), (Multiset(places, (0, 2)),)
    )
    one = FinSet(1)
    cod = PetriNet(one, FinSet(1), (Multiset(one, (2,)),), (Multiset(one, (2,)),))
    m = SystemMorphism(dom, cod, fn([0, 0], 1), fn([0], 1))
    assert validate_morphism(m) == []
    wrong = PetriNet(one, FinSet(1), (Multiset(one, (1,)),), (Multiset(one, (2,)),))
    assert validate_morphism(SystemMorphism(dom, wrong, fn([0, 0], 1), fn([0], 1)))


def test_merged_rates_must_sum_exactly():
    assert validate_morphism(two_to_one_rated(1.0, 2.0, 3.0)) == []
    msgs = validate_morphism(two_to_one_rated(1.0, 2.0, 2.5))
    assert msgs and "transition 0" in msgs[0] and "rate" in msgs[0]


def test_unmapped_target_transition_needs_rate_zero():
    places = FinSet(1)
    ms = Multiset(places, (1,))
    dom = discrete("petri_rates", places)
    cod = PetriNetWithRates(PetriNet(places, FinSet(1), (ms,), (ms,)), (0.7,))
    inclusion = SystemMorphism(
        dom, cod, FinFunction.identity(places), FinFunction.from_empty(FinSet(1))
    )
    assert validate_morphism(inclusion) != []
    assert validate_morphism(inclusion, check_rates=False) == []
    free = PetriNetWithRates(PetriNet(places, FinSet(1), (ms,), (ms,)), (0.0,))
    assert validate_morphism(
        SystemMorphism(dom, free, FinFunction.identity(places), FinFunction.from_empty(FinSet(1)))
    ) == []


def test_check_rates_false_still_checks_multisets():
    places = FinSet(1)
    ms = Multiset(places, (1,))
    other = Multiset(places, (2,))
    dom = PetriNetWithRates(PetriNet(places, FinSet(1), (ms,), (ms,)), (1.0,))
    cod = PetriNetWithRates(PetriNet(places, FinSet(1), (other,), (ms,)), (1.0,))
    m = SystemMorphism(dom, cod, FinFunction.identity(places), fn([0], 1))
    assert validate_morphism(m, check_rates=False) != []


def test_total_rate_is_conserved_by_valid_surjective_morphisms():
    m = two_to_one_rated(1.25, 0.5, 1.75)
    assert validate_morphism(m) == []
    assert set(m.edge_map.table) == set(range(cells_of(m.cod).size))
    assert sum(m.dom.attrs) == sum(m.cod.attrs)


# -- coproducts ------------------------------------------------------------------


def test_graph_coproduct_offsets_the_right_block():
    g = Graph(FinSet(2), FinSet(1), fn([0], 2), fn([1], 2))
    h = loop_graph(1, [0])
    total, inl, inr = system_coproduct(g, h)
    assert interface_of(total) == FinSet(3)
    assert cells_of(total) == FinSet(2)
    assert total.src == (0, 2) and total.tgt == (1, 2)
    assert validate_morphism(inl) == [] and validate_morphism(inr) == []


def test_labeled_coproduct_concatenates_labels():
    a = LabeledGraph(loop_graph(1, [0]), ("x",))
    b = LabeledGraph(loop_graph(1, [0]), ("y",))
    total, _, _ = system_coproduct(a, b)
    assert total.attrs == ("x", "y")


def test_rated_coproduct_concatenates_rates():
    total, inl, inr = system_coproduct(water_net(), water_net())
    assert total.attrs == (1.0, 1.0)
    # each injection ignores the other summand's rates, so only the
    # underlying-net conditions can hold for it
    assert validate_morphism(inl, check_rates=False) == []
    assert validate_morphism(inr, check_rates=False) == []
    assert validate_morphism(inl) != []


def test_coproduct_rejects_mixed_kinds():
    with pytest.raises(KindError):
        system_coproduct(loop_graph(1, [0]), discrete("petri", FinSet(1)))


# -- pushouts --------------------------------------------------------------------


def chain_graph():
    # the 4-node running example: two paths from node 0 to node 3
    nodes, edges = FinSet(4), FinSet(5)
    return Graph(
        nodes, edges, fn([0, 0, 1, 2, 1], 4), fn([1, 2, 3, 3, 2], 4)
    )


def test_gluing_a_graph_to_itself_end_to_start():
    g = chain_graph()
    point = discrete("graph", FinSet(1))
    f = SystemMorphism(point, g, fn([3], 4), FinFunction.from_empty(FinSet(5)))
    h = SystemMorphism(point, g, fn([0], 4), FinFunction.from_empty(FinSet(5)))
    glued, inj_l, inj_r = system_pushout(f, h)
    assert interface_of(glued) == FinSet(7)
    assert cells_of(glued) == FinSet(10)
    assert validate_morphism(inj_l) == [] and validate_morphism(inj_r) == []
    # the shared node is the image of 3 on the left and 0 on the right
    assert inj_l.node_map.table[3] == inj_r.node_map.table[0]


def test_pushout_along_empty_span_is_the_coproduct():
    g, h = loop_graph(2, [0]), loop_graph(1, [0])
    empty = discrete("graph", EMPTY)
    f = SystemMorphism(empty, g, FinFunction.from_empty(FinSet(2)), FinFunction.from_empty(FinSet(1)))
    k = SystemMorphism(empty, h, FinFunction.from_empty(FinSet(1)), FinFunction.from_empty(FinSet(1)))
    glued, _, _ = system_pushout(f, k)
    assert glued == system_coproduct(g, h)[0]


def test_petri_pushout_merges_shared_places():
    places = FinSet(2)
    burn = PetriNet(
        places, FinSet(1), (Multiset(places, (1, 0)),), (Multiset(places, (0, 1)),)
    )
    shared = discrete("petri", FinSet(1))
    f = SystemMorphism(shared, burn, fn([1], 2), FinFunction.from_empty(FinSet(1)))
    g = SystemMorphism(shared, burn, fn([0], 2), FinFunction.from_empty(FinSet(1)))
    glued, inj_l, inj_r = system_pushout(f, g)
    assert interface_of(glued) == FinSet(3)
    assert cells_of(glued) == FinSet(2)
    assert glued.src[0].counts == (1, 0, 0) and glued.tgt[0].counts == (0, 1, 0)
    assert glued.src[1].counts == (0, 1, 0) and glued.tgt[1].counts == (0, 0, 1)


def test_rated_pushout_keeps_rates_and_validates_structurally():
    net = water_net()
    shared = discrete("petri_rates", FinSet(1))
    f = SystemMorphism(shared, net, fn([2], 3), FinFunction.from_empty(FinSet(1)))
    g = SystemMorphism(shared, net, fn([0], 3), FinFunction.from_empty(FinSet(1)))
    glued, inj_l, inj_r = system_pushout(f, g)
    assert glued.attrs == (1.0, 1.0)
    assert validate_morphism(inj_l, check_rates=False) == []
    assert validate_morphism(inj_r, check_rates=False) == []


def test_rated_pushout_refuses_transition_bearing_spans():
    net = water_net()
    m = SystemMorphism.identity(net)
    with pytest.raises(UnsupportedGluing):
        system_pushout(m, m)


def test_pushout_rejects_invalid_legs_and_broken_spans():
    g = loop_graph(2, [0])
    loop = loop_graph(1, [0])
    ok = SystemMorphism(loop, g, fn([0], 2), fn([0], 1))
    # same span domain, but the node image breaks the source square
    bad = SystemMorphism(loop, g, fn([1], 2), fn([0], 1))
    with pytest.raises(MorphismShapeError):
        system_pushout(bad, ok)
    point = discrete("graph", FinSet(1))
    other = SystemMorphism(point, g, fn([0], 2), FinFunction.from_empty(FinSet(1)))
    with pytest.raises(SpanError):
        system_pushout(ok, other)


# -- relabeling and decoration theories --------------------------------------------


def test_relabel_identity_is_identity():
    rng = Random(9)
    for kind in ("graph", "lgraph", "petri", "petri_rates"):
        d = random_system(rng, kind, FinSet(4))
        assert relabel(FinFunction.identity(FinSet(4)), d) == d


def test_relabel_is_strictly_functorial():
    rng = Random(10)
    for kind in ("graph", "lgraph", "petri", "petri_rates"):
        for _ in range(25):
            d = random_system(rng, kind, FinSet(4))
            f = random_function(rng, FinSet(4), FinSet(3))
            g = random_function(rng, FinSet(3), FinSet(5))
            gf = FinFunction(FinSet(4), FinSet(5), tuple(g.table[y] for y in f.table))
            assert relabel(gf, d) == relabel(g, relabel(f, d))


def test_theory_trivial_and_unit():
    theory = decoration_theory("petri")
    assert theory.trivial(FinSet(2)) == discrete("petri", FinSet(2))
    assert theory.unit() == discrete("petri", EMPTY)
    with pytest.raises(KindError):
        decoration_theory("matrix")


def test_the_field_theory_reindexes_by_pushforward_and_each_theory_refuses_the_other_kind():
    rng = Random(12)
    fields, graphs = decoration_theory("dynam"), decoration_theory("graph")
    for _ in range(25):
        v = mass_action(random_system(rng, "petri_rates", FinSet(4)))
        f = random_function(rng, FinSet(4), FinSet(3))
        assert fields.reindex(f, v) == pushforward_field(f, v)
    g = random_system(rng, "graph", FinSet(4))
    with pytest.raises(KindError) as refusal:
        fields.reindex(f, g)
    assert str(refusal.value) == "decoration of kind 'graph' in a 'dynam' theory"
    with pytest.raises(KindError) as refusal:
        graphs.reindex(f, v)
    assert str(refusal.value) == "decoration of kind 'dynam' in a 'graph' theory"


def test_laxator_concatenates_then_reindexing_commutes_up_to_fiber_iso():
    """The pseudo-naturality contract: both routes around the square land on
    isomorphic decorations (here they even agree, but only the iso is owed)."""
    rng = Random(11)
    theory = decoration_theory("graph")
    for _ in range(25):
        d = random_system(rng, "graph", FinSet(3), max_cells=3)
        e = random_system(rng, "graph", FinSet(2), max_cells=3)
        f = random_function(rng, FinSet(3), FinSet(2))
        g = random_function(rng, FinSet(2), FinSet(3))
        lhs = theory.laxator(theory.reindex(f, d), theory.reindex(g, e))
        rhs = theory.reindex(coproduct_map(f, g), theory.laxator(d, e))
        k = match_cells(lhs, rhs, FinFunction.identity(FinSet(5)))
        assert k is not None and k.is_bijection()
        assert theory.fiber_violations(lhs, rhs, k) == []


def test_swapping_laxator_blocks_is_not_equality_but_is_iso():
    # one loop on each side: the swapped composite lists the edges in the
    # other order, so the two routes differ on the nose yet are isomorphic
    theory = decoration_theory("graph")
    d = loop_graph(1, [0])
    e = loop_graph(1, [0])
    both = theory.laxator(d, e)
    swap = FinFunction(FinSet(2), FinSet(2), (1, 0))
    transported = theory.reindex(swap, both)
    other_order = theory.laxator(e, d)
    assert transported.src == (1, 0) != other_order.src
    k = match_cells(transported, other_order, FinFunction.identity(FinSet(2)))
    assert k is not None
    assert theory.fiber_violations(transported, other_order, k) == []


def test_fiber_violations_requires_shared_interface():
    theory = decoration_theory("graph")
    with pytest.raises(MorphismShapeError):
        theory.fiber_violations(
            loop_graph(1, [0]), loop_graph(2, [0]), fn([0], 1)
        )


def test_fiber_violations_reports_rate_mismatch():
    theory = decoration_theory("petri_rates")
    places = FinSet(1)
    ms = Multiset(places, (1,))
    a = PetriNetWithRates(PetriNet(places, FinSet(1), (ms,), (ms,)), (1.0,))
    b = PetriNetWithRates(PetriNet(places, FinSet(1), (ms,), (ms,)), (2.0,))
    assert theory.fiber_violations(a, b, fn([0], 1)) != []
    assert theory.fiber_violations(a, a, fn([0], 1)) == []
