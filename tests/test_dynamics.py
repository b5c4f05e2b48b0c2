"""Polynomial fields, mass-action, gray-boxing, and the integrator."""

import math
import tracemalloc
from random import Random

import pytest

from opencospan import (
    EMPTY,
    BudgetExceeded,
    CoefficientOverflow,
    DecoratedCospan,
    DimensionError,
    DivergenceError,
    FinFunction,
    FinSet,
    FlowSchedule,
    KindError,
    ModelValidationError,
    Multiset,
    OpenCospanError,
    OpenDynam,
    PetriNet,
    PetriNetWithRates,
    PiecewiseConstant,
    Poly,
    PolyVectorField,
    SimulationTooLarge,
    admits_morphism_from_empty,
    compose,
    compose_open_dynam,
    discrete,
    field_close,
    graybox,
    identity_cospan,
    mass_action,
    open_dynam_iso,
    open_rate_rhs,
    poly_add,
    poly_close,
    pushforward_field,
    simulate,
    tensor,
    to_structured,
)
from opencospan import dynamics
from opencospan.finset import ISO_BUDGET_ENV
from opencospan.laws import decay_open_net, sir_open_net, water_net


def fn(table, cod):
    return FinFunction(FinSet(len(table)), FinSet(cod), tuple(table))


def mono(nvars, coeff, exps):
    return Poly(nvars, ((coeff, tuple(exps)),))


# -- polynomials --------------------------------------------------------------------


def test_from_terms_combines_sorts_and_drops():
    p = Poly.from_terms(2, [(1.0, (1, 0)), (2.0, (0, 1)), (3.0, (1, 0)), (1e-15, (2, 0))])
    assert p.terms == ((2.0, (0, 1)), (4.0, (1, 0)))
    assert Poly.from_terms(2, [(1.0, (1, 1)), (-1.0, (1, 1))]) == Poly.zero(2)


def test_canonical_form_is_enforced_at_construction():
    with pytest.raises(ValueError):
        Poly(1, ((1.0, (1,)), (1.0, (0,))))  # unsorted
    with pytest.raises(ValueError):
        Poly(1, ((1.0, (0,)), (2.0, (0,))))  # duplicate exponents
    with pytest.raises(ValueError):
        Poly(1, ((1e-13, (0,)),))  # below the storage threshold
    with pytest.raises(ValueError):
        Poly(1, ((1.0, (-1,)),))
    with pytest.raises(ValueError):
        Poly(2, ((1.0, (1,)),))  # wrong arity


def test_from_terms_is_idempotent():
    rng = Random(3)
    for _ in range(50):
        raw = [
            (rng.uniform(-2, 2), tuple(rng.randrange(3) for _ in range(2)))
            for _ in range(rng.randrange(6))
        ]
        p = Poly.from_terms(2, raw)
        assert Poly.from_terms(2, p.terms) == p


def test_evaluate_multiplies_out():
    p = Poly.from_terms(2, [(2.0, (1, 1)), (-1.0, (0, 2))])
    assert p.evaluate([3.0, 4.0]) == 2.0 * 3.0 * 4.0 - 16.0
    with pytest.raises(DimensionError):
        p.evaluate([1.0])


def test_substitute_merges_exponents():
    p = mono(2, 5.0, (1, 2))
    q = p.substitute_along(fn([0, 0], 1))
    assert q.terms == ((5.0, (3,)),)
    cancel = Poly.from_terms(2, [(1.0, (1, 0)), (-1.0, (0, 1))])
    assert cancel.substitute_along(fn([0, 0], 1)) == Poly.zero(1)


def test_poly_add_and_close():
    a = mono(1, 1.0, (1,))
    b = mono(1, 1e-10, (1,))
    assert poly_add(a, b).terms[0][0] == 1.0 + 1e-10
    assert poly_close(a, poly_add(a, b))
    assert not poly_close(a, poly_add(a, mono(1, 1e-2, (1,))))
    # a term dropped at the storage threshold still compares close
    assert poly_close(Poly.zero(1), Poly.from_terms(1, [(1e-13, (0,))]))
    # but at rel = 1e-9 the tolerance floor is the storage threshold itself,
    # so a stored term never passes unmatched, however near the threshold
    kept, dropped = mono(1, 1.05e-12, (1,)), Poly.from_terms(1, [(0.95e-12, (1,))])
    assert dropped == Poly.zero(1)
    assert not poly_close(kept, dropped) and not poly_close(dropped, kept)
    assert not poly_close(mono(1, 1.0, (1,)), mono(1, 1.0, (2,)))
    # polynomials in different variable counts are never close, zero or not
    assert not poly_close(Poly.zero(1), Poly.zero(2))
    assert not poly_close(mono(1, 1.0, (1,)), mono(2, 1.0, (1, 0)))
    with pytest.raises(DimensionError):
        poly_add(mono(1, 1.0, (1,)), mono(2, 1.0, (1, 0)))


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(
            lambda: Poly(2, [(1.0, (1, 1))]).substitute_along(fn([0], 2)),
            DimensionError,
            "substitution map must cover every variable",
            id="substitution along a short map",
        ),
        pytest.param(poly_add, ValueError, "need at least one polynomial", id="no summands"),
        pytest.param(
            lambda: PolyVectorField(FinSet(2), (Poly.zero(2), Poly.zero(1))),
            ValueError,
            "component 1 uses 1 variables, need 2",
            id="a component in the wrong variable count",
        ),
        pytest.param(
            lambda: pushforward_field(fn([0, 0], 1), PolyVectorField.zero(FinSet(3))),
            DimensionError,
            "field must live over the map's domain",
            id="pushforward along a map from the wrong set",
        ),
    ],
)
def test_the_field_algebra_refuses_misfit_inputs(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_bool_exponents_are_refused():
    # a bool passes isinstance(k, int); stored, it would be written as
    # `true`, which loading refuses
    for exps in ((True,), (False,), (1, True), (False, 1)):
        n = len(exps)
        with pytest.raises(ValueError, match="exponents must be nonnegative ints"):
            Poly(n, ((1.0, exps),))
        with pytest.raises(ValueError, match="exponents must be nonnegative ints"):
            Poly.from_terms(n, [(1.0, exps)])
    with pytest.raises(ValueError):
        Poly._from_sparse(1, ((1.0, ((0, True),)),))


def test_non_finite_coefficients_are_refused_as_an_overflow():
    assert issubclass(CoefficientOverflow, OpenCospanError)
    assert not issubclass(CoefficientOverflow, ValueError)
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(CoefficientOverflow, match="coefficient overflow"):
            Poly(1, ((c, (1,)),))
        with pytest.raises(CoefficientOverflow):
            Poly.from_terms(1, [(c, (1,))])
    big = mono(1, 1e308, (1,))
    with pytest.raises(CoefficientOverflow):
        poly_add(big, big)
    # infinities that cancel sum to NaN, which is refused, not dropped as zero
    with pytest.raises(CoefficientOverflow):
        Poly.from_terms(1, [(math.inf, (1,)), (-math.inf, (1,))])
    # a finite rate whose mass-action term overflows: 1.5e308 * (3 - 1)
    places = FinSet(1)
    net = PetriNetWithRates(
        PetriNet(places, FinSet(1), (Multiset(places, (1,)),), (Multiset(places, (3,)),)),
        (1.5e308,),
    )
    with pytest.raises(CoefficientOverflow, match="inf"):
        mass_action(net)


def unchecked_mono(coeff):
    """A one-term Poly built around the constructor's checks, as a corrupted
    or hand-made object would be."""
    p = object.__new__(Poly)
    object.__setattr__(p, "nvars", 1)
    object.__setattr__(p, "sparse", ((coeff, ((0, 1),)),))
    return p


def test_poly_close_is_false_on_non_finite_coefficients():
    five = mono(1, 5.0, (1,))
    assert poly_close(unchecked_mono(5.0), five)
    for c in (math.nan, math.inf, -math.inf):
        assert not poly_close(unchecked_mono(c), five)
        assert not poly_close(five, unchecked_mono(c))
        assert not poly_close(unchecked_mono(c), unchecked_mono(c))
    # finite coefficients too far apart to subtract are not close either
    assert not poly_close(mono(1, 1e308, (1,)), mono(1, -1e308, (1,)))
    assert poly_close(mono(1, 1e308, (1,)), mono(1, 1e308 * (1 + 1e-12), (1,)))


# -- mass-action ---------------------------------------------------------------------


def test_mass_action_of_the_epidemic_net():
    field = mass_action(sir_open_net().decoration)
    s, i, r = field.components
    assert s.terms == ((-0.3, (1, 1, 0)),)
    assert i.terms == ((-0.1, (0, 1, 0)), (0.3, (1, 1, 0)))
    assert r.terms == ((0.1, (0, 1, 0)),)


def test_mass_action_respects_input_multiplicities():
    field = mass_action(water_net())
    a, b, c = field.components
    assert a.terms == ((-2.0, (2, 1, 0)),)
    assert b.terms == ((-1.0, (2, 1, 0)),)
    assert c.terms == ((1.0, (2, 1, 0)),)


def test_mass_action_of_a_discrete_net_is_zero():
    net = discrete("petri_rates", FinSet(2))
    assert mass_action(net) == PolyVectorField.zero(FinSet(2))


def test_catalytic_transitions_contribute_nothing():
    places = FinSet(1)
    ms = Multiset(places, (1,))
    net = PetriNetWithRates(PetriNet(places, FinSet(1), (ms,), (ms,)), (2.0,))
    assert mass_action(net) == PolyVectorField.zero(places)


def test_grayboxing_a_wide_net_costs_the_size_of_the_net():
    # 80,000 places and 40 transitions: dense exponent vectors made this
    # 80,000 entries per term
    rng = Random(11)
    n, cells = 80_000, 40
    places = FinSet(n)
    src, tgt = [], []
    for _ in range(cells):
        a, b, c = rng.sample(range(n), 3)
        src.append(Multiset.from_dict(places, {a: 1, b: rng.randint(1, 2)}))
        tgt.append(Multiset.from_dict(places, {c: 1}))
    net = PetriNetWithRates(
        PetriNet(places, FinSet(cells), src, tgt), [rng.uniform(0.1, 1.0) for _ in range(cells)]
    )
    none = FinFunction.from_empty(places)
    tracemalloc.start()
    try:
        field = graybox(DecoratedCospan(EMPTY, EMPTY, none, none, net)).field
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every term's monomial is its transition's consumed support, as it is
    expected = {}
    for consumed, produced, rate in zip(src, tgt, net.attrs):
        for p in {p for p, _ in consumed.pairs + produced.pairs}:
            delta = dict(produced.pairs).get(p, 0) - dict(consumed.pairs).get(p, 0)
            expected.setdefault(p, []).append((rate * delta, consumed.pairs))
    stored = {
        p: list(poly.sparse) for p, poly in enumerate(field.components) if poly.sparse
    }
    assert stored.keys() == expected.keys()
    for p, terms in stored.items():
        assert sorted(terms, key=lambda term: term[1]) == sorted(
            expected[p], key=lambda term: term[1]
        )
    # about 1.4 MB at peak, the tuple of components; dense exponent vectors
    # peaked at 38.6 MB here
    assert peak < 4_000_000, peak


# -- pushforward ----------------------------------------------------------------------


def test_pushforward_along_identity_is_identity():
    field = mass_action(water_net())
    assert pushforward_field(FinFunction.identity(FinSet(3)), field) == field


def test_pushforward_merges_components():
    v = PolyVectorField(FinSet(2), (mono(2, 1.0, (0, 1)), mono(2, 1.0, (1, 0))))
    merged = pushforward_field(fn([0, 0], 1), v)
    assert merged.components[0].terms == ((2.0, (1,)),)


def random_int_field(rng, n, max_terms=3):
    comps = []
    for _ in range(n):
        raw = [
            (float(rng.choice((-2, -1, 1, 2))), tuple(rng.randrange(3) for _ in range(n)))
            for _ in range(rng.randrange(max_terms + 1))
        ]
        comps.append(Poly.from_terms(n, raw))
    return PolyVectorField(FinSet(n), tuple(comps))


def test_pushforward_is_functorial_on_the_nose():
    # integer coefficients keep float addition exact, so equality is literal
    rng = Random(21)
    for _ in range(40):
        n = rng.randint(0, 3)
        v = random_int_field(rng, n)
        f = fn([rng.randrange(3) for _ in range(n)], 3)
        g = fn([rng.randrange(2) for _ in range(3)], 2)
        gf = FinFunction(FinSet(n), FinSet(2), tuple(g.table[y] for y in f.table))
        assert pushforward_field(gf, v) == pushforward_field(g, pushforward_field(f, v))


def test_pushforward_agrees_with_numeric_fiber_sums():
    rng = Random(22)
    for _ in range(30):
        n = rng.randint(1, 3)
        v = random_int_field(rng, n)
        f = fn([rng.randrange(2) for _ in range(n)], 2)
        moved = pushforward_field(f, v)
        point = [rng.uniform(-2, 2) for _ in range(2)]
        pulled = [point[f.table[i]] for i in range(n)]
        values = v.evaluate(pulled)
        for j in range(2):
            want = sum(values[i] for i in range(n) if f.table[i] == j)
            assert math.isclose(moved.components[j].evaluate(point), want, rel_tol=1e-9, abs_tol=1e-9)


def test_only_the_zero_field_admits_a_map_from_nothing():
    assert admits_morphism_from_empty(PolyVectorField.zero(FinSet(2)))
    v = PolyVectorField(FinSet(1), (mono(1, 1.0, (1,)),))
    assert not admits_morphism_from_empty(v)


# -- open dynamics ----------------------------------------------------------------------


def one_place_dynam(poly, expose_left=False, expose_right=False):
    place = FinSet(1)
    left = FinSet(1 if expose_left else 0)
    right = FinSet(1 if expose_right else 0)
    return OpenDynam(
        left,
        right,
        FinFunction(left, place, (0,) * left.size),
        FinFunction(right, place, (0,) * right.size),
        PolyVectorField(place, (poly,)),
    )


def test_composing_open_fields_adds_them_over_the_glued_place():
    quad = one_place_dynam(mono(1, 1.0, (2,)), expose_right=True)
    drain = one_place_dynam(mono(1, -1.0, (1,)), expose_left=True)
    joined = compose_open_dynam(quad, drain)
    assert joined.apex == FinSet(1)
    assert joined.field.components[0].terms == ((-1.0, (1,)), (1.0, (2,)))
    assert joined.foot_left == EMPTY and joined.foot_right == EMPTY


def test_open_composition_is_associative_up_to_iso():
    from opencospan.laws import random_composable

    rng = Random(23)
    for _ in range(20):
        m, n, p = (
            graybox(c) for c in random_composable(rng, "petri_rates", 3, max_apex=4)
        )
        lhs = compose_open_dynam(compose_open_dynam(m, n), p)
        rhs = compose_open_dynam(m, compose_open_dynam(n, p))
        assert open_dynam_iso(lhs, rhs) is not None


def test_graybox_keeps_the_boundary_and_takes_mass_action():
    net = sir_open_net()
    system = graybox(net)
    assert system.leg_left == net.leg_left and system.leg_right == net.leg_right
    assert system.field == mass_action(net.decoration)
    assert graybox(to_structured(net)).field == system.field
    for not_a_rated_open_net in (identity_cospan("graph", FinSet(1)), net.decoration):
        with pytest.raises(KindError, match="gray-boxing applies to open Petri nets with rates"):
            graybox(not_a_rated_open_net)


def test_open_dynam_iso_finds_the_relabeling():
    system = graybox(sir_open_net())
    sigma = fn([1, 2, 0], 3)
    moved = OpenDynam(
        system.foot_left,
        system.foot_right,
        compose(sigma, system.leg_left),
        compose(sigma, system.leg_right),
        pushforward_field(sigma, system.field),
    )
    assert open_dynam_iso(system, moved) == sigma
    assert open_dynam_iso(system, graybox(decay_open_net())) is None


def test_open_dynam_iso_reports_a_malformed_budget_before_any_check(monkeypatch):
    system = graybox(sir_open_net())
    other_feet = graybox(decay_open_net())  # feet differ
    other_apex = OpenDynam(  # same feet, one place more
        system.foot_left,
        system.foot_right,
        FinFunction(system.foot_left, FinSet(4), system.leg_left.table),
        FinFunction(system.foot_right, FinSet(4), system.leg_right.table),
        PolyVectorField.zero(FinSet(4)),
    )
    for other in (other_feet, other_apex):
        assert open_dynam_iso(system, other) is None
    monkeypatch.setenv(ISO_BUDGET_ENV, "abc")
    for other in (other_feet, other_apex):
        with pytest.raises(ModelValidationError):
            open_dynam_iso(system, other)


def rated_ring(n, cycles, rate=0.5):
    """Gray-boxed arcs p -> next p around each cycle, equal rates, empty feet."""
    places = FinSet(n)
    arcs = [(c[j], c[(j + 1) % len(c)]) for c in cycles for j in range(len(c))]
    one = [Multiset.from_dict(places, {p: 1}) for p in places]
    net = PetriNetWithRates(
        PetriNet(places, FinSet(len(arcs)), [one[s] for s, _ in arcs], [one[t] for _, t in arcs]),
        (rate,) * len(arcs),
    )
    none = FinFunction.from_empty(places)
    return graybox(DecoratedCospan(EMPTY, EMPTY, none, none, net))


def test_the_dynam_iso_search_spends_the_pinned_nodes(monkeypatch):
    # term co-occurrence prunes as adjacency does for graphs, and the
    # component shapes tell the ring from two triangles at the first place:
    # 6 nodes exhaust that search (60 with adjacency alone, 1956 without
    # pruning), and 9 reach the relabelling (103 without pruning).  Each
    # budget is pinned beside the one before component shapes: it may only drop
    ring = rated_ring(6, [list(range(6))])
    cases = (
        (rated_ring(6, [[0, 1, 2], [3, 4, 5]]), 6, 60, None),
        (rated_ring(6, [[0, 2, 4, 1, 3, 5]]), 9, 9, (0, 2, 4, 1, 3, 5)),
    )
    for other, budget, old_budget, witness in cases:
        assert budget <= old_budget
        monkeypatch.setenv(ISO_BUDGET_ENV, str(budget))
        found = open_dynam_iso(ring, other)
        assert (found if found is None else found.table) == witness
        monkeypatch.setenv(ISO_BUDGET_ENV, str(budget - 1))
        with pytest.raises(BudgetExceeded):
            open_dynam_iso(ring, other)


def test_graybox_preserves_tensor_on_the_nose():
    from opencospan.laws import random_cospan

    rng = Random(41)
    for _ in range(100):
        m, n = (random_cospan(rng, "petri_rates", max_apex=4) for _ in range(2))
        assert graybox(tensor(m, n)) == tensor(graybox(m), graybox(n))


def test_dynam_tensor_is_associative_on_the_nose():
    # no two terms meet in a tensor, so no float is added: the pairwise fold
    # of `opencospan tensor` is valid for fields
    from opencospan.laws import random_cospan

    rng = Random(43)
    for _ in range(50):
        a, b, c = (graybox(random_cospan(rng, "petri_rates", max_apex=4)) for _ in range(3))
        assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))


# -- boundary flows and integration --------------------------------------------------------


def test_piecewise_constant_is_right_continuous():
    f = PiecewiseConstant((1.0, 2.0), (0.0, 5.0, 7.0))
    assert f(0.99) == 0.0
    assert f(1.0) == 5.0
    assert f(1.5) == 5.0
    assert f(2.0) == 7.0
    assert PiecewiseConstant.constant(3.0)(123.0) == 3.0


def test_piecewise_constant_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant((1.0,), (0.0,))
    with pytest.raises(ValueError):
        PiecewiseConstant((2.0, 1.0), (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        PiecewiseConstant((), (math.inf,))
    with pytest.raises(ValueError):
        PiecewiseConstant((math.nan,), (0.0, 1.0))


def test_open_rate_rhs_routes_flows_through_the_legs():
    system = graybox(sir_open_net())
    schedule = FlowSchedule(
        (PiecewiseConstant.constant(0.5), PiecewiseConstant.constant(0.25),
         PiecewiseConstant.constant(2.0)),
        (PiecewiseConstant.constant(1.0),),
    )
    state = [0.9, 0.1, 0.0]
    out = open_rate_rhs(system, schedule, 0.0, state)
    base = system.field.evaluate(state)
    # the two first inflows both feed S, the third feeds I, the outflow drains R
    assert out[0] == base[0] + 0.5 + 0.25
    assert out[1] == base[1] + 2.0
    assert out[2] == base[2] - 1.0
    with pytest.raises(DimensionError):
        open_rate_rhs(system, FlowSchedule.zero(1, 1), 0.0, state)


def test_simulate_zero_field_stays_put():
    system = one_place_dynam(Poly.zero(1))
    traj = simulate(system, FlowSchedule.zero(0, 0), [4.0], 0.0, 1.0, 0.25)
    assert [t for t, _ in traj] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(state == (4.0,) for _, state in traj)


def test_simulate_constant_inflow_grows_linearly():
    system = one_place_dynam(Poly.zero(1), expose_left=True)
    schedule = FlowSchedule((PiecewiseConstant.constant(2.0),), ())
    traj = simulate(system, schedule, [0.0], 0.0, 3.0, 0.5)
    t, state = traj[-1]
    assert t == 3.0
    assert abs(state[0] - 6.0) < 1e-12


def test_simulate_matches_exponential_decay():
    system = graybox(decay_open_net(rate=0.5))
    traj = simulate(system, FlowSchedule.zero(0, 0), [1.0], 0.0, 5.0, 1e-3)
    worst = max(abs(state[0] - math.exp(-0.5 * t)) for t, state in traj)
    assert worst < 1e-6


def test_simulate_shortens_the_final_step():
    system = one_place_dynam(Poly.zero(1))
    traj = simulate(system, FlowSchedule.zero(0, 0), [1.0], 0.0, 1.0, 0.3)
    assert [t for t, _ in traj] == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
    # a step larger than the whole window collapses to one shortened step
    traj = simulate(system, FlowSchedule.zero(0, 0), [1.0], 0.0, 0.1, 5.0)
    assert [t for t, _ in traj] == [0.0, 0.1]


def test_simulate_rejects_bad_windows():
    system = one_place_dynam(Poly.zero(1))
    with pytest.raises(ValueError):
        simulate(system, FlowSchedule.zero(0, 0), [1.0], 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        simulate(system, FlowSchedule.zero(0, 0), [1.0], 1.0, 1.0, 0.1)
    with pytest.raises(DimensionError):
        simulate(system, FlowSchedule.zero(0, 0), [1.0, 2.0], 0.0, 1.0, 0.1)


def test_simulate_reports_divergence_with_the_last_good_time():
    # dx/dt = x^2 from x(0) = 10 blows up at t = 0.1
    system = one_place_dynam(mono(1, 1.0, (2,)))
    with pytest.raises(DivergenceError) as excinfo:
        simulate(system, FlowSchedule.zero(0, 0), [10.0], 0.0, 1.0, 0.01)
    assert 0.0 <= excinfo.value.last_good_time < 0.2


def test_simulate_refuses_an_unbounded_run_before_the_first_step(monkeypatch):
    system = one_place_dynam(mono(1, -1.0, (1,)))
    for t0, t1, dt in ((-1e308, 1e308, 1.0), (0.0, 10.0, 5e-324), (-1e308, 1e308, math.inf)):
        with pytest.raises(SimulationTooLarge, match=r"steps, over the cap of 10000000 values"):
            simulate(system, FlowSchedule.zero(0, 0), [1.0], t0, t1, dt)
    with pytest.raises(SimulationTooLarge) as excinfo:
        simulate(system, FlowSchedule.zero(0, 0), [1.0], 0.0, 1e9, 1e-9)
    assert str(excinfo.value) == (
        "1000000000000000000 steps over 1 places make 2000000000000000002 values, "
        "over the cap of 10000000 values, (steps + 1) * (places + 1)"
    )
    assert isinstance(excinfo.value, OpenCospanError)
    # the cap counts rows (steps + 1) times columns (places + 1)
    monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_VALUES", 10)
    assert len(simulate(system, FlowSchedule.zero(0, 0), [1.0], 0.0, 1.0, 0.25)) == 5
    with pytest.raises(SimulationTooLarge, match="5 steps over 1 places make 12 values"):
        simulate(system, FlowSchedule.zero(0, 0), [1.0], 0.0, 1.0, 0.2)
