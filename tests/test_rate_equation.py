"""The open rate equation and the compiled RK4 integration against interpreted oracles.

`rate_equation` is the interpreted reference: `PolyVectorField.evaluate`
plus each flow routed along its leg.  The oracle here routes the flows by
hand, in boundary order.  The two must agree bit for bit (any NaN
matching any NaN) and must raise OverflowError on the same inputs, which
is what `simulate` turns into a DivergenceError.

`simulate` runs a whole RK4 integration in generated code, the only code
the package generates.  Its oracle is the stage-by-stage RK4 loop written
out below over the field oracle; the trajectories must agree bit for bit
on every row, and divergences in message and last good time; a
non-finite initial state is refused with the same message by both.  The
last test splits long sums and products in the generated source.
"""

import gc
import itertools
import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from opencospan import (
    EMPTY,
    CoefficientOverflow,
    DecoratedCospan,
    DimensionError,
    DivergenceError,
    FinFunction,
    FinSet,
    FlowSchedule,
    Multiset,
    OpenDynam,
    PetriNet,
    PetriNetWithRates,
    PiecewiseConstant,
    Poly,
    PolyVectorField,
    SimulationTooLarge,
    graybox,
    rate_equation,
    simulate,
    simulate_rows,
)
from opencospan.dynamics import _CHUNK, _source


def oracle(system, schedule, t, state):
    out = system.field.evaluate(state)
    for x, flow in enumerate(schedule.inflows):
        out[system.leg_left.table[x]] += flow(t)
    for y, flow in enumerate(schedule.outflows):
        out[system.leg_right.table[y]] -= flow(t)
    return out


def outcome(f, *args):
    try:
        return f(*args)
    except OverflowError:
        return OverflowError


def same_bits(x, y):
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def assert_matches_oracle(system, schedule, calls):
    """Call one rate equation at each (t, state) in turn, so calls that
    share a flow segment reuse its cached flow values."""
    rhs = rate_equation(system, schedule)
    for t, state in calls:
        got = outcome(rhs, t, state)
        want = outcome(oracle, system, schedule, t, state)
        if want is OverflowError or got is OverflowError:
            assert got is want
        else:
            assert len(got) == len(want)
            assert all(same_bits(a, b) for a, b in zip(got, want)), (got, want)


def fn(table, cod):
    return FinFunction(FinSet(len(table)), FinSet(cod), tuple(table))


def open_system(field, left=(), right=()):
    n = field.over.size
    return OpenDynam(FinSet(len(left)), FinSet(len(right)), fn(left, n), fn(right, n), field)


# -- hypothesis strategies ---------------------------------------------------

# a Poly refuses non-finite coefficients; finite ones up to the largest
# double still overflow in products, and non-finite states still reach them
coefficients = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda c: not abs(c) <= 1e-12
)
state_values = st.one_of(st.floats(-4, 4), st.floats(allow_nan=True, allow_infinity=True))
times = st.floats(-3, 3)


@st.composite
def polys(draw, n):
    exponents = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), unique=True, max_size=5))
    return Poly(n, tuple((draw(coefficients), e) for e in sorted(exponents)))


@st.composite
def legs(draw, n):
    table = draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else []
    return fn(table, n)


@st.composite
def flows(draw):
    breakpoints = sorted(draw(st.sets(st.floats(-2, 2), max_size=3)))
    values = draw(
        st.lists(st.floats(-1e3, 1e3), min_size=len(breakpoints) + 1, max_size=len(breakpoints) + 1)
    )
    return PiecewiseConstant(tuple(breakpoints), tuple(values))


@st.composite
def scheduled_systems(draw):
    n = draw(st.integers(0, 4))
    field = PolyVectorField(FinSet(n), tuple(draw(polys(n)) for _ in range(n)))
    left, right = draw(legs(n)), draw(legs(n))
    system = OpenDynam(left.dom, right.dom, left, right, field)
    schedule = FlowSchedule(
        tuple(draw(flows()) for _ in left.table), tuple(draw(flows()) for _ in right.table)
    )
    return system, schedule


@settings(max_examples=300, deadline=None)
@given(scheduled_systems(), st.data())
def test_rate_equation_matches_the_oracle_bit_for_bit(case, data):
    system, schedule = case
    n = system.apex.size
    calls = data.draw(
        st.lists(
            st.tuples(times, st.lists(state_values, min_size=n, max_size=n)),
            min_size=1,
            max_size=4,
        )
    )
    assert_matches_oracle(system, schedule, calls)


# -- the cases the property must cover, pinned -------------------------------


def test_several_flows_into_one_place_add_in_boundary_order():
    field = PolyVectorField(
        FinSet(2), (Poly(2, ((0.1, (1, 1)),)), Poly(2, ((-0.3, (0, 2)),)))
    )
    system = open_system(field, left=(0, 0, 1, 0), right=(1, 1))
    step = PiecewiseConstant((0.5,), (1e16, 1.0))
    schedule = FlowSchedule(
        (step, PiecewiseConstant.constant(1.0), PiecewiseConstant.constant(0.25), step),
        (PiecewiseConstant.constant(0.125), step),
    )
    assert_matches_oracle(
        system,
        schedule,
        [(0.0, [3.0, 0.5]), (0.25, [3.0, 0.5]), (0.5, [-1.0, 2.0]), (0.0, [3.0, 0.5])],
    )


def test_empty_feet_and_no_places():
    assert rate_equation(open_system(PolyVectorField.zero(EMPTY)), FlowSchedule.zero(0, 0))(
        0.0, []
    ) == []
    field = PolyVectorField(FinSet(1), (Poly(1, ((2.0, (0,)), (-1.0, (3,)))),))
    assert_matches_oracle(open_system(field), FlowSchedule.zero(0, 0), [(0.0, [1.5])])


def test_powers_overflow_like_the_oracle():
    field = PolyVectorField(FinSet(2), (Poly(2, ((1.0, (0, 2)), (1.0, (3, 1)))), Poly.zero(2)))
    assert_matches_oracle(
        open_system(field), FlowSchedule.zero(0, 0), [(0.0, [2.0, -3.0]), (0.0, [1e200, 1.0])]
    )
    with pytest.raises(OverflowError):
        rate_equation(open_system(field), FlowSchedule.zero(0, 0))(0.0, [1e200, 1.0])


def test_non_finite_coefficients_are_refused_and_huge_ones_overflow_like_the_oracle():
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(CoefficientOverflow):
            Poly(2, ((c, (0, 0)),))
    field = PolyVectorField(
        FinSet(2),
        (
            Poly(2, ((1.7e308, (0, 0)), (-1.7e308, (1, 0)))),
            Poly(2, ((1.7e308, (0, 1)), (1.0, (1, 1)))),
        ),
    )
    assert_matches_oracle(
        open_system(field, left=(1,)),
        FlowSchedule((PiecewiseConstant.constant(2.0),), ()),
        [(0.0, [1.0, 0.0]), (0.0, [-1.0, 2.0]), (1.0, [math.inf, math.nan])],
    )


def test_shapes_are_checked():
    system = open_system(PolyVectorField.zero(FinSet(2)), left=(0,))
    with pytest.raises(DimensionError):
        rate_equation(system, FlowSchedule.zero(0, 0))
    with pytest.raises(DimensionError):
        rate_equation(system, FlowSchedule.zero(1, 1))
    rhs = rate_equation(system, FlowSchedule.zero(1, 0))
    with pytest.raises(DimensionError):
        rhs(0.0, [1.0])


def wide_component():
    # one component of 5,000 terms, each a separate statement group
    wide = Poly(
        2,
        tuple(
            ((-1.0) ** i * (1 + i / 7), exps)
            for i, exps in enumerate(itertools.product(range(100), range(50)))
        ),
    )
    assert len(wide.terms) == 5000
    return PolyVectorField(FinSet(2), (wide, Poly.zero(2)))


def long_term(n=3000):
    # one term of 3,000 factors, over as many places
    term = Poly(n, ((0.5, tuple(1 + j % 2 for j in range(n))),))
    return PolyVectorField(FinSet(n), (term,) + (Poly.zero(n),) * (n - 1))


def test_large_components_and_long_terms_evaluate_like_the_oracle():
    assert_matches_oracle(
        open_system(wide_component()), FlowSchedule.zero(0, 0), [(0.0, [0.999, 1.001])]
    )
    state = [1 + (j % 5 - 2) * 1e-3 for j in range(3000)]
    assert_matches_oracle(
        open_system(long_term(), right=(0,)), FlowSchedule.zero(0, 1), [(0.0, state)]
    )


def test_a_dropped_rate_equation_leaves_no_garbage_cycle():
    # one is made per open_rate_rhs call; a cycle would hold its closure
    # until the next full collection
    field = PolyVectorField(FinSet(1), (Poly(1, ((-0.5, (1,)),)),))
    gc.collect()
    gc.disable()
    try:
        assert rate_equation(open_system(field), FlowSchedule.zero(0, 0))(0.0, [2.0]) == [-1.0]
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the compiled RK4 step against the stage-by-stage loop -------------------------


def oracle_simulate(system, schedule, initial, t0, t1, dt):
    """The RK4 loop of `simulate` written out stage by stage over `oracle`.
    A state that is not finite at t0 was never good: it is refused."""
    state = [float(x) for x in initial]
    for j, x in enumerate(state):
        if not math.isfinite(x):
            raise ValueError(f"initial state must be finite, got {x!r} at place {j}")
    trajectory = [(t0, tuple(state))]

    def rhs(t, c):
        try:
            return oracle(system, schedule, t, c)
        except OverflowError:
            raise DivergenceError(
                f"state blew up near t = {t}", last_good_time=trajectory[-1][0]
            ) from None

    n_full = int((t1 - t0) / dt)
    if t0 + n_full * dt >= t1:
        n_full -= 1
    t = t0
    for k in range(n_full + 1):
        h = dt if k < n_full else t1 - t
        k1 = rhs(t, state)
        k2 = rhs(t + h / 2, [c + h / 2 * d for c, d in zip(state, k1)])
        k3 = rhs(t + h / 2, [c + h / 2 * d for c, d in zip(state, k2)])
        k4 = rhs(t + h, [c + h * d for c, d in zip(state, k3)])
        state = [
            c + h / 6 * (a + 2 * b + 2 * cc + dd)
            for c, a, b, cc, dd in zip(state, k1, k2, k3, k4)
        ]
        t = t0 + (k + 1) * dt if k < n_full else t1
        if not all(math.isfinite(x) for x in state):
            raise DivergenceError(
                f"state became non-finite at t = {t}", last_good_time=trajectory[-1][0]
            )
        trajectory.append((t, tuple(state)))
    return trajectory


def run(integrate, *args):
    """The trajectory, the divergence as (message, last good time), or the
    refusal of the initial state as its message."""
    try:
        return integrate(*args)
    except DivergenceError as exc:
        return str(exc), exc.last_good_time
    except ValueError as exc:
        return str(exc)


def assert_integrates_like_the_oracle(system, schedule, initial, t0, t1, dt):
    got = run(simulate, system, schedule, initial, t0, t1, dt)
    want = run(oracle_simulate, system, schedule, initial, t0, t1, dt)
    if isinstance(want, (tuple, str)):
        assert got == want
        return want
    assert len(got) == len(want)
    for (t, row), (t_want, row_want) in zip(got, want):
        assert t == t_want and len(row) == len(row_want)
        assert all(same_bits(a, b) for a, b in zip(row, row_want)), (t, row, row_want)
    return want


moderate = st.floats(-3, 3).filter(lambda c: not abs(c) <= 1e-12)
initial_values = st.one_of(
    st.floats(-4, 4),
    st.just(-0.0),
    st.floats(-1e200, 1e200),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


@st.composite
def simulations(draw):
    n = draw(st.integers(1, 4))
    # exponents up to 4; coefficients mostly moderate, some near the largest double
    terms = st.tuples(
        st.one_of(moderate, moderate, coefficients), st.tuples(*[st.integers(0, 4)] * n)
    )
    field = PolyVectorField(
        FinSet(n),
        tuple(
            Poly.from_terms(n, draw(st.lists(terms, max_size=4, unique_by=lambda term: term[1])))
            for _ in range(n)
        ),
    )
    # legs may send several flows into one place
    left, right = draw(legs(n)), draw(legs(n))
    t0 = draw(st.floats(-2, 2))
    dt = draw(st.floats(1e-3, 0.5))
    steps = draw(st.integers(1, 5))
    # a whole number of steps, or a shortened last one
    t1 = t0 + (steps - draw(st.sampled_from([0.0, 0.25, 0.5, 0.9]))) * dt
    # breakpoints on the times the stages read their flows, and off them
    grid = [t0 + k * dt for k in range(steps + 1)]
    stage_times = [u for t in grid for u in (t, t + dt / 2, t + dt)]
    breakpoints = st.lists(st.one_of(st.sampled_from(stage_times), st.floats(-2, 4)), max_size=3)

    def flow():
        points = sorted(set(draw(breakpoints)))
        size = len(points) + 1
        values = draw(st.lists(st.floats(-10, 10), min_size=size, max_size=size))
        return PiecewiseConstant(tuple(points), tuple(values))

    schedule = FlowSchedule(tuple(flow() for _ in left.table), tuple(flow() for _ in right.table))
    initial = draw(st.lists(initial_values, min_size=n, max_size=n))
    return OpenDynam(left.dom, right.dom, left, right, field), schedule, initial, t0, t1, dt


@settings(max_examples=300, deadline=None)
@given(simulations())
def test_the_compiled_step_integrates_like_the_stage_by_stage_loop(case):
    assert_integrates_like_the_oracle(*case)


def collected_rows(system, schedule, initial, t0, t1, dt):
    """The rows `simulate_rows` yields, states as tuples, or the divergence
    and the rows yielded before it; a refusal at the call yields no row."""
    rows = []
    try:
        for t, state in simulate_rows(system, schedule, initial, t0, t1, dt):
            rows.append((t, tuple(state)))
    except DivergenceError as exc:
        return rows, (str(exc), exc.last_good_time)
    except ValueError as exc:
        assert not rows
        return rows, str(exc)
    return rows, None


@settings(max_examples=100, deadline=None)
@given(simulations())
def test_the_row_iterator_yields_the_trajectory_simulate_returns(case):
    rows, divergence = collected_rows(*case)
    want = run(simulate, *case)
    if divergence is not None:
        assert divergence == want
        if isinstance(divergence, str):
            return
        # every row before the divergence was good, the last at its last good time
        assert rows and rows[-1][0] == divergence[1]
        assert all(all(map(math.isfinite, state)) for _, state in rows)
        return
    assert len(rows) == len(want)
    for (t, state), (t_want, state_want) in zip(rows, want):
        assert t == t_want and all(same_bits(a, b) for a, b in zip(state, state_want))


def test_the_row_iterator_refuses_a_run_before_the_first_row():
    system = open_system(PolyVectorField(FinSet(1), (Poly(1, ((1.0, (1,)),)),)))
    zero = FlowSchedule.zero(0, 0)
    for args, error in (
        ((zero, [1.0], 0.0, 1.0, 0.0), ValueError),
        ((zero, [1.0], 1.0, 1.0, 0.1), ValueError),
        ((zero, [1.0, 2.0], 0.0, 1.0, 0.1), DimensionError),
        ((FlowSchedule.zero(1, 0), [1.0], 0.0, 1.0, 0.1), DimensionError),
        ((zero, [1.0], 0.0, 1e9, 1e-9), SimulationTooLarge),
    ):
        with pytest.raises(error):
            simulate_rows(system, *args)


def test_row_zero_keeps_a_negative_zero_the_rows_after_it_do_not():
    # place 1 is untouched: row 0 is the state as given, later rows x + 0.0;
    # the rows are all held before they are read, so none may be changed
    # by a later step
    field = PolyVectorField(FinSet(2), (Poly(2, ((-0.5, (1, 0)),)), Poly.zero(2)))
    schedule = FlowSchedule.zero(0, 0)
    rows = list(simulate_rows(open_system(field), schedule, [1.0, -0.0], 0.0, 0.5, 0.25))
    assert [math.copysign(1.0, state[1]) for _, state in rows] == [-1.0, 1.0, 1.0]


# x0' = x0 ** 2 - outflow, x1' = 0.25 * x1 + two inflows, x2 untouched; from
# [a, -0.0, -0.0] on [0.3, 100] with dt = 0.1 the square overflows in the
# stage named, on a later step.  The messages and last good times are those
# the stage-by-stage loop gave before the step was compiled.
OVERFLOW_IN_STAGE = {
    1: (1.2589254117941673, "state blew up near t = 1.3", 1.3),
    2: (1.0, "state blew up near t = 1.5500000000000003", 1.5000000000000002),
    3: (1.5848931924611136, "state blew up near t = 1.1500000000000001", 1.1),
    4: (6.309573444801933, "state blew up near t = 0.7000000000000001", 0.6000000000000001),
}


@pytest.mark.parametrize("stage", sorted(OVERFLOW_IN_STAGE))
def test_an_overflow_in_each_stage_keeps_its_message_and_last_good_time(stage):
    a, message, last_good_time = OVERFLOW_IN_STAGE[stage]
    field = PolyVectorField(
        FinSet(3),
        (Poly(3, ((1.0, (2, 0, 0)),)), Poly(3, ((0.25, (0, 1, 0)),)), Poly.zero(3)),
    )
    system = open_system(field, left=(1, 1), right=(0,))
    schedule = FlowSchedule(
        (PiecewiseConstant((0.55,), (1.0, 2.0)), PiecewiseConstant.constant(0.5)),
        (PiecewiseConstant((0.65, 0.9), (0.0, 0.125, 0.0)),),
    )
    args = (system, schedule, [a, -0.0, -0.0], 0.3, 100.0, 0.1)
    assert assert_integrates_like_the_oracle(*args) == (message, last_good_time)


def test_an_untouched_place_becomes_x_plus_zero_after_a_step():
    # place 1 is neither read nor written: the step copies it, so -0.0 must
    # become 0.0 once, as x + h / 6 * (0.0 + ...) makes it on every step
    field = PolyVectorField(FinSet(3), (Poly(3, ((-0.5, (1, 0, 0)),)), Poly.zero(3), Poly.zero(3)))
    trajectory = assert_integrates_like_the_oracle(
        open_system(field, left=(2,)),
        FlowSchedule((PiecewiseConstant.constant(-0.0),), ()),
        [1.0, -0.0, -0.0], 0.0, 0.5, 0.25,
    )
    assert [math.copysign(1.0, row[1]) for _, row in trajectory] == [-1.0, 1.0, 1.0]


def test_a_non_finite_state_keeps_its_message_and_last_good_time():
    field = PolyVectorField(FinSet(1), (Poly(1, ((1e308, (1,)),)),))
    args = (open_system(field), FlowSchedule.zero(0, 0), [10.0], 0.0, 1.0, 0.25)
    assert assert_integrates_like_the_oracle(*args) == ("state became non-finite at t = 0.25", 0.0)


def test_large_components_and_long_terms_integrate_like_the_oracle():
    assert_integrates_like_the_oracle(
        open_system(wide_component()), FlowSchedule.zero(0, 0), [0.999, 1.001], 0.0, 2e-7, 1e-7
    )
    state = [1 + (j % 5 - 2) * 1e-3 for j in range(3000)]
    trajectory = assert_integrates_like_the_oracle(
        open_system(long_term(), right=(0,)),
        FlowSchedule((), (PiecewiseConstant.constant(0.25),)),
        state, 0.0, 0.02, 0.01,
    )
    assert len(trajectory) == 3


def test_a_simulate_run_leaves_no_garbage_cycle():
    field = PolyVectorField(FinSet(2), (Poly(2, ((-0.5, (1, 1)),)), Poly.zero(2)))
    gc.collect()
    gc.disable()
    try:
        trajectory = simulate(open_system(field), FlowSchedule.zero(0, 0), [2.0, 1.0], 0.0, 1.0, 0.25)
        assert len(trajectory) == 5
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_generated_step_has_the_size_of_the_net_not_of_its_places():
    # 4,000 places, 40 transitions: code for the touched places only, where
    # four stages over every place would be about 4 * 4,000 lines
    rng = Random(5)
    n, cells = 4000, 40
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
    system = graybox(DecoratedCospan(EMPTY, EMPTY, none, none, net))
    terms = sum(len(p.sparse) for p in system.field.components)
    source, _, touched = _source(system)
    lines = source.splitlines()
    assert terms <= 3 * cells and len(touched) <= 3 * cells
    # per stage a line per term and per touched place, then a line per
    # touched place for the stage values and for the new state
    assert len(lines) <= 4 * (terms + len(touched)) + 4 * len(touched) + 20, len(lines)
    # and no line lists every place: one such line alone is over 20,000 characters
    assert len(source) <= 200 * (terms + len(touched)), len(source)


# -- long sums and products split without reassociating -----------------------


def split_lines_case():
    """Place 0 sums more than _CHUNK terms, one of them a product of more
    than _CHUNK factors, then an inflow and an outflow; place 1 has no terms
    and only an outflow."""
    n = _CHUNK + 8
    # magnitudes far apart, and an inflow that carries the sum into the
    # next binade, so that another association or order rounds differently
    terms = [
        ((-1.0) ** j * 3.0 ** (j % 11) / 7, tuple(int(i == j) for i in range(n))) for j in range(n)
    ]
    terms.append((0.3, (1,) * n))
    field = PolyVectorField(FinSet(n), (Poly.from_terms(n, terms),) + (Poly.zero(n),) * (n - 1))
    schedule = FlowSchedule(
        (PiecewiseConstant((0.01,), (2000.1, -0.3)),),
        (PiecewiseConstant.constant(1 / 3), PiecewiseConstant((0.015,), (0.7, 1.9))),
    )
    state = [1 + (j % 5 - 2) * 1e-3 for j in range(n)]
    return open_system(field, left=(0,), right=(0, 1)), schedule, state


def test_a_long_sum_and_a_long_product_split_without_reassociating():
    system, schedule, state = split_lines_case()
    source = _source(system)[0]
    # the sum goes on in the same place, the product through p, and the
    # place with only an outflow is 0.0 minus it, in every stage
    assert " a0 = a0 + " in source and " p = p * " in source
    assert " a1 = 0.0 - f1_2\n" in source and " d1 = 0.0 - f4_2\n" in source
    assert_matches_oracle(system, schedule, [(0.0, state), (0.02, state)])
    assert_integrates_like_the_oracle(system, schedule, state, 0.0, 0.025, 0.01)
