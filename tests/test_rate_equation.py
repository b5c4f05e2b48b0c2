"""The compiled open rate equation against the interpreted evaluator.

`rate_equation` generates code for the whole right-hand side.  The oracle
here evaluates the field with `PolyVectorField.evaluate` and routes each
flow along its leg by hand, in boundary order.  The two must agree bit for
bit (any NaN matching any NaN) and must raise OverflowError on the same
inputs, which is what `simulate` turns into a DivergenceError.
"""

import gc
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from opencospan import (
    EMPTY,
    CoefficientOverflow,
    DimensionError,
    FinFunction,
    FinSet,
    FlowSchedule,
    OpenDynam,
    PiecewiseConstant,
    Poly,
    PolyVectorField,
    rate_equation,
)


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
    """Call one compiled function at each (t, state) in turn, so calls that
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
def test_compiled_rate_equation_matches_the_oracle_bit_for_bit(case, data):
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


def test_large_components_and_long_terms_compile():
    # one component of 5,000 terms, each a separate statement group
    wide = Poly(
        2,
        tuple(
            ((-1.0) ** i * (1 + i / 7), exps)
            for i, exps in enumerate(itertools.product(range(100), range(50)))
        ),
    )
    assert len(wide.terms) == 5000
    field = PolyVectorField(FinSet(2), (wide, Poly.zero(2)))
    assert_matches_oracle(open_system(field), FlowSchedule.zero(0, 0), [(0.0, [0.999, 1.001])])

    # one term of 3,000 factors, over as many places
    n = 3000
    long_term = Poly(n, ((0.5, tuple(1 + j % 2 for j in range(n))),))
    field = PolyVectorField(FinSet(n), (long_term,) + (Poly.zero(n),) * (n - 1))
    state = [1 + (j % 5 - 2) * 1e-3 for j in range(n)]
    assert_matches_oracle(open_system(field, right=(0,)), FlowSchedule.zero(0, 1), [(0.0, state)])


def test_a_dropped_rate_equation_leaves_no_garbage_cycle():
    # one is compiled per simulate run; a cycle would hold the generated
    # code until the next full collection
    field = PolyVectorField(FinSet(1), (Poly(1, ((-0.5, (1,)),)),))
    gc.collect()
    gc.disable()
    try:
        assert rate_equation(open_system(field), FlowSchedule.zero(0, 0))(0.0, [2.0]) == [-1.0]
        assert gc.collect() == 0
    finally:
        gc.enable()
