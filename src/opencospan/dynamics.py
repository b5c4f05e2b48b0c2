"""Mass-action semantics, open dynamics, and their simulation.

The field algebra (`Poly`, `PolyVectorField`, `pushforward_field`,
`poly_close`/`field_close` and the rest) lives in `systems`, beside the
kind table whose "dynam" row it makes; it is imported back here, so every
name stays importable from this module.  A field over n places is one
sparse polynomial per place in canonical form, and `field_close` compares
coefficients to a relative tolerance, which is the working notion of
equality for anything computed along two different routes.

An open dynamical system (`OpenDynam`) is a `DecoratedCospan` whose
decoration is such a field, so it composes, tensors and is compared by
`cospans.hcompose`, `tensor` and `cospan_iso`.  The mass-action field of
a rated net and the gray-boxing of open nets into open dynamics sit on top
of that; so does the one-directional fact this module makes checkable: a
field admits a map from the empty system exactly when it is zero, so
nonzero fields witness that gray-boxing has no left adjoint.

`simulate` integrates the open rate equation (field plus boundary flows)
with RK4; `simulate_rows` checks the run and yields the same trajectory a
row at a time, so a caller can consume each row as it is made.  The whole
trajectory is one generated generator function, compiled once per run: it
yields row 0 as given, keeps the state and the coefficients in locals,
does each step's four stages of the field and final combination, inlined,
with exactly the float operations of the stage-by-stage loop over
`rate_equation`, and raises both divergences, a stage's overflow and a
non-finite row.  That is the only code the package generates:
`rate_equation` is the interpreted reference, `PolyVectorField.evaluate` plus each flow routed
along its leg, evaluated per call, and the tests hold the compiled
stages to it bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

from .errors import (
    CoefficientOverflow,
    DimensionError,
    DivergenceError,
    KindError,
    SimulationTooLarge,
)
from .finset import EMPTY, FinFunction, FinSet, _short
# the field algebra is imported back so that every dynamics.X name still resolves
from .systems import (  # noqa: F401
    COEFF_DROP,
    Poly,
    PolyVectorField,
    Support,
    System,
    decoration_theory,
    field_close,
    poly_add,
    poly_close,
    pushforward_field,
)
from .cospans import Cospan, DecoratedCospan, _present, cospan_iso, hcompose


def mass_action(net: System) -> PolyVectorField:
    """The mass-action field of a rated net.

    Each transition fires at its rate times the product of its input
    concentrations (with multiplicity as exponent), and moves state in the
    direction produced-minus-consumed.  A term's monomial is the support of
    its transition's consumed multiset, taken as it is, and the places no
    transition changes share one zero component: the cost is the size of
    the net, not places times terms.
    """
    n = net.interface.size
    raw: dict[int, list[tuple[float, Support]]] = {}
    try:
        for consumed, produced, rate in zip(net.src, net.tgt, net.attrs):
            support = consumed.pairs
            deltas = dict(produced.pairs)
            for p, k in support:
                deltas[p] = deltas.get(p, 0) - k
            for p, delta in deltas.items():
                if delta:
                    raw.setdefault(p, []).append((rate * delta, support))
    except OverflowError:  # a count change too large for a float
        raise CoefficientOverflow(
            f"coefficient overflow: rate {rate!r} times the count change {_short(delta)} "
            f"at place {p} is not a finite float"
        ) from None
    zero = Poly.zero(n)
    return PolyVectorField(
        net.interface, tuple([Poly._canonical(n, raw[p]) if p in raw else zero for p in range(n)])
    )


def admits_morphism_from_empty(v: PolyVectorField) -> bool:
    """Whether the empty open dynamical system maps into (S, v).

    The unique candidate is the pushforward of the empty field along the
    inclusion of no places, i.e. the zero field; a map exists exactly when
    v is that field.  Any nonzero v therefore refutes a would-be left
    adjoint to gray-boxing.
    """
    return v == _empty_candidate(v.over)


@lru_cache(maxsize=64)
def _empty_candidate(over: FinSet) -> PolyVectorField:
    return pushforward_field(FinFunction.from_empty(over), PolyVectorField.zero(EMPTY))


OpenDynam = DecoratedCospan
"""An open dynamical system: a cospan decorated by a polynomial vector field."""


def graybox(open_net: Cospan) -> OpenDynam:
    """Forget a rated open net's wiring diagram, keep its mass-action ODEs."""
    if not (hasattr(open_net, "representation") and decoration_theory(open_net.kind).rated):
        raise KindError("gray-boxing applies to open Petri nets with rates")
    open_net = _present(open_net, "decorated")
    return OpenDynam(
        open_net.foot_left,
        open_net.foot_right,
        open_net.leg_left,
        open_net.leg_right,
        mass_action(open_net.decoration),
    )


def compose_open_dynam(m: OpenDynam, n: OpenDynam) -> OpenDynam:
    """Glue two open dynamical systems along their shared foot: `hcompose`."""
    return hcompose(m, n)


def open_dynam_iso(m: OpenDynam, n: OpenDynam) -> Optional[FinFunction]:
    """The place bijection `cospan_iso` finds between two open dynamical
    systems, or None."""
    witness = cospan_iso(m, n)
    return None if witness is None else witness.node_map


@dataclass(frozen=True)
class PiecewiseConstant:
    """A right-continuous step function of time."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", tuple(float(t) for t in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if any(b >= a for a, b in zip(self.breakpoints[1:], self.breakpoints)):
            raise ValueError("breakpoints must be strictly increasing")
        if not all(math.isfinite(t) for t in self.breakpoints):
            raise ValueError("breakpoints must be finite")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("flow values must be finite")

    @staticmethod
    def constant(value: float) -> PiecewiseConstant:
        return PiecewiseConstant((), (value,))

    def __call__(self, t: float) -> float:
        return self.values[bisect_right(self.breakpoints, t)]


PiecewiseConstant.ZERO = PiecewiseConstant.constant(0.0)


@dataclass(frozen=True)
class FlowSchedule:
    """Piecewise-constant inflows and outflows for each boundary element."""

    inflows: tuple[PiecewiseConstant, ...]
    outflows: tuple[PiecewiseConstant, ...]

    @staticmethod
    def zero(n_in: int, n_out: int) -> FlowSchedule:
        return FlowSchedule(
            (PiecewiseConstant.ZERO,) * n_in, (PiecewiseConstant.ZERO,) * n_out
        )


# factors per generated product and terms per generated sum: a longer
# product continues as `p = p * ...` and a longer sum as `a3 = a3 + ...`, so
# that no expression nests deeply enough to exhaust the compiler's recursion
# limit
_CHUNK = 32

# the most trajectory values, (steps + 1) * (places + 1) with the time column,
# that one `simulate` run may produce.  CLI `simulate` holds the CSV line of
# every row until the run has succeeded: it peaked at 27.5 bytes of resident
# memory per value with every value a distinct float printed in 24
# characters, and at 22.5 with 19 (1,000 places by 3,000 steps, over an 18 MB
# baseline), so the lines of a run at the cap take under about 0.3 GB.  At
# 1,000 steps compiling the integration sets the peak instead: about 34 MB of
# tracemalloc peak for a 1,000-place decay chain, 38 bytes per value.
MAX_TRAJECTORY_VALUES = 10_000_000

# the most exponents, places * terms, that the dense form of one field may
# hold: a dynam file writes one exponent per place in each term, 2 bytes of
# text each.  CLI `graybox` of 40-transition nets over 80,000 and 200,000
# places (10.3 and 23.7 million exponents) peaked at about 4 bytes of resident
# memory per exponent over its baseline, and `load_model` of the file it
# wrote at about 10, so a file at the cap (100 MB) reads back in about 0.5 GB.
MAX_FIELD_EXPONENTS = 50_000_000


# the least int that `float` cannot convert, as `x ** e` converts its
# exponent: it rounds up to 2 ** 1024
_FLOAT_INT_LIMIT = 2**1024 - 2**970


def _diverged(event: str, at: float, last_good: float) -> DivergenceError:
    """The divergence a run raises: the state "blew up near" t = at, from a
    stage's OverflowError, or "became non-finite at" t = at, in a row."""
    return DivergenceError(f"state {event} t = {at}", last_good_time=last_good)


def _source(system: OpenDynam) -> tuple[str, tuple[float, ...], list[int]]:
    """The generated source of a whole RK4 integration of the open rate
    equation of `system`; its coefficients; the places it touches.

    The one generator of field code is `stage`: one expression per touched
    place, as `a3 = 0.0 + k5 * x2 * x7 ** 2 + k6 * x3 + f1_0 - f1_4`, in the
    order and association of `Poly.evaluate` (`0.0 +` the first term,
    products left to right, powers kept as `**` so that an overflow still
    raises OverflowError), then the place's inflows and outflows in
    boundary order, as `rate_equation` adds them.  A sum of more than
    `_CHUNK` terms continues as `a3 = a3 + ...`, and a product of more than
    `_CHUNK` factors is built in `p` first, ending the statement before it,
    so the association is kept and no expression nests deeply.  These lines
    are built once, with the names of state, stage and flow values left as
    `{0}`, `{1}` and `{2}`, and `stage` fills them in.  State values, stage
    values, flow values and coefficients are plain locals; the source holds
    only integer indices and exponents, and the coefficients are unpacked
    from the tuple `K`.  Code is emitted only for the touched places, those
    some term reads or some component or flow writes, so its size is that
    of the net.  A term with an exponent too large for a float raises
    CoefficientOverflow here: `x ** e` would raise OverflowError at every
    state, 0 included, which a run would report as a divergence.

    `run(s, t0, t1, dt, n_full, flows_at)` is a generator of the whole
    trajectory from the state `s`, a list it may change: row 0 as given,
    then `(t, state)` after each of the n_full + 1 steps `simulate_rows`
    lays out, state a new copy of `s` with the touched places set.  After
    row 0 it sets the other places, all but `T`, bound beside `K`, to
    x + 0.0 once, the value every step gives them.  It loads the touched
    places and the coefficients once, takes the flows at t, t + h/2 and
    t + h from `flows_at`, and does the float operations of the
    stage-by-stage loop over `rate_equation`: `x + h2 * a` and so on, then
    `x + h6 * (a + 2.0 * b + 2.0 * c + d)`, whose float products equal
    those of `2 * b` without the int-to-float conversion.  Both divergences
    go through `diverged`, the last row's time the last good time: a
    stage's OverflowError "blew up near" the stage's time, a non-finite
    row "became non-finite at" its time.
    """
    left, right = system.leg_left.table, system.leg_right.table
    coefficients: list[float] = []
    # per place, its terms as (index of the coefficient, monomial support)
    components: list[list[tuple[int, Support]]] = []
    for p in system.field.components:
        components.append([])
        for c, support in p.sparse:
            components[-1].append((len(coefficients), support))
            coefficients.append(c)
    read = sorted({j for terms in components for _, support in terms for j, _ in support})
    written = {i for i, terms in enumerate(components) if terms}
    touched = sorted(written.union(read, left, right))
    # per place, its flows as (sign, index of the flow value): inflows, then
    # outflows, in boundary order
    n_flows = len(left) + len(right)
    flows: dict[int, list[tuple[str, int]]] = {}
    for k, p in enumerate(left + right):
        flows.setdefault(p, []).append(("+" if k < len(left) else "-", k))

    # the lines setting {1}<i> to the right-hand side at the state {0}<j>,
    # with the flow values {2}<k>, for every touched place i
    template: list[str] = []
    for i in touched:
        # (lines that must come first, operand) per term, then per flow
        operands: list[tuple[list[str], str]] = []
        for term, (k, support) in enumerate(components[i]):
            factors = ["k%d" % k]
            for j, e in support:
                if e >= _FLOAT_INT_LIMIT:
                    raise CoefficientOverflow(
                        f"term {term} of place {i} raises place {j} to {_short(e)}, "
                        "an exponent too large for a float"
                    )
                factors.append("{0}%d" % j if e == 1 else "{0}%d ** %d" % (j, e))
            if len(factors) <= _CHUNK:
                operands.append(([], " + " + " * ".join(factors)))
                continue
            product = ["p = " + " * ".join(factors[:_CHUNK])] + [
                "p = p * " + " * ".join(factors[a : a + _CHUNK])
                for a in range(_CHUNK, len(factors), _CHUNK)
            ]
            operands.append((product, " + p"))
        operands += [([], " %s {2}%d" % (sign, k)) for sign, k in flows.get(i, ())]
        target = "{1}%d" % i
        head, tail = "0.0", []
        for before, operand in operands:
            if tail and (before or len(tail) == _CHUNK):
                template.append("%s = %s%s" % (target, head, "".join(tail)))
                head, tail = target, []
            template += before
            tail.append(operand)
        template.append("%s = %s%s" % (target, head, "".join(tail)))

    def stage(x: str, d: str, f: str) -> list[str]:
        return [line.format(x, d, f) for line in template]

    def unpack(names: list[str], value: str) -> list[str]:
        # the line setting the locals names from the sequence value, if any
        return ["".join(name + ", " for name in names) + "= " + value] if names else []

    body = ["yield t0, s.copy()", "for j in set(range(len(s))).difference(T):", " s[j] += 0.0"]
    body += unpack(["k%d" % k for k in range(len(coefficients))], "K")
    body += ["x%d = s[%d]" % (j, j) for j in touched]
    body += ["t = t0", "for step in range(n_full + 1):"]
    loop = ["h = dt if step < n_full else t1 - t", "h2 = h / 2", "h6 = h / 6"]
    for x, d, f, at, weight in (
        ("x", "a", "f1_", "t", "h2"),
        ("y", "b", "f2_", "t + h2", "h2"),
        ("y", "c", "f2_", "t + h2", "h"),
        ("y", "d", "f4_", "t + h", None),
    ):
        # stage c reads the flows stage b took
        if d != "c":
            loop += unpack(["%s%d" % (f, k) for k in range(n_flows)], "flows_at(%s)" % at)
        lines = stage(x, d, f)
        if lines:
            loop += ["try:"] + [" " + line for line in lines]
            loop += ["except OverflowError:"]
            loop.append(" raise diverged('blew up near', %s, t) from None" % at)
        if weight:
            loop += ["y%d = x%d + %s * %s%d" % (j, j, weight, d, j) for j in read]
    loop.append("out = s.copy()")
    loop += [
        "out[%d] = x%d = x%d + h6 * (a%d + 2.0 * b%d + 2.0 * c%d + d%d)" % ((i,) * 7)
        for i in touched
    ]
    loop += [
        "u = t0 + (step + 1) * dt if step < n_full else t1",
        "if not all(map(isfinite, out)):",
        " raise diverged('became non-finite at', u, t)",
        "t = u",
        "yield t, out",
    ]
    body += [" " + line for line in loop]
    source = "def bind(K, T):\n def run(s, t0, t1, dt, n_full, flows_at):\n%s return run\n" % (
        "".join(f"  {line}\n" for line in body)
    )
    return source, tuple(coefficients), touched


def _compile(system: OpenDynam) -> Callable:
    """The `run` generator of `_source`, compiled and bound to the
    coefficients and the touched places: the one owner of a trajectory,
    from row 0 to either divergence.  No other code in the package
    compiles or executes source."""
    source, coefficients, touched = _source(system)
    namespace: dict = {"diverged": _diverged, "isfinite": math.isfinite}
    exec(compile(source, "<rate equation>", "exec"), namespace)
    # popped, so that the function and its globals form no reference cycle
    # and are freed as soon as the caller drops them
    return namespace.pop("bind")(coefficients, touched)


def _check_schedule(system: OpenDynam, schedule: FlowSchedule) -> None:
    if len(schedule.inflows) != system.foot_left.size:
        raise DimensionError(
            f"{len(schedule.inflows)} inflows for a left foot of size {system.foot_left.size}"
        )
    if len(schedule.outflows) != system.foot_right.size:
        raise DimensionError(
            f"{len(schedule.outflows)} outflows for a right foot of size {system.foot_right.size}"
        )


def _flow_values(schedule: FlowSchedule) -> Callable[[float], list[float]]:
    """The values of every flow at time t, inflows then outflows.  Every
    flow is constant between consecutive breakpoints of the whole schedule,
    so the values are looked up once per such segment."""
    flows = schedule.inflows + schedule.outflows
    breakpoints = sorted({b for flow in flows for b in flow.breakpoints})
    segments: list[Optional[list[float]]] = [None] * (len(breakpoints) + 1)

    def at(t: float) -> list[float]:
        segment = bisect_right(breakpoints, t)
        values = segments[segment]
        if values is None:
            values = segments[segment] = [flow(t) for flow in flows]
        return values

    return at


def rate_equation(
    system: OpenDynam, schedule: FlowSchedule
) -> Callable[[float, Sequence[float]], list[float]]:
    """The open rate equation of `system` as a function rhs(t, state).

    Its value is the field plus the inflows minus the outflows, each flow
    routed along its leg and added in boundary order.  The shapes of the
    schedule are checked here, the length of the state on every call, by
    `PolyVectorField.evaluate`.

    This is the interpreted reference each stage of the code `simulate`
    generates follows bit for bit (see `_source`): nothing is compiled, and
    the field is evaluated term by term on every call.  The flows are
    evaluated once per segment between the schedule's breakpoints, where
    they are all constant.
    """
    _check_schedule(system, schedule)
    field, left, right = system.field, system.leg_left.table, system.leg_right.table
    flows_at = _flow_values(schedule)

    def rhs(t: float, state: Sequence[float]) -> list[float]:
        out = field.evaluate(state)
        values = flows_at(t)
        for p, value in zip(left, values):
            out[p] += value
        for p, value in zip(right, values[len(left) :]):
            out[p] -= value
        return out

    return rhs


def open_rate_rhs(
    system: OpenDynam, schedule: FlowSchedule, t: float, state: Sequence[float]
) -> list[float]:
    """The field's value plus inflows minus outflows, routed along the legs."""
    return rate_equation(system, schedule)(t, state)


def _full_steps(t0: float, t1: float, dt: float, places: int) -> int:
    """The number of full steps of size dt from t0 before the shortened last
    one that lands on t1 (t1 > t0 and dt > 0).  A step count that is not
    finite, or a trajectory of more than `MAX_TRAJECTORY_VALUES` values,
    (steps + 1) * (places + 1), is refused with SimulationTooLarge."""
    steps = (t1 - t0) / dt
    if not math.isfinite(steps):
        raise SimulationTooLarge(
            f"[{t0}, {t1}] in steps of {dt} is {steps} steps, over the cap of "
            f"{MAX_TRAJECTORY_VALUES} values, (steps + 1) * (places + 1)"
        )
    n_full = int(steps)
    if t0 + n_full * dt >= t1:
        n_full -= 1
    values = (n_full + 2) * (places + 1)
    if values > MAX_TRAJECTORY_VALUES:
        raise SimulationTooLarge(
            f"{_short(n_full + 1)} steps over {_short(places)} places make "
            f"{_short(values)} values, "
            f"over the cap of {MAX_TRAJECTORY_VALUES} values, (steps + 1) * (places + 1)"
        )
    return n_full


def simulate_rows(
    system: OpenDynam,
    schedule: FlowSchedule,
    initial: Sequence[float],
    t0: float,
    t1: float,
    dt: float,
) -> Iterator[tuple[float, list[float]]]:
    """The rows of `simulate`, as (t, state) one at a time, state a list.

    Every check runs, and the integration is generated and compiled, at
    the call, before the first row: a run that is refused, a non-finite
    initial state among them, raises here, not on the first `next`.  The
    rows are those of the generated `run` (`_source`), which yields row 0
    as given, integrates one step per row and raises the same
    DivergenceError as `simulate`, after the rows before it were yielded.
    A yielded state is never changed afterwards, so a caller may keep it.
    """
    if not (dt > 0.0):
        raise ValueError(f"step size must be positive, got {dt}")
    if not (t1 > t0):
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    state = list(map(float, initial))
    n = system.apex.size
    if len(state) != n:
        raise DimensionError(f"initial state of length {len(state)} for {n} places")
    if not all(map(math.isfinite, state)):
        j = list(map(math.isfinite, state)).index(False)
        raise ValueError(f"initial state must be finite, got {_short(state[j])} at place {j}")
    _check_schedule(system, schedule)
    n_full = _full_steps(t0, t1, dt, n)
    return _compile(system)(state, t0, t1, dt, n_full, _flow_values(schedule))


def simulate(
    system: OpenDynam,
    schedule: FlowSchedule,
    initial: Sequence[float],
    t0: float,
    t1: float,
    dt: float,
) -> list[tuple[float, tuple[float, ...]]]:
    """Integrate the open rate equation with fixed-step classical RK4.

    Steps are laid out from t0 with a shortened final step landing exactly
    on t1; the trajectory includes both endpoints.  A run whose step count
    is not finite, or whose (steps + 1) * (places + 1) values exceed
    `MAX_TRAJECTORY_VALUES`, is refused with SimulationTooLarge before the
    first step, and a term with an exponent too large for a float with
    CoefficientOverflow.  A non-finite initial state is refused with
    ValueError.  A non-finite state after a step, or an overflow in a
    stage, raises DivergenceError carrying the last good time; an
    overflow's message names the time of its stage.

    The whole integration, each step's four stages and final combination
    inlined, is one generated function (`_source`), compiled once per run
    (`_compile`), and the trajectory is bit for bit that of the
    stage-by-stage loop over `rate_equation`, the interpreted reference.
    The trajectory is the rows `simulate_rows` yields, each state made a tuple; a caller that
    consumes each row as it comes, as CLI `simulate` does, iterates
    `simulate_rows` and never holds the whole trajectory.
    """
    rows = simulate_rows(system, schedule, initial, t0, t1, dt)
    return [(t, tuple(state)) for t, state in rows]
