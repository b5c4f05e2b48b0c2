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
with RK4.  It compiles that equation once per run with `rate_equation`
into one flat generated function, which performs exactly the float
operations of `Poly.evaluate`; the interpreted `evaluate` methods stay as
public API and as the reference the compiled code is tested against.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .errors import DimensionError, DivergenceError, KindError
from .finset import EMPTY, FinFunction, FinSet
# the field algebra is imported back so that every dynamics.X name still resolves
from .systems import (  # noqa: F401
    COEFF_DROP,
    PetriNetWithRates,
    Poly,
    PolyVectorField,
    Support,
    field_close,
    poly_add,
    poly_close,
    pushforward_field,
)
from .cospans import Cospan, DecoratedCospan, _present, cospan_iso, hcompose


def mass_action(net: PetriNetWithRates) -> PolyVectorField:
    """The mass-action field of a rated net.

    Each transition fires at its rate times the product of its input
    concentrations (with multiplicity as exponent), and moves state in the
    direction produced-minus-consumed.  A term's monomial is the support of
    its transition's consumed multiset, taken as it is, and the places no
    transition changes share one zero component: the cost is the size of
    the net, not places times terms.
    """
    n = net.places.size
    raw: dict[int, list[tuple[float, Support]]] = {}
    for consumed, produced, rate in zip(net.net.src, net.net.tgt, net.rates):
        support = consumed.pairs
        deltas = dict(produced.pairs)
        for p, k in support:
            deltas[p] = deltas.get(p, 0) - k
        for p, delta in deltas.items():
            if delta:
                raw.setdefault(p, []).append((rate * delta, support))
    zero = Poly.zero(n)
    return PolyVectorField(
        net.places, tuple([Poly._canonical(n, raw[p]) if p in raw else zero for p in range(n)])
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
    if getattr(open_net, "representation", None) is None or open_net.kind != "petri_rates":
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


def rate_equation(
    system: OpenDynam, schedule: FlowSchedule
) -> Callable[[float, Sequence[float]], list[float]]:
    """The open rate equation of `system` as a function rhs(t, state).

    Its value is the field plus the inflows minus the outflows, each flow
    routed along its leg and added in boundary order.  The shapes of the
    schedule are checked here, the length of the state on every call.

    The whole right-hand side is compiled once into generated Python
    source with one statement per factor and per term, which performs the
    float operations of `Poly.evaluate` in the same order: powers keep
    `**`, so an overflow still raises OverflowError, and no expression
    nests deeply enough to exhaust the compiler's recursion limit.  The
    source contains only integer indices and exponents; coefficients are
    read from a tuple bound in a closure.  The flows are evaluated once
    per segment between the schedule's breakpoints, where they are all
    constant.
    """
    if len(schedule.inflows) != system.foot_left.size:
        raise DimensionError(
            f"{len(schedule.inflows)} inflows for a left foot of size {system.foot_left.size}"
        )
    if len(schedule.outflows) != system.foot_right.size:
        raise DimensionError(
            f"{len(schedule.outflows)} outflows for a right foot of size {system.foot_right.size}"
        )
    n = system.apex.size
    coefficients: list[float] = []
    body = ["".join("x%d, " % j for j in range(n)) + "= s"] if n else []
    for i, p in enumerate(system.field.components):
        body.append("v%d = 0.0" % i)
        for c, support in p.sparse:
            body.append("t = c[%d]" % len(coefficients))
            coefficients.append(c)
            for j, k in support:
                if k == 1:
                    body.append("t *= x%d" % j)
                else:
                    body.append("t *= x%d ** %d" % (j, k))
            body.append("v%d += t" % i)
    body.extend("v%d += fi[%d]" % (p, x) for x, p in enumerate(system.leg_left.table))
    body.extend("v%d -= fo[%d]" % (p, y) for y, p in enumerate(system.leg_right.table))
    body.append("return [" + "".join("v%d, " % i for i in range(n)) + "]")
    source = "def bind(c):\n def field(s, fi, fo):\n%s return field\n" % "".join(
        f"  {line}\n" for line in body
    )
    namespace: dict = {}
    exec(compile(source, "<rate equation>", "exec"), namespace)
    # popped, so that `field` and its globals form no reference cycle and
    # are freed as soon as the caller drops them
    field = namespace.pop("bind")(tuple(coefficients))

    inflows, outflows = schedule.inflows, schedule.outflows
    # every flow is constant between consecutive breakpoints of the whole
    # schedule, so its values are looked up once per such segment
    breakpoints = sorted({b for flow in inflows + outflows for b in flow.breakpoints})
    segments: list[Optional[tuple[list[float], list[float]]]] = [None] * (
        len(breakpoints) + 1
    )

    def rhs(t: float, state: Sequence[float]) -> list[float]:
        if len(state) != n:
            raise DimensionError(
                f"state of length {len(state)} for a field over {n} places"
            )
        segment = bisect_right(breakpoints, t)
        flows = segments[segment]
        if flows is None:
            flows = segments[segment] = (
                [flow(t) for flow in inflows],
                [flow(t) for flow in outflows],
            )
        return field(state, *flows)

    return rhs


def open_rate_rhs(
    system: OpenDynam, schedule: FlowSchedule, t: float, state: Sequence[float]
) -> list[float]:
    """The field's value plus inflows minus outflows, routed along the legs."""
    return rate_equation(system, schedule)(t, state)


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
    on t1; the trajectory includes both endpoints.  A non-finite state
    raises DivergenceError carrying the last good time.
    """
    if not (dt > 0.0):
        raise ValueError(f"step size must be positive, got {dt}")
    if not (t1 > t0):
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    state = [float(x) for x in initial]
    if len(state) != system.apex.size:
        raise DimensionError(
            f"initial state of length {len(state)} for {system.apex.size} places"
        )
    rate = rate_equation(system, schedule)

    def rhs(t: float, c: Sequence[float]) -> list[float]:
        try:
            return rate(t, c)
        except OverflowError:
            raise DivergenceError(
                f"state blew up near t = {t}", last_good_time=trajectory[-1][0]
            ) from None

    span = t1 - t0
    n_full = int(span / dt)
    if t0 + n_full * dt >= t1:
        n_full -= 1
    trajectory = [(t0, tuple(state))]
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
