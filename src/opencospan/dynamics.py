"""Polynomial vector fields, mass-action semantics, and open dynamics.

A field over n places is one sparse polynomial per place in the canonical
form: exponent vectors are distinct and sorted, coefficients below 1e-12
are dropped.  Construction-time canonicalization makes structural equality
meaningful; `poly_close`/`field_close` compare coefficients to a relative
tolerance, which is the working notion of equality for anything computed
along two different routes.

Transporting a field along a function works by substituting variables on
the way in and summing components over merged places on the way out.  The
mass-action field of a rated net and the gray-boxing of open nets into
open dynamics sit on top of that; so does the one-directional fact this
module makes checkable: a field admits a map from the empty system exactly
when it is zero, so nonzero fields witness that gray-boxing has no
left adjoint.

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

from .errors import (
    ComposabilityError,
    DimensionError,
    DivergenceError,
    KindError,
)
from .finset import EMPTY, FinFunction, FinSet, _iso_budget, compose, find_iso, pushout
from .systems import PetriNetWithRates
from .cospans import Cospan, DecoratedCospan, StructuredCospan, to_decorated

COEFF_DROP = 1e-12


@dataclass(frozen=True)
class Poly:
    """A sparse real polynomial in nvars variables, in canonical form.

    Terms are (coefficient, exponents) pairs with distinct exponent
    vectors, sorted lexicographically, no coefficient within 1e-12 of
    zero.  Use `from_terms` to build one from raw terms.
    """

    nvars: int
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "terms", tuple((float(c), tuple(e)) for c, e in self.terms)
        )
        seen = []
        for c, exps in self.terms:
            if len(exps) != self.nvars:
                raise ValueError(f"exponent vector {exps} is not of length {self.nvars}")
            if any(k < 0 or not isinstance(k, int) for k in exps):
                raise ValueError(f"exponents must be nonnegative ints, got {exps}")
            if abs(c) <= COEFF_DROP:
                raise ValueError(f"coefficient {c!r} is below the storage threshold")
            seen.append(exps)
        if seen != sorted(seen) or len(set(seen)) != len(seen):
            raise ValueError("terms must be sorted by distinct exponent vectors")

    @staticmethod
    def zero(nvars: int) -> Poly:
        return Poly(nvars, ())

    @staticmethod
    def from_terms(nvars: int, raw: Sequence[tuple[float, Sequence[int]]]) -> Poly:
        """Canonicalize raw terms: combine, drop near-zeros, sort."""
        acc: dict[tuple[int, ...], float] = {}
        for c, exps in raw:
            key = tuple(exps)
            acc[key] = acc.get(key, 0.0) + float(c)
        terms = tuple(
            (acc[e], e) for e in sorted(acc) if abs(acc[e]) > COEFF_DROP
        )
        return Poly(nvars, terms)

    def evaluate(self, point: Sequence[float]) -> float:
        if len(point) != self.nvars:
            raise DimensionError(
                f"point of length {len(point)} for a polynomial in {self.nvars} variables"
            )
        total = 0.0
        for c, exps in self.terms:
            value = c
            for x, k in zip(point, exps):
                if k:
                    value *= x**k
            total += value
        return total

    def substitute_along(self, f: FinFunction) -> Poly:
        """Rename variable i to variable f(i); merged variables add exponents."""
        if f.dom.size != self.nvars:
            raise DimensionError("substitution map must cover every variable")
        raw = []
        for c, exps in self.terms:
            new = [0] * f.cod.size
            for i, k in enumerate(exps):
                new[f.table[i]] += k
            raw.append((c, tuple(new)))
        return Poly.from_terms(f.cod.size, raw)


def poly_add(*polys: Poly) -> Poly:
    if not polys:
        raise ValueError("need at least one polynomial")
    nvars = polys[0].nvars
    raw: list[tuple[float, tuple[int, ...]]] = []
    for p in polys:
        if p.nvars != nvars:
            raise DimensionError("cannot add polynomials in different variable counts")
        raw.extend(p.terms)
    return Poly.from_terms(nvars, raw)


def poly_close(p: Poly, q: Poly, rel: float = 1e-9) -> bool:
    """Structural equality: identical exponent sets, coefficients within rel.

    A term unmatched on the other side passes only if its coefficient is
    itself below the tolerance (it may have been dropped at the storage
    threshold along one route).
    """
    if p.nvars != q.nvars:
        return False
    a = {e: c for c, e in p.terms}
    b = {e: c for c, e in q.terms}
    for e in set(a) | set(b):
        ca, cb = a.get(e, 0.0), b.get(e, 0.0)
        if abs(ca - cb) > rel * max(abs(ca), abs(cb), 1e-3):
            return False
    return True


@dataclass(frozen=True)
class PolyVectorField:
    """One polynomial per place: the right-hand side of an autonomous ODE."""

    over: FinSet
    components: tuple[Poly, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.over.size:
            raise ValueError(
                f"{len(self.components)} components over a set of size {self.over.size}"
            )
        for i, p in enumerate(self.components):
            if p.nvars != self.over.size:
                raise ValueError(f"component {i} uses {p.nvars} variables, need {self.over.size}")

    @staticmethod
    def zero(over: FinSet) -> PolyVectorField:
        return PolyVectorField(over, tuple(Poly.zero(over.size) for _ in over))

    def evaluate(self, point: Sequence[float]) -> list[float]:
        if len(point) != self.over.size:
            raise DimensionError(
                f"state of length {len(point)} for a field over {self.over.size} places"
            )
        return [p.evaluate(point) for p in self.components]


def field_close(u: PolyVectorField, v: PolyVectorField, rel: float = 1e-9) -> bool:
    return (
        u.over == v.over
        and all(poly_close(p, q, rel) for p, q in zip(u.components, v.components))
    )


def mass_action(net: PetriNetWithRates) -> PolyVectorField:
    """The mass-action field of a rated net.

    Each transition fires at its rate times the product of its input
    concentrations (with multiplicity as exponent), and moves state in the
    direction produced-minus-consumed.
    """
    n = net.places.size
    raw: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in range(n)]
    for consumed, produced, rate in zip(net.net.src, net.net.tgt, net.rates):
        exps = consumed.counts
        deltas = dict(produced.pairs)
        for p, k in consumed.pairs:
            deltas[p] = deltas.get(p, 0) - k
        for p, delta in deltas.items():
            if delta:
                raw[p].append((rate * delta, exps))
    return PolyVectorField(
        net.places, tuple(Poly.from_terms(n, raw[p]) for p in range(n))
    )


def pushforward_field(f: FinFunction, v: PolyVectorField) -> PolyVectorField:
    """Transport a field over M to one over N along f: M -> N.

    Incoming states are pulled back (each variable reads the value of its
    image), components over a shared image are added.  This is functorial
    on the nose, which the tests pin down.
    """
    if v.over != f.dom:
        raise DimensionError("field must live over the map's domain")
    buckets: list[list[Poly]] = [[] for _ in range(f.cod.size)]
    for i, p in enumerate(v.components):
        buckets[f.table[i]].append(p.substitute_along(f))
    components = tuple(
        poly_add(*bucket) if bucket else Poly.zero(f.cod.size) for bucket in buckets
    )
    return PolyVectorField(f.cod, components)


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


@dataclass(frozen=True)
class OpenDynam:
    """A polynomial field with chosen inflow and outflow boundary maps."""

    foot_left: FinSet
    foot_right: FinSet
    leg_left: FinFunction
    leg_right: FinFunction
    field: PolyVectorField

    def __post_init__(self) -> None:
        if self.leg_left.dom != self.foot_left or self.leg_left.cod != self.field.over:
            raise ValueError("left leg must map the left foot into the field's places")
        if self.leg_right.dom != self.foot_right or self.leg_right.cod != self.field.over:
            raise ValueError("right leg must map the right foot into the field's places")

    @property
    def apex(self) -> FinSet:
        return self.field.over


def graybox(open_net: Cospan) -> OpenDynam:
    """Forget a rated open net's wiring diagram, keep its mass-action ODEs."""
    if isinstance(open_net, StructuredCospan):
        open_net = to_decorated(open_net)
    if not isinstance(open_net, DecoratedCospan) or not isinstance(
        open_net.decoration, PetriNetWithRates
    ):
        raise KindError("gray-boxing applies to open Petri nets with rates")
    return OpenDynam(
        open_net.foot_left,
        open_net.foot_right,
        open_net.leg_left,
        open_net.leg_right,
        mass_action(open_net.decoration),
    )


def compose_open_dynam(m: OpenDynam, n: OpenDynam) -> OpenDynam:
    """Glue two open dynamical systems along their shared foot.

    States over the glued place set restrict to states of each part; the
    composite field is the sum of the parts' fields transported along the
    pushout injections.
    """
    if m.foot_right != n.foot_left:
        raise ComposabilityError(
            f"feet disagree: right foot has size {m.foot_right.size}, "
            f"left foot has size {n.foot_left.size}"
        )
    po = pushout(m.leg_right, n.leg_left)
    left = pushforward_field(po.left, m.field)
    right = pushforward_field(po.right, n.field)
    field = PolyVectorField(
        po.apex,
        tuple(poly_add(p, q) for p, q in zip(left.components, right.components)),
    )
    return OpenDynam(
        m.foot_left,
        n.foot_right,
        compose(po.left, m.leg_left),
        compose(po.right, n.leg_right),
        field,
    )


def open_dynam_iso(
    m: OpenDynam, n: OpenDynam, rel: float = 1e-9
) -> Optional[FinFunction]:
    """A place bijection commuting with the legs that carries one field to
    the other (coefficients compared within rel), or None.  The search
    budget is resolved first, as in `find_iso`."""
    budget = _iso_budget(None)
    if m.foot_left != n.foot_left or m.foot_right != n.foot_right:
        return None
    return find_iso(
        m.apex,
        n.apex,
        constraints=[(m.leg_left, n.leg_left), (m.leg_right, n.leg_right)],
        predicate=lambda h: field_close(pushforward_field(h, m.field), n.field, rel),
        budget=budget,
    )


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
        for c, exps in p.terms:
            body.append("t = c[%d]" % len(coefficients))
            coefficients.append(c)
            for j, k in enumerate(exps):
                if k == 1:
                    body.append("t *= x%d" % j)
                elif k:
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
