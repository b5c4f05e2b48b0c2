"""Executable laws with independent oracles, shared by tests and the CLI.

Each suite is one generator of per-case verdicts ("" where the law holds,
else what broke), and `_suite` is the one report rule that turns it into a
`LawReport`.  The CLI `check` command and the acceptance tests both run
these suites, so there is exactly one oracle path.  Randomized suites use a
seeded generator and report the first counterexample with enough
coordinates to replay it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import OpenCospanError
from .finset import FinFunction, FinSet, PushoutResult, compose, copair, induced, pushout
from .systems import (
    KINDS,
    Multiset,
    System,
    SystemMorphism,
    compose_morphism,
    decoration_theory,
    system_coproduct,
    system_pushout,
    validate_morphism,
)
from .cospans import (
    DecoratedCospan,
    StructuredCospan,
    check_companion,
    check_conjoint,
    companion,
    conjoint,
    cospan_iso,
    hcompose,
    identity_cospan,
    left_unitor,
    reverse,
    right_unitor,
    tensor,
    to_decorated,
    to_structured,
)
from .dynamics import (
    FlowSchedule,
    Poly,
    PolyVectorField,
    admits_morphism_from_empty,
    field_close,
    graybox,
    simulate,
)

LABEL_POOL = ("0.5", "1", "1.5", "2", "4.25")


@dataclass(frozen=True)
class LawReport:
    law: str
    passed: bool
    cases: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f": {self.detail}" if self.detail else ""
        return f"{status} {self.law} ({self.cases} cases){suffix}"


# ---------------------------------------------------------------------------
# deterministic example systems


def _open(left_legs: Sequence[int], right_legs: Sequence[int], system: System) -> DecoratedCospan:
    """An open system whose feet send their i-th element to place legs[i]."""
    left, right = (
        FinFunction(FinSet(len(legs)), system.interface, tuple(legs))
        for legs in (left_legs, right_legs)
    )
    return DecoratedCospan(left.dom, right.dom, left, right, system)


def _rated(
    places: int, transitions: Sequence[tuple[Sequence[int], Sequence[int], float]]
) -> System:
    """A rated net, one transition per (consumed counts, produced counts, rate)."""
    p = FinSet(places)
    src = tuple(Multiset(p, tuple(consumed)) for consumed, _, _ in transitions)
    tgt = tuple(Multiset(p, tuple(produced)) for _, produced, _ in transitions)
    rates = tuple(rate for _, _, rate in transitions)
    return System("petri_rates", p, FinSet(len(transitions)), src, tgt, rates)


def sir_open_net() -> DecoratedCospan:
    """The open epidemic net: infection S+I -> 2I, recovery I -> R.

    Places are ordered (S, I, R); the left foot exposes S twice and I once
    for inflows, the right foot exposes R for an outflow.
    """
    net = _rated(3, [((1, 1, 0), (0, 2, 0), 0.3), ((0, 1, 0), (0, 0, 1), 0.1)])
    return _open((0, 0, 1), (2,), net)


def sir_halves() -> tuple[DecoratedCospan, DecoratedCospan]:
    """The epidemic net split at the infectious place, ready to recompose."""
    left = _open((0, 0, 1), (1,), _rated(2, [((1, 1), (0, 2), 0.3)]))  # (S, I)
    right = _open((0,), (1,), _rated(2, [((1, 0), (0, 1), 0.1)]))  # (I, R)
    return left, right


def water_net() -> System:
    """One reaction turning two units of the first species and one of the
    second into one of the third."""
    return _rated(3, [((2, 1, 0), (0, 0, 1), 1.0)])


def decay_open_net(rate: float = 0.5) -> DecoratedCospan:
    """A single place emptying at a constant rate: one transition P -> nothing."""
    return _open((), (), _rated(1, [((1,), (0,), rate)]))


def intro_open_graph() -> DecoratedCospan:
    """A four-node, five-edge graph exposing its first node on the left and
    its last node on the right."""
    graph = System("graph", FinSet(4), FinSet(5), (0, 0, 1, 2, 1), (1, 2, 3, 3, 2))
    return _open((0,), (3,), graph)


# ---------------------------------------------------------------------------
# random generators


def random_function(rng: Random, dom: FinSet, cod: FinSet) -> FinFunction:
    if dom.size > 0 and cod.size == 0:
        raise ValueError("no function into the empty set from a nonempty one")
    return FinFunction(dom, cod, tuple(rng.randrange(cod.size) for _ in dom))


# per shape, one random cell end; per attributed kind, one random attribute
_RANDOM_ENDS = {
    "graph": lambda rng, nodes: rng.randrange(nodes.size),
    "petri": lambda rng, nodes: Multiset(
        nodes, tuple(rng.choice((0, 0, 0, 1, 1, 2)) for _ in nodes)
    ),
}
_RANDOM_ATTRS = {
    "lgraph": lambda rng: rng.choice(LABEL_POOL),
    "petri_rates": lambda rng: round(rng.uniform(0.0, 5.0), 6),
}


def random_system(rng: Random, kind: str, nodes: FinSet, max_cells: int = 5) -> System:
    """A random system of a cell kind, built by its theory; the draws come in
    a fixed order: the cell count, all sources, all targets, all attributes."""
    theory = decoration_theory(kind)
    if theory.shape not in _RANDOM_ENDS:
        raise ValueError(f"no random systems of kind {kind!r}")
    n_cells = rng.randint(0, max_cells) if nodes.size > 0 else 0
    cells = FinSet(n_cells)
    end = _RANDOM_ENDS[theory.shape]
    src = tuple(end(rng, nodes) for _ in cells)
    tgt = tuple(end(rng, nodes) for _ in cells)
    attr = _RANDOM_ATTRS.get(kind)
    attrs = None if attr is None else tuple(attr(rng) for _ in cells)
    return theory.build(nodes, cells, src, tgt, attrs)


def random_cospan(
    rng: Random,
    kind: str,
    left: Optional[int] = None,
    right: Optional[int] = None,
    max_apex: int = 5,
    max_foot: int = 3,
    max_cells: int = 5,
) -> DecoratedCospan:
    if left is None:
        left = rng.randint(0, max_foot)
    if right is None:
        right = rng.randint(0, max_foot)
    apex = FinSet(rng.randint(1 if (left or right) else 0, max_apex))
    foot_l, foot_r = FinSet(left), FinSet(right)
    return DecoratedCospan(
        foot_l,
        foot_r,
        random_function(rng, foot_l, apex),
        random_function(rng, foot_r, apex),
        random_system(rng, kind, apex, max_cells),
    )


def random_composable(
    rng: Random, kind: str, count: int, max_apex: int = 5, max_foot: int = 3,
    max_cells: int = 5,
) -> list[DecoratedCospan]:
    feet = [rng.randint(0, max_foot) for _ in range(count + 1)]
    return [
        random_cospan(rng, kind, feet[i], feet[i + 1], max_apex, max_foot, max_cells)
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# one report rule


# every suite by the name its report carries, in the order `check --laws all` runs them
LAW_SUITES: dict[str, Callable[[], LawReport]] = {}


def _suite(law: str) -> Callable[[Callable[..., Iterator[str]]], Callable[..., LawReport]]:
    """Make a suite, registered in `LAW_SUITES` as law, of a generator of
    per-case verdicts: it counts the cases and reports the first broken one,
    or PASS with the count.  A case that raises a package error is broken by
    it, so one suite's error does not hide the others' verdicts."""

    def wrap(cases_of: Callable[..., Iterator[str]]) -> Callable[..., LawReport]:
        @functools.wraps(cases_of)
        def suite(*args, **kwargs) -> LawReport:
            count = 0
            try:
                for broken in cases_of(*args, **kwargs):
                    count += 1
                    if broken:
                        return LawReport(law, False, count, broken)
            except OpenCospanError as exc:
                return LawReport(law, False, count + 1, f"{type(exc).__name__}: {exc}")
            return LawReport(law, True, count)

        LAW_SUITES[law] = suite
        return suite

    return wrap


# ---------------------------------------------------------------------------
# pushouts against a brute-force oracle


def brute_quotient_blocks(f: FinFunction, g: FinFunction) -> set[frozenset[int]]:
    """The coequalizer partition of B + C, computed by naive block merging."""
    b = f.cod.size
    blocks: list[set[int]] = [{z} for z in range(b + g.cod.size)]

    def locate(z: int) -> int:
        for i, blk in enumerate(blocks):
            if z in blk:
                return i
        raise AssertionError("element lost while merging")

    for x in f.dom:
        i, j = locate(f.table[x]), locate(b + g.table[x])
        if i != j:
            blocks[min(i, j)] |= blocks[max(i, j)]
            del blocks[max(i, j)]
    return {frozenset(blk) for blk in blocks}


def _random_span(rng: Random, max_size: int) -> tuple[FinFunction, FinFunction]:
    a = FinSet(rng.randint(0, max_size))
    b = FinSet(rng.randint(1 if a.size else 0, max_size))
    c = FinSet(rng.randint(1 if a.size else 0, max_size))
    return random_function(rng, a, b), random_function(rng, a, c)


def _pushout_broken(f: FinFunction, g: FinFunction) -> str:
    po = pushout(f, g)
    span = f"f={list(f.table)}, g={list(g.table)}"
    got = {
        frozenset(z for z, cls in enumerate(po.quotient.table) if cls == k)
        for k in range(po.apex.size)
    }
    want = brute_quotient_blocks(f, g)
    if got != want:
        return f"partition mismatch for {span}"
    if compose(po.left, f) != compose(po.right, g):
        return f"square does not commute for {span}"
    if set(po.quotient.table) != set(range(po.apex.size)):
        return "injections not jointly surjective"
    mins = sorted(min(blk) for blk in want)
    if any(po.quotient.table[least] != cls for cls, least in enumerate(mins)):
        return f"class numbering not by least member for {span}"
    return ""


@_suite("pushout")
def pushout_matches_oracle(cases: int = 500, max_size: int = 8, seed: int = 2024) -> Iterator[str]:
    """Chosen pushout vs. naive coequalizer: same partition, commuting square,
    jointly surjective injections, classes numbered by least member."""
    rng = Random(seed)
    for _ in range(cases):
        yield _pushout_broken(*_random_span(rng, max_size))


def _cocone_broken(
    po: PushoutResult, f: FinFunction, g: FinFunction, k: int, u_table: tuple, w_table: tuple
) -> str:
    """What breaks at one commuting cocone u, w into a set of size k."""
    # the cocone's value at each element of B + C
    values = u_table + w_table
    mediating = [-1] * po.apex.size
    for cls, value in zip(po.quotient.table, values):
        if mediating[cls] < 0:
            mediating[cls] = value
        elif mediating[cls] != value:
            return (
                f"no mediating map for f={list(f.table)}, g={list(g.table)}, "
                f"u={list(u_table)}, w={list(w_table)}"
            )
    target = FinSet(k)
    h = induced(po, FinFunction(f.cod, target, u_table), FinFunction(g.cod, target, w_table))
    if h is None or h.table != tuple(mediating):
        return (
            f"induced map differs for f={list(f.table)}, g={list(g.table)}, "
            f"u={list(u_table)}, w={list(w_table)}"
        )
    if k ** po.apex.size <= 1000:
        hits = sum(
            1
            for h in itertools.product(range(k), repeat=po.apex.size)
            if all(h[cls] == value for cls, value in zip(po.quotient.table, values))
        )
        if hits != 1:
            return f"{hits} mediating maps for f={list(f.table)}, g={list(g.table)}"
    return ""


@_suite("universal")
def pushout_universal_property(
    cases: int = 60, max_size: int = 5, max_target: int = 3, seed: int = 7,
    work_cap: int = 30000,
) -> Iterator[str]:
    """Every commuting cocone factors through the apex exactly once.

    Cocones are enumerated exhaustively for each target size up to
    max_target (skipping targets whose cocone count exceeds work_cap); each
    cocone is one case.  The mediating map is forced on classes,
    `finset.induced` must return that same map, and for small instances
    uniqueness is double-checked by enumerating all maps out of the apex.
    """
    rng = Random(seed)
    for _ in range(cases):
        f, g = _random_span(rng, max_size)
        po = pushout(f, g)
        b, c = f.cod.size, g.cod.size
        for k in range(max_target + 1):
            if k ** (b + c) > work_cap:
                continue
            for u_table in itertools.product(range(k), repeat=b):
                for w_table in itertools.product(range(k), repeat=c):
                    if all(u_table[f.table[x]] == w_table[g.table[x]] for x in f.dom):
                        yield _cocone_broken(po, f, g, k, u_table, w_table)


# ---------------------------------------------------------------------------
# double-category laws, up to isomorphism


def _unitors_broken(m: DecoratedCospan, kind: str) -> str:
    left = hcompose(identity_cospan(kind, m.foot_left), m)
    right = hcompose(m, identity_cospan(kind, m.foot_right))
    if cospan_iso(left, m) is None:
        return "left unit composite not isomorphic"
    if cospan_iso(right, m) is None:
        return "right unit composite not isomorphic"
    cells = (("left", left_unitor(m), left), ("right", right_unitor(m), right))
    for name, cell, composite in cells:
        if cell.src != composite or cell.tgt != m:
            return f"{name} unitor has wrong boundary"
        if cell.violations() or not cell.apex_map.is_bijection():
            return f"{name} unitor is not an iso square"
    return ""


@_suite("unitors")
def unitor_laws(cases: int = 100, seed: int = 11, kind: str = "graph") -> Iterator[str]:
    """Unit cospans are units up to iso, with the unitor cells as witnesses."""
    rng = Random(seed)
    for _ in range(cases):
        yield _unitors_broken(random_cospan(rng, kind, max_apex=5), kind)


@_suite("associativity")
def associator_law(cases: int = 100, seed: int = 13, kind: str = "graph") -> Iterator[str]:
    rng = Random(seed)
    for case in range(cases):
        m, n, p = random_composable(rng, kind, 3, max_apex=4, max_foot=2, max_cells=4)
        lhs = hcompose(hcompose(m, n), p)
        rhs = hcompose(m, hcompose(n, p))
        yield f"composites not isomorphic at case {case}" if cospan_iso(lhs, rhs) is None else ""


@_suite("interchange")
def interchange_law(cases: int = 100, seed: int = 17, kind: str = "graph") -> Iterator[str]:
    rng = Random(seed)
    for case in range(cases):
        m1, m2 = random_composable(rng, kind, 2, max_apex=3, max_foot=2, max_cells=3)
        n1, n2 = random_composable(rng, kind, 2, max_apex=3, max_foot=2, max_cells=3)
        lhs = hcompose(tensor(m1, n1), tensor(m2, n2))
        rhs = tensor(hcompose(m1, m2), hcompose(n1, n2))
        yield (
            f"tensor and composition do not interchange at case {case}"
            if cospan_iso(lhs, rhs) is None
            else ""
        )


def _all_functions(max_size: int) -> Iterable[FinFunction]:
    for a in range(max_size + 1):
        for b in range(max_size + 1):
            if a > 0 and b == 0:
                continue
            for table in itertools.product(range(b), repeat=a):
                yield FinFunction(FinSet(a), FinSet(b), table)


def _adjoint_broken(check: Callable, f: FinFunction, kind: str) -> str:
    ok, why = check(f, kind)
    return "" if ok else f"f={list(f.table)}:{f.dom.size}->{f.cod.size} ({kind}): {why}"


@_suite("companion")
def companion_laws(
    max_size: int = 4, kinds: tuple[str, ...] = ("graph", "petri_rates")
) -> Iterator[str]:
    """Both companion equations, for every function with dom and cod <= max_size."""
    for kind in kinds:
        for f in _all_functions(max_size):
            yield _adjoint_broken(check_companion, f, kind)


@_suite("conjoint")
def conjoint_laws(
    max_size: int = 4, kinds: tuple[str, ...] = ("graph", "petri_rates")
) -> Iterator[str]:
    """Both conjoint equations, plus conjoint = companion with legs swapped."""
    for kind in kinds:
        for f in _all_functions(max_size):
            yield _adjoint_broken(check_conjoint, f, kind) or (
                f"conjoint of f={list(f.table)} is not the reversed companion"
                if conjoint(f, kind).cospan != reverse(companion(f, kind).cospan)
                else ""
            )


# ---------------------------------------------------------------------------
# conversion between the two presentations


def _pushout_in_x(sm: StructuredCospan, sn: StructuredCospan) -> StructuredCospan:
    """The structured composite built the paper's way: the pushout in X of
    the two apexes over the shared foot, its injections after the outer legs."""
    _, inj_m, inj_n = system_pushout(sm.leg_right, sn.leg_left)
    return StructuredCospan(
        compose_morphism(inj_m, sm.leg_left), compose_morphism(inj_n, sn.leg_right)
    )


def _coproduct_in_x(sm: StructuredCospan, sn: StructuredCospan) -> StructuredCospan:
    """The structured tensor built the paper's way: the coproduct in X of the
    two apexes, each pair of legs copaired from its injections."""
    apex, inj_m, inj_n = system_coproduct(sm.decoration, sn.decoration)

    def side(leg_m: SystemMorphism, leg_n: SystemMorphism) -> SystemMorphism:
        f, g = compose_morphism(inj_m, leg_m), compose_morphism(inj_n, leg_n)
        foot = system_coproduct(leg_m.dom, leg_n.dom)[0]
        return SystemMorphism(
            foot, apex, copair(f.node_map, g.node_map), copair(f.edge_map, g.edge_map)
        )

    return StructuredCospan(side(sm.leg_left, sn.leg_left), side(sm.leg_right, sn.leg_right))


def _conversion_broken(m: DecoratedCospan, n: DecoratedCospan, kind: str) -> str:
    sm, sn = to_structured(m), to_structured(n)
    if to_decorated(sm) != m or to_decorated(sn) != n:
        return f"roundtrip broke a {kind} cospan"
    for what, op, expected in (
        ("composition", hcompose, _pushout_in_x(sm, sn)),
        ("tensor", tensor, _coproduct_in_x(sm, sn)),
    ):
        if to_structured(op(m, n)) != expected or op(sm, sn) != expected:
            return f"{what} not preserved on the nose for kind {kind}"
    return ""


@_suite("conversion")
def conversion_roundtrip(cases: int = 200, seed: int = 23) -> Iterator[str]:
    """to_structured then to_decorated is the identity, and composition and
    tensor agree on the nose, in either presentation, with the pushout and
    the coproduct in X built independently by `system_pushout` and
    `system_coproduct`."""
    rng = Random(seed)
    kinds = [kind for kind in KINDS if decoration_theory(kind).structured]
    for case in range(cases):
        kind = kinds[case % len(kinds)]
        m, n = random_composable(rng, kind, 2, max_apex=4, max_foot=2, max_cells=4)
        yield _conversion_broken(m, n, kind)


# ---------------------------------------------------------------------------
# gray-boxing


@_suite("graybox")
def graybox_functoriality(cases: int = 200, seed: int = 29) -> Iterator[str]:
    """Gray-box then compose equals compose then gray-box.

    Both routes land over the same chosen pushout, so legs must agree
    exactly and fields coefficientwise within 1e-9 relative.
    """
    rng = Random(seed)
    for case in range(cases):
        m, n = random_composable(rng, "petri_rates", 2, max_apex=4, max_foot=3, max_cells=3)
        via_nets = graybox(hcompose(m, n))
        via_fields = hcompose(graybox(m), graybox(n))
        if via_nets.leg_left != via_fields.leg_left or via_nets.leg_right != via_fields.leg_right:
            yield f"legs disagree at case {case}"
        elif not field_close(via_nets.field, via_fields.field):
            yield f"fields disagree beyond 1e-9 at case {case}"
        else:
            yield ""


# ---------------------------------------------------------------------------
# rated morphism validation against brute force


def _random_rated_candidate(rng: Random) -> tuple[SystemMorphism, bool]:
    """A random candidate morphism of rated nets, sometimes correct by
    construction and sometimes perturbed; returns it with the oracle verdict."""
    places = FinSet(rng.randint(1, 4))
    n_trans = rng.randint(0, 3)
    dom = random_system(rng, "petri_rates", places, max_cells=n_trans)
    cod_places = FinSet(rng.randint(1, 4))
    f = random_function(rng, places, cod_places)
    n_out = rng.randint(0 if dom.cells.size == 0 else 1, 3)
    cod_trans = FinSet(n_out)
    g = random_function(rng, dom.cells, cod_trans)

    src = [Multiset.zero(cod_places)] * n_out
    tgt = [Multiset.zero(cod_places)] * n_out
    rates = [0.0] * n_out
    hit = [False] * n_out
    for t in dom.cells:
        image = g.table[t]
        pushed_src = dom.src[t].pushforward(f)
        pushed_tgt = dom.tgt[t].pushforward(f)
        if not hit[image]:
            src[image], tgt[image], hit[image] = pushed_src, pushed_tgt, True
        rates[image] += dom.attrs[t]
    for t_out in range(n_out):
        if not hit[t_out]:
            src[t_out] = Multiset(
                cod_places, tuple(rng.choice((0, 1)) for _ in cod_places)
            )
            tgt[t_out] = Multiset.zero(cod_places)
    if rng.random() < 0.5 and n_out:
        victim = rng.randrange(n_out)
        rates[victim] += rng.choice((0.125, -0.125, 1.0))
    if rng.random() < 0.2 and n_out:
        victim = rng.randrange(n_out)
        bumped = list(src[victim].counts)
        bumped[rng.randrange(cod_places.size)] += 1
        src[victim] = Multiset(cod_places, tuple(bumped))
    cod = System(
        "petri_rates", cod_places, cod_trans, src, tgt, tuple(max(r, 0.0) for r in rates)
    )
    candidate = SystemMorphism(dom, cod, f, g)

    # independent verdict, recomputed from the definition
    valid = True
    for t in dom.cells:
        if dom.src[t].pushforward(f) != cod.src[g.table[t]]:
            valid = False
        if dom.tgt[t].pushforward(f) != cod.tgt[g.table[t]]:
            valid = False
    for t_out in cod.cells:
        fiber = [dom.attrs[t] for t in dom.cells if g.table[t] == t_out]
        if sum(fiber) != cod.attrs[t_out]:
            valid = False
    return candidate, valid


@_suite("rates")
def rate_sum_validation(cases: int = 200, seed: int = 31) -> Iterator[str]:
    rng = Random(seed)
    for case in range(cases):
        candidate, expected = _random_rated_candidate(rng)
        verdict = not validate_morphism(candidate)
        yield (
            f"validator said {verdict}, oracle said {expected} at case {case}"
            if verdict != expected
            else ""
        )


# ---------------------------------------------------------------------------
# the no-left-adjoint witness


@_suite("noleftadjoint")
def no_left_adjoint_witness(max_places: int = 2, max_degree: int = 2) -> Iterator[str]:
    """A field admits a map from the empty system iff it is zero.

    Exhaustive over every field on at most max_places places whose
    components use coefficients in {-1, 0, 1} and total degree at most
    max_degree.
    """
    for n in range(max_places + 1):
        places = FinSet(n)
        monomials = [
            exps
            for exps in itertools.product(range(max_degree + 1), repeat=n)
            if sum(exps) <= max_degree
        ]
        component_pool = [
            Poly.from_terms(n, [(c, e) for c, e in zip(coeffs, monomials) if c])
            for coeffs in itertools.product((-1.0, 0.0, 1.0), repeat=len(monomials))
        ]
        for components in itertools.product(component_pool, repeat=n):
            field = PolyVectorField(places, components)
            expected = all(not p.sparse for p in components)
            yield (
                f"witness check wrong for field {components!r}"
                if admits_morphism_from_empty(field) != expected
                else ""
            )


# ---------------------------------------------------------------------------
# simulation fidelity


@_suite("simulation")
def simulation_fidelity() -> Iterator[str]:
    """Exponential decay against its closed form, and conservation in the
    epidemic net with zero flows."""
    decay = graybox(decay_open_net(rate=0.5))
    trajectory = simulate(decay, FlowSchedule.zero(0, 0), [1.0], 0.0, 10.0, 1e-3)
    worst = max(abs(c[0] - math.exp(-0.5 * t)) for t, c in trajectory)
    yield f"decay differs from the closed form by {worst:.3e}" if worst > 1e-6 else ""
    sir = graybox(sir_open_net())
    trajectory = simulate(sir, FlowSchedule.zero(3, 1), [0.99, 0.01, 0.0], 0.0, 10.0, 1e-3)
    drift = max(abs(sum(state) - 1.0) for _, state in trajectory)
    yield f"epidemic net leaks mass: drift {drift:.3e}" if drift > 1e-9 else ""

