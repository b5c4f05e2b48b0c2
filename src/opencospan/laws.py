"""Executable laws with independent oracles, shared by tests and the CLI.

Each checker returns a `LawReport`; the CLI `check` command and the
acceptance test suite both run these, so there is exactly one oracle path.
Randomized suites use a seeded generator and report the first
counterexample with enough coordinates to replay it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Optional

from .finset import FinFunction, FinSet, compose, copair, induced, pushout
from .systems import (
    Graph,
    Multiset,
    PetriNet,
    PetriNetWithRates,
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


def sir_open_net() -> DecoratedCospan:
    """The open epidemic net: infection S+I -> 2I, recovery I -> R.

    Places are ordered (S, I, R); the left foot exposes S twice and I once
    for inflows, the right foot exposes R for an outflow.
    """
    places = FinSet(3)
    infection = (Multiset(places, (1, 1, 0)), Multiset(places, (0, 2, 0)))
    recovery = (Multiset(places, (0, 1, 0)), Multiset(places, (0, 0, 1)))
    net = PetriNetWithRates(
        PetriNet(
            places,
            FinSet(2),
            (infection[0], recovery[0]),
            (infection[1], recovery[1]),
        ),
        (0.3, 0.1),
    )
    return DecoratedCospan(
        FinSet(3),
        FinSet(1),
        FinFunction(FinSet(3), places, (0, 0, 1)),
        FinFunction(FinSet(1), places, (2,)),
        net,
    )


def sir_halves() -> tuple[DecoratedCospan, DecoratedCospan]:
    """The epidemic net split at the infectious place, ready to recompose."""
    left_places = FinSet(2)  # (S, I)
    left = DecoratedCospan(
        FinSet(3),
        FinSet(1),
        FinFunction(FinSet(3), left_places, (0, 0, 1)),
        FinFunction(FinSet(1), left_places, (1,)),
        PetriNetWithRates(
            PetriNet(
                left_places,
                FinSet(1),
                (Multiset(left_places, (1, 1)),),
                (Multiset(left_places, (0, 2)),),
            ),
            (0.3,),
        ),
    )
    right_places = FinSet(2)  # (I, R)
    right = DecoratedCospan(
        FinSet(1),
        FinSet(1),
        FinFunction(FinSet(1), right_places, (0,)),
        FinFunction(FinSet(1), right_places, (1,)),
        PetriNetWithRates(
            PetriNet(
                right_places,
                FinSet(1),
                (Multiset(right_places, (1, 0)),),
                (Multiset(right_places, (0, 1)),),
            ),
            (0.1,),
        ),
    )
    return left, right


def water_net() -> PetriNetWithRates:
    """One reaction turning two units of the first species and one of the
    second into one of the third."""
    places = FinSet(3)
    return PetriNetWithRates(
        PetriNet(
            places,
            FinSet(1),
            (Multiset(places, (2, 1, 0)),),
            (Multiset(places, (0, 0, 1)),),
        ),
        (1.0,),
    )


def decay_open_net(rate: float = 0.5) -> DecoratedCospan:
    """A single place emptying at a constant rate: one transition P -> nothing."""
    places = FinSet(1)
    net = PetriNetWithRates(
        PetriNet(places, FinSet(1), (Multiset(places, (1,)),), (Multiset(places, (0,)),)),
        (rate,),
    )
    return DecoratedCospan(
        FinSet(0),
        FinSet(0),
        FinFunction.from_empty(places),
        FinFunction.from_empty(places),
        net,
    )


def intro_open_graph() -> DecoratedCospan:
    """A four-node, five-edge graph exposing its first node on the left and
    its last node on the right."""
    nodes, edges = FinSet(4), FinSet(5)
    graph = Graph(
        nodes,
        edges,
        FinFunction(edges, nodes, (0, 0, 1, 2, 1)),
        FinFunction(edges, nodes, (1, 2, 3, 3, 2)),
    )
    return DecoratedCospan(
        FinSet(1),
        FinSet(1),
        FinFunction(FinSet(1), nodes, (0,)),
        FinFunction(FinSet(1), nodes, (3,)),
        graph,
    )


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


def pushout_matches_oracle(cases: int = 500, max_size: int = 8, seed: int = 2024) -> LawReport:
    """Chosen pushout vs. naive coequalizer: same partition, commuting square,
    jointly surjective injections, classes numbered by least member."""
    rng = Random(seed)
    for case in range(cases):
        f, g = _random_span(rng, max_size)
        po = pushout(f, g)
        got = {
            frozenset(z for z, cls in enumerate(po.quotient.table) if cls == k)
            for k in range(po.apex.size)
        }
        want = brute_quotient_blocks(f, g)
        if got != want:
            return LawReport(
                "pushout", False, case + 1,
                f"partition mismatch for f={list(f.table)}, g={list(g.table)}",
            )
        if compose(po.left, f) != compose(po.right, g):
            return LawReport(
                "pushout", False, case + 1,
                f"square does not commute for f={list(f.table)}, g={list(g.table)}",
            )
        if set(po.quotient.table) != set(range(po.apex.size)):
            return LawReport("pushout", False, case + 1, "injections not jointly surjective")
        mins = sorted(min(blk) for blk in want)
        for cls, least in enumerate(mins):
            if po.quotient.table[least] != cls:
                return LawReport(
                    "pushout", False, case + 1,
                    f"class numbering not by least member for f={list(f.table)}, g={list(g.table)}",
                )
    return LawReport("pushout", True, cases)


def pushout_universal_property(
    cases: int = 60, max_size: int = 5, max_target: int = 3, seed: int = 7,
    work_cap: int = 30000,
) -> LawReport:
    """Every commuting cocone factors through the apex exactly once.

    Cocones are enumerated exhaustively for each target size up to
    max_target (skipping targets whose cocone count exceeds work_cap); the
    mediating map is forced on classes, `finset.induced` must return that
    same map, and for small instances uniqueness is double-checked by
    enumerating all maps out of the apex.
    """
    rng = Random(seed)
    checked = 0
    for case in range(cases):
        f, g = _random_span(rng, max_size)
        po = pushout(f, g)
        b, c = f.cod.size, g.cod.size
        for k in range(max_target + 1):
            if k ** (b + c) > work_cap:
                continue
            for u_table in itertools.product(range(k), repeat=b):
                for w_table in itertools.product(range(k), repeat=c):
                    if any(u_table[f.table[x]] != w_table[g.table[x]] for x in f.dom):
                        continue
                    checked += 1
                    mediating = [-1] * po.apex.size
                    ok = True
                    for z in range(b + c):
                        value = u_table[z] if z < b else w_table[z - b]
                        cls = po.quotient.table[z]
                        if mediating[cls] < 0:
                            mediating[cls] = value
                        elif mediating[cls] != value:
                            ok = False
                            break
                    if not ok:
                        return LawReport(
                            "universal", False, checked,
                            f"no mediating map for f={list(f.table)}, g={list(g.table)}, "
                            f"u={list(u_table)}, w={list(w_table)}",
                        )
                    target = FinSet(k)
                    h = induced(
                        po, FinFunction(f.cod, target, u_table), FinFunction(g.cod, target, w_table)
                    )
                    if h is None or h.table != tuple(mediating):
                        return LawReport(
                            "universal", False, checked,
                            f"induced map differs for f={list(f.table)}, g={list(g.table)}, "
                            f"u={list(u_table)}, w={list(w_table)}",
                        )
                    if k ** po.apex.size <= 1000:
                        hits = sum(
                            1
                            for h in itertools.product(range(k), repeat=po.apex.size)
                            if all(h[po.quotient.table[z]] == (u_table[z] if z < b else w_table[z - b])
                                   for z in range(b + c))
                        )
                        if hits != 1:
                            return LawReport(
                                "universal", False, checked,
                                f"{hits} mediating maps for f={list(f.table)}, g={list(g.table)}",
                            )
    return LawReport("universal", True, checked)


# ---------------------------------------------------------------------------
# double-category laws, up to isomorphism


def unitor_laws(cases: int = 100, seed: int = 11, kind: str = "graph") -> LawReport:
    """Unit cospans are units up to iso, with the unitor cells as witnesses."""
    rng = Random(seed)
    for case in range(cases):
        m = random_cospan(rng, kind, max_apex=5)
        left = hcompose(identity_cospan(kind, m.foot_left), m)
        right = hcompose(m, identity_cospan(kind, m.foot_right))
        if cospan_iso(left, m) is None:
            return LawReport("unitors", False, case + 1, "left unit composite not isomorphic")
        if cospan_iso(right, m) is None:
            return LawReport("unitors", False, case + 1, "right unit composite not isomorphic")
        for name, cell, composite in (
            ("left", left_unitor(m), left),
            ("right", right_unitor(m), right),
        ):
            if cell.src != composite or cell.tgt != m:
                return LawReport("unitors", False, case + 1, f"{name} unitor has wrong boundary")
            if cell.violations() or not cell.apex_map.is_bijection():
                return LawReport("unitors", False, case + 1, f"{name} unitor is not an iso square")
    return LawReport("unitors", True, cases)


def associator_law(cases: int = 100, seed: int = 13, kind: str = "graph") -> LawReport:
    rng = Random(seed)
    for case in range(cases):
        m, n, p = random_composable(rng, kind, 3, max_apex=4, max_foot=2, max_cells=4)
        lhs = hcompose(hcompose(m, n), p)
        rhs = hcompose(m, hcompose(n, p))
        if cospan_iso(lhs, rhs) is None:
            return LawReport(
                "associativity", False, case + 1,
                f"composites not isomorphic at case {case}",
            )
    return LawReport("associativity", True, cases)


def interchange_law(cases: int = 100, seed: int = 17, kind: str = "graph") -> LawReport:
    rng = Random(seed)
    for case in range(cases):
        m1, m2 = random_composable(rng, kind, 2, max_apex=3, max_foot=2, max_cells=3)
        n1, n2 = random_composable(rng, kind, 2, max_apex=3, max_foot=2, max_cells=3)
        lhs = hcompose(tensor(m1, n1), tensor(m2, n2))
        rhs = tensor(hcompose(m1, m2), hcompose(n1, n2))
        if cospan_iso(lhs, rhs) is None:
            return LawReport(
                "interchange", False, case + 1,
                f"tensor and composition do not interchange at case {case}",
            )
    return LawReport("interchange", True, cases)


def _all_functions(max_size: int) -> Iterable[FinFunction]:
    for a in range(max_size + 1):
        for b in range(max_size + 1):
            if a > 0 and b == 0:
                continue
            for table in itertools.product(range(b), repeat=a):
                yield FinFunction(FinSet(a), FinSet(b), table)


def companion_laws(max_size: int = 4, kinds: tuple[str, ...] = ("graph", "petri_rates")) -> LawReport:
    """Both companion equations, for every function with dom and cod <= max_size."""
    checked = 0
    for kind in kinds:
        for f in _all_functions(max_size):
            checked += 1
            ok, why = check_companion(f, kind)
            if not ok:
                return LawReport(
                    "companion", False, checked,
                    f"f={list(f.table)}:{f.dom.size}->{f.cod.size} ({kind}): {why}",
                )
    return LawReport("companion", True, checked)


def conjoint_laws(max_size: int = 4, kinds: tuple[str, ...] = ("graph", "petri_rates")) -> LawReport:
    """Both conjoint equations, plus conjoint = companion with legs swapped."""
    checked = 0
    for kind in kinds:
        for f in _all_functions(max_size):
            checked += 1
            ok, why = check_conjoint(f, kind)
            if not ok:
                return LawReport(
                    "conjoint", False, checked,
                    f"f={list(f.table)}:{f.dom.size}->{f.cod.size} ({kind}): {why}",
                )
            if conjoint(f, kind).cospan != reverse(companion(f, kind).cospan):
                return LawReport(
                    "conjoint", False, checked,
                    f"conjoint of f={list(f.table)} is not the reversed companion",
                )
    return LawReport("conjoint", True, checked)


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


def conversion_roundtrip(cases: int = 200, seed: int = 23) -> LawReport:
    """to_structured then to_decorated is the identity, and composition and
    tensor agree on the nose, in either presentation, with the pushout and
    the coproduct in X built independently by `system_pushout` and
    `system_coproduct`."""
    rng = Random(seed)
    kinds = ("graph", "lgraph", "petri", "petri_rates")
    for case in range(cases):
        kind = kinds[case % len(kinds)]
        m, n = random_composable(rng, kind, 2, max_apex=4, max_foot=2, max_cells=4)
        sm, sn = to_structured(m), to_structured(n)
        if to_decorated(sm) != m or to_decorated(sn) != n:
            return LawReport("conversion", False, case + 1, f"roundtrip broke a {kind} cospan")
        for what, op, expected in (
            ("composition", hcompose, _pushout_in_x(sm, sn)),
            ("tensor", tensor, _coproduct_in_x(sm, sn)),
        ):
            if to_structured(op(m, n)) != expected or op(sm, sn) != expected:
                return LawReport(
                    "conversion", False, case + 1,
                    f"{what} not preserved on the nose for kind {kind}",
                )
    return LawReport("conversion", True, cases)


# ---------------------------------------------------------------------------
# gray-boxing


def graybox_functoriality(cases: int = 200, seed: int = 29) -> LawReport:
    """Gray-box then compose equals compose then gray-box.

    Both routes land over the same chosen pushout, so legs must agree
    exactly and fields coefficientwise within 1e-9 relative.
    """
    rng = Random(seed)
    for case in range(cases):
        m, n = random_composable(rng, "petri_rates", 2, max_apex=4, max_foot=3, max_cells=3)
        via_nets = graybox(hcompose(m, n))
        via_fields = hcompose(graybox(m), graybox(n))
        if (
            via_nets.leg_left != via_fields.leg_left
            or via_nets.leg_right != via_fields.leg_right
        ):
            return LawReport("graybox", False, case + 1, f"legs disagree at case {case}")
        if not field_close(via_nets.field, via_fields.field, rel=1e-9):
            return LawReport(
                "graybox", False, case + 1,
                f"fields disagree beyond 1e-9 at case {case}",
            )
    return LawReport("graybox", True, cases)


# ---------------------------------------------------------------------------
# rated morphism validation against brute force


def _random_rated_candidate(
    rng: Random,
) -> tuple[SystemMorphism, bool]:
    """A random candidate morphism of rated nets, sometimes correct by
    construction and sometimes perturbed; returns it with the oracle verdict."""
    places = FinSet(rng.randint(1, 4))
    n_trans = rng.randint(0, 3)
    dom = random_system(rng, "petri_rates", places, max_cells=n_trans)
    cod_places = FinSet(rng.randint(1, 4))
    f = random_function(rng, places, cod_places)
    n_out = rng.randint(0 if dom.transitions.size == 0 else 1, 3)
    cod_trans = FinSet(n_out)
    g = random_function(rng, dom.transitions, cod_trans)

    src = [Multiset.zero(cod_places)] * n_out
    tgt = [Multiset.zero(cod_places)] * n_out
    rates = [0.0] * n_out
    hit = [False] * n_out
    for t in dom.transitions:
        image = g.table[t]
        pushed_src = dom.net.src[t].pushforward(f)
        pushed_tgt = dom.net.tgt[t].pushforward(f)
        if not hit[image]:
            src[image], tgt[image], hit[image] = pushed_src, pushed_tgt, True
        rates[image] += dom.rates[t]
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
    cod = PetriNetWithRates(
        PetriNet(cod_places, cod_trans, tuple(src), tuple(tgt)),
        tuple(max(r, 0.0) for r in rates),
    )
    candidate = SystemMorphism(dom, cod, f, g)

    # independent verdict, recomputed from the definition
    valid = True
    for t in dom.transitions:
        if dom.net.src[t].pushforward(f) != cod.net.src[g.table[t]]:
            valid = False
        if dom.net.tgt[t].pushforward(f) != cod.net.tgt[g.table[t]]:
            valid = False
    for t_out in cod.transitions:
        fiber = [dom.rates[t] for t in dom.transitions if g.table[t] == t_out]
        if sum(fiber) != cod.rates[t_out]:
            valid = False
    return candidate, valid


def rate_sum_validation(cases: int = 200, seed: int = 31) -> LawReport:
    rng = Random(seed)
    for case in range(cases):
        candidate, expected = _random_rated_candidate(rng)
        verdict = not validate_morphism(candidate)
        if verdict != expected:
            return LawReport(
                "rates", False, case + 1,
                f"validator said {verdict}, oracle said {expected} at case {case}",
            )
    return LawReport("rates", True, cases)


# ---------------------------------------------------------------------------
# the no-left-adjoint witness


def no_left_adjoint_witness(max_places: int = 2, max_degree: int = 2) -> LawReport:
    """A field admits a map from the empty system iff it is zero.

    Exhaustive over every field on at most max_places places whose
    components use coefficients in {-1, 0, 1} and total degree at most
    max_degree.
    """
    checked = 0
    for n in range(max_places + 1):
        places = FinSet(n)
        monomials = [
            exps
            for exps in itertools.product(range(max_degree + 1), repeat=n)
            if sum(exps) <= max_degree
        ]
        component_pool: list[Poly] = []
        for coeffs in itertools.product((-1.0, 0.0, 1.0), repeat=len(monomials)):
            component_pool.append(
                Poly.from_terms(n, [(c, e) for c, e in zip(coeffs, monomials) if c])
            )
        for components in itertools.product(component_pool, repeat=n):
            field = PolyVectorField(places, components)
            checked += 1
            expected = all(not p.sparse for p in components)
            if admits_morphism_from_empty(field) != expected:
                return LawReport(
                    "noleftadjoint", False, checked,
                    f"witness check wrong for field {components!r}",
                )
    return LawReport("noleftadjoint", True, checked)


# ---------------------------------------------------------------------------
# simulation fidelity


def simulation_fidelity() -> LawReport:
    """Exponential decay against its closed form, and conservation in the
    epidemic net with zero flows."""
    decay = graybox(decay_open_net(rate=0.5))
    trajectory = simulate(decay, FlowSchedule.zero(0, 0), [1.0], 0.0, 10.0, 1e-3)
    worst = max(abs(c[0] - math.exp(-0.5 * t)) for t, c in trajectory)
    if worst > 1e-6:
        return LawReport(
            "simulation", False, len(trajectory),
            f"decay differs from the closed form by {worst:.3e}",
        )
    sir = graybox(sir_open_net())
    trajectory = simulate(sir, FlowSchedule.zero(3, 1), [0.99, 0.01, 0.0], 0.0, 10.0, 1e-3)
    drift = max(abs(sum(state) - 1.0) for _, state in trajectory)
    if drift > 1e-9:
        return LawReport(
            "simulation", False, len(trajectory),
            f"epidemic net leaks mass: drift {drift:.3e}",
        )
    return LawReport("simulation", True, 2)


# ---------------------------------------------------------------------------
# registry for the CLI


LAW_SUITES: dict[str, Callable[[], LawReport]] = {
    "pushout": pushout_matches_oracle,
    "universal": pushout_universal_property,
    "unitors": unitor_laws,
    "associativity": associator_law,
    "interchange": interchange_law,
    "companion": companion_laws,
    "conjoint": conjoint_laws,
    "conversion": conversion_roundtrip,
    "graybox": graybox_functoriality,
    "rates": rate_sum_validation,
    "noleftadjoint": no_left_adjoint_witness,
    "simulation": simulation_fidelity,
}
