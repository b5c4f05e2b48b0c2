"""Skeletal finite sets with chosen finite colimits.

Objects are sizes: the set of size n has elements 0..n-1.  Working in the
skeleton makes every colimit a deterministic computation, so composites of
open systems come out bit-for-bit reproducible.  The chosen coproduct puts
the left summand at offset 0 and the right summand at offset left.size; the
chosen pushout quotient numbers equivalence classes by their least member.
"""

from __future__ import annotations

import os
import reprlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import (
    BudgetExceeded,
    CompositionError,
    ModelValidationError,
    SpanError,
)

DEFAULT_ISO_BUDGET = 1_000_000
ISO_BUDGET_ENV = "OPENCOSPAN_ISO_BUDGET"


def _short(value: object) -> str:
    """A value's repr for an error message, cut to 40 characters (reprlib)."""
    text = reprlib.repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


@dataclass(frozen=True)
class FinSet:
    """The canonical finite set {0, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or isinstance(self.size, bool):
            raise ValueError(f"finite set size must be an int, got {_short(self.size)}")
        if self.size < 0:
            raise ValueError(f"finite set size must be >= 0, got {self.size}")

    def __iter__(self):
        return iter(range(self.size))

    def __contains__(self, x: object) -> bool:
        return type(x) is int and 0 <= x < self.size


EMPTY = FinSet(0)


@dataclass(frozen=True)
class FinFunction:
    """A total function between canonical finite sets, stored as a lookup table."""

    dom: FinSet
    cod: FinSet
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.dom.size:
            raise ValueError(
                f"table length {len(self.table)} does not match domain size {self.dom.size}"
            )
        size = self.cod.size
        for x, y in enumerate(self.table):
            if not (type(y) is int and 0 <= y < size):
                raise ValueError(
                    f"table[{x}] = {_short(y)} is outside the codomain of size {size}"
                )

    def __call__(self, x: int) -> int:
        return self.table[x]

    @staticmethod
    def identity(a: FinSet) -> FinFunction:
        return FinFunction(a, a, tuple(range(a.size)))

    @staticmethod
    def from_empty(cod: FinSet) -> FinFunction:
        return FinFunction(EMPTY, cod, ())

    def is_bijection(self) -> bool:
        return self.dom.size == self.cod.size and len(set(self.table)) == self.dom.size

    def inverse(self) -> FinFunction:
        if not self.is_bijection():
            raise ValueError("only bijections can be inverted")
        table = [0] * self.cod.size
        for x, y in enumerate(self.table):
            table[y] = x
        return FinFunction(self.cod, self.dom, tuple(table))


def compose(g: FinFunction, f: FinFunction) -> FinFunction:
    """The composite g after f; f's codomain must equal g's domain."""
    if f.cod != g.dom:
        raise CompositionError(
            f"cannot compose: first map lands in {f.cod.size}, second expects {g.dom.size}"
        )
    return FinFunction(f.dom, g.cod, tuple(g.table[y] for y in f.table))


def coproduct(a: FinSet, b: FinSet) -> tuple[FinSet, FinFunction, FinFunction]:
    """Disjoint union a + b with b shifted past a; returns (sum, inl, inr)."""
    apex = FinSet(a.size + b.size)
    inl = FinFunction(a, apex, tuple(range(a.size)))
    inr = FinFunction(b, apex, tuple(range(a.size, apex.size)))
    return apex, inl, inr


def coproduct_map(f: FinFunction, g: FinFunction) -> FinFunction:
    """f + g acting blockwise: a + b -> c + d."""
    dom = FinSet(f.dom.size + g.dom.size)
    cod = FinSet(f.cod.size + g.cod.size)
    table = tuple(f.table) + tuple(f.cod.size + y for y in g.table)
    return FinFunction(dom, cod, table)


def copair(f: FinFunction, g: FinFunction) -> FinFunction:
    """The map out of a coproduct induced by f and g into a shared codomain."""
    if f.cod != g.cod:
        raise CompositionError("copairing needs a shared codomain")
    return FinFunction(FinSet(f.dom.size + g.dom.size), f.cod, tuple(f.table) + tuple(g.table))


@dataclass(frozen=True)
class PushoutResult:
    """Chosen pushout of a span f: A -> B, g: A -> C.

    `quotient` maps the coproduct B + C onto the apex; `left` and `right`
    are its restrictions to the two summands.  Classes are numbered densely
    in ascending order of their least member of B + C.
    """

    apex: FinSet
    left: FinFunction
    right: FinFunction
    quotient: FinFunction


class _UnionFind:
    """Union-find over 0..n-1 whose class root is always the least member."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # rooting at the minimum keeps the canonical numbering cheap
            if rx < ry:
                self.parent[ry] = rx
            else:
                self.parent[rx] = ry


def pushout(f: FinFunction, g: FinFunction) -> PushoutResult:
    """Glue B and C along the span f: A -> B, g: A -> C."""
    if f.dom != g.dom:
        raise SpanError(
            f"span legs must share a domain, got sizes {f.dom.size} and {g.dom.size}"
        )
    b, c = f.cod, g.cod
    uf = _UnionFind(b.size + c.size)
    for x in f.dom:
        uf.union(f.table[x], b.size + g.table[x])
    labels: dict[int, int] = {}
    qtable = []
    for z in range(b.size + c.size):
        root = uf.find(z)
        if root not in labels:
            labels[root] = len(labels)
        qtable.append(labels[root])
    apex = FinSet(len(labels))
    quotient = FinFunction(FinSet(b.size + c.size), apex, tuple(qtable))
    left = FinFunction(b, apex, tuple(qtable[: b.size]))
    right = FinFunction(c, apex, tuple(qtable[b.size :]))
    return PushoutResult(apex, left, right, quotient)


def _iso_budget(budget: Optional[int]) -> int:
    if budget is not None:
        return budget
    raw = os.environ.get(ISO_BUDGET_ENV)
    if raw is None:
        return DEFAULT_ISO_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ModelValidationError(
            f"{ISO_BUDGET_ENV} must be an integer, got {raw!r}"
        ) from exc
    if value <= 0:
        raise ModelValidationError(f"{ISO_BUDGET_ENV} must be positive, got {value}")
    return value


def find_iso(
    a: FinSet,
    b: FinSet,
    constraints: Sequence[tuple[FinFunction, FinFunction]] = (),
    predicate: Optional[Callable[[FinFunction], bool]] = None,
    budget: Optional[int] = None,
    compatible: Optional[Callable[[int, int, list[Optional[int]]], bool]] = None,
) -> Optional[FinFunction]:
    """Search for a bijection a -> b compatible with constraints and predicate.

    Each constraint is a pair (p: C -> a, q: C -> b) forcing h(p(x)) = q(x);
    these pin down leg images before the backtracking starts.  The predicate,
    if given, accepts or rejects a complete bijection.  Candidates are tried
    in ascending order, so the witness returned is the lexicographically
    smallest table.  Every attempted assignment costs one node against the
    budget (default 10^6, overridable via OPENCOSPAN_ISO_BUDGET), which is
    resolved before anything else, so a malformed value is always reported.

    `compatible(x, y, assignment)`, if given, prunes pairwise: it says
    whether x may map to y given the partial `assignment` (a list indexed
    by elements of a, None where unassigned).  Every pinned pair is tested
    once, with all pins in place, before the search starts; during the
    search a candidate y for x is charged its node first and then tested,
    with x itself still unassigned.  Pruning only skips candidates, so the
    witness stays the smallest one that passes every test.
    """
    max_nodes = _iso_budget(budget)
    if a.size != b.size:
        return None

    assignment: list[Optional[int]] = [None] * a.size
    used = [False] * b.size
    for p, q in constraints:
        if p.dom != q.dom:
            raise SpanError("constraint maps must share a domain")
        if p.cod != a or q.cod != b:
            raise SpanError("constraint maps must land in the two search sets")
        for x in p.dom:
            src, tgt = p.table[x], q.table[x]
            if assignment[src] is None:
                if used[tgt]:
                    return None
                assignment[src] = tgt
                used[tgt] = True
            elif assignment[src] != tgt:
                return None
    if compatible is not None:
        for x, y in enumerate(assignment):
            if y is not None and not compatible(x, y, assignment):
                return None

    free = [x for x in range(a.size) if assignment[x] is None]
    # an explicit stack, so the depth is not bounded by Python's recursion
    # limit: tried[i] is the last candidate tried for free[i], -1 for none
    tried = [-1] * len(free)
    nodes = 0
    i = 0
    while i >= 0:
        if i == len(free):
            h = FinFunction(a, b, tuple(assignment))  # type: ignore[arg-type]
            if predicate is None or predicate(h):
                return h
            i -= 1
            continue
        x = free[i]
        y = tried[i]
        if y >= 0:
            assignment[x] = None
            used[y] = False
        for y in range(y + 1, b.size):
            if used[y]:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded(
                    f"isomorphism search exceeded its budget of {max_nodes} nodes"
                )
            if compatible is None or compatible(x, y, assignment):
                tried[i] = y
                assignment[x] = y
                used[y] = True
                i += 1
                break
        else:
            tried[i] = -1
            i -= 1
    return None
