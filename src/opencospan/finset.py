"""Skeletal finite sets with chosen finite colimits.

Objects are sizes: the set of size n has elements 0..n-1.  Working in the
skeleton makes every colimit a deterministic computation, so composites of
open systems come out bit-for-bit reproducible.  The chosen coproduct puts
the left summand at offset 0 and the right summand at offset left.size; the
chosen pushout numbers the classes of B + C by their least member.  It glues
with a union-find whose links always point to a smaller member, so a class's
root is its least member and one pass in ascending order numbers every
class: a root opens the next number, any other member takes the number
already given to its parent.  `induced` is the pushout's universal property:
the one map out of the apex that a cocone on the span factors through.
"""

from __future__ import annotations

import os
import reprlib
from dataclasses import dataclass
from functools import cached_property
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
    """A total function between canonical finite sets, stored as a lookup table.

    The constructor checks every entry: it is where a map enters from
    outside.  A map the library derives from maps and sets already checked
    (a composite, an injection, a pushout leg, a search's witness) is total
    by construction and is built by `_made`, which skips the check."""

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

    @classmethod
    def _made(cls, dom: FinSet, cod: FinSet, table: tuple[int, ...]) -> FinFunction:
        """A map derived from checked values: the table, a tuple, is stored
        as given.  Only `finset` and `systems` call it."""
        f = object.__new__(cls)
        fields = f.__dict__
        fields["dom"], fields["cod"], fields["table"] = dom, cod, table
        return f

    def __call__(self, x: int) -> int:
        return self.table[x]

    @staticmethod
    def identity(a: FinSet) -> FinFunction:
        return FinFunction._made(a, a, tuple(range(a.size)))

    @staticmethod
    def from_empty(cod: FinSet) -> FinFunction:
        return FinFunction._made(EMPTY, cod, ())

    def is_bijection(self) -> bool:
        return self.dom.size == self.cod.size and len(set(self.table)) == self.dom.size

    def inverse(self) -> FinFunction:
        if not self.is_bijection():
            raise ValueError("only bijections can be inverted")
        table = [0] * self.cod.size
        for x, y in enumerate(self.table):
            table[y] = x
        return FinFunction._made(self.cod, self.dom, tuple(table))


def compose(g: FinFunction, f: FinFunction) -> FinFunction:
    """The composite g after f; f's codomain must equal g's domain."""
    if f.cod != g.dom:
        raise CompositionError(
            f"cannot compose: first map lands in {f.cod.size}, second expects {g.dom.size}"
        )
    return FinFunction._made(f.dom, g.cod, tuple([g.table[y] for y in f.table]))


def coproduct(a: FinSet, b: FinSet) -> tuple[FinSet, FinFunction, FinFunction]:
    """Disjoint union a + b with b shifted past a; returns (sum, inl, inr)."""
    apex = FinSet(a.size + b.size)
    inl = FinFunction._made(a, apex, tuple(range(a.size)))
    inr = FinFunction._made(b, apex, tuple(range(a.size, apex.size)))
    return apex, inl, inr


def coproduct_map(f: FinFunction, g: FinFunction) -> FinFunction:
    """f + g acting blockwise: a + b -> c + d."""
    dom = FinSet(f.dom.size + g.dom.size)
    cod = FinSet(f.cod.size + g.cod.size)
    table = f.table + tuple([f.cod.size + y for y in g.table])
    return FinFunction._made(dom, cod, table)


def copair(f: FinFunction, g: FinFunction) -> FinFunction:
    """The map out of a coproduct induced by f and g into a shared codomain."""
    if f.cod != g.cod:
        raise CompositionError("copairing needs a shared codomain")
    return FinFunction._made(FinSet(f.dom.size + g.dom.size), f.cod, f.table + g.table)


@dataclass(frozen=True)
class PushoutResult:
    """Chosen pushout of a span f: A -> B, g: A -> C.

    `left` and `right` map B and C onto the apex; `quotient`, their copairing
    B + C -> apex, is built on first use.  Classes are numbered densely in
    ascending order of their least member of B + C.
    """

    apex: FinSet
    left: FinFunction
    right: FinFunction

    @cached_property
    def quotient(self) -> FinFunction:
        return copair(self.left, self.right)


def pushout(f: FinFunction, g: FinFunction) -> PushoutResult:
    """Glue B and C along the span f: A -> B, g: A -> C."""
    if f.dom != g.dom:
        raise SpanError(
            f"span legs must share a domain, got sizes {f.dom.size} and {g.dom.size}"
        )
    b, c = f.cod.size, g.cod.size
    # a union-find over B + C whose links always point to a smaller member,
    # so each class's root is its least member
    parent = list(range(b + c))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(f.table, g.table):
        x, y = root(x), root(b + y)
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y
    # number the classes in place: a root opens the next class, any other
    # member takes the number already written at its smaller parent
    count = 0
    for z, p in enumerate(parent):
        if p == z:
            parent[z] = count
            count += 1
        else:
            parent[z] = parent[p]
    apex = FinSet(count)
    return PushoutResult(
        apex,
        FinFunction._made(f.cod, apex, tuple(parent[:b])),
        FinFunction._made(g.cod, apex, tuple(parent[b:])),
    )


def induced(po: PushoutResult, u: FinFunction, w: FinFunction) -> Optional[FinFunction]:
    """The map h out of the chosen pushout that the cocone u: B -> T,
    w: C -> T induces, the one with h . po.left == u and h . po.right == w;
    None when u and w send two members of one class to different places."""
    if u.dom != po.left.dom or w.dom != po.right.dom:
        raise CompositionError(
            f"cannot induce a map out of a pushout of {po.left.dom.size} and "
            f"{po.right.dom.size} from maps out of {u.dom.size} and {w.dom.size}"
        )
    if u.cod != w.cod:
        raise CompositionError("an induced map needs a cocone with a shared codomain")
    table = [-1] * po.apex.size
    for classes, images in ((po.left.table, u.table), (po.right.table, w.table)):
        for cls, image in zip(classes, images):
            if table[cls] < 0:
                table[cls] = image
            elif table[cls] != image:
                return None
    return FinFunction._made(po.apex, u.cod, tuple(table))


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
    compatible: Optional[Callable[[int, int, list[Optional[int]], list[bool]], bool]] = None,
) -> Optional[FinFunction]:
    """Search for a bijection a -> b compatible with constraints and predicate.

    Each constraint is a pair (p: C -> a, q: C -> b) forcing h(p(x)) = q(x);
    these pin down leg images before the backtracking starts.  The predicate,
    if given, accepts or rejects a complete bijection.  Candidates are tried
    in ascending order, so the witness returned is the lexicographically
    smallest table.  Every attempted assignment of a free element costs one
    node against the budget (default 10^6, overridable via
    OPENCOSPAN_ISO_BUDGET); pinned elements cost none.  This is the one
    place that charges nodes and raises `BudgetExceeded`.  The budget is
    resolved before anything else, so a malformed value is always reported.

    The free targets are kept in a linked list in ascending order, as in
    Knuth's dancing links (arXiv cs/0011047): a target is unlinked while it
    is assigned and relinked where it was when the search takes the
    assignment back, so a level visits only free targets, and each visit
    is a charged node.  The search takes assignments back in the reverse
    order it makes them, so a singly linked list is enough: a target is
    unlinked after the candidate the scan reached it from, and relinked
    there.

    `compatible(x, y, assignment, used)`, if given, prunes pairwise: it says
    whether x may map to y given the partial `assignment` (a list indexed
    by elements of a, None where unassigned) and `used` (a list indexed by
    elements of b, True where assigned).  Every pinned pair is tested
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
            if y is not None and not compatible(x, y, assignment, used):
                return None

    free = [x for x in range(a.size) if assignment[x] is None]
    # the free targets in ascending order, a circular list through nxt
    # whose head is b.size
    head = b.size
    nxt = [head] * (head + 1)
    last = head
    for y, taken in enumerate(used):
        if not taken:
            nxt[last] = last = y
    nxt[last] = head
    # an explicit stack, so the depth is not bounded by Python's recursion
    # limit: level i assigns free[i], and before[i] is the target after
    # which its image was unlinked.  Every deeper level has relinked its own
    # image by the time level i takes its back, so the list is then as it
    # was, and the image goes back after before[i]
    before = [head] * len(free)
    nodes = 0
    i = 0
    while i >= 0:
        if i == len(free):
            h = FinFunction._made(a, b, tuple(assignment))  # type: ignore[arg-type]
            if predicate is None or predicate(h):
                return h
            i -= 1
            continue
        x = free[i]
        y = assignment[x]
        if y is None:
            prev = head
        else:
            assignment[x] = None
            used[y] = False
            nxt[before[i]] = prev = y
        y = nxt[prev]
        while y != head:
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded(
                    f"isomorphism search exceeded its budget of {max_nodes} nodes"
                )
            if compatible is None or compatible(x, y, assignment, used):
                assignment[x] = y
                used[y] = True
                before[i] = prev
                nxt[prev] = nxt[y]
                i += 1
                break
            prev = y
            y = nxt[y]
        else:
            i -= 1
    return None
