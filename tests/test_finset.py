"""The finite-set layer: composition, coproducts, pushouts, iso search.

Pushouts are checked against a brute-force coequalizer that merges blocks
naively, and the iso search against exhaustive permutation enumeration.
"""

import ast
import itertools
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import opencospan
from opencospan import (
    EMPTY,
    BudgetExceeded,
    CompositionError,
    FinFunction,
    FinSet,
    SpanError,
    compose,
    copair,
    coproduct,
    coproduct_map,
    find_iso,
    pushout,
)
from opencospan.finset import ISO_BUDGET_ENV, PushoutResult, induced
from opencospan.laws import brute_quotient_blocks


def fn(table, cod):
    return FinFunction(FinSet(len(table)), FinSet(cod), tuple(table))


# -- hypothesis strategies ---------------------------------------------------

sizes = st.integers(min_value=0, max_value=6)


@st.composite
def functions(draw, dom=None, cod=None):
    n = draw(sizes) if dom is None else dom
    m = draw(st.integers(min_value=1 if n else 0, max_value=6)) if cod is None else cod
    return FinFunction(
        FinSet(n),
        FinSet(m),
        tuple(draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(n)),
    )


@st.composite
def spans(draw):
    a = draw(sizes)
    b = draw(st.integers(min_value=1 if a else 0, max_value=6))
    c = draw(st.integers(min_value=1 if a else 0, max_value=6))
    f = draw(functions(dom=a, cod=b))
    g = draw(functions(dom=a, cod=c))
    return f, g


# -- FinSet / FinFunction basics ---------------------------------------------


def test_finset_iterates_its_elements():
    assert list(FinSet(4)) == [0, 1, 2, 3]
    assert list(EMPTY) == []
    assert 3 in FinSet(4) and 4 not in FinSet(4)


def test_finset_rejects_bad_sizes():
    with pytest.raises(ValueError):
        FinSet(-1)
    with pytest.raises(ValueError):
        FinSet(True)


def test_finfunction_checks_its_table():
    with pytest.raises(ValueError):
        FinFunction(FinSet(2), FinSet(2), (0,))
    with pytest.raises(ValueError):
        FinFunction(FinSet(1), FinSet(2), (2,))


@pytest.mark.parametrize(
    "bad, shown",
    # a bool entry would save as JSON true/false, which load_model refuses
    [(3, "3"), (-1, "-1"), (1.0, "1.0"), ("1", "'1'"), (None, "None"), (True, "True"),
     (False, "False")],
)
def test_finfunction_names_the_first_entry_outside_the_codomain(bad, shown):
    # entries before the bad one are fine, the ones after it are bad too
    with pytest.raises(ValueError) as caught:
        FinFunction(FinSet(4), FinSet(3), (0, 2, bad, 7))
    assert str(caught.value) == f"table[2] = {shown} is outside the codomain of size 3"


def test_identity_and_inverse():
    ident = FinFunction.identity(FinSet(3))
    assert ident.table == (0, 1, 2)
    swap = fn([1, 0], 2)
    assert swap.inverse() == swap
    assert not fn([0, 0], 2).is_bijection()
    with pytest.raises(ValueError):
        fn([0, 0], 2).inverse()


def test_compose_rejects_mismatched_endpoints():
    with pytest.raises(CompositionError):
        compose(fn([0], 1), fn([0], 2))


@given(functions(), st.data())
@settings(max_examples=60, deadline=None)
def test_compose_evaluates_pointwise(f, data):
    g = data.draw(functions(dom=f.cod.size))
    gf = compose(g, f)
    assert gf.dom == f.dom and gf.cod == g.cod
    for x in f.dom:
        assert gf(x) == g(f(x))


@given(functions())
@settings(max_examples=40, deadline=None)
def test_compose_identity_laws(f):
    assert compose(f, FinFunction.identity(f.dom)) == f
    assert compose(FinFunction.identity(f.cod), f) == f


# -- coproducts ----------------------------------------------------------------


def test_coproduct_layout():
    total, inl, inr = coproduct(FinSet(2), FinSet(3))
    assert total == FinSet(5)
    assert inl.table == (0, 1)
    assert inr.table == (2, 3, 4)


def test_coproduct_with_empty_is_identity_shaped():
    total, inl, inr = coproduct(EMPTY, FinSet(3))
    assert total == FinSet(3) and inr.table == (0, 1, 2) and inl.table == ()


@given(sizes, sizes)
@settings(max_examples=40, deadline=None)
def test_coproduct_injections_jointly_cover(a, b):
    total, inl, inr = coproduct(FinSet(a), FinSet(b))
    hit = set(inl.table) | set(inr.table)
    assert hit == set(range(total.size))
    assert len(set(inl.table) & set(inr.table)) == 0


def test_coproduct_map_acts_blockwise():
    f, g = fn([1, 0], 2), fn([0, 0, 1], 3)
    fg = coproduct_map(f, g)
    assert fg.table == (1, 0, 2, 2, 3)


def test_copair_needs_shared_codomain():
    assert copair(fn([1], 2), fn([0, 0], 2)).table == (1, 0, 0)
    with pytest.raises(CompositionError):
        copair(fn([0], 1), fn([0], 2))


# -- pushouts ------------------------------------------------------------------


def blocks_of(po):
    return {
        frozenset(z for z, cls in enumerate(po.quotient.table) if cls == k)
        for k in range(po.apex.size)
    }


def test_pushout_glues_one_point():
    # span 1 -> 2 (hits 0) and 1 -> 1: element 0 of B merges with the single
    # element of C, element 1 of B stays free
    po = pushout(fn([0], 2), fn([0], 1))
    assert po.apex == FinSet(2)
    assert po.left.table == (0, 1)
    assert po.right.table == (0,)
    assert po.quotient.table == (0, 1, 0)


def test_pushout_of_identities_collapses_to_one_copy():
    ident = FinFunction.identity(FinSet(3))
    po = pushout(ident, ident)
    assert po.apex == FinSet(3)
    assert po.left == po.right == ident


def test_pushout_along_empty_domain_is_coproduct():
    po = pushout(FinFunction.from_empty(FinSet(2)), FinFunction.from_empty(FinSet(3)))
    total, inl, inr = coproduct(FinSet(2), FinSet(3))
    assert po.apex == total and po.left == inl and po.right == inr


def test_pushout_requires_a_span():
    with pytest.raises(SpanError):
        pushout(fn([0], 1), fn([0, 0], 1))


def test_pushout_class_numbering_follows_least_members():
    # B = 3, C = 2; glue B0 with C1 and B2 with C0
    f = fn([0, 2], 3)
    g = fn([1, 0], 2)
    po = pushout(f, g)
    # blocks {0,4}, {1}, {2,3} listed by least member 0 < 1 < 2
    assert po.quotient.table == (0, 1, 2, 2, 0)


@given(spans())
@settings(max_examples=100, deadline=None)
def test_pushout_square_commutes_and_matches_brute_blocks(span):
    f, g = span
    po = pushout(f, g)
    assert compose(po.left, f) == compose(po.right, g)
    assert blocks_of(po) == brute_quotient_blocks(f, g)
    # dense numbering, ordered by least member
    mins = sorted(min(blk) for blk in blocks_of(po))
    assert [po.quotient.table[m] for m in mins] == list(range(po.apex.size))


@given(spans())
@settings(max_examples=60, deadline=None)
def test_pushout_is_symmetric_up_to_the_block_swap(span):
    f, g = span
    po_fg = pushout(f, g)
    po_gf = pushout(g, f)
    assert po_fg.apex == po_gf.apex
    b, c = f.cod.size, g.cod.size
    # re-address C + B blocks as B + C blocks and compare the partitions
    readdressed = {
        frozenset(z - c if z >= c else z + b for z in blk)
        for blk in blocks_of(po_gf)
    }
    assert readdressed == blocks_of(po_fg)


def test_pushout_mediates_uniquely_small_case():
    f, g = fn([0, 1], 2), fn([0, 0], 2)
    po = pushout(f, g)
    for k in range(3):
        for u in itertools.product(range(k), repeat=2):
            for w in itertools.product(range(k), repeat=2):
                if any(u[f(x)] != w[g(x)] for x in f.dom):
                    continue
                mediators = [
                    h
                    for h in itertools.product(range(k), repeat=po.apex.size)
                    if all(h[po.left(z)] == u[z] for z in range(2))
                    and all(h[po.right(z)] == w[z] for z in range(2))
                ]
                assert len(mediators) == 1


def all_functions(dom, cod):
    return [fn(table, cod) for table in itertools.product(range(cod), repeat=dom)]


def test_induced_is_the_brute_force_mediating_map():
    """Every span with |A| <= 2 and |B|, |C| <= 3, every (u, w) into a target
    of size <= 2: `induced` is the one h with h.left == u and h.right == w,
    and None when no such h exists."""
    cocones = non_cocones = 0
    for a, b, c in itertools.product(range(3), range(4), range(4)):
        for f, g in itertools.product(all_functions(a, b), all_functions(a, c)):
            po = pushout(f, g)
            for k in range(3):
                for u, w in itertools.product(all_functions(b, k), all_functions(c, k)):
                    mediators = [
                        h
                        for h in all_functions(po.apex.size, k)
                        if compose(h, po.left) == u and compose(h, po.right) == w
                    ]
                    got = induced(po, u, w)
                    if compose(u, f) == compose(w, g):
                        cocones += 1
                        assert mediators == [got]
                    else:
                        non_cocones += 1
                        assert mediators == [] and got is None
    assert cocones > 0 and non_cocones > 0


def test_induced_refuses_maps_that_are_not_out_of_the_pushout():
    po = pushout(fn([0], 2), fn([0], 1))  # B = 2, C = 1
    u, w = fn([0, 0], 1), fn([0], 1)
    assert induced(po, u, w) == fn([0, 0], 1)
    for bad_u, bad_w in (
        (fn([0], 1), w),  # u does not start at B
        (u, fn([0, 0], 1)),  # w does not start at C
        (u, fn([0], 2)),  # no shared codomain
    ):
        with pytest.raises(CompositionError):
            induced(po, bad_u, bad_w)


def test_induced_refuses_a_pushout_whose_legs_miss_a_class():
    """A hand-built `PushoutResult` need not be jointly onto: here apex class
    1 is reached by neither leg, so it has no image under any cocone."""
    f = FinFunction(FinSet(1), FinSet(2), (0,))
    u = FinFunction(FinSet(1), FinSet(3), (2,))
    with pytest.raises(CompositionError, match=r"^apex class 1 is reached by neither leg$"):
        induced(PushoutResult(FinSet(2), f, f), u, u)


def test_the_quotient_is_the_copaired_legs_built_once_on_demand():
    po = pushout(fn([0, 2], 3), fn([1, 0], 2))
    assert "quotient" not in vars(po)
    assert po.quotient.table == po.left.table + po.right.table
    assert po.quotient.dom == FinSet(5) and po.quotient.cod == po.apex
    assert po.quotient is po.quotient


def test_a_pushout_along_the_empty_span_costs_few_bytes_per_element():
    """Peak traced memory of a pushout over 400,000 elements: one parent list
    and the two leg tables, not a dict, a label list and a third table."""
    n = 200_000
    f, g = FinFunction.from_empty(FinSet(n)), FinFunction.from_empty(FinSet(n))
    tracemalloc.start()
    try:
        po = pushout(f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert po.apex == FinSet(2 * n)
    assert peak / (2 * n) <= 120, f"{peak / (2 * n):.0f} bytes per element"


# -- isomorphism search --------------------------------------------------------


def permutation_oracle(a, b, constraints, predicate):
    """Exhaustive reference: the lexicographically least valid bijection."""
    if a.size != b.size:
        return None
    for perm in itertools.permutations(range(b.size)):
        h = FinFunction(a, b, perm)
        if any(
            h(p(x)) != q(x) for p, q in constraints for x in p.dom
        ):
            continue
        if predicate is None or predicate(h):
            return h
    return None


def test_find_iso_identity_when_unconstrained():
    h = find_iso(FinSet(3), FinSet(3))
    assert h == FinFunction.identity(FinSet(3))


def test_find_iso_size_mismatch_is_none():
    assert find_iso(FinSet(2), FinSet(3)) is None


def test_find_iso_respects_constraints():
    # force 0 -> 2 via a one-point constraint leg
    p = fn([0], 3)
    q = fn([2], 3)
    h = find_iso(FinSet(3), FinSet(3), constraints=[(p, q)])
    assert h is not None and h(0) == 2 and h.is_bijection()


def test_find_iso_conflicting_constraints_is_none():
    p = fn([0, 0], 2)
    q = fn([0, 1], 2)
    assert find_iso(FinSet(2), FinSet(2), constraints=[(p, q)]) is None


@pytest.mark.parametrize(
    "p, q, message",
    [
        (fn([0], 2), fn([0, 1], 2), "constraint maps must share a domain"),
        (fn([0], 2), fn([0], 3), "constraint maps must land in the two search sets"),
    ],
)
def test_find_iso_refuses_constraints_of_the_wrong_shape(p, q, message):
    with pytest.raises(SpanError, match=f"^{message}$"):
        find_iso(FinSet(2), FinSet(2), constraints=[(p, q)])


def test_find_iso_predicate_filters():
    target = fn([2, 0, 1], 3)
    h = find_iso(FinSet(3), FinSet(3), predicate=lambda cand: cand == target)
    assert h == target


@given(st.integers(min_value=0, max_value=4), st.data())
@settings(max_examples=40, deadline=None)
def test_find_iso_agrees_with_permutation_oracle(n, data):
    a = b = FinSet(n)
    # a random predicate over permutations, fixed by a drawn acceptance set
    accepted = {
        perm
        for perm in itertools.permutations(range(n))
        if data.draw(st.booleans())
    }
    predicate = lambda h: h.table in accepted
    got = find_iso(a, b, predicate=predicate)
    want = permutation_oracle(a, b, (), predicate)
    assert got == want


def test_find_iso_returns_lexicographically_least_witness():
    h = find_iso(FinSet(3), FinSet(3), predicate=lambda cand: cand.table[0] != 0)
    assert h is not None and h.table == (1, 0, 2)


def test_find_iso_budget_exhaustion_raises():
    never = lambda h: False
    with pytest.raises(BudgetExceeded):
        find_iso(FinSet(6), FinSet(6), predicate=never, budget=10)


def budget_users(tree, module):
    """(module, enclosing top-level name) of each use of `BudgetExceeded`
    outside an import."""
    return {
        (module, getattr(top, "name", None))
        for top in tree.body
        if not isinstance(top, (ast.Import, ast.ImportFrom))
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "BudgetExceeded"
    }


def test_only_find_iso_raises_the_budget_error():
    # one owner of the node rule: no other function charges nodes or builds
    # the error, so a caller cannot charge what the search does not spend
    package = pathlib.Path(opencospan.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        if path.stem != "errors":  # where the class is defined
            found |= budget_users(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == {("finset", "find_iso")}


def test_the_budget_guard_sees_a_helper_that_builds_the_error():
    source = (
        "from .errors import BudgetExceeded\n"
        "def _over_budget(n):\n"
        "    return BudgetExceeded(n)\n"
        "def find_iso():\n"
        "    raise BudgetExceeded('spent')\n"
    )
    assert budget_users(ast.parse(source), "finset") == {
        ("finset", "_over_budget"),
        ("finset", "find_iso"),
    }


def test_find_iso_env_budget_applies(monkeypatch):
    monkeypatch.setenv(ISO_BUDGET_ENV, "10")
    with pytest.raises(BudgetExceeded):
        find_iso(FinSet(6), FinSet(6), predicate=lambda h: False)
    monkeypatch.setenv(ISO_BUDGET_ENV, "1000000")
    assert find_iso(FinSet(6), FinSet(6)) is not None


def test_find_iso_explicit_budget_beats_env(monkeypatch):
    monkeypatch.setenv(ISO_BUDGET_ENV, "1")
    assert find_iso(FinSet(4), FinSet(4), budget=100) is not None


def test_bad_env_budget_is_a_validation_error(monkeypatch):
    from opencospan import ModelValidationError

    monkeypatch.setenv(ISO_BUDGET_ENV, "lots")
    with pytest.raises(ModelValidationError):
        find_iso(FinSet(2), FinSet(2))
    monkeypatch.setenv(ISO_BUDGET_ENV, "0")
    with pytest.raises(ModelValidationError):
        find_iso(FinSet(2), FinSet(2))


def test_bad_env_budget_is_reported_before_the_size_check(monkeypatch):
    from opencospan import ModelValidationError

    monkeypatch.setenv(ISO_BUDGET_ENV, "abc")
    with pytest.raises(ModelValidationError):
        find_iso(FinSet(2), FinSet(3))
