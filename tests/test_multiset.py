"""The sparse multiset against a Counter oracle.

A `Multiset` stores only its nonzero (place, count) pairs.  The oracle here
is a `collections.Counter` of places filled from the dense counts; it shares
no code with `opencospan.systems`.  The kernel every support move runs,
`systems._push_pairs`, is held to a dense oracle of its own, directly and
through `Poly.substitute_along`.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from opencospan import FinFunction, FinSet, MorphismShapeError, Multiset, Poly, compose
from opencospan.systems import _push_pairs


def oracle(counts):
    return Counter({place: k for place, k in enumerate(counts) if k})


def oracle_pushforward(counts, table, cod_size):
    moved = Counter()
    for place, k in enumerate(counts):
        moved[table[place]] += k
    return [moved[q] for q in range(cod_size)]


sizes = st.integers(min_value=0, max_value=6)


def count_lists(n):
    return st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n)


@st.composite
def multisets(draw):
    n = draw(sizes)
    return FinSet(n), draw(count_lists(n))


@st.composite
def functions_from(draw, dom):
    m = draw(st.integers(min_value=1 if dom.size else 0, max_value=6))
    # m is 0 only when dom is empty, and then no entry is drawn
    table = draw(st.lists(st.integers(0, max(m - 1, 0)), min_size=dom.size, max_size=dom.size))
    return FinFunction(dom, FinSet(m), tuple(table))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pushforward_agrees_with_the_counter_oracle_and_is_functorial(data):
    over, counts = data.draw(multisets())
    f = data.draw(functions_from(over))
    g = data.draw(functions_from(f.cod))
    ms = Multiset(over, counts)
    moved = ms.pushforward(f)
    assert list(moved.counts) == oracle_pushforward(counts, f.table, f.cod.size)
    assert moved.over == f.cod and moved.total() == sum(counts)
    assert Counter(dict(moved.pairs)) == Counter(
        {q: k for q, k in enumerate(oracle_pushforward(counts, f.table, f.cod.size)) if k}
    )
    assert ms.pushforward(compose(g, f)) == moved.pushforward(g)
    assert ms.pushforward(FinFunction.identity(over)) == ms


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_equality_and_hash_follow_the_dense_counts(data):
    over, a = data.draw(multisets())
    b = data.draw(st.one_of(st.just(list(a)), count_lists(over.size)))
    x, y = Multiset(over, a), Multiset(over, b)
    assert (x == y) == (a == b) == (oracle(a) == oracle(b))
    if a == b:
        assert hash(x) == hash(y)
    # the same nonzero counts over a different set are a different multiset
    assert x != Multiset(FinSet(over.size + 1), a + [0])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_counts_round_trip_and_pairs_are_the_sorted_support(data):
    over, counts = data.draw(multisets())
    ms = Multiset(over, counts)
    assert ms.counts == tuple(counts)
    assert Multiset(over, ms.counts) == ms
    assert ms.pairs == tuple(sorted(oracle(counts).items()))
    assert Multiset.from_dict(over, dict(oracle(counts))) == ms
    assert repr(ms) == f"Multiset(over=FinSet(size={over.size}), counts={tuple(counts)!r})"


@pytest.mark.parametrize(
    "counts, message",
    [
        ((1, True, 0), "count at 1 must be a nonnegative int, got True"),
        ((0, 0, -1), "count at 2 must be a nonnegative int, got -1"),
        ((1.0, 0, 0), "count at 0 must be a nonnegative int, got 1.0"),
        ((1, 0), "multiset has 2 counts over a set of size 3"),
    ],
)
def test_the_constructor_rejects_bad_counts_with_the_same_messages(counts, message):
    with pytest.raises(ValueError) as caught:
        Multiset(FinSet(3), counts)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "pairs",
    [((1, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 0),), ((0, -1),), ((3, 1),), ((0, True),)],
)
def test_every_construction_checks_its_pairs(pairs):
    # the sparse path (pushforward, zero, from_dict) is checked as well
    with pytest.raises(ValueError):
        Multiset._from_pairs(FinSet(3), pairs)


def test_a_multiset_is_frozen():
    ms = Multiset(FinSet(2), (1, 0))
    with pytest.raises(AttributeError):
        ms.pairs = ()


def test_pushforward_compares_domains_by_value_not_identity():
    over = FinSet(3)
    ms = Multiset(over, (1, 0, 2))
    same = FinFunction(over, FinSet(2), (0, 1, 1))
    # an equal but distinct domain object takes the equality path
    equal = FinFunction(FinSet(3), FinSet(2), (0, 1, 1))
    assert equal.dom is not over
    assert ms.pushforward(equal) == ms.pushforward(same) == Multiset(FinSet(2), (1, 2))
    for dom in (FinSet(2), FinSet(4)):
        with pytest.raises(MorphismShapeError) as caught:
            ms.pushforward(FinFunction(dom, FinSet(1), (0,) * dom.size))
        assert str(caught.value) == "multiset pushforward along a map with the wrong domain"


def oracle_push(pairs, table, cod_size):
    """A support moved densely, by `oracle_pushforward`, with the nonzero
    images kept in place order."""
    counts = [0] * len(table)
    for p, k in pairs:
        counts[p] = k
    moved = oracle_pushforward(counts, table, cod_size)
    return tuple((q, k) for q, k in enumerate(moved) if k)


@st.composite
def supports(draw, n, places):
    """A support of exactly `places` of the n places, with counts 1..4."""
    chosen = draw(st.lists(st.integers(0, n - 1), min_size=places, max_size=places, unique=True))
    return tuple((p, draw(st.integers(1, 4))) for p in sorted(chosen))


@st.composite
def moves(draw, places, table_kind):
    """A support of exactly `places` places over a set of at most 6, and a
    table on that set: the identity, the reversal, a merge (fewer images
    than support places, so two of them share one) or any table."""
    n = draw(st.integers(min_value=max(places, 1), max_value=6))
    pairs = draw(supports(n, places))
    if table_kind == "identity":
        m, table = n, tuple(range(n))
    elif table_kind == "reverse":
        m, table = n, tuple(range(n - 1, -1, -1))
    else:
        m = draw(st.integers(1, max(places - 1, 1) if table_kind == "merge" else 6))
        table = tuple(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    return pairs, FinFunction(FinSet(n), FinSet(m), table)


SHAPES = [(places, kind) for places in range(5) for kind in ("identity", "reverse", "merge", "any")]


@pytest.mark.parametrize("places, table_kind", SHAPES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_support_move_agrees_with_the_dense_oracle(places, table_kind, data):
    """The one- and two-place fast paths and the merge of three or more places
    all give the dense oracle's support, whatever the table does."""
    pairs, f = data.draw(moves(places, table_kind))
    assert _push_pairs(pairs, f.table) == oracle_push(pairs, f.table, f.cod.size)
    if table_kind == "merge" and places >= 2:
        assert len(_push_pairs(pairs, f.table)) < places


@pytest.mark.parametrize("places, table_kind", SHAPES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_substitution_moves_each_monomial_as_the_dense_oracle_does(places, table_kind, data):
    """Each monomial's support moves as `oracle_push` moves it; like terms
    then add.  Integer coefficients keep every sum exact."""
    pairs, f = data.draw(moves(places, table_kind))
    n, m = f.dom.size, f.cod.size
    coefficients = st.integers(-3, 3).filter(bool).map(float)
    raw = [(data.draw(coefficients), pairs)]
    for _ in range(data.draw(st.integers(0, 3))):
        size = data.draw(st.integers(0, min(4, n)))
        raw.append((data.draw(coefficients), data.draw(supports(n, size))))
    dense = [(c, [dict(support).get(p, 0) for p in range(n)]) for c, support in raw]
    want: dict = {}
    for c, support in raw:
        exps = [0] * m
        for q, k in oracle_push(support, f.table, m):
            exps[q] = k
        want[tuple(exps)] = want.get(tuple(exps), 0.0) + c
    got = Poly.from_terms(n, dense).substitute_along(f)
    assert got.terms == tuple((c, exps) for exps, c in sorted(want.items()) if c)
