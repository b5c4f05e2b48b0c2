"""Sparse polynomial terms against the dense exponent vectors they stand for.

A `Poly` stores each term's monomial as its nonzero (variable, exponent)
pairs.  The oracles here work on dense tuples, ordered by Python's own tuple
order and multiplied out variable by variable; they share no code with
`opencospan.systems`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from opencospan import FinFunction, FinSet, Poly
from opencospan.systems import _dense_order

sizes = st.integers(min_value=0, max_value=5)
coefficients = st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-12)


def vectors(n):
    return st.tuples(*[st.integers(0, 3)] * n)


def support(vector):
    return tuple((j, k) for j, k in enumerate(vector) if k)


@st.composite
def dense_terms(draw, n):
    """Canonical dense terms: distinct vectors in dense order."""
    vs = sorted(draw(st.lists(vectors(n), unique=True, max_size=6)))
    return tuple((draw(coefficients), v) for v in vs)


@settings(max_examples=150, deadline=None)
@given(sizes.flatmap(lambda n: st.lists(vectors(n), max_size=8)))
def test_the_sparse_key_orders_supports_as_dense_vectors_order(vs):
    assert sorted(vs, key=lambda v: _dense_order(support(v))) == sorted(vs)
    for a in vs:
        for b in vs:
            assert (_dense_order(support(a)) < _dense_order(support(b))) == (a < b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dense_terms_round_trip_and_are_stored_as_their_support(data):
    n = data.draw(sizes)
    dense = data.draw(dense_terms(n))
    p = Poly(n, dense)
    assert p.terms == dense
    assert p.sparse == tuple((c, support(v)) for c, v in dense)
    assert repr(p) == f"Poly(nvars={n}, terms={dense!r})"
    assert Poly.from_terms(n, dense[::-1]) == p
    assert Poly(n, p.terms) == p and hash(Poly(n, p.terms)) == hash(p)
    # an exponent vector that is neither a list nor a tuple is read once, as a tuple
    assert Poly(n, [(c, iter(v)) for c, v in dense]) == p
    if len(dense) > 1:
        with pytest.raises(ValueError, match="sorted by distinct exponent vectors"):
            Poly(n, dense[::-1])
        with pytest.raises(ValueError, match="sorted by distinct exponent vectors"):
            Poly(n, dense[:1] + dense[:1])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_evaluate_multiplies_out_as_the_dense_oracle_does(data):
    n = data.draw(sizes)
    dense = data.draw(dense_terms(n))
    point = data.draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n))
    total = 0.0
    for c, v in dense:
        value = c
        for x, k in zip(point, v):
            if k:
                value *= x**k
        total += value
    assert Poly(n, dense).evaluate(point) == total


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_substitution_adds_merged_exponents_as_the_dense_oracle_does(data):
    n = data.draw(sizes)
    dense = data.draw(dense_terms(n))
    m = data.draw(st.integers(1 if n else 0, 4))
    table = data.draw(st.lists(st.integers(0, max(m - 1, 0)), min_size=n, max_size=n))
    f = FinFunction(FinSet(n), FinSet(m), tuple(table))
    combined = {}
    for c, v in dense:
        moved = [0] * m
        for i, k in enumerate(v):
            moved[table[i]] += k
        combined[tuple(moved)] = combined.get(tuple(moved), 0.0) + c
    want = tuple((combined[v], v) for v in sorted(combined) if abs(combined[v]) > 1e-12)
    assert Poly(n, dense).substitute_along(f).terms == want
