"""`cospans._profiles` counts in place, with no call per count.  Its
colours, rows and key counts, in the same order, and the colours it
interns, equal those of the counting it replaced, which is kept here as
the oracle.  The inputs are every model file of the ledger's corpus and
seeded draws of all five kinds, composites and gray-boxes among them."""

import pathlib
from collections import defaultdict
from random import Random

from opencospan import (
    FinSet,
    Poly,
    PolyVectorField,
    graybox,
    hcompose,
    load_model,
    tensor,
)
from opencospan.cospans import _incidences, _present, _profiles
from opencospan.errors import OpenCospanError
from opencospan.laws import random_composable, random_system
from opencospan.systems import interface_of
from test_ledger import FAMILIES, Corpus, draw_case, value_damage_cases

KINDS = ("graph", "lgraph", "petri", "petri_rates", "dynam")


def profiles_by_calls(decoration, colours):
    """`_profiles` as it was: one `count` call per count, an `at` dict per
    incidence."""

    def count(counts, key):
        counts[key] = counts.get(key, 0) + 1

    bags = defaultdict(dict)
    rows = defaultdict(dict)
    keys = {}
    for consumed, produced, key in _incidences(decoration):
        count(keys, key)
        at = {x: (k, 0) for x, k in consumed}
        for x, k in produced:
            at[x] = (at.get(x, (0, 0))[0], k)
        for x, here in at.items():
            count(bags[x], (here, key))
            row = rows[x]
            for x2, there in at.items():
                if x2 != x:
                    count(row.setdefault(x2, {}), (here, there, key))
    colour = [0] * interface_of(decoration).size
    for x, bag in bags.items():
        colour[x] = colours.setdefault(frozenset(bag.items()), len(colours))
    return colour, rows, keys


def in_order(profile):
    """A profile with every dict as its list of items, so order counts."""
    colour, rows, keys = profile
    rows = [(x, [(x2, list(meets.items())) for x2, meets in row.items()]) for x, row in rows.items()]
    return colour, rows, list(keys.items())


def assert_same_profiles(decorations):
    before, after = {frozenset(): 0}, {frozenset(): 0}
    for d in decorations:
        assert in_order(_profiles(d, after)) == in_order(profiles_by_calls(d, before))
    assert list(after.items()) == list(before.items())


def ledger_decorations(root):
    """The decoration of every model file the ledger's corpus reads."""
    corpus = Corpus(str(root))
    for family in FAMILIES:
        if family != "usage":
            rng = Random(f"ledger-{family}")
            for _ in range(40):
                draw_case(rng, family, corpus)
    list(value_damage_cases(corpus))
    decorations = []
    for path in sorted(pathlib.Path(root).glob("*.json")):
        try:
            payload = load_model(str(path)).payload
        except OpenCospanError:  # damaged on purpose, or a simulation config
            continue
        decorations.append(_present(payload, "decorated").decoration)
    return decorations


def test_profiles_equal_the_counting_by_calls_over_the_ledger_corpus(tmp_path):
    decorations = ledger_decorations(tmp_path)
    assert {d.kind for d in decorations} == set(KINDS)
    assert len(decorations) > 200
    assert_same_profiles(decorations)


def random_field(rng, size):
    terms = [
        {tuple(rng.choice((0, 0, 1, 2)) for _ in range(size)): rng.choice((-1.0, 0.5, 2.0))
         for _ in range(rng.randint(0, 3))}
        for _ in range(size)
    ]
    return PolyVectorField(
        FinSet(size), tuple(Poly.from_terms(size, [(c, e) for e, c in t.items()]) for t in terms)
    )


def test_profiles_equal_the_counting_by_calls_over_seeded_draws_of_every_kind():
    rng = Random("profiles")
    decorations = []
    for kind in KINDS[:4]:
        for _ in range(150):
            decorations.append(random_system(rng, kind, FinSet(rng.randint(0, 5)), max_cells=6))
        for _ in range(20):
            chain = random_composable(rng, kind, 3, max_apex=4)
            decorations.append(hcompose(hcompose(chain[0], chain[1]), chain[2]).decoration)
            decorations.append(tensor(chain[0], chain[1]).decoration)
    for _ in range(150):
        decorations.append(random_field(rng, rng.randint(0, 5)))
    for _ in range(40):
        chain = random_composable(rng, "petri_rates", 2, max_apex=4)
        decorations.append(graybox(chain[0]).decoration)
        decorations.append(graybox(hcompose(*chain)).decoration)
    assert {d.kind for d in decorations} == set(KINDS)
    assert_same_profiles(decorations)
