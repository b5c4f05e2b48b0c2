"""Each value is checked once, where it enters from outside.

A map, multiset or system the library derives from checked values (a
composite, a pushout leg, a union of two checked systems, a multiset moved
along a checked map) is well formed by construction, so it is built by a
private `_made` builder, or stored directly by `Multiset.pushforward`,
without the constructor's check.  The differential runs the ledger's
corpus and `check --laws all` with every such builder patched back to the
checking constructor and `pushforward` checking its pairs: the outputs must
be the same bytes, and no patched check may refuse anything.  A library
bug that derives a bad value then fails here.  The AST guard names the only
modules that may call `_made`: `modelio`, `cli` and `laws` read outside
input, so they go through the constructors.
"""

import ast
import hashlib
import pathlib

import pytest

import opencospan
from opencospan import FinFunction, FinSet, Multiset, Poly, PolyVectorField, pushforward_field
from opencospan import systems
from opencospan.cli import main
from opencospan.errors import CoefficientOverflow
from opencospan.finset import ISO_BUDGET_ENV
from opencospan.systems import System
from test_ledger import ledger

PACKAGE = pathlib.Path(opencospan.__file__).parent
MAY_CALL_MADE = {"finset", "systems"}

# sha256 of the stdout of `check --laws all`: its 12 PASS lines
LAWS_ALL = "e4aee9ff5432e454e53a61fa5f2b09b8a3fbd2d913d2529646297c0a91babb92"


def test_only_finset_and_systems_call_the_unchecked_builders():
    callers = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        if any(isinstance(n, ast.Attribute) and n.attr == "_made" for n in ast.walk(tree)):
            callers.add(path.stem)
    assert callers == MAY_CALL_MADE


def test_derived_values_pass_every_check_they_skip(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ISO_BUDGET_ENV, raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    plain = ledger(str(tmp_path))

    built, refused = {"FinFunction": 0, "System": 0, "pushforward": 0}, []

    def checking(build):
        def made(*args):
            built[build.__name__] += 1
            try:
                return build(*args)
            except ValueError as exc:
                refused.append(exc)
                raise

        return staticmethod(made)

    pushforward = Multiset.pushforward

    def pushing(ms, f):
        built["pushforward"] += 1
        moved = pushforward(ms, f)
        try:
            systems._check_pairs(moved.pairs, moved.over.size)
        except ValueError as exc:
            refused.append(exc)
            raise
        return moved

    monkeypatch.setattr(FinFunction, "_made", checking(FinFunction))
    monkeypatch.setattr(System, "_made", checking(System))
    monkeypatch.setattr(Multiset, "pushforward", pushing)
    assert ledger(str(tmp_path)) == plain
    # the unpatched run of the laws is pinned by its digest, so they run once
    code = main(["check", "--laws", "all"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, LAWS_ALL)
    assert refused == [] and min(built.values()) > 0


def test_a_polynomial_derived_by_a_merge_is_still_checked():
    # `Poly._canonical` keeps its checks: two finite coefficients merged
    # into one place can sum past the floats
    over = FinSet(2)
    big = Poly(2, ((1e308, (1, 0)),))
    field = PolyVectorField(over, (big, Poly(2, ((1e308, (0, 1)),))))
    merge = FinFunction(over, FinSet(1), (0, 0))
    with pytest.raises(CoefficientOverflow):
        pushforward_field(merge, field)
