"""Mutated model files of every kind and presentation through the command line.

Whatever the damage, each run ends in exit 0, 2 or 3, a failure says why on
an `error: ` line (or, for an iso check, on its FAIL line), and nothing
escapes `cli.main`.  Sizes in the mutations stay small, so every search
and every composite stays small too.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from random import Random
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from opencospan import graybox, to_structured
from opencospan.cli import main
from opencospan.finset import ISO_BUDGET_ENV
from opencospan.laws import random_cospan
from opencospan.modelio import ModelFile, Names


def base_documents():
    docs = []
    for kind in ("graph", "lgraph", "petri", "petri_rates"):
        m = random_cospan(Random(f"fuzz-{kind}"), kind, max_apex=3, max_cells=3)
        docs.append(ModelFile(kind, m).to_json())
        docs.append(ModelFile(kind, to_structured(m)).to_json())
    net = random_cospan(Random("fuzz-dynam"), "petri_rates", 1, 1, max_apex=3, max_cells=3)
    names = Names(tuple(f"p{i}" for i in range(net.apex.size)), ("in",), ("out",))
    docs.append(ModelFile("dynam", graybox(net), names).to_json())
    return docs


BASES = base_documents()

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 9)
    | st.floats()
    | st.text("0123abc", max_size=3)
    | st.sampled_from(["decorated", "structured", "dynam", "graph", "petri_rates"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("01ab", max_size=2), inner, max_size=3),
    max_leaves=6,
)


def paths_of(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from paths_of(child, prefix + (key,))


TOKENS = ["decorated", "structured", "dynam", "graph", "lgraph", "petri", "petri_rates", "0", "1"]


def nudged(data, value):
    """A value near the old one: another small int, float or known token, or
    the same container with one entry dropped or repeated."""
    if isinstance(value, bool) or value is None:
        return data.draw(json_values)
    if isinstance(value, int):
        return data.draw(st.integers(-1, 5))
    if isinstance(value, float):
        return data.draw(st.sampled_from([0.0, -1.0, 0.5, 1e308, float("nan"), 2]))
    if isinstance(value, str):
        return data.draw(st.sampled_from(TOKENS))
    keys = list(value) if isinstance(value, dict) else list(range(len(value)))
    if not keys:
        return data.draw(json_values)
    key = data.draw(st.sampled_from(keys))
    if isinstance(value, dict) or data.draw(st.booleans()):
        del value[key]
    else:
        value.append(copy.deepcopy(value[key]))
    return value


def mutate(data, doc):
    """Nudge or replace the value at one path below the top of doc; deep paths
    come first, as hypothesis favours the first choices."""
    path = data.draw(st.sampled_from(sorted(list(paths_of(doc))[1:], key=len, reverse=True)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    parent[path[-1]] = nudged(data, old) if data.draw(st.integers(0, 3)) else data.draw(json_values)


COMMANDS = (
    ("compose", "@a", "@a"),
    ("compose", "@a", "@b"),
    ("tensor", "@a", "@b"),
    ("convert", "@a", "--to", "structured"),
    ("convert", "@a", "--to", "decorated"),
    ("graybox", "@a"),
    ("check", "@a", "@b", "--laws", "iso"),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.data())
def test_mutated_models_end_in_a_known_exit_code(data):
    base = data.draw(st.sampled_from(BASES))
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, doc)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {ISO_BUDGET_ENV: "5000"}):
        files = {"a": os.path.join(tmp, "a.json"), "b": os.path.join(tmp, "b.json")}
        for name, value in (("a", doc), ("b", base)):
            with open(files[name], "w", encoding="utf-8") as handle:
                json.dump(value, handle)
        for command, *args in COMMANDS:
            argv = [command] + [files[a[1:]] if a.startswith("@") else a for a in args]
            if command != "check":
                argv += ["--out", os.path.join(tmp, "out.json")]
            code, out, err = run(argv)
            assert code in (0, 2, 3), (argv, code, err)
            if code:
                failed_check = command == "check" and out.startswith("FAIL iso")
                assert failed_check or err.startswith("error: "), (argv, code, out, err)
