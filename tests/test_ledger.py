"""A byte-identity ledger: a seeded corpus of command-line runs, pinned by digest.

The corpus is drawn here, from `Random` with fixed seeds, as plain JSON
documents; it does not go through `opencospan.laws`, whose draw order may
change.  It covers all five kinds and both presentations, and damages
some runs: feet that do not match, kinds that clash, presentations mixed
in one command, broken JSON, and one damaged file for each value check a
constructor owns (place ranges, counts, leg tables, exponents, sizes).

Each command family (`compose`, `tensor`, `convert`, `graybox`,
`simulate`, `check --laws iso`) folds into two SHA-256 digests.  So
does a `usage` family: argparse's usage errors and help pages, each run
between two successful commands, with `COLUMNS=80` so that the text
wraps the same way everywhere.  The
first covers exit codes, stdout and the bytes written; the second covers
stderr, with the run's directory written as `<tmp>`.  A change of
behaviour moves the first, a change of wording only the second.  An
intended change re-pins a digest, and CHANGES.md gives the old and new
values and the reason.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
from random import Random

from opencospan.cli import main
from opencospan.finset import ISO_BUDGET_ENV

KINDS = ("graph", "lgraph", "petri", "petri_rates", "dynam")
FAMILIES = ("compose", "tensor", "convert", "graybox", "simulate", "iso", "usage")
CASES_PER_FAMILY = 40

# family: (behaviour digest, stderr digest)
PINNED = {
    "compose": (
        "5f5390e7dafa8e5b487efa9ea7571275ba4f548dd244851ce7d633e7092ce19a",
        "706d6f7e5f92c8fc7208d2e4f76147ccdc3729ba22705cd82f5e8e45fb7012f0",
    ),
    "tensor": (
        "6e765fcb798645613f4801ca9333d0d385e2d6feba1ffecc5893b03cb743ec80",
        "e8ee6d0a25cc08991ff670361b59029e815b95a3b5e8a05ec3e610c86e4b5ac9",
    ),
    "convert": (
        "5a0dada2235888e497eeee84686550e8821ade20cfc8975e37837b1686fcc367",
        "5d8335b31bbfb76818a1b752be5c7a3048c525c8c8a7ac4223b22ccda1b89eef",
    ),
    "graybox": (
        "21b984a82224ad94b2dd7399bde7fb8628d46dccf6b58d00d9f062bf6f816181",
        "f16b0757e01d1c58d750b014e636abc33b267eaae82ee4da6069fcea4ed8274a",
    ),
    "simulate": (
        "bbfb462ce4f48ae0e5cc15b37e31aa49b82b53fb02d5a4368a18bf76fb7cac75",
        "4dbc737ce7fa021d5a0bef239d7e66bfe0e46bb9e96ddca6d41eef65caf1a769",
    ),
    "iso": (
        "b006b9f1c9a1195f77d50fc2f3a7f679e5711f83e14314b12bd4d91867c0f0bf",
        "d9db24ce0486a2b45780b2bec05e58f3729b15b73fd60240e088a3c3713dfc08",
    ),
    "usage": (
        "a35e41864295bea4da3b6595736ecf1c2057c8684be9eec647c646f06b55f516",
        "f62abc64d573287c8885f32821b56863c0d4fa3097a74820edd90dafa6618ca7",
    ),
}


# -- drawing models --------------------------------------------------------------------


def draw_multiset(rng, places):
    chosen = sorted(rng.sample(range(places), rng.randint(0, min(places, 2))))
    entry = {str(p): rng.randint(1, 2) for p in chosen}
    if rng.random() < 0.1:
        entry[str(rng.randrange(places))] = 0  # a zero count is read and dropped
    return entry


def draw_field(rng, places):
    field = []
    for _ in range(places):
        exps = {tuple(rng.randint(0, 2) for _ in range(places)) for _ in range(rng.randint(0, 3))}
        # canonical order: dense exponent vectors, lexicographically
        field.append([[rng.choice((-1.5, -0.5, 0.25, 2.0)), list(e)] for e in sorted(exps)])
    return field


def draw_system(rng, kind, places):
    if kind == "dynam":
        return {"places": places, "field": draw_field(rng, places)}
    if kind in ("graph", "lgraph"):
        edges = rng.randint(0, 3)
        system = {
            "nodes": places,
            "edges": edges,
            "src": [rng.randrange(places) for _ in range(edges)],
            "tgt": [rng.randrange(places) for _ in range(edges)],
        }
        if kind == "lgraph":
            system["labels"] = [rng.choice(("a", "b", 1, 2.5, True)) for _ in range(edges)]
        return system
    transitions = []
    for _ in range(rng.randint(0, 3)):
        entry = {"src": draw_multiset(rng, places), "tgt": draw_multiset(rng, places)}
        if kind == "petri_rates":
            entry["rate"] = rng.choice((0.0, 0.5, 1.25, 2.0, 3))
        transitions.append(entry)
    return {"places": places, "transitions": transitions}


def discrete_foot(kind, size):
    if kind in ("graph", "lgraph"):
        foot = {"nodes": size, "edges": 0, "src": [], "tgt": []}
        return {**foot, "labels": []} if kind == "lgraph" else foot
    return {"places": size, "transitions": []}


def draw_model(rng, kind, left, right, representation="decorated"):
    places = rng.randint(1, 3)
    payload = {
        "footLeft": left,
        "footRight": right,
        "legLeft": [rng.randrange(places) for _ in range(left)],
        "legRight": [rng.randrange(places) for _ in range(right)],
        "system": draw_system(rng, kind, places),
        "representation": representation,
    }
    if representation == "structured" and kind != "dynam" and rng.random() < 0.3:
        payload["footLeft"] = discrete_foot(kind, left)
    return {"version": "1", "kind": kind, "representation": representation, "payload": payload}


def permuted(rng, doc):
    """doc with its places renumbered by a random permutation and its cells
    reversed: an isomorphic copy."""
    doc = copy.deepcopy(doc)
    payload, system = doc["payload"], doc["payload"]["system"]
    n = system.get("places", system.get("nodes"))
    sigma = list(range(n))
    rng.shuffle(sigma)
    for leg in ("legLeft", "legRight"):
        payload[leg] = [sigma[p] for p in payload[leg]]
    if "field" in system:
        field = [None] * n
        for i, component in enumerate(system["field"]):
            terms = []
            for c, exps in component:
                moved = [0] * n
                for j, k in enumerate(exps):
                    moved[sigma[j]] = k
                terms.append([c, moved])
            field[sigma[i]] = sorted(terms, key=lambda term: term[1])
        system["field"] = field
    elif "nodes" in system:
        for end in ("src", "tgt"):
            system[end] = [sigma[p] for p in reversed(system[end])]
        if "labels" in system:
            system["labels"].reverse()
    else:
        system["transitions"] = [
            {
                **entry,
                "src": {str(sigma[int(p)]): k for p, k in entry["src"].items()},
                "tgt": {str(sigma[int(p)]): k for p, k in entry["tgt"].items()},
            }
            for entry in reversed(system["transitions"])
        ]
    return doc


# -- damage ----------------------------------------------------------------------------


def at(doc, *path):
    target = doc
    for key in path:
        target = target[key]
    return target


def set_transition(doc, side, value):
    transitions = at(doc, "payload", "system", "transitions")
    if not transitions:
        transitions.append({"src": {}, "tgt": {}, "rate": 1.0})
        if doc["kind"] == "petri":
            del transitions[0]["rate"]
    transitions[0][side] = value


def field_of(doc):
    return at(doc, "payload", "system", "field")


def set_exponents(doc, make):
    """The last component of doc's field becomes one term, with exponents
    make(number of places)."""
    field = field_of(doc)
    field[-1] = [[1.0, make(len(field))]]


def constant_terms(doc, *coefficients):
    """The first component of doc's field becomes constant terms."""
    field = field_of(doc)
    field[0] = [[c, [0] * len(field)] for c in coefficients]


def labels_without_edges(doc):
    at(doc, "payload", "system").update(edges=0, src=[], tgt=[], labels=["x"])


def set_leg(doc, table):
    at(doc, "payload")["legLeft"] = table


def set_graph_end(doc, value):
    system = at(doc, "payload", "system")
    system.update(edges=1, src=[value], tgt=[0])
    if "labels" in system:
        system["labels"] = ["x"]


def set_rate(doc, rate):
    set_transition(doc, "src", {})
    at(doc, "payload", "system", "transitions")[0]["rate"] = rate


def set_size(doc, value):
    system = at(doc, "payload", "system")
    system["places" if "places" in system else "nodes"] = value


NETS = ("petri", "petri_rates")

# one damage for each value check that a constructor owns; name: (kinds, edit)
VALUE_DAMAGE = {
    "place out of range": (NETS, lambda d: set_transition(d, "src", {"7": 1})),
    "negative place": (NETS, lambda d: set_transition(d, "tgt", {"-1": 1})),
    "zero count out of range": (NETS, lambda d: set_transition(d, "src", {"7": 0})),
    "count -1": (NETS, lambda d: set_transition(d, "src", {"0": -1})),
    "count true": (NETS, lambda d: set_transition(d, "tgt", {"0": True})),
    "count 1.5": (NETS, lambda d: set_transition(d, "src", {"0": 1.5})),
    "count false": (NETS, lambda d: set_transition(d, "src", {"0": False})),
    "count 0.0": (NETS, lambda d: set_transition(d, "src", {"0": 0.0})),
    "count null": (NETS, lambda d: set_transition(d, "src", {"0": None})),
    "count list": (NETS, lambda d: set_transition(d, "src", {"0": [1]})),
    "short exponents": (("dynam",), lambda d: set_exponents(d, lambda n: [1] * (n - 1))),
    "long exponents": (("dynam",), lambda d: set_exponents(d, lambda n: [0] * n + [1])),
    "negative exponent": (("dynam",), lambda d: set_exponents(d, lambda n: [0] * (n - 1) + [-1])),
    "float exponent": (("dynam",), lambda d: set_exponents(d, lambda n: [1.5] + [0] * (n - 1))),
    "zero float exponent": (("dynam",), lambda d: set_exponents(d, lambda n: [0.0] * n)),
    "bool exponent": (("dynam",), lambda d: set_exponents(d, lambda n: [True] + [0] * (n - 1))),
    "false exponent": (("dynam",), lambda d: set_exponents(d, lambda n: [False] * n)),
    "exponents not an array": (("dynam",), lambda d: set_exponents(d, lambda n: n)),
    "tiny coefficient": (("dynam",), lambda d: constant_terms(d, 1e-13)),
    "repeated term": (("dynam",), lambda d: constant_terms(d, 1.0, 1.0)),
    "missing component": (("dynam",), lambda d: field_of(d).pop()),
    "leg entry 9": (KINDS, lambda d: set_leg(d, [9])),
    "leg entry string": (KINDS, lambda d: set_leg(d, ["one"])),
    "leg entry true": (KINDS, lambda d: set_leg(d, [True])),
    "leg entry list": (KINDS, lambda d: set_leg(d, [[0]])),
    "leg entry null": (KINDS, lambda d: set_leg(d, [None])),
    "leg table too long": (KINDS, lambda d: set_leg(d, [0] * 7)),
    "leg table an object": (KINDS, lambda d: set_leg(d, {"0": 0})),
    "graph end out of range": (("graph", "lgraph"), lambda d: set_graph_end(d, 5)),
    "graph end float": (("graph", "lgraph"), lambda d: set_graph_end(d, 0.0)),
    "too few labels": (("lgraph",), labels_without_edges),
    "negative rate": (("petri_rates",), lambda d: set_rate(d, -1.0)),
    "negative size": (KINDS, lambda d: at(d, "payload").update(footRight=-1)),
    "bool size": (KINDS, lambda d: at(d, "payload").update(footRight=True)),
    "float places": (KINDS, lambda d: set_size(d, 2.0)),
}


def raw_damage(text):
    return {
        "truncated": text[: len(text) // 2],
        "duplicate key": text.replace('"kind": ', '"kind": "graph", "kind": ', 1),
        "not an object": "[" + text + "]",
        "empty": "",
    }


def on_nets(edit):
    """edit, for a net; an unknown field, for another kind."""

    def apply(doc):
        if "transitions" in doc["payload"]["system"]:
            edit(doc)
        else:
            doc["extra"] = 1

    return apply


JSON_DAMAGE = {
    "unknown field": lambda d: d.update(extra=1),
    "missing payload": lambda d: d.pop("payload"),
    "missing leg": lambda d: d["payload"].pop("legRight"),
    "unknown kind": lambda d: d.update(kind="hypergraph"),
    "bad version": lambda d: d.update(version="2"),
    "payload representation": lambda d: d["payload"].update(
        representation="structured" if d["representation"] == "decorated" else "decorated"),
    "place key spelled 01": on_nets(lambda d: set_transition(d, "src", {"01": 1})),
    "non-numeric place key": on_nets(lambda d: set_transition(d, "src", {"a": 1})),
    "infinite rate": on_nets(lambda d: set_rate(d, 1e400)),
}


# -- the corpus ------------------------------------------------------------------------


class Corpus:
    """Writes documents into a directory and runs commands there."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def path(self, suffix=".json"):
        self.count += 1
        return os.path.join(self.root, f"f{self.count}{suffix}")

    def write(self, doc=None, text=None):
        path = self.path()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc) if text is None else text)
        return path

    def run(self, argv, out=True):
        """(exit code, stdout, bytes written, stderr) of one command; with
        out, a command other than `check` writes to a fresh path.  An exit
        through argparse is recorded as ("SystemExit", its code)."""
        out_path = self.path(".out")
        if out and argv[0] != "check":
            argv = argv + ["--out", out_path]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
        written = None
        if os.path.exists(out_path):
            with open(out_path, "rb") as handle:
                written = handle.read()
            os.remove(out_path)
        return code, stdout.getvalue(), written, stderr.getvalue().replace(self.root, "<tmp>")


def damaged(rng, doc):
    """doc damaged in one of the ways above, as the text of a file."""
    doc = copy.deepcopy(doc)
    choice = rng.random()
    if choice < 0.5:
        names = [name for name, (kinds, _) in VALUE_DAMAGE.items() if doc["kind"] in kinds]
        VALUE_DAMAGE[rng.choice(names)][1](doc)
        return json.dumps(doc)
    if choice < 0.8:
        JSON_DAMAGE[rng.choice(sorted(JSON_DAMAGE))](doc)
        return json.dumps(doc)
    raws = raw_damage(json.dumps(doc))
    return raws[rng.choice(sorted(raws))]


def chain(rng, kind, length, representation):
    feet = [rng.randint(0, 2) for _ in range(length + 1)]
    return [draw_model(rng, kind, a, b, representation) for a, b in zip(feet, feet[1:])]


def draw_representation(rng, kind):
    return "decorated" if kind == "dynam" or rng.random() < 0.5 else "structured"


def draw_case(rng, family, corpus):
    """One command of family: its argv, with the files it reads written."""
    if family == "graybox":
        kind = "petri_rates" if rng.random() < 0.8 else rng.choice(KINDS)
    else:
        kind = rng.choice(("petri_rates", "dynam") if family == "simulate" else KINDS)
    representation = draw_representation(rng, kind)
    length = rng.randint(2, 3) if family in ("compose", "tensor") else 1
    docs = chain(rng, kind, length, representation)
    fault = rng.random()
    if family in ("compose", "tensor", "iso"):
        if family == "iso":
            legs = docs[0]["payload"]["legLeft"], docs[0]["payload"]["legRight"]
            docs.append(
                permuted(rng, docs[0])
                if fault < 0.6
                else draw_model(rng, kind, *map(len, legs), representation)
            )
        if 0.6 <= fault < 0.7:
            other = rng.choice([k for k in KINDS if k != kind])  # kinds clash
            docs[-1] = draw_model(rng, other, 1, 1, draw_representation(rng, other))
        elif 0.7 <= fault < 0.8 and kind != "dynam":
            flip = "structured" if representation == "decorated" else "decorated"
            docs[-1] = draw_model(rng, kind, 1, 1, flip)  # presentations mixed
        elif 0.8 <= fault < 0.85 and family == "compose":
            docs[-1]["payload"]["footLeft"] = 3  # feet do not match
            docs[-1]["payload"]["legLeft"] = [0, 0, 0]
    texts = [json.dumps(doc) for doc in docs]
    if fault >= 0.85:
        victim = rng.randrange(len(docs))
        texts[victim] = damaged(rng, docs[victim])
    paths = [corpus.write(text=text) for text in texts]
    if family in ("compose", "tensor"):
        return [family] + paths
    if family == "convert":
        return ["convert", paths[0], "--to", rng.choice(("structured", "decorated"))]
    if family == "graybox":
        return ["graybox", paths[0]]
    if family == "iso":
        return ["check"] + paths + ["--laws", "iso"]
    places = docs[0]["payload"]["system"].get("places", 1)
    config = {
        "t0": 0.0,
        "t1": 0.5,
        "dt": 0.125,
        "initialState": {f"p{i}": rng.choice((0.0, 0.5, 1.0)) for i in range(places)},
        "inflows": {"x0": 0.5} if docs[0]["payload"]["footLeft"] else {},
        "outflows": {"y0": {"breakpoints": [0.25], "values": [0.0, 1.0]}}
        if docs[0]["payload"]["footRight"]
        else {},
    }
    return ["simulate", paths[0], "--config", corpus.write(config)]


def value_damage_cases(corpus):
    """Each value damage on each kind it fits, read by `convert`."""
    rng = Random("ledger-value-damage")
    for name, (kinds, edit) in VALUE_DAMAGE.items():
        for kind in kinds:
            doc = draw_model(rng, kind, 1, 1, "decorated")
            edit(doc)
            yield ["convert", corpus.write(doc), "--to", "structured"]


def usage_cases(corpus):
    """(argv, out) of each usage error and help page, each between two
    commands that succeed."""
    rng = Random("ledger-usage")

    def success():
        kind = rng.choice(KINDS)
        docs = chain(rng, kind, 2, draw_representation(rng, kind))
        paths = [corpus.write(doc) for doc in docs]
        twin = corpus.write(permuted(rng, docs[0]))
        return rng.choice((
            ["compose"] + paths,
            ["convert", paths[0], "--to", "decorated"],
            ["check", paths[0], twin, "--laws", "iso"],
        )), True

    files = [corpus.write(doc) for doc in chain(rng, "petri_rates", 2, "decorated")]
    mistakes = [
        ([], False),  # no subcommand
        (["bogus"], False),  # an unknown subcommand
        (["compose"] + files, False),  # no -o
        (["convert", files[0], "--to", "bogus"], True),
        (["check", "--laws", "companion", "--map", "0", "--cod", "x"], False),
        (["--help"], False),
        (["compose", "--help"], False),
    ]
    cases = [success()]
    for mistake in mistakes:
        cases += [mistake, success()]
    return cases


def ledger(root):
    """family: (behaviour digest, stderr digest) over the seeded corpus."""
    corpus = Corpus(root)
    digests = {}
    for family in FAMILIES:
        if family == "usage":
            cases = usage_cases(corpus)
        else:
            rng = Random(f"ledger-{family}")
            cases = [(draw_case(rng, family, corpus), True) for _ in range(CASES_PER_FAMILY)]
        if family == "convert":
            cases.extend((argv, True) for argv in value_damage_cases(corpus))
        behaviour, stderr = hashlib.sha256(), hashlib.sha256()
        for argv, with_out in cases:
            code, out, written, err = corpus.run(argv, with_out)
            behaviour.update(repr((code, out, written)).encode())
            stderr.update(repr(err).encode())
        digests[family] = (behaviour.hexdigest(), stderr.hexdigest())
    return digests


def test_the_ledger_matches_its_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.delenv(ISO_BUDGET_ENV, raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    assert ledger(str(tmp_path)) == PINNED


# -- a deep chain ----------------------------------------------------------------------
#
# The corpus above composes chains of two or three files, so the balanced
# fold of `compose` never nests deeper than two levels.  A 32-net chain is
# folded five levels deep; the composite and its gray box are pinned by digest.

# (composed file, gray-boxed dynam file)
DEEP_CHAIN = (
    "acc01f4b6f4e07bf308f4c00d9ed8049d12f2a200e57ef6c8a21a179fe129b4c",
    "247bf976c4969c70595bae8a2c18a3771e23cba585101e320d57e5c7b41ca179",
)


def deep_chain(rng, length):
    """`length` composable rated nets: apexes of 2-6 places, feet of 1-3."""
    feet = [rng.randint(1, 3) for _ in range(length + 1)]
    docs = []
    for left, right in zip(feet, feet[1:]):
        places = rng.randint(2, 6)
        transitions = [
            {
                "src": draw_multiset(rng, places),
                "tgt": draw_multiset(rng, places),
                "rate": rng.choice((0.25, 0.5, 1.25, 2.0, 3)),
            }
            for _ in range(rng.randint(1, 3))
        ]
        docs.append({
            "version": "1",
            "kind": "petri_rates",
            "representation": "decorated",
            "payload": {
                "footLeft": left,
                "footRight": right,
                "legLeft": [rng.randrange(places) for _ in range(left)],
                "legRight": [rng.randrange(places) for _ in range(right)],
                "system": {"places": places, "transitions": transitions},
                "representation": "decorated",
            },
        })
    return docs


def test_a_deep_chain_composes_and_grayboxes_to_pinned_bytes(tmp_path):
    corpus = Corpus(str(tmp_path))
    paths = [corpus.write(doc) for doc in deep_chain(Random("ledger-deep-chain"), 32)]
    composed, dynam = corpus.path(), corpus.path()
    digests = []
    for argv, out in ((["compose", *paths], composed), (["graybox", composed], dynam)):
        assert corpus.run(argv + ["--out", out], out=False)[:2] == (0, "")
        with open(out, "rb") as handle:
            digests.append(hashlib.sha256(handle.read()).hexdigest())
    assert tuple(digests) == DEEP_CHAIN
