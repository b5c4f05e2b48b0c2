"""Damaged file text through every subcommand.

`test_cli_fuzz` damages parsed values; this test damages the bytes of a
file.  It starts from ledger-drawn models of every kind, the named SIR net
of `models/` and a simulation config, and splices in what a JSON reader
meets at its edges:

- numerals past and at the integer-string limit, 1e+-400, -0 and leading
  zeros, at every number of each file;
- arrays and objects nested around the recursion limit, at the top and in
  place of the first value;
- every truncation of one small file;
- a byte order mark, NUL, lone surrogates (escaped and encoded) and
  invalid UTF-8, in every string of the named net.

Each mutant is read as a model by every subcommand and as the config of a
`simulate` run.  Every run ends in exit 0, 2 or 3; a failure prints one
short `error: ` line (or an iso check its FAIL line) and no traceback; and
no run takes long.
"""

import contextlib
import io
import json
import os
import re
import sys
import time
from random import Random

import pytest

from opencospan.cli import main
from test_ledger import draw_model

MODELS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "models")
LIMIT_DIGITS = sys.get_int_max_str_digits()
# the longest any one run may take, in seconds: every input here is small
RUN_SECONDS = 5.0
# the longest refusal, its file paths left out: long values are cut short
MESSAGE_CHARS = 300


def compact(value):
    return json.dumps(value, separators=(",", ":")).encode()


def bases():
    """(name, file bytes, config bytes) of each model the mutants start from:
    one ledger-drawn model per kind, both feet of size 1, and the named SIR
    net; each with a small config that `simulate` accepts for it."""
    found = []
    for kind in ("graph", "lgraph", "petri", "petri_rates", "dynam"):
        doc = draw_model(Random(f"text-fuzz-{kind}"), kind, 1, 1)
        places = doc["payload"]["system"].get("places", 1)
        config = {"t0": 0.0, "t1": 0.25, "dt": 0.125,
                  "initialState": {f"p{i}": 0.5 for i in range(places)},
                  "inflows": {"x0": 0.5}, "outflows": {"y0": 0.25}}
        found.append((kind, compact(doc), compact(config)))
    with open(os.path.join(MODELS, "sir.json"), "rb") as handle:
        sir = handle.read().strip()
    config = {"t0": 0.0, "t1": 0.25, "dt": 0.125, "initialState": {"S": 0.9, "I": 0.1},
              "inflows": {}, "outflows": {}}
    found.append(("sir", sir, compact(config)))
    return found


BASES = bases()
NUMBER = re.compile(rb"(?<=[:\[,])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?=[,\]}])")
STRING = re.compile(rb'"[^"]*"')
NUMERALS = [
    b"1" * (LIMIT_DIGITS + 1),
    b"-" + b"9" * (LIMIT_DIGITS + 1),
    b"1" + b"0" * (LIMIT_DIGITS - 1),  # the longest an int may be spelled
    b"1e400",
    b"-1e400",
    b"1e-400",
    b"-0",
    b"-0.0",
    b"007",
    b"00",
]


def nested(depth, value=b"0"):
    """value inside `depth` arrays, or inside `depth` objects when negative."""
    if depth < 0:
        return b'{"a":' * -depth + value + b"}" * -depth
    return b"[" * depth + value + b"]" * depth


def number_mutants(text):
    for match in NUMBER.finditer(text):
        for numeral in NUMERALS:
            yield text[:match.start()] + numeral + text[match.end():]


def nesting_mutants(text):
    limit = sys.getrecursionlimit()
    first = NUMBER.search(text)
    for depth in (limit // 2, limit - 100, limit, limit + 100, 20 * limit):
        for signed in (depth, -depth):
            yield nested(signed)
            yield nested(signed, text)
            yield text[:first.start()] + nested(signed) + text[first.end():]


def encoding_mutants(text):
    yield b"\xef\xbb\xbf" + text  # a byte order mark
    yield text + b"\x00"
    yield b"\x00" + text
    yield text[:-1] + b"\xc3"  # a sequence cut short
    for match in STRING.finditer(text):
        inside = match.start() + 1
        for splice in (
            b"\\ud800",  # a lone high surrogate, escaped
            b"\\udfff",  # a lone low surrogate, escaped
            b"\xed\xa0\x80",  # a lone surrogate, encoded
            b"\\u0000",  # an escaped NUL
            b"\x00",  # a raw NUL
            b"\xff",  # never valid UTF-8
            b"\xc0\xaf",  # an overlong encoding
        ):
            yield text[:inside] + splice + text[inside:]


def truncation_mutants(text):
    for end in range(len(text)):
        yield text[:end]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def write(path, data):
    with open(path, "wb") as handle:
        handle.write(data)
    return path


def check_mutants(tmp, mutants, base, config):
    """Run every subcommand with each mutant read as a model, and `simulate`
    with it read as a config; the number of runs."""
    m, out = os.path.join(tmp, "m.json"), os.path.join(tmp, "out")
    b, c = write(os.path.join(tmp, "b.json"), base), write(os.path.join(tmp, "c.json"), config)
    commands = [
        ["compose", m, b, "--out", out],
        ["tensor", m, b, "--out", out],
        ["convert", m, "--to", "structured", "--out", out],
        ["graybox", m, "--out", out],
        ["simulate", m, "--config", c, "--out", out],
        ["simulate", b, "--config", m, "--out", out],
        ["check", m, b, "--laws", "iso"],
    ]
    count = 0
    for mutant in mutants:
        write(m, mutant)
        for argv in commands:
            code, stdout, err, seconds = run(argv)
            where = (argv[0], mutant[:200], code, stdout, err[:500])
            assert code in (0, 2, 3), where
            assert "Traceback" not in err, where
            assert len(err.replace(tmp, "")) <= MESSAGE_CHARS, where
            assert seconds < RUN_SECONDS, where
            if code:
                failed_check = argv[0] == "check" and stdout.startswith("FAIL iso") and not err
                one_line = err.count("\n") == 1 and err.endswith("\n")
                one_error = err.startswith("error: ") and one_line
                assert failed_check or one_error, where
            count += 1
    return count


@pytest.mark.parametrize("name, base, config", BASES, ids=[b[0] for b in BASES])
def test_numerals_at_the_edges_of_the_reader(tmp_path, name, base, config):
    assert check_mutants(str(tmp_path), number_mutants(base), base, config) > 0
    assert check_mutants(str(tmp_path), number_mutants(config), base, config) > 0


def test_nesting_around_the_recursion_limit(tmp_path):
    name, base, config = BASES[3]
    assert check_mutants(str(tmp_path), nesting_mutants(base), base, config) > 0


def test_every_truncation_of_a_small_file(tmp_path):
    name, base, config = BASES[3]
    assert check_mutants(str(tmp_path), truncation_mutants(base), base, config) == 7 * len(base)


def test_byte_order_marks_nuls_surrogates_and_invalid_utf8(tmp_path):
    name, base, config = BASES[-1]
    assert check_mutants(str(tmp_path), encoding_mutants(base), base, config) > 0
