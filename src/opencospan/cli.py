"""Command-line surface: compose, tensor, convert, graybox, simulate, check.

Exit codes: 0 on success, 2 on a domain or validation error, 3 on an I/O
or parse error.  The environment variable OPENCOSPAN_ISO_BUDGET bounds the
node count of isomorphism searches.

`main` builds its argument parser on its first call and reuses it for every
later call in the process; `build_parser` returns a fresh one each time.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial, reduce
from typing import Optional, Sequence

from .errors import ModelFormatError, ModelValidationError, OpenCospanError
from .finset import FinFunction, FinSet, _short
from .systems import decoration_theory
from .cospans import (
    _check_pair,
    _present,
    check_companion,
    check_conjoint,
    cospan_iso,
    hcompose,
    tensor,
)
from .dynamics import graybox, simulate_rows
from .laws import LAW_SUITES, LawReport
from .modelio import (
    ModelFile,
    csv_lines,
    load_model,
    load_sim_config,
    resolve_simulation,
    save_model,
)


def _pairwise_fold(op, items: list):
    """Fold op over k items by combining neighbours level by level: k - 1
    calls, as `reduce` makes, but each item is moved at most ceil(log2 k)
    times.  Equals the left fold for an op associative on the nose."""
    while len(items) > 1:
        paired = [op(a, b) for a, b in zip(items[::2], items[1::2])]
        items = paired + items[2 * len(paired):]
    return items[0]


def _fold_command(args: argparse.Namespace, op, op_name: str) -> int:
    if len(args.files) < 2:
        raise ModelValidationError(f"{op_name} needs at least two model files")
    models = [load_model(path) for path in args.files]
    payloads = [m.payload for m in models]
    # every composite the fold builds has at most the apexes' sum of places
    _check_apex("summed apex", sum(m.apex.size for m in payloads))
    # the left fold would meet the first bad adjacent pair first; so does this
    for m, n in zip(payloads, payloads[1:]):
        _check_pair(m, n, op_name)
    associative = op is not hcompose or decoration_theory(models[0].kind).associative
    fold = _pairwise_fold if associative else reduce
    save_model(args.out, ModelFile(models[0].kind, fold(op, payloads)))
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    return _fold_command(args, hcompose, "compose")


def _cmd_tensor(args: argparse.Namespace) -> int:
    return _fold_command(args, tensor, "tensor")


def _cmd_convert(args: argparse.Namespace) -> int:
    model = load_model(args.file)
    converted = _present(model.payload, args.to)
    save_model(args.out, ModelFile(model.kind, converted, model.names))
    return 0


def _cmd_graybox(args: argparse.Namespace) -> int:
    model = load_model(args.file)
    _check_apex("apex", model.payload.apex.size)
    system = graybox(model.payload)
    save_model(args.out, ModelFile("dynam", system, model.names))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = load_model(args.file)
    config = load_sim_config(args.config)
    system, schedule, initial, names = resolve_simulation(model, config)
    assert names.places is not None
    # each row is formatted as it is integrated, so only the lines are held;
    # the file is opened once the whole run has succeeded, so a run that
    # diverges leaves it as it was
    rows = simulate_rows(system, schedule, initial, config.t0, config.t1, config.dt)
    lines = list(csv_lines(rows, names.places))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    return 0


# check_companion grows linearly with the size of either set: a map of
# 10**5 elements into 10**5 takes about 1.6 s and 70 MB (2 cores, Python 3.11)
MAX_MAP_SIZE = 100_000
# compose, tensor and graybox of cell-free files grow linearly with the apex:
# 4 * 10**6 apex elements take at most 1.2-2.3 s and 216-284 MB, so a run at
# the cap stays under about 0.7 GB (2 cores, Python 3.11).  check --laws iso
# of two such files is decided by comparison when they are equal (0.24 s and
# 171 MB at 4 * 10**6 places); else the places no cell touches are pinned,
# not searched, and memory grows linearly: two files that differ in one leg
# pass in 3.3 s and 415 MB at 4 * 10**6 places, and 1.0 GB at the cap
MAX_APEX_SIZE = 10_000_000


def _check_apex(what: str, size: int) -> None:
    if size > MAX_APEX_SIZE:
        raise ModelValidationError(
            f"{what} of size {_short(size)} is over the cap of {MAX_APEX_SIZE}"
        )


def _int(raw: str) -> int:
    """`int` for argparse, naming a bad value cut short as `_short` does."""
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_short(raw)}") from None


def _parse_map(raw: str, cod: Optional[int]) -> FinFunction:
    entries = [token.strip() for token in raw.split(",") if token.strip() != ""]
    try:
        table = tuple(int(token) for token in entries)
    except ValueError:
        raise ModelFormatError(
            f"--map must be a comma-separated list of ints, got {_short(raw)}"
        ) from None
    size = cod if cod is not None else (max(table) + 1 if table else 0)
    for what, n in (("--map table", len(table)), ("codomain", size)):
        if n > MAX_MAP_SIZE:
            raise ModelValidationError(
                f"{what} of size {_short(n)} is over the cap of {MAX_MAP_SIZE}"
            )
    try:
        return FinFunction(FinSet(len(table)), FinSet(size), table)
    except ValueError as exc:
        raise ModelValidationError(str(exc)) from exc


def _check_iso(args: argparse.Namespace) -> LawReport:
    if len(args.files) != 2:
        raise ModelValidationError("the iso check needs exactly two model files")
    a, b = (_present(load_model(path).payload, "decorated") for path in args.files)
    for cospan in (a, b):
        _check_apex("apex", cospan.apex.size)
    found = cospan_iso(a, b) is not None
    return LawReport(
        "iso", found, 1, "" if found else "no isomorphism over the shared feet"
    )


def _cmd_check(args: argparse.Namespace) -> int:
    requested = [name.strip() for name in args.laws.split(",") if name.strip()]
    if not requested:
        raise ModelFormatError("no laws requested")
    reports: list[LawReport] = []
    for name in requested:
        if name == "all":
            reports.extend(law() for law in LAW_SUITES.values())
        elif name == "iso":
            reports.append(_check_iso(args))
        elif name in ("companion", "conjoint") and args.map is not None:
            f = _parse_map(args.map, args.cod)
            check = check_companion if name == "companion" else check_conjoint
            ok, why = check(f)
            reports.append(LawReport(name, ok, 1, why))
        elif name in LAW_SUITES:
            reports.append(LAW_SUITES[name]())
        else:
            raise ModelFormatError(
                f"unknown law {_short(name)}; choose from {', '.join(sorted(LAW_SUITES))}, "
                "iso, or all"
            )
    for report in reports:
        print(report.line())
    return 0 if all(r.passed for r in reports) else 2


class _HelpFormatter(argparse.HelpFormatter):
    """Formats an option that takes a value as Python 3.10-3.12 do, with the
    value after each spelling (`--out OUT, -o OUT`), where 3.13 writes it
    once (`--out, -o OUT`): help pages are the same bytes on every Python
    the package supports."""

    def _format_action_invocation(self, action: argparse.Action) -> str:
        if not action.option_strings or action.nargs == 0:
            return super()._format_action_invocation(action)
        value = self._format_args(action, self._get_default_metavar_for_optional(action))
        return ", ".join(f"{option} {value}" for option in action.option_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opencospan",
        description="Compose, convert, gray-box, and simulate open systems stored as JSON.",
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = partial(sub.add_parser, formatter_class=_HelpFormatter)

    compose_p = add_parser("compose", help="glue models end to end, left to right")
    compose_p.add_argument("files", nargs="+", help="model files, composed in order")
    compose_p.add_argument("--out", "-o", required=True, help="output model file")
    compose_p.set_defaults(handler=_cmd_compose)

    tensor_p = add_parser("tensor", help="put models side by side")
    tensor_p.add_argument("files", nargs="+")
    tensor_p.add_argument("--out", "-o", required=True)
    tensor_p.set_defaults(handler=_cmd_tensor)

    convert_p = add_parser("convert", help="switch between the two presentations")
    convert_p.add_argument("file")
    convert_p.add_argument("--to", required=True, choices=("structured", "decorated"))
    convert_p.add_argument("--out", "-o", required=True)
    convert_p.set_defaults(handler=_cmd_convert)

    graybox_p = add_parser("graybox", help="turn a rated open net into open ODEs")
    graybox_p.add_argument("file")
    graybox_p.add_argument("--out", "-o", required=True)
    graybox_p.set_defaults(handler=_cmd_graybox)

    simulate_p = add_parser("simulate", help="integrate an open system to CSV")
    simulate_p.add_argument("file")
    simulate_p.add_argument("--config", required=True, help="JSON simulation config")
    simulate_p.add_argument("--out", "-o", required=True, help="CSV trajectory output")
    simulate_p.set_defaults(handler=_cmd_simulate)

    check_p = add_parser("check", help="run law suites and validations")
    check_p.add_argument("files", nargs="*", help="model files, for the iso check")
    check_p.add_argument(
        "--laws",
        required=True,
        help="comma-separated law names, or 'all'; 'iso' compares two files; "
        "'companion'/'conjoint' with --map check one function",
    )
    check_p.add_argument("--map", help="function table for companion/conjoint, e.g. 0,0")
    check_p.add_argument("--cod", type=_int, help="codomain size for --map")
    check_p.set_defaults(handler=_cmd_check)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: nothing in it changes as it parses, and
    argparse looks up the streams and the terminal width at print time."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OpenCospanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
