"""Spans around opencospan's public functions, installed from outside.

`Tracer.install` rebinds every module attribute that holds one of the
traced functions (in every loaded `opencospan.*` module, since callers
import names with `from .x import f`) and the class attributes listed in
`TRACED`; `Tracer.uninstall` puts the originals back.  Nothing under
`src/` changes.

A span is (name, start, end, parent span id, op id, span id).  Self time
is a span's duration minus the time its child spans cover.  Counts and
self times are aggregated for every call; only the first `max_spans`
spans are kept in memory for the spans file, because the innermost
functions run hundreds of thousands of times per op.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute path) for every traced function, grouped by layer
TRACED = (
    ("finset", "pushout"),
    ("finset", "find_iso"),
    ("finset", "FinFunction.__post_init__"),
    ("systems", "Multiset.pushforward"),
    ("systems", "Multiset.__post_init__"),
    ("systems", "system_coproduct"),
    ("systems", "system_pushout"),
    ("systems", "relabel"),
    ("systems", "validate_morphism"),
    ("cospans", "hcompose"),
    ("cospans", "tensor"),
    ("cospans", "cospan_iso"),
    ("cospans", "match_cells"),
    ("cospans", "to_structured"),
    ("cospans", "to_decorated"),
    ("cospans", "check_companion"),
    ("cospans", "check_conjoint"),
    ("dynamics", "graybox"),
    ("dynamics", "mass_action"),
    ("dynamics", "compose_open_dynam"),
    ("dynamics", "pushforward_field"),
    ("dynamics", "field_close"),
    ("dynamics", "open_dynam_iso"),
    ("dynamics", "admits_morphism_from_empty"),
    ("dynamics", "simulate"),
    ("dynamics", "open_rate_rhs"),
    ("dynamics", "PolyVectorField.evaluate"),
    ("dynamics", "Poly.evaluate"),
    ("modelio", "load_model"),
    ("modelio", "save_model"),
    ("modelio", "resolve_simulation"),
    ("modelio", "trajectory_to_csv"),
    ("cli", "main"),
)

# leaf checks of the isomorphism searches: a result counts as a hit when
# the check succeeded
HIT_RATIOS = {
    "cospans.match_cells": lambda result: result is not None,
    "dynamics.field_close": lambda result: result is True,
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__post_init__', 'init')}"


TRACED_NAMES = tuple(span_name(m, a) for m, a in TRACED)


class Tracer:
    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        self.calls = {name: 0 for name in TRACED_NAMES}
        self.self_s = {name: 0.0 for name in TRACED_NAMES}
        self.hits = {name: [0, 0] for name in HIT_RATIOS}
        self.bytes_written = 0
        self.spans: list[tuple] = []
        self.spans_seen = 0
        self.op_id = -1
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        hit = HIT_RATIOS.get(name)
        if name not in self.calls:
            self.calls[name], self.self_s[name] = 0, 0.0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.spans_seen
            self.spans_seen += 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < self.max_spans:
                    spans.append((name, start, end, parent, self.op_id, span_id))
            if hit is not None:
                counts = self.hits[name]
                counts[0] += bool(hit(result))
                counts[1] += 1
            if name == "modelio.save_model":
                self.bytes_written += os.path.getsize(args[0])
            elif name == "modelio.trajectory_to_csv":
                self.bytes_written += len(result.encode("utf-8"))
            return result

        return traced

    def wrap_op(self, run_op):
        """The benchmark's op as the root span, tagging its spans with the op id."""
        traced = self.wrap("bench.op", run_op)

        def call(i: int):
            self.op_id = i
            return traced(i)

        return call

    def install(self, oc) -> None:
        """Rebind the traced functions in every loaded opencospan module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "opencospan" or n.startswith("opencospan.")]
        for module_name, attr in TRACED:
            module = getattr(oc, module_name)
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write_spans(self, path: str) -> None:
        """One JSON array per line, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["name", "start", "end", "parent", "op", "id"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
