"""Benchmark opencospan end to end and, in a traced run, layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload compose_chain --seed 1 --seconds 25 --trace 0

One process, one closed-loop client: the next op starts when the previous
one has been checked.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the lines before it
give each metric with its unit.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones, from a run
that first measures untraced, then traced, then a size sweep.  Times are
scaled to a reference speed (see reference.py); the raw figures are
printed too.  A fuller record of each run (machine, commit, input and
output digests, raw figures, errors) is written to `.bench_work/results/`.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH_DIR)
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
MAX_LOOP_S = 120.0
SWEEP = {"compose_chain": ("k", (16, 32, 64, 128)), "simulate_tensor": ("k", (1, 4, 16))}
MODULES = ("finset", "systems", "cospans", "dynamics", "modelio", "cli")


def import_opencospan() -> types.SimpleNamespace:
    """A fresh import of the package from this checkout's `src/`."""
    for name in [n for n in sys.modules if n == "opencospan" or n.startswith("opencospan.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("opencospan")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        raise ImportError(f"opencospan was imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"opencospan.{m}") for m in MODULES})


class Tally:
    """Every checked op of a run, timed or not, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, workload, i: int, call=None) -> tuple[bool, float, float, float]:
        """Run and check op i.  Returns (passed, start, wall time, CPU time),
        the times of the op itself, the oracle's excluded."""
        call = call or workload.run_op
        self.attempted += 1
        cpu_start, start = time.process_time(), time.perf_counter()
        try:
            out = call(i)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        if error is None:
            try:
                error = workload.check(i, out)
            except Exception as exc:
                error = f"oracle raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{workload.name} op {i}: {error}")
        return error is None, start, wall, cpu


class Loop:
    """The ops of one closed loop: raw times and times scaled by speed.

    Columns are arrays, so that a loop of many small ops adds little to the
    peak resident set size it reports."""

    def __init__(self, workload, tally: Tally, speed: reference.Speed, call=None):
        self.workload, self.tally, self.speed, self.call = workload, tally, speed, call
        self.passed = array.array("b")
        self.starts = array.array("d")
        self.wall_s = array.array("d")
        self.cpu_s = array.array("d")

    def __len__(self) -> int:
        return len(self.passed)

    def add(self, result: tuple[bool, float, float, float]) -> None:
        for column, value in zip((self.passed, self.starts, self.wall_s, self.cpu_s), result):
            column.append(value)

    def run(self, seconds: float, min_ops: int = 1, first_op: int = 0) -> Loop:
        """Run for `seconds`, extended until `min_ops` ops ran."""
        self.speed.sample()
        loop_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - loop_start
            if (elapsed >= seconds and len(self) >= min_ops) or elapsed >= MAX_LOOP_S:
                break
            self.add(self.tally.run(self.workload, first_op + len(self), self.call))
            self.speed.sample_if_due()
        self.speed.sample()
        return self

    def scales(self, scaled: bool, cpu: bool = False) -> array.array:
        if not scaled:
            return array.array("d", [1.0]) * len(self)
        return array.array("d", (self.speed.scale(start, cpu) for start in self.starts))

    def walls(self, scaled: bool) -> array.array:
        return array.array("d", (w * f for w, f in zip(self.wall_s, self.scales(scaled))))

    def cpu(self, scaled: bool) -> float:
        return sum(c * f for c, f in zip(self.cpu_s, self.scales(scaled, cpu=True)))

    def ops_per_s(self, scaled: bool) -> float:
        return sum(self.passed) / sum(self.walls(scaled))


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def min_ops_for(pct: float) -> int:
    """Ops needed for at least ten samples beyond the tail percentile."""
    return math.ceil(10 / (1 - pct / 100) - 1e-9)


def set_up(name: str, seed: int, workdir: str, speed: reference.Speed):
    """Import and generate inputs SETUP_REPEATS times; keep the last.
    Returns (modules, workload, [(start, seconds) per repetition]).

    Every repetition writes the same files.  Creating a file on the disk
    this was written on costs 0.03 to 0.6 ms of kernel time, varying tenfold
    from minute to minute, while rewriting one in place (see
    workloads.write_doc) costs about 0.01 ms.  Only the first repetition
    creates the inputs, so the median measures import, generation and
    writing rather than the disk."""
    times, digests = [], set()
    target = os.path.join(workdir, "inputs")
    os.makedirs(target)
    for _ in range(SETUP_REPEATS):
        # the purged modules of the last repetition are garbage in cycles;
        # collect them untimed so every repetition starts from the same heap
        gc.collect()
        speed.sample()
        start = time.perf_counter()
        oc = import_opencospan()
        workload = workloads.WORKLOADS[name](oc, seed, target)
        times.append((start, time.perf_counter() - start))
        speed.sample()
        digests.add(workload.input_digest)
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic for this seed")
    return oc, workload, times


def end_to_end(loop: Loop, setup_times, tail_pct: float, scaled: bool) -> dict:
    walls = loop.walls(scaled)
    setup = [t * (loop.speed.scale(s) if scaled else 1.0) for s, t in setup_times]
    return {
        "ops_per_s": (loop.ops_per_s(scaled), "1/s"),
        "op_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "op_tail_ms": (percentile(walls, tail_pct) * 1e3, "ms"),
        "cpu_per_op_ms": (loop.cpu(scaled) / len(walls) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def sweep(seed: int, workdir: str, tally: Tally, speed: reference.Speed) -> dict:
    """Scaled op time at several sizes, untraced: median of up to three ops."""
    out = {}
    for name, (param, sizes) in SWEEP.items():
        for k in sizes:
            target = os.path.join(workdir, f"sweep-{name}-{k}")
            os.makedirs(target)
            workload = workloads.WORKLOADS[name](import_opencospan(), seed, target, **{param: k})
            loop = Loop(workload, tally, speed)
            speed.sample()
            start = time.perf_counter()
            for i in range(3):
                if i and time.perf_counter() - start >= 3.0:
                    break
                loop.add(tally.run(workload, i))
                speed.sample()
            times = [w for ok, w in zip(loop.passed, loop.walls(scaled=True)) if ok]
            # a point whose ops all failed reads 0; the failures are in the tally
            out[f"sweep.{name}.k{k}.op_ms"] = (
                statistics.median(times) * 1e3 if times else 0.0, "ms")
            shutil.rmtree(target)
    return out


def per_layer(tracer: tracing.Tracer, ops: int) -> dict:
    out = {}
    for name in tracing.TRACED_NAMES:
        out[f"{name}.calls"] = (tracer.calls[name] / ops, "calls/op")
        out[f"{name}.self_ms"] = (tracer.self_s[name] * 1e3 / ops, "ms/op")
    for name, (hits, attempts) in tracer.hits.items():
        out[f"{name}.hit_ratio"] = (hits / attempts if attempts else 0.0, "ratio")
    out["modelio.bytes_written"] = (tracer.bytes_written / ops, "bytes/op")
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """Digest of every file under src/opencospan, so results name the code."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "opencospan")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode("utf-8"))
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "opencospan", "__init__.py")):
        print(f"error: no opencospan sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    # the iso searches run with the package's default node budget, whatever
    # the calling shell sets
    os.environ.pop("OPENCOSPAN_ISO_BUDGET", None)

    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(workdir)
    try:
        record = run(args, workdir, results_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for line in record["report"]:
        print(line)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0


def run(args, workdir: str, results_dir: str) -> dict:
    speed = reference.Speed()
    oc, workload, setup_times = set_up(args.workload, args.seed, workdir, speed)
    tally = Tally()
    tally.run(workload, -1)  # warm-up, checked but not timed
    tail_pct = workload.tail_pct
    host = machine()
    report = [f"machine: {json.dumps(host, sort_keys=True)}",
              f"workload {args.workload} seed {args.seed}: inputs sha256 {workload.input_digest}"]
    extra: dict = {}
    if args.trace == 0:
        loop = Loop(workload, tally, speed).run(args.seconds, min_ops_for(tail_pct))
        metrics = end_to_end(loop, setup_times, tail_pct, scaled=True)
        raw = end_to_end(loop, setup_times, tail_pct, scaled=False)
        extra["raw_metrics"] = raw
        extra["op_tail"] = {"percentile": tail_pct, "samples": len(loop)}
        report.append(f"op_tail_ms is p{tail_pct:g} of {len(loop)} ops")
        report += [f"raw {name} = {value:.6g} {unit}" for name, (value, unit) in raw.items()]
    else:
        # half the time untraced, half traced, so the run lasts as long as
        # an untraced one plus the sweep
        untraced = Loop(workload, tally, speed).run(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(oc)
        try:
            traced = Loop(workload, tally, speed, tracer.wrap_op(workload.run_op)).run(
                args.seconds / 2, first_op=len(untraced))
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, len(traced))
        metrics["trace.overhead_ratio"] = (
            untraced.ops_per_s(scaled=True) / traced.ops_per_s(scaled=True), "ratio")
        metrics.update(sweep(args.seed, workdir, tally, speed))
        spans = os.path.join(results_dir, f"spans-{args.workload}-s{args.seed}.jsonl")
        tracer.write_spans(spans)
        extra["trace"] = {"traced_ops": len(traced), "spans_seen": tracer.spans_seen,
                          "spans_kept": len(tracer.spans), "spans_file": os.path.relpath(spans, ROOT),
                          "hit_counts": tracer.hits}
    error_rate = tally.failed / tally.attempted
    report.append(f"reference kernel: median {speed.median_ms():.4g} ms over "
                  f"{len(speed.seconds)} samples; times are scaled to {reference.REFERENCE_MS} ms")
    report += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    report.append(f"error_rate = {error_rate:.6g} ({tally.failed} of {tally.attempted} ops failed)")
    report += [f"failure: {e}" for e in tally.errors]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": host, "input_sha256": workload.input_digest,
        "output_sha256": dict(sorted(workload.output_digests.items())),
        "setup_s_each": [t for _, t in setup_times],
        "reference_ms": [t * 1e3 for t in speed.seconds],
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": error_rate, "errors": tally.errors, "metrics": metrics,
        "report": report, **extra,
    }


if __name__ == "__main__":
    sys.exit(main())
