"""The four benchmark workloads: seeded inputs, the timed op, and its oracle.

Every input is generated here from the run's seed as a model or config
JSON document, using only `random.Random` seeded with a string, so two
commits of opencospan always see the same inputs.  The package's own
random generators in `opencospan.laws` are deliberately not used: a
refactor there could change their draw order.

Each workload object has the same shape:

- the constructor is the set-up: it generates the documents, writes them
  to its work directory and parses what the ops need;
- `run_op(i)` is the timed part and calls opencospan only through module
  attributes (`self.oc.cli.main`, `self.oc.cospans.hcompose`, ...), so that
  the traced run can rebind them;
- `check(i, out)` is the oracle.  It returns None when the output is right
  and a one-line reason otherwise.  Oracles read output files with the
  `json` module and recompute what they check with code of their own.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import os
import random
from typing import Optional

KINDS = ("graph", "lgraph", "petri", "petri_rates")
LABELS = ("a", "b")


def rng_for(seed: int, *labels: object) -> random.Random:
    """An independent stream per (seed, labels); string seeds hash stably."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def canonical(doc: object) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(oc, argv: list[str]) -> tuple[int, str, str]:
    """Call `opencospan.cli.main` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = oc.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_error(what: str, result: tuple[int, str, str], code: int) -> Optional[str]:
    """Why a CLI call did not end as expected: the exit code, then stderr,
    which stays empty on success and on a plain verdict.  Every error the
    CLI catches, a spent search budget among them, prints there."""
    got, _, err = result
    if got != code:
        return f"{what}: exit code {got}, expected {code}; stderr {err.strip()[:200]!r}"
    if err:
        return f"{what}: stderr {err.strip()[:200]!r}"
    return None


def model_doc(kind: str, foot_left: int, foot_right: int, leg_left, leg_right, system,
              representation: str = "decorated", names: Optional[dict] = None) -> dict:
    doc = {
        "version": "1",
        "kind": kind,
        "representation": representation,
        "payload": {
            "representation": representation,
            "footLeft": foot_left,
            "footRight": foot_right,
            "legLeft": list(leg_left),
            "legRight": list(leg_right),
            "system": system,
        },
    }
    if names is not None:
        doc["names"] = names
    return doc


def random_multiset(rng: random.Random, places: int) -> dict:
    chosen = rng.sample(range(places), min(places, rng.randint(1, 2)))
    return {str(p): rng.randint(1, 2) for p in sorted(chosen)}


def random_system(rng: random.Random, kind: str, places: int, cells: int) -> dict:
    if kind in ("graph", "lgraph"):
        system = {
            "nodes": places,
            "edges": cells,
            "src": [rng.randrange(places) for _ in range(cells)],
            "tgt": [rng.randrange(places) for _ in range(cells)],
        }
        if kind == "lgraph":
            system["labels"] = [rng.choice(LABELS) for _ in range(cells)]
        return system
    transitions = []
    for _ in range(cells):
        entry = {"src": random_multiset(rng, places), "tgt": random_multiset(rng, places)}
        if kind == "petri_rates":
            entry["rate"] = round(rng.uniform(0.05, 2.0), 4)
        transitions.append(entry)
    return {"places": places, "transitions": transitions}


def drawn(rng: random.Random, bounds: tuple[int, int], count: int) -> list[int]:
    return [rng.randint(*bounds) for _ in range(count)]


def balanced(rng: random.Random, bounds: tuple[int, int], count: int) -> list[int]:
    """Every value in bounds about equally often, in seeded order, so that
    chains from different seeds have nearly the same total size."""
    values = list(range(bounds[0], bounds[1] + 1))
    out = (values * (count // len(values) + 1))[:count]
    rng.shuffle(out)
    return out


def random_chain(rng: random.Random, kind: str, count: int, apex: tuple[int, int],
                 foot: tuple[int, int], cells: tuple[int, int],
                 representation: str = "decorated", sizes=drawn) -> list[dict]:
    """`count` composable open systems: each right foot matches the next left foot."""
    feet = sizes(rng, foot, count + 1)
    apexes = sizes(rng, apex, count)
    cell_counts = sizes(rng, cells, count)
    docs = []
    for i, n in enumerate(apexes):
        docs.append(model_doc(
            kind, feet[i], feet[i + 1],
            [rng.randrange(n) for _ in range(feet[i])],
            [rng.randrange(n) for _ in range(feet[i + 1])],
            random_system(rng, kind, n, cell_counts[i]),
            representation,
        ))
    return docs


def write_doc(path: str, doc: dict) -> bytes:
    """Write a document over the file in place and return its bytes.

    The file is not opened with truncation: on ext4, closing a file that was
    truncated and rewritten starts writing it back to the disk, which costs
    several times the write and varies from minute to minute.  Repeated
    set-ups rewrite the same files, and their time should not be the disk's."""
    data = canonical(doc) + b"\n"
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644), "wb") as handle:
        handle.write(data)
        handle.truncate()
    return data


def take_output(path: str) -> bytes:
    """Read an output file and remove it, so the next op must write it anew."""
    with open(path, "rb") as handle:
        data = handle.read()
    os.remove(path)
    return data


class Workload:
    """Shared bookkeeping: input digest, output digests, repeatability.
    Subclasses set `name` and `tail_pct`, the percentile of `op_tail_ms`."""

    def __init__(self, oc):
        self.oc = oc
        self._inputs = hashlib.sha256()
        self.output_digests: dict[str, str] = {}

    def record_input(self, data: bytes) -> None:
        self._inputs.update(data)

    @property
    def input_digest(self) -> str:
        return self._inputs.hexdigest()

    def same_output(self, key: str, digest: str) -> Optional[str]:
        """Outputs of one input must be byte-identical from op to op."""
        first = self.output_digests.setdefault(key, digest)
        if first != digest:
            return f"{key}: output bytes changed between ops on the same input"
        return None


def union_find_labels(n: int, pairs) -> list[int]:
    """The class of each of n elements glued by `pairs`, classes numbered
    in the order of their smallest element."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # every root is its class's smallest element
    roots = sorted({find(x) for x in range(n)})
    rank = {root: label for label, root in enumerate(roots)}
    return [rank[find(x)] for x in range(n)]


def transition_key(t: dict) -> tuple:
    """A transition as a sortable value: rate, then input and output counts."""
    return (t["rate"], sorted((int(p), k) for p, k in t["src"].items()),
            sorted((int(p), k) for p, k in t["tgt"].items()))


def mass_action_terms(places: int, transitions: list[dict]) -> list[dict]:
    """Per place, exponent vector -> coefficient of the mass-action field:
    each transition fires at rate * prod x_p^(inputs at p) and moves place p
    by outputs minus inputs at p."""
    field: list[dict] = [{} for _ in range(places)]
    for t in transitions:
        src = {int(p): k for p, k in t["src"].items()}
        tgt = {int(p): k for p, k in t["tgt"].items()}
        exps = tuple(src.get(p, 0) for p in range(places))
        for p in sorted(set(src) | set(tgt)):
            delta = tgt.get(p, 0) - src.get(p, 0)
            if delta:
                field[p][exps] = field[p].get(exps, 0.0) + t["rate"] * delta
    return field


def field_difference(want: list[dict], got: list, tolerance: float) -> Optional[str]:
    """Where a field file's components differ from `want` by more than
    `tolerance`, relative to the size of the coefficient; absent terms read 0."""
    if len(got) != len(want):
        return f"{len(got)} components, expected {len(want)}"
    for p, (terms, component) in enumerate(zip(want, got)):
        have: dict = {}
        for coefficient, exps in component:
            have[tuple(exps)] = have.get(tuple(exps), 0.0) + coefficient
        for exps in set(terms) | set(have):
            a, b = terms.get(exps, 0.0), have.get(exps, 0.0)
            if abs(a - b) > tolerance * max(1.0, abs(a)):
                return f"place {p}: coefficient {b!r} of {list(exps)}, expected {a!r}"
    return None


class ComposeChain(Workload):
    """`compose` over a chain of k rated open nets, then `graybox` the result."""

    name = "compose_chain"
    tail_pct = 75.0
    # coefficients of like terms are sums of rates, added in any order
    TOLERANCE = 1e-12

    def __init__(self, oc, seed: int, workdir: str, k: int = 64, pool: int = 8):
        super().__init__(oc)
        self.chains = []
        for c in range(pool):
            rng = rng_for(seed, self.name, k, c)
            docs = random_chain(rng, "petri_rates", k, apex=(2, 6), foot=(1, 3), cells=(1, 4),
                                sizes=balanced)
            paths = []
            for i, doc in enumerate(docs):
                path = os.path.join(workdir, f"chain{c}_net{i:03d}.json")
                self.record_input(write_doc(path, doc))
                paths.append(path)
            self.chains.append({
                "paths": paths,
                "composed": os.path.join(workdir, f"chain{c}_composed.json"),
                "dynam": os.path.join(workdir, f"chain{c}_dynam.json"),
                "expected": self._expect(docs),
            })

    @staticmethod
    def _expect(docs: list[dict]) -> dict:
        offsets, total = [], 0
        for doc in docs:
            offsets.append(total)
            total += doc["payload"]["system"]["places"]
        glue = []
        for i in range(len(docs) - 1):
            right = docs[i]["payload"]["legRight"]
            left = docs[i + 1]["payload"]["legLeft"]
            glue.extend((offsets[i] + r, offsets[i + 1] + l) for r, l in zip(right, left))
        labels = union_find_labels(total, glue)
        # the composite's transitions: every net's, with places relabelled
        # to the glued classes; counts of places glued together add up
        transitions = []
        for doc, offset in zip(docs, offsets):
            for t in doc["payload"]["system"]["transitions"]:
                moved = {"rate": t["rate"], "src": {}, "tgt": {}}
                for side in ("src", "tgt"):
                    for p, k in t[side].items():
                        q = str(labels[offset + int(p)])
                        moved[side][q] = moved[side].get(q, 0) + k
                transitions.append(moved)
        places = max(labels) + 1
        return {
            "places": places,
            "transitions": sorted(transition_key(t) for t in transitions),
            "footLeft": docs[0]["payload"]["footLeft"],
            "footRight": docs[-1]["payload"]["footRight"],
            "field": mass_action_terms(places, transitions),
        }

    def run_op(self, i: int):
        chain = self.chains[i % len(self.chains)]
        composed = run_cli(self.oc, ["compose", *chain["paths"], "-o", chain["composed"]])
        dynam = run_cli(self.oc, ["graybox", chain["composed"], "-o", chain["dynam"]])
        return composed, dynam

    def check(self, i: int, out) -> Optional[str]:
        c = i % len(self.chains)
        chain = self.chains[c]
        error = (cli_error(f"chain {c} compose", out[0], 0)
                 or cli_error(f"chain {c} graybox", out[1], 0))
        if error:
            return error
        composed_bytes = take_output(chain["composed"])
        dynam_bytes = take_output(chain["dynam"])
        composed = json.loads(composed_bytes)["payload"]
        dynam = json.loads(dynam_bytes)["payload"]
        want = chain["expected"]
        system = composed["system"]
        got = {
            "places": system["places"],
            "transitions": sorted(transition_key(t) for t in system["transitions"]),
            "footLeft": composed["footLeft"],
            "footRight": composed["footRight"],
        }
        for key in got:
            if got[key] != want[key]:
                shown = (f"not the {len(want[key])} relabelled transitions of the chain"
                         if key == "transitions" else f"{got[key]!r}, expected {want[key]!r}")
                return f"chain {c}: composed {key}: {shown}"
        if dynam["system"]["places"] != want["places"]:
            return f"chain {c}: gray-boxed field is not over {want['places']} places"
        wrong = field_difference(want["field"], dynam["system"]["field"], self.TOLERANCE)
        if wrong:
            return f"chain {c}: gray-boxed field: {wrong}"
        if dynam["legLeft"] != composed["legLeft"] or dynam["legRight"] != composed["legRight"]:
            return f"chain {c}: graybox changed the legs"
        return (self.same_output(f"chain{c}.composed", sha256(composed_bytes))
                or self.same_output(f"chain{c}.dynam", sha256(dynam_bytes)))


class StepFlow:
    """The benchmark's own right-continuous step function."""

    def __init__(self, doc):
        if isinstance(doc, (int, float)):
            self.breakpoints, self.values = [], [float(doc)]
        else:
            self.breakpoints, self.values = doc["breakpoints"], doc["values"]

    def __call__(self, t: float) -> float:
        return self.values[bisect.bisect_right(self.breakpoints, t)]


class SimulateTensor(Workload):
    """`simulate` on k S/I/R nets side by side, 1000 RK4 steps, to CSV."""

    name = "simulate_tensor"
    # ops are slow and alike, so a run holds about 25 of them
    tail_pct = 60.0
    T1 = 10.0
    DT = 0.01
    STEPS = 1000
    TOLERANCE = 1e-9

    def __init__(self, oc, seed: int, workdir: str, k: int = 16, pool: int = 2):
        super().__init__(oc)
        self.k = k
        self.cases = []
        for c in range(pool):
            rng = rng_for(seed, self.name, k, c)
            model, config = self._generate(rng, k)
            model_path = os.path.join(workdir, f"sir{c}.json")
            config_path = os.path.join(workdir, f"sir{c}_sim.json")
            self.record_input(write_doc(model_path, model))
            self.record_input(write_doc(config_path, config))
            names = model["names"]
            rates = [t["rate"] for t in model["payload"]["system"]["transitions"]]
            inflows, outflows, initial = config["inflows"], config["outflows"], config["initialState"]
            self.cases.append({
                "model": model_path,
                "config": config_path,
                "csv": os.path.join(workdir, f"sir{c}.csv"),
                "header": "t," + ",".join(names["places"]),
                "initial": sum(initial.values()),
                "inflows": [StepFlow(inflows.get(n, 0.0)) for n in names["footLeft"]],
                "outflows": [StepFlow(outflows.get(n, 0.0)) for n in names["footRight"]],
                # net j: infection and recovery rates, initial S, I, R, and
                # its inflows to S and I and outflow from R
                "blocks": [{
                    "beta": rates[2 * j], "gamma": rates[2 * j + 1],
                    "state": tuple(initial[f"{x}{j}"] for x in "SIR"),
                    "flows": (StepFlow(inflows[f"inS{j}"]), StepFlow(inflows[f"inI{j}"]),
                              StepFlow(outflows[f"outR{j}"])),
                } for j in range(k)],
            })

    def _step_doc(self, rng: random.Random, top: float) -> dict:
        # breakpoints sit a quarter step off the grid, so no RK4 stage time
        # lands on a jump and the oracle's quadrature is exact
        steps = sorted(rng.sample(range(1, self.STEPS - 1), rng.randint(1, 3)))
        return {
            "breakpoints": [(m + 0.25) * self.DT for m in steps],
            "values": [round(rng.uniform(0.0, top), 4) for _ in range(len(steps) + 1)],
        }

    def _generate(self, rng: random.Random, k: int) -> tuple[dict, dict]:
        transitions, places, feet_in, feet_out, leg_in, leg_out = [], [], [], [], [], []
        initial, inflows, outflows = {}, {}, {}
        for j in range(k):
            s, i, r = 3 * j, 3 * j + 1, 3 * j + 2
            transitions.append({"src": {str(s): 1, str(i): 1}, "tgt": {str(i): 2},
                                "rate": round(rng.uniform(0.2, 0.8), 4)})
            transitions.append({"src": {str(i): 1}, "tgt": {str(r): 1},
                                "rate": round(rng.uniform(0.05, 0.3), 4)})
            places += [f"S{j}", f"I{j}", f"R{j}"]
            feet_in += [f"inS{j}", f"inI{j}"]
            leg_in += [s, i]
            feet_out.append(f"outR{j}")
            leg_out.append(r)
            initial.update({f"S{j}": round(rng.uniform(0.5, 1.0), 4),
                            f"I{j}": round(rng.uniform(0.01, 0.1), 4), f"R{j}": 0.0})
            inflows[f"inS{j}"] = self._step_doc(rng, 0.05)
            inflows[f"inI{j}"] = round(rng.uniform(0.0, 0.01), 4)
            outflows[f"outR{j}"] = self._step_doc(rng, 0.02)
        names = {"places": places, "footLeft": feet_in, "footRight": feet_out}
        model = model_doc("petri_rates", 2 * k, k, leg_in, leg_out,
                          {"places": 3 * k, "transitions": transitions}, names=names)
        config = {"t0": 0.0, "t1": self.T1, "dt": self.DT, "initialState": initial,
                  "inflows": inflows, "outflows": outflows}
        return model, config

    def run_op(self, i: int):
        case = self.cases[i % len(self.cases)]
        return run_cli(self.oc, ["simulate", case["model"], "--config", case["config"],
                                 "-o", case["csv"]])

    def net_flow(self, case: dict, t: float) -> float:
        return sum(f(t) for f in case["inflows"]) - sum(f(t) for f in case["outflows"])

    @staticmethod
    def sir_rhs(block: dict, t: float, state: tuple) -> tuple:
        """The S/I/R equations of one net, written out by hand."""
        s, i, _ = state
        in_s, in_i, out_r = block["flows"]
        infection, recovery = block["beta"] * s * i, block["gamma"] * i
        return (in_s(t) - infection, infection - recovery + in_i(t), recovery - out_r(t))

    def rk4_step(self, block: dict, t: float, h: float, y: tuple) -> tuple:
        k1 = self.sir_rhs(block, t, y)
        k2 = self.sir_rhs(block, t + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k1)))
        k3 = self.sir_rhs(block, t + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k2)))
        k4 = self.sir_rhs(block, t + h, tuple(a + h * b for a, b in zip(y, k3)))
        return tuple(a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))

    def check(self, i: int, out) -> Optional[str]:
        c = i % len(self.cases)
        case = self.cases[c]
        error = cli_error(f"case {c} simulate", out, 0)
        if error:
            return error
        # one net per op, in turn, is integrated here and compared column
        # by column; the CSV is read a row at a time so that the oracle adds
        # little to the peak resident set size
        j = (i // len(self.cases)) % self.k
        block = case["blocks"][j]
        columns = slice(1 + 3 * j, 4 + 3 * j)
        digest = hashlib.sha256()
        # mass action conserves total mass, so only the boundary flows move
        # it; RK4 integrates the state-independent net flow with Simpson's rule
        mass, state, rows, t = case["initial"], block["state"], 0, None
        try:
            with open(case["csv"], "rb") as handle:
                header = handle.readline()
                digest.update(header)
                if header.decode("ascii").rstrip("\n") != case["header"]:
                    return f"case {c}: CSV header differs"
                for line in handle:
                    digest.update(line)
                    row = [float(x) for x in line.split(b",")]
                    if rows == 0:
                        if row[0] != 0.0:
                            return f"case {c}: time starts at {row[0]}"
                    else:
                        h = self.DT if rows < self.STEPS else self.T1 - t
                        mass += h / 6 * (self.net_flow(case, t) + 4 * self.net_flow(case, t + h / 2)
                                         + self.net_flow(case, t + h))
                        state = self.rk4_step(block, t, h, state)
                    t = row[0]
                    rows += 1
                    if abs(sum(row[1:]) - mass) > self.TOLERANCE:
                        return f"case {c}: mass balance off by {sum(row[1:]) - mass:.3g} at t = {t}"
                    if any(abs(a - b) > self.TOLERANCE for a, b in zip(row[columns], state)):
                        return (f"case {c}: net {j} is at {row[columns]} at t = {t}, "
                                f"expected {list(state)}")
        finally:
            os.remove(case["csv"])
        if rows != self.STEPS + 1:
            return f"case {c}: {rows} rows, expected {self.STEPS + 1}"
        if t != self.T1:
            return f"case {c}: time ends at {t}, expected {self.T1}"
        return self.same_output(f"case{c}.csv", digest.hexdigest())


class LawMix(Workload):
    """Small law instances on seeded cospans of every kind, one per op."""

    name = "law_mix"
    tail_pct = 95.0
    # sorted by cost the instances run empty < conversion < graybox < assoc <
    # interchange < adjoints; three assoc slots in eight put the median in
    # the middle of the assoc group and p95 in the adjoints group, not on a
    # boundary between groups
    INSTANCES = ("assoc", "empty", "assoc", "conversion", "assoc", "graybox", "interchange",
                 "adjoints")

    def __init__(self, oc, seed: int, workdir: str, rounds: int = 48):
        super().__init__(oc)
        self.pool = []
        docs = []
        for n in range(rounds * len(self.INSTANCES)):
            instance = self.INSTANCES[n % len(self.INSTANCES)]
            rng = rng_for(seed, self.name, n)
            case_docs, expected = self._generate(rng, instance, n)
            docs.append(case_docs)
            self.pool.append((instance, self._parse(instance, case_docs), expected))
        path = os.path.join(workdir, "law_mix_inputs.json")
        self.record_input(write_doc(path, {"cases": docs}))

    def _generate(self, rng: random.Random, instance: str, n: int) -> tuple[dict, object]:
        kind = KINDS[(n // len(self.INSTANCES)) % len(KINDS)]
        if instance == "assoc":
            rep = ("decorated", "structured")[(n // 2) % 2]
            return {"kind": kind, "models": random_chain(
                rng, kind, 3, apex=(1, 4), foot=(0, 2), cells=(0, 3), representation=rep)}, True
        if instance == "interchange":
            return {"kind": kind, "models": random_chain(
                rng, kind, 2, apex=(1, 3), foot=(0, 2), cells=(0, 3)) + random_chain(
                rng, kind, 2, apex=(1, 3), foot=(0, 2), cells=(0, 3))}, True
        if instance == "conversion":
            return {"kind": kind, "models": random_chain(
                rng, kind, 2, apex=(1, 4), foot=(0, 2), cells=(0, 3))}, True
        if instance == "graybox":
            return {"kind": "petri_rates", "models": random_chain(
                rng, "petri_rates", 2, apex=(1, 4), foot=(1, 3), cells=(1, 3))}, True
        if instance == "adjoints":
            dom, cod = rng.randint(0, 3), rng.randint(1, 3)
            return {"kind": ("graph", "petri_rates")[(n // len(self.INSTANCES)) % 2],
                    "dom": dom, "cod": cod,
                    "table": [rng.randrange(cod) for _ in range(dom)]}, True
        fields = [self._random_field(rng) for _ in range(8)]
        expected = [all(not component for component in f["payload"]["system"]["field"])
                    for f in fields]
        return {"kind": "dynam", "models": fields}, expected

    @staticmethod
    def _random_field(rng: random.Random) -> dict:
        places = rng.randint(0, 3)
        zero = rng.random() < 0.3
        field = []
        for _ in range(places):
            terms = {}
            for _ in range(0 if zero else rng.randint(0, 2)):
                exps = tuple(rng.randint(0, 2) for _ in range(places))
                terms[exps] = rng.choice((-1.0, -0.5, 0.5, 1.0))
            field.append([[terms[e], list(e)] for e in sorted(terms)])
        return model_doc("dynam", 0, 0, [], [], {"places": places, "field": field})

    def _parse(self, instance: str, case: dict):
        oc = self.oc
        if instance == "adjoints":
            return case["kind"], oc.finset.FinFunction(
                oc.finset.FinSet(case["dom"]), oc.finset.FinSet(case["cod"]), tuple(case["table"]))
        models = [oc.modelio.model_from_json(doc).payload for doc in case["models"]]
        if instance == "empty":
            return [m.field for m in models]
        return models

    def run_op(self, i: int):
        instance, args, _ = self.pool[i % len(self.pool)]
        cospans, dynamics = self.oc.cospans, self.oc.dynamics
        if instance == "assoc":
            a, b, c = args
            lhs = cospans.hcompose(cospans.hcompose(a, b), c)
            rhs = cospans.hcompose(a, cospans.hcompose(b, c))
            return cospans.cospan_iso(lhs, rhs) is not None
        if instance == "interchange":
            m1, m2, n1, n2 = args
            lhs = cospans.hcompose(cospans.tensor(m1, n1), cospans.tensor(m2, n2))
            rhs = cospans.tensor(cospans.hcompose(m1, m2), cospans.hcompose(n1, n2))
            return cospans.cospan_iso(lhs, rhs) is not None
        if instance == "conversion":
            m, n = args
            to_s, to_d = cospans.to_structured, cospans.to_decorated
            return (to_d(to_s(m)) == m and to_d(to_s(n)) == n
                    and to_s(cospans.hcompose(m, n)) == cospans.hcompose(to_s(m), to_s(n)))
        if instance == "graybox":
            m, n = args
            via_nets = dynamics.graybox(cospans.hcompose(m, n))
            via_fields = dynamics.compose_open_dynam(dynamics.graybox(m), dynamics.graybox(n))
            return (via_nets.leg_left == via_fields.leg_left
                    and via_nets.leg_right == via_fields.leg_right
                    and dynamics.field_close(via_nets.field, via_fields.field))
        if instance == "adjoints":
            kind, f = args
            return cospans.check_companion(f, kind)[0] and cospans.check_conjoint(f, kind)[0]
        return [dynamics.admits_morphism_from_empty(field) for field in args]

    def check(self, i: int, out) -> Optional[str]:
        instance, _, expected = self.pool[i % len(self.pool)]
        if out != expected:
            return f"{instance} instance {i % len(self.pool)}: verdict {out!r}, expected {expected!r}"
        return self.same_output(f"case{i % len(self.pool)}", sha256(canonical(out)))


def ring_transitions(cycles: list[list[int]]) -> list[tuple[int, int]]:
    return [(cycle[j], cycle[(j + 1) % len(cycle)]) for cycle in cycles for j in range(len(cycle))]


def iso_docs(kind: str, n: int, arcs: list[tuple[int, int]], rate: float) -> dict:
    """A net of equal-rate arcs or its mass-action field, with empty feet so
    that no place is pinned before the search."""
    if kind == "petri_rates":
        system = {"places": n, "transitions": [
            {"src": {str(s): 1}, "tgt": {str(t): 1}, "rate": rate} for s, t in arcs]}
    else:
        field: list[dict] = [{} for _ in range(n)]
        for s, t in arcs:
            e = tuple(int(p == s) for p in range(n))
            field[s][e] = field[s].get(e, 0.0) - rate
            field[t][e] = field[t].get(e, 0.0) + rate
        system = {"places": n, "field": [
            [[comp[e], list(e)] for e in sorted(comp)] for comp in field]}
    return model_doc(kind, 0, 0, [], [], system)


class IsoSearch(Workload):
    """`check --laws iso` on a ring against a relabelled ring or two cycles."""

    name = "iso_search"
    tail_pct = 75.0
    # a quarter of the pairs are isomorphic and fast; three eighths each are
    # exhaustive searches over nets and over fields, so the median and the
    # tail each fall inside one group rather than on a boundary
    PAIRS = (("petri_rates", True), ("petri_rates", False), ("dynam", False),
             ("petri_rates", False), ("dynam", True), ("dynam", False),
             ("petri_rates", False), ("dynam", False))

    def __init__(self, oc, seed: int, workdir: str, n: int = 7):
        super().__init__(oc)
        self.pairs = []
        for c, (kind, iso) in enumerate(self.PAIRS):
            rng = rng_for(seed, self.name, n, c)
            rate = round(rng.uniform(0.1, 2.0), 4)
            ring = list(range(n))
            left = iso_docs(kind, n, ring_transitions([ring]), rate)
            perm = list(range(n))
            rng.shuffle(perm)
            if iso:
                cycles = [ring]
            else:
                split = n // 2
                cycles = [ring[:split], ring[split:]]
            arcs = [(perm[s], perm[t]) for s, t in ring_transitions(cycles)]
            rng.shuffle(arcs)
            right = iso_docs(kind, n, arcs, rate)
            paths = []
            for side, doc in (("a", left), ("b", right)):
                path = os.path.join(workdir, f"pair{c}_{side}.json")
                self.record_input(write_doc(path, doc))
                paths.append(path)
            self.pairs.append((paths, 0 if iso else 2))

    def run_op(self, i: int):
        paths, _ = self.pairs[i % len(self.pairs)]
        return run_cli(self.oc, ["check", "--laws", "iso", *paths])

    def check(self, i: int, out) -> Optional[str]:
        c = i % len(self.pairs)
        expected = self.pairs[c][1]
        # exit code 2 is also what any caught error gives, so the verdict
        # line is checked too, and cli_error requires an empty stderr
        error = cli_error(f"pair {c}", out, expected)
        if error:
            return error
        stdout = out[1]
        verdict = "PASS iso " if expected == 0 else "FAIL iso "
        if not stdout.startswith(verdict) or stdout.count("\n") != 1:
            return f"pair {c}: report {stdout.strip()[:200]!r}, expected one {verdict.strip()!r} line"
        return self.same_output(f"pair{c}", sha256(stdout.encode("utf-8")))


WORKLOADS = {w.name: w for w in (ComposeChain, SimulateTensor, LawMix, IsoSearch)}
