"""The benchmark's workloads: seeded inputs, set-up, operations and checks.

Every workload is a closed loop with one caller: operation i+1 starts only
after operation i has returned.  Operation inputs are a pure function of
(seed, i), so the harness can rerun any prefix and expect identical outputs.
The program only ever sees the generated inputs; the seed never reaches it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from monothetic import cli, construction, evaluator, serialize
from monothetic.groups import (
    CappedWeightedL1,
    CyclicScaled,
    ExtElement,
    GroupDescriptor,
    RationalRotation,
    enumerate_h,
)
from monothetic.rat import format_fraction, parse_fraction
from stats import median, tail_percentile


@dataclass
class Call:
    """One call into the program and what it returned.

    ``code`` is the exit code for CLI calls (0 for a returning API call) and
    None when the call raised; every call the benchmark makes expects 0.
    ``text`` is the output that is hashed: the captured stdout, or the
    canonical JSON of an API result.
    """

    label: str
    code: int | None
    text: str
    seconds: float
    result: object = None
    stderr: str = ""
    jsonl: bytes | None = None

    @property
    def failed(self) -> bool:
        """Unexpected exit code and no output: an operation that did not happen."""
        return self.code != 0 and not self.text

    @property
    def wrong(self) -> bool:
        """Unexpected exit code with output: the program answered wrongly."""
        return self.code != 0 and bool(self.text)


def run_cli(label: str, argv: list[str]) -> Call:
    """Call ``cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a traceback reaching the user is a failed operation
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return Call(label, code, out.getvalue(), seconds, stderr=err.getvalue())


def _rng(seed: int, *tags) -> random.Random:
    return random.Random("/".join(str(t) for t in (seed,) + tags))


def _element_json(x: ExtElement) -> str:
    return json.dumps({"h": list(x.h.coords()), "k": x.k})


def _anchor_adjacent(table, index: int, anchors: int, offsets: int) -> ExtElement:
    """Decode index into +-anchor, +-anchor + small offset, or +-a_n +- a_m.

    Index ranges, in order: 2*anchors single anchors with a sign;
    2*anchors*offsets anchors plus one of the first base elements after zero;
    4*C(anchors, 2) sums of two distinct anchors with independent signs.
    """
    if index < 2 * anchors:
        n, sign = divmod(index, 2)
        x = table.anchor_element(n + 1)
        return -x if sign else x
    index -= 2 * anchors
    if index < 2 * anchors * offsets:
        n, rest = divmod(index, 2 * offsets)
        sign, offset = divmod(rest, offsets)
        x = table.anchor_element(n + 1)
        x = -x if sign else x
        return x + ExtElement(enumerate_h(table.descriptor, offset + 2), 0)
    pair, signs = divmod(index - 2 * anchors * offsets, 4)
    for n in range(1, anchors):
        if pair < anchors - n:
            m = n + 1 + pair
            break
        pair -= anchors - n
    else:
        raise IndexError("anchor-adjacent index out of range")
    a, b = table.anchor_element(n), table.anchor_element(m)
    return (-a if signs & 1 else a) + (-b if signs & 2 else b)


def _anchor_adjacent_count(anchors: int, offsets: int) -> int:
    return 2 * anchors + 2 * anchors * offsets + 2 * anchors * (anchors - 1)


def _check_exact(table, x: ExtElement, payload: dict) -> str | None:
    """Rebuild a CLI witness and run ``Decomposition.check_against`` on it."""
    witness = payload["witness"]
    coefficients = tuple(sorted((int(n), m) for n, m in witness["coeffs"].items()))
    if coefficients and coefficients[-1][0] > table.depth:
        return f"witness uses anchor {coefficients[-1][0]} beyond the check table"
    decomposition = evaluator.Decomposition(
        coefficients, table.descriptor.element(witness["residual"]),
        parse_fraction(witness["cost"]))
    if not decomposition.check_against(table, x):
        return "witness fails check_against"
    if payload["value"] != witness["cost"]:
        return "exact value differs from the witness cost"
    return None


class Workload:
    """Interface the harness drives; see run.py for the loop."""

    name = ""
    why = ""
    # Operations 0..digest_ops-1 are hashed, rerun untimed as the
    # determinism cross-check, and form the traced run's fixed operation set.
    digest_ops = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> list[Call]:
        raise NotImplementedError

    def check(self, i: int, calls: list[Call]) -> list[str]:
        return []

    def recheck_env(self) -> dict[str, str]:
        """Environment overrides for the untimed determinism rerun."""
        return {}

    def seedless(self, call: Call) -> bool:
        """Whether the call's inputs are the same for every seed."""
        return False

    def known_defects(self) -> list[Call]:
        """Untimed calls that a known defect of the program makes fail today.

        Their outputs are checked like any other, but a failure is reported
        on its own rather than in ``attempted`` and ``failed``, which count
        the timed operations only.
        """
        return []

    def observe(self, calls: list[Call]) -> None:
        """Record what ``named_metrics`` needs from one timed operation."""

    def named_metrics(self, latencies_ms: list[float]) -> dict[str, tuple[float, str, int]]:
        """The workload's own timings: name -> (value, unit, samples).

        ``latencies_ms`` holds the time of each timed operation that had no
        failed call.
        """
        return {}

    def inputs(self) -> dict:
        return {}


# --- certify-stream ----------------------------------------------------------

class CertifyStream(Workload):
    """A seeded stream of single ``evaluate`` calls on four preloaded tables."""

    name = "certify-stream"
    why = ("closed loop, one caller: single evaluate calls on four depth-60 tables; "
           "truncation_index, search set-up and shallow descents dominate")
    digest_ops = 600
    DEPTH = 60
    WARMUP = 300
    ANCHORS = 50
    OFFSETS = 8
    EPSILONS = (Fraction(1, 1024), Fraction(1, 2 ** 30))
    TABLES = (
        ("z2-capped-l1", GroupDescriptor(2), CappedWeightedL1((Fraction(1), Fraction(1)))),
        ("z-capped-l1-quarter", GroupDescriptor(1), CappedWeightedL1((Fraction(1, 4),))),
        ("z5z9z7-cyclic", GroupDescriptor(0, (5, 9, 7)), CyclicScaled()),
        ("z-rotation-3/7", GroupDescriptor(1), RationalRotation(Fraction(3, 7))),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        per_table = _anchor_adjacent_count(self.ANCHORS, self.OFFSETS)
        self.space = len(self.TABLES) * len(self.EPSILONS) * per_table
        rng = _rng(seed, self.name)
        # An affine permutation of the anchor-adjacent space: stream
        # positions never repeat an element until the space is used up.
        self.stride = rng.randrange(1, self.space)
        while math.gcd(self.stride, self.space) != 1:
            self.stride += 1
        self.offset = rng.randrange(self.space)
        self.tables: list = []

    def setup(self) -> None:
        self.tables = []
        for name, descriptor, spec in self.TABLES:
            path = self.workdir / f"{name.replace('/', '-')}.json"
            serialize.save_table(
                construction.build_anchor_table(descriptor, spec, self.DEPTH), path)
            self.tables.append(serialize.load_table(path))

    def item(self, position: int) -> tuple[int, int, ExtElement]:
        """Stream position -> (table index, epsilon index, element).

        Even positions are anchor-adjacent (exact certificates, levels up to
        about 50); odd positions are random base elements with |k| spread
        log-uniformly over 1..10^30 (interval certificates).
        """
        if position % 2 == 0:
            g = (self.offset + self.stride * (position // 2)) % self.space
            pick, local = divmod(g, self.space // (len(self.TABLES) * len(self.EPSILONS)))
            t, e = divmod(pick, len(self.EPSILONS))
            return t, e, _anchor_adjacent(self.tables[t], local, self.ANCHORS, self.OFFSETS)
        rng = _rng(self.seed, self.name, position)
        t = rng.randrange(len(self.TABLES))
        e = rng.randrange(len(self.EPSILONS))
        h = enumerate_h(self.tables[t].descriptor, rng.randint(1, 64))
        digits = rng.randint(1, 30)
        k = rng.randint(10 ** (digits - 1), 10 ** digits - 1) * rng.choice((1, -1))
        return t, e, ExtElement(h, k)

    def _evaluate(self, position: int) -> Call:
        t, e, x = self.item(position)
        table, epsilon = self.tables[t], self.EPSILONS[e]
        label = f"eval {self.TABLES[t][0]} {format_fraction(epsilon)} {x.h.coords()} {x.k}"
        start = time.perf_counter()
        try:
            result = evaluator.evaluate(table, x, epsilon)
        except Exception:  # an exception is a failed operation, not a crash of the run
            return Call(label, None, "", time.perf_counter() - start,
                        stderr=traceback.format_exc())
        seconds = time.perf_counter() - start
        text = serialize.dumps_stable(serialize.eval_result_to_json(result))
        return Call(label, 0, text, seconds, result=(t, e, x, result))

    def warmup(self) -> None:
        for position in range(self.WARMUP):
            self._evaluate(position)

    def op(self, i: int) -> list[Call]:
        return [self._evaluate(self.WARMUP + i)]

    def check(self, i: int, calls: list[Call]) -> list[str]:
        call = calls[0]
        if call.code is None:
            return []
        t, e, x, result = call.result
        if isinstance(result, evaluator.ExactResult):
            if not result.witness.check_against(self.tables[t], x):
                return [f"op {i}: witness fails check_against"]
            if result.value != result.witness.cost:
                return [f"op {i}: exact value differs from the witness cost"]
        elif (result.lower, result.upper) != (1 - self.EPSILONS[e], 1):
            return [f"op {i}: interval is not (1 - epsilon, 1]"]
        return []

    def named_metrics(self, latencies_ms):
        latencies = latencies_ms
        out = {"eval_p50_ms": (median(latencies), "ms", len(latencies))}
        tail = tail_percentile(latencies, 99.0)
        if tail is not None:
            out["eval_p99_ms"] = (tail[1], "ms", len(latencies))
        out["evals_per_s"] = (len(latencies) / (sum(latencies) / 1e3), "1/s", len(latencies))
        return out

    def inputs(self) -> dict:
        return {
            "tables": [name for name, _, _ in self.TABLES],
            "table_depth": self.DEPTH,
            "epsilons": [format_fraction(e) for e in self.EPSILONS],
            "warmup_evals": self.WARMUP,
            "anchor_adjacent_space": self.space,
            "table_file_bytes": {
                name: os.path.getsize(self.workdir / f"{name.replace('/', '-')}.json")
                for name, _, _ in self.TABLES
            },
        }


# --- verify-battery ----------------------------------------------------------

_GOLDEN = (math.sqrt(5) - 1) / 2


class VerifyBattery(Workload):
    """All four verification suites through the CLI on the Z^2 capped-sum table."""

    name = "verify-battery"
    why = ("closed loop, one caller: the four verify suites via the CLI on a depth-50 "
           "table; deep budget-1 searches put the time in best_decomposition Fractions")
    DEPTH = 50
    GROUP = '{"free_rank":2}'
    NORM = '{"type":"capped_l1","weights":["1/1","1/1"]}'
    # Samples per suite call, sized so each call does enough work to time
    # steadily.  Axioms uses exactly its 11*11*4*4 pair grid once.
    SAMPLES = {"extension": 4000, "axioms": 1936, "truncation": 200}
    SUITES = ("extension", "axioms", "density", "truncation")
    DENSITY_BOX = (5, 5)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.table_path = workdir / "z2-capped-l1-50.json"
        rng = _rng(seed, self.name)
        self.phase = {suite: rng.random() for suite in self.SUITES}
        self.suite_times: dict[str, list[float]] = {suite: [] for suite in self.SUITES}

    @staticmethod
    def _seed_period(suite: str, samples: int) -> int:
        # Period of the suite's documented sampling counter in its seed.
        if suite == "extension":
            return samples // 2 + 1
        if suite == "axioms":
            return 11 * 11 * 4 * 4
        return 11 * (samples // 2 + 1)

    def suite_seed(self, suite: str, p: int) -> int:
        """Pass p's seed: a golden-ratio walk over the suite's sampling period.

        Consecutive passes start their sample windows far apart, and any run
        of passes covers the period evenly, so pass times spread the same way
        on every benchmark seed.
        """
        period = self._seed_period(suite, self.SAMPLES[suite])
        return int(((self.phase[suite] + p * _GOLDEN) % 1.0) * period)

    def epsilon(self, p: int) -> str:
        return f"1/{1024 + _rng(self.seed, self.name, 'epsilon', p).randrange(1024)}"

    def argv(self, suite: str, p: int) -> list[str]:
        argv = ["verify", "--table", str(self.table_path), "--suite", suite]
        if suite == "density":
            m, j = self.DENSITY_BOX
            return argv + ["--max-m", str(m), "--max-j", str(j), "--epsilon", self.epsilon(p)]
        argv += ["--samples", str(self.SAMPLES[suite]), "--seed", str(self.suite_seed(suite, p))]
        if suite == "axioms":
            argv += ["--epsilon", self.epsilon(p)]
        return argv

    def setup(self) -> None:
        table = construction.build_anchor_table(
            serialize.descriptor_from_json(json.loads(self.GROUP)),
            serialize.norm_spec_from_json(json.loads(self.NORM)), self.DEPTH)
        serialize.save_table(table, self.table_path)

    def warmup(self) -> None:
        for suite in self.SUITES:
            run_cli(suite, self.argv(suite, -1))

    def op(self, i: int) -> list[Call]:
        return [run_cli(" ".join(argv), argv)
                for argv in (self.argv(suite, i) for suite in self.SUITES)]

    def check(self, i: int, calls: list[Call]) -> list[str]:
        problems = []
        for suite, call in zip(self.SUITES, calls):
            if call.code == 0:
                report = json.loads(call.text)
                if [r["suite"] for r in report] != [suite] or not report[0]["passed"]:
                    problems.append(f"pass {i}: {suite} report is not a single passing suite")
        return problems

    def recheck_env(self) -> dict[str, str]:
        # The suites shard over MONO_THREADS workers; the report must not
        # change.  Two workers, or one on a single-CPU machine.
        return {"MONO_THREADS": str(min(2, len(os.sched_getaffinity(0))))}

    def observe(self, calls):
        for suite, call in zip(self.SUITES, calls):
            if not call.failed:
                self.suite_times[suite].append(call.seconds)

    def named_metrics(self, latencies_ms):
        return {f"verify_{suite}_s": (median(times), "s", len(times))
                for suite, times in self.suite_times.items()}

    def inputs(self) -> dict:
        return {
            "table": {"group": self.GROUP, "norm": self.NORM, "depth": self.DEPTH},
            "table_file_bytes": os.path.getsize(self.table_path),
            "samples": dict(self.SAMPLES),
            "density_box": list(self.DENSITY_BOX),
        }


# --- table-io ----------------------------------------------------------------

class TableIO(Workload):
    """CLI round trips through ``save_table`` and ``load_table``."""

    name = "table-io"
    why = ("closed loop, one caller: CLI build then eval round trips at depths 50-2500, "
           "plus counterexample --out; multi-kilodigit JSON encode and decode dominate")
    SHAPES = (
        ("z2-capped-l1", '{"free_rank":2}', '{"type":"capped_l1","weights":["1/1","1/1"]}'),
        ("z3-capped-linf", '{"free_rank":3}', '{"type":"capped_linf","scale":"1/2"}'),
        ("z5z9z7-cyclic", '{"torsion_moduli":[5,9,7]}', '{"type":"cyclic_scaled"}'),
    )
    DEPTHS = (50, 1000, 2500)
    EVALS_PER_TABLE = 2
    GRID = 50
    # Tables at depth 2619 and deeper hit CPython's 4300-digit int-to-string
    # limit; this build is expected to succeed and currently does not.
    DEFECT_DEPTH = 3000
    CHECK_DEPTH = 60
    ANCHORS = 30
    OFFSETS = 8

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.check_tables: dict[str, object] = {}
        # Round 0's build and counterexample outputs; later rounds must match.
        self.first_round: dict[str, tuple] = {}
        self.round_times: dict[str, list[float]] = {"build": [], "eval": [], "counterexample": []}

    def table_path(self, shape: str, depth: int) -> Path:
        return self.workdir / f"{shape}-{depth}.json"

    def setup(self) -> None:
        # Depth-60 copies of each shape: anchor-adjacent eval inputs are drawn
        # from them, and exact witnesses are checked against them.
        self.check_tables = {
            shape: construction.build_anchor_table(
                serialize.descriptor_from_json(json.loads(group)),
                serialize.norm_spec_from_json(json.loads(norm)), self.CHECK_DEPTH)
            for shape, group, norm in self.SHAPES
        }

    def element(self, shape: str, i: int, depth: int, n: int) -> ExtElement:
        rng = _rng(self.seed, self.name, i, shape, depth, n)
        table = self.check_tables[shape]
        if rng.random() < 0.5:
            count = _anchor_adjacent_count(self.ANCHORS, self.OFFSETS)
            return _anchor_adjacent(table, rng.randrange(count), self.ANCHORS, self.OFFSETS)
        h = enumerate_h(table.descriptor, rng.randint(1, 64))
        return ExtElement(h, rng.randint(1, 10 ** 12) * rng.choice((1, -1)))

    def _build(self, shape: str, group: str, norm: str, depth: int, path: Path) -> Call:
        return run_cli(f"build {shape} {depth}", [
            "build", "--group", group, "--norm", norm, "--depth", str(depth), "--out", str(path)])

    def _eval(self, shape: str, depth: int, path: Path, x: ExtElement) -> Call:
        call = run_cli(f"eval {shape} {depth} {x.h.coords()} {x.k}",
                       ["eval", "--table", str(path), "--element", _element_json(x)])
        call.result = (shape, x)
        return call

    def warmup(self) -> None:
        for shape, group, norm in self.SHAPES:
            path = self.workdir / f"warmup-{shape}.json"
            self._build(shape, group, norm, 50, path)
            self._eval(shape, 50, path, self.element(shape, -1, 50, 0))

    def op(self, i: int) -> list[Call]:
        calls = []
        for shape, group, norm in self.SHAPES:
            for depth in self.DEPTHS:
                path = self.table_path(shape, depth)
                calls.append(self._build(shape, group, norm, depth, path))
                for n in range(self.EVALS_PER_TABLE):
                    calls.append(self._eval(shape, depth, path, self.element(shape, i, depth, n)))
        out = self.workdir / "counterexample.jsonl"
        call = run_cli(f"counterexample {self.GRID}",
                       ["counterexample", "--grid", str(self.GRID), "--out", str(out)])
        if call.code == 0:
            call.jsonl = out.read_bytes()
        calls.append(call)
        return calls

    def check(self, i: int, calls: list[Call]) -> list[str]:
        problems = []
        for call in calls:
            if call.code != 0 or not call.label.startswith("eval"):
                continue
            payload = json.loads(call.text)
            if payload["kind"] == "exact":
                shape, x = call.result
                problem = _check_exact(self.check_tables[shape], x, payload)
                if problem:
                    problems.append(f"round {i} {call.label}: {problem}")
        if i == 0:
            self.first_round = {c.label: (c.text, c.jsonl) for c in calls
                                if not c.label.startswith("eval")}
        else:
            for call in calls:
                expected = self.first_round.get(call.label)
                if expected is not None and call.code == 0 and expected != (call.text, call.jsonl):
                    problems.append(f"round {i} {call.label}: output differs from round 0")
        return problems

    def seedless(self, call: Call) -> bool:
        return not call.label.startswith("eval")

    def known_defects(self) -> list[Call]:
        shape, group, norm = self.SHAPES[0]
        path = self.workdir / f"{shape}-{self.DEFECT_DEPTH}.json"
        build = self._build(shape, group, norm, self.DEFECT_DEPTH, path)
        if build.code != 0:
            return [build]
        x = self.element(shape, -2, self.DEFECT_DEPTH, 0)
        return [build, self._eval(shape, self.DEFECT_DEPTH, path, x)]

    def observe(self, calls):
        # Per round: the mean build and eval time, and the counterexample time.
        for kind, unit_scale in (("build", 1e3), ("eval", 1e3), ("counterexample", 1.0)):
            times = [c.seconds for c in calls if c.label.split(" ", 1)[0] == kind and not c.failed]
            if times:
                self.round_times[kind].append(sum(times) / len(times) * unit_scale)

    def named_metrics(self, latencies_ms):
        out = {}
        for name, kind, unit in (("cli_build_ms", "build", "ms"), ("cli_eval_ms", "eval", "ms"),
                                 ("counterexample_s", "counterexample", "s")):
            out[name] = (median(self.round_times[kind]), unit, len(self.round_times[kind]))
        return out

    def inputs(self) -> dict:
        return {
            "shapes": [{"name": s, "group": g, "norm": n} for s, g, n in self.SHAPES],
            "depths": list(self.DEPTHS),
            "evals_per_table": self.EVALS_PER_TABLE,
            "counterexample_grid": self.GRID,
            "defect_depth": self.DEFECT_DEPTH,
            "table_file_bytes": {
                f"{s}-{d}": os.path.getsize(self.table_path(s, d))
                for s, _, _ in self.SHAPES for d in self.DEPTHS
                if self.table_path(s, d).exists()
            },
        }


WORKLOADS = {w.name: w for w in (CertifyStream, VerifyBattery, TableIO)}
