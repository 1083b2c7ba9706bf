"""Benchmark for the monothetic package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: the script changes to it).  The
workloads are defined in workloads.py and described in README.md.

With ``--trace 0`` the run prints each end-to-end metric and the workload's
own timings, one per line, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 1`` it
times the workload's fixed operation set alternately untraced and traced, and
the metrics are the per-layer ones (see tracer.py) plus the tracing overhead.
A results file with provenance goes to perfbench/_run/results/.

The exit code is 0 when every output checked out, 1 on a wrong output, and 2
when the program cannot be found (src/monothetic is missing).
"""

from __future__ import annotations

import argparse
import array
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = Path("perfbench") / "_run"
DEFAULT_SEED = 0
# Latency slots allocated before the timed loop, so that peak memory does not
# grow with the number of operations a faster program fits into the window.
LATENCY_SLOTS = 1 << 19
# Set-up is measured in this process and in this many fresh ones, spread
# over the timed loop so that the samples see the same host speed as it.
SETUP_PROBES = 8
# The host-speed probe (hostspeed.py) runs between operations once this much
# time has passed since it last ran, and after the last operation.
PROBE_EVERY_S = 0.25

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_share", "share", "higher"),
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark the monothetic package.")
    parser.add_argument("--workload", required=True,
                        choices=("certify-stream", "verify-battery", "table-io"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import the package from src/ and return the seconds it took."""
    if not (ROOT / "src" / "monothetic" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'monothetic'} not found", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import monothetic.cli  # noqa: F401  (pulls in every module of the package)
    return time.perf_counter() - start


@contextlib.contextmanager
def environment(overrides: dict[str, str]):
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def clean_dir(path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)
    for entry in path.iterdir():
        if entry.is_file():
            entry.unlink()


class Tally:
    """Attempted and failed operations, and wrong outputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []

    def inspect(self, workload, i: int, calls, digest=None) -> None:
        for call in calls:
            self.attempted += 1
            if call.failed:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{call.label}: exit {call.code}: {call.stderr.strip()[-300:]}")
            elif call.wrong:
                self.problems.append(f"{call.label}: exit {call.code} with output")
            if digest is not None:
                digest.add(call.label, f"{call.code}\n{call.text}", call.jsonl,
                           workload.seedless(call))
        try:
            self.problems.extend(workload.check(i, calls))
        except (ValueError, KeyError, TypeError) as exc:
            self.problems.append(f"op {i}: output does not parse: {exc!r}")


def set_up(args, workload_cls, import_s: float):
    """Build the workload and time its set-up in this process."""
    workdir = RUN_DIR / (args.workload + ("-probe" if args.setup_probe else ""))
    clean_dir(workdir)
    workload = workload_cls(args.seed, workdir)
    start = time.perf_counter()
    workload.setup()
    raw_s = time.perf_counter() - start
    hostspeed.probe()  # the first probe in a process pays for cold caches
    probe_s = hostspeed.probe()
    return workload, {"setup_s": hostspeed.scale(raw_s, probe_s), "raw_setup_s": raw_s,
                      "probe_s": probe_s, "import_s": import_s}


def setup_probe(args) -> dict:
    """Time the workload's set-up in a fresh interpreter.

    A fresh process starts with empty module caches, so work moved from the
    operations into cached set-up still shows.  The import is timed apart:
    it reads dozens of files and varies with the host far more than set-up.
    """
    probe = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(probe.stdout.strip().splitlines()[-1])


def timed_run(args, workload, tally: Tally, stats, setup_samples: list[dict]) -> dict:
    """Closed loop for ``--seconds``; at least the digest prefix always runs.

    Set-up probes run between operations at even steps of the window; the
    time they take is not part of it.  Host-speed probes run between
    operations too, and each operation's time is scaled by the mean of the
    two probes around it.
    """
    digest = stats.OutputDigest()
    latencies = array.array("d", [0.0]) * LATENCY_SLOTS  # ms per op without a failed call
    before = array.array("I", [0]) * LATENCY_SLOTS  # index of the host probe before each op
    host_probes = [hostspeed.probe()]
    last_probe = time.perf_counter()
    timed = 0
    start = time.perf_counter()
    i = 0
    while i < workload.digest_ops or time.perf_counter() - start < args.seconds:
        probes = len(setup_samples) - 1
        if probes < SETUP_PROBES and (
                time.perf_counter() - start > (probes + 1) * args.seconds / (SETUP_PROBES + 1)):
            paused = time.perf_counter()
            setup_samples.append(setup_probe(args))
            start += time.perf_counter() - paused
        calls = workload.op(i)
        tally.inspect(workload, i, calls, digest if i < workload.digest_ops else None)
        if not any(c.failed for c in calls):
            latency = sum(c.seconds for c in calls) * 1e3
            if timed < LATENCY_SLOTS:
                latencies[timed] = latency
                before[timed] = len(host_probes) - 1
            else:
                latencies.append(latency)
                before.append(len(host_probes) - 1)
            timed += 1
        workload.observe(calls)
        i += 1
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            host_probes.append(hostspeed.probe())
            last_probe = time.perf_counter()
    ops, measured_s = i, time.perf_counter() - start
    host_probes.append(hostspeed.probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [hostspeed.scale(latencies[n], (host_probes[b] + host_probes[b + 1]) / 2)
              for n, b in enumerate(before[:timed])]
    while len(setup_samples) <= SETUP_PROBES:
        setup_samples.append(setup_probe(args))

    rerun = stats.OutputDigest()
    with environment(workload.recheck_env()):
        for i in range(workload.digest_ops):
            Tally().inspect(workload, i, workload.op(i), rerun)
    if rerun.value() != digest.value():
        tally.problems.append("determinism rerun gave a different output digest")

    return {
        "digest": digest.value(),
        "ops": ops,
        "latencies_ms": latencies[:timed],
        "scaled_latencies_ms": scaled,
        "host_probes_ms": [p * 1e3 for p in host_probes],
        "measured_s": measured_s,
        "peak_rss_mb": peak_rss_mb,
    }


def traced_run(args, workload, tally: Tally, stats, tracer_mod) -> dict:
    """Alternate untraced and traced passes over the digest prefix."""
    reps = []
    digests = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < args.seconds:
        totals = []
        for traced in (False, True):
            tracer = tracer_mod.Tracer()
            digest = stats.OutputDigest()
            total = 0.0
            if traced:
                tracer.install()
            try:
                for i in range(workload.digest_ops):
                    tracer.op, tracer.active = i, traced
                    calls = workload.op(i)
                    tracer.active = False
                    total += sum(c.seconds for c in calls)
                    tally.inspect(workload, i, calls, digest)
                    for call in calls:
                        if call.jsonl is not None:
                            tracer.count("counterexample.jsonl_bytes", len(call.jsonl))
            finally:
                tracer.uninstall()
            digests.append(digest.value())
            totals.append(total)
        parse_s = 0.0
        for path in tracer.load_paths:
            text = Path(path).read_text()
            begin = time.perf_counter()
            json.loads(text)
            parse_s += time.perf_counter() - begin
        reps.append(tracer.layer_metrics(parse_s, totals[1] / totals[0] - 1))
    if any(d != digests[0] for d in digests):
        tally.problems.append("traced and untraced passes gave different outputs")
    tracer.write_spans(str(RUN_DIR / "results" / f"{args.workload}-seed{args.seed}-spans.jsonl"))

    first = reps[0]
    metrics = {
        name: first[name] if name in tracer_mod.COUNT_METRICS
        else stats.median([rep[name] for rep in reps])
        for name, _, _ in tracer_mod.PER_LAYER
    }
    return {
        "digest": digests[0],
        "metrics": metrics,
        "reps": len(reps),
        "counts_repeat": all(rep[name] == first[name]
                             for rep in reps for name in tracer_mod.COUNT_METRICS),
        "overhead_ratios": [rep["trace.overhead_ratio"] for rep in reps],
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance(args, workload, extra: dict) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "callers": 1,
        "loop": "closed",
        "inputs": workload.inputs(),
        **extra,
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    # Timed calls run the suites with one worker whatever the caller's
    # environment says; the determinism rerun overrides this.
    os.environ["MONO_THREADS"] = "1"
    import_s = import_program()
    sys.path.insert(0, str(BENCH))
    import stats
    import tracer as tracer_mod
    import workloads

    workload, setup_sample = set_up(args, workloads.WORKLOADS[args.workload], import_s)
    if args.setup_probe:
        print(json.dumps(setup_sample))
        return 0
    setup_samples = [setup_sample]
    (RUN_DIR / "results").mkdir(parents=True, exist_ok=True)
    pinned = json.loads((BENCH / "digests.json").read_text())

    workload.warmup()
    tally = Tally()
    if args.trace:
        run = traced_run(args, workload, tally, stats, tracer_mod)
        declared = tracer_mod.PER_LAYER
        metrics = run["metrics"]
        named: dict = {}
        extra = {"tracing_overhead_ratio": metrics["trace.overhead_ratio"],
                 "traced_reps": run["reps"], "counts_repeat": run["counts_repeat"],
                 "overhead_ratios": run["overhead_ratios"], "ops_per_rep": workload.digest_ops}
    else:
        run = timed_run(args, workload, tally, stats, setup_samples)
        declared = END_TO_END
        latencies = run["latencies_ms"]
        metrics = {
            "setup_s": stats.median([s["setup_s"] for s in setup_samples]),
            "op_p50_ms": stats.median(run["scaled_latencies_ms"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        named = workload.named_metrics(latencies)
        tail = stats.tail_percentile(latencies)
        probes_ms = run["host_probes_ms"]
        extra = {"ops": run["ops"], "measured_s": run["measured_s"],
                 "setup_samples": setup_samples,
                 "raw_setup_s": stats.median([s["raw_setup_s"] for s in setup_samples]),
                 "raw_op_p50_ms": stats.median(latencies),
                 "host_probe_ms": {"count": len(probes_ms), "median": stats.median(probes_ms),
                                   "min": min(probes_ms), "max": max(probes_ms),
                                   "reference": hostspeed.REFERENCE_S * 1e3},
                 "op_tail_ms": list(tail) if tail else None,
                 "tracing_overhead_ratio": None}

    defects = Tally()
    for call in workload.known_defects():
        defects.inspect(workload, -1, [call])
    tally.problems.extend(defects.problems)
    if not args.trace:
        metrics["ok_share"] = 1 - tally.failed / tally.attempted
    tally.problems.extend(stats.digest_problems(pinned, workload.name, args.seed, run["digest"]))
    correct = not tally.problems

    units = {name: unit for name, unit, _ in declared}
    for name, unit, _ in declared:
        print(f"{name:<52} {metrics[name]:.6g} {unit}")
    for name, (value, unit, n) in named.items():
        print(f"{name:<52} {value:.6g} {unit} (n={n})")
    if not args.trace and extra["op_tail_ms"]:
        p, value = extra["op_tail_ms"]
        print(f"{'op_p' + format(p, 'g') + '_ms':<52} {value:.6g} ms (n={len(latencies)})")
    failed, attempted = tally.failed + defects.failed, tally.attempted + defects.attempted
    print(f"{'failed_share':<52} {failed / attempted:.6g} share "
          f"({failed} of {attempted}; {defects.failed} of them known defects)")
    for line in tally.failures:
        print(f"failed: {line}")
    for line in defects.failures:
        print(f"known defect: {line}")
    for line in tally.problems[:20]:
        print(f"WRONG: {line}")

    results = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_share": failed / attempted,
        "failures": tally.failures,
        "known_defects": {"attempted": defects.attempted, "failed": defects.failed,
                          "failures": defects.failures},
        "problems": tally.problems,
        "digest": run["digest"],
        "digest_pinned": {
            "all": pinned["digests"].get(workload.name) if args.seed == pinned["seed"] else None,
            "seedless": pinned["seedless"].get(workload.name),
        },
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "workload_metrics": {name: {"value": v, "unit": u, "samples": n}
                             for name, (v, u, n) in named.items()},
        "provenance": provenance(args, workload, extra),
    }
    out = RUN_DIR / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": results["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
