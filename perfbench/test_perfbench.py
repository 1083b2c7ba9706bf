"""Self-tests for the benchmark's own helpers.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    # 100 samples: p99 leaves 1 beyond, p90 leaves exactly 10.
    assert stats.tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert stats.tail_percentile(list(range(1, 1001))) == (99.0, 990)
    assert stats.tail_percentile(list(range(1, 10001))) == (99.9, 9990)
    assert stats.tail_percentile(list(range(1, 100))) is None
    assert stats.tail_percentile(list(range(1, 101)), 99.0) is None
    assert stats.beyond(1000, 99.0) == 10


def test_median_of_even_and_odd_counts():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        tracer.Span(0, "parent", 0.0, 10.0, None, 0, hot_covered=0.5),
        tracer.Span(1, "a", 1.0, 4.0, 0, 0),
        tracer.Span(2, "b", 3.0, 6.0, 0, 0),     # overlaps a: [1, 6] counts once
        tracer.Span(3, "c", 8.0, 12.0, 0, 0),    # runs past the parent: clipped to [8, 10]
        tracer.Span(4, "d", 3.5, 4.5, 2, 0),     # grandchild: charged to b, not the parent
    ]
    selves = tracer.self_times(spans)
    assert selves[0] == 10.0 - 5.0 - 2.0 - 0.5
    assert selves[2] == 3.0 - 1.0
    assert selves[1] == 3.0
    assert tracer.covered_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 4.0


def test_digest_gate_convicts_a_one_byte_tampered_output():
    outputs = [("eval a", '{"kind":"exact","value":"1/3"}', False),
               ("build b", '{"depth":50}', True)]

    def digest_of(items):
        digest = stats.OutputDigest()
        for label, text, seedless in items:
            digest.add(label, text, None, seedless)
        return digest.value()

    good = digest_of(outputs)
    pinned = {"seed": 7, "digests": {"table-io": good["all"]},
              "seedless": {"table-io": good["seedless"]}}
    assert stats.digest_problems(pinned, "table-io", 7, good) == []
    tampered = digest_of([("eval a", '{"kind":"exact","value":"1/4"}', False), outputs[1]])
    assert len(stats.digest_problems(pinned, "table-io", 7, tampered)) == 1
    # Other seeds have no whole-output digest, but the seed-independent
    # outputs are still pinned.
    assert stats.digest_problems(pinned, "table-io", 8, tampered) == []
    tampered = digest_of([outputs[0], ("build b", '{"depth":51}', True)])
    assert len(stats.digest_problems(pinned, "table-io", 8, tampered)) == 1
    # Moving a byte between label and text must not keep the digest.
    assert digest_of([("eval a{", '"kind":"exact","value":"1/3"}', False), outputs[1]]) != good


def _inputs(name: str, seed: int, workdir: Path):
    workload = workloads.WORKLOADS[name](seed, workdir)
    if name == "certify-stream":
        workload.setup()
        return [workload.item(p) for p in range(40)]
    if name == "verify-battery":
        return [workload.argv(suite, p) for p in range(3) for suite in workload.SUITES]
    workload.setup()
    return [workload.element(shape, i, 50, 0)
            for i in range(10) for shape, _, _ in workload.SHAPES]


def test_a_different_seed_changes_the_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        first = _inputs(name, 0, tmp_path)
        assert _inputs(name, 0, tmp_path) == first, name
        assert _inputs(name, 1, tmp_path) != first, name


def test_certify_stream_never_repeats_an_anchor_adjacent_element(tmp_path):
    workload = workloads.CertifyStream(3, tmp_path)
    workload.setup()
    seen = {workload.item(2 * n) for n in range(3000)}
    assert len(seen) == 3000


def test_benchmark_json_declares_the_metrics_the_code_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}


def test_host_probe_restores_the_collector_and_scales_to_the_reference():
    import gc
    import hostspeed

    gc.disable()
    try:
        assert hostspeed.probe() > 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert hostspeed.probe() > 0 and gc.isenabled()
    # A host twice as slow as the reference halves the time.
    assert hostspeed.scale(1.0, 2 * hostspeed.REFERENCE_S) == 0.5
