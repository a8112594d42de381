"""The benchmark harness checks itself: generators, workloads at their
smallest size, the span arithmetic, ``compare`` verdicts, wrapper
hygiene and agreement with ``BENCHMARK.json``."""

import json
import sys
import threading

import pytest

from perf import DEFAULT_SEED, compare, layers, seams
from perf.child import load_expected
from perf.run import load_benchmark
from perf.probe import PROBE_REF_S, ProbeLog
from perf.spans import Recorder, self_times, summarize
from perf.workloads import WORKLOADS, Tally, by_window, latency_block

NAMES = sorted(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_a_pure_function_of_the_seed(name):
    cls = WORKLOADS[name]
    assert cls(5).pinned() == cls(5).pinned()
    assert cls(5).pinned() != cls(6).pinned()


@pytest.mark.parametrize("name", NAMES)
def test_workload_completes_and_matches_its_pinned_digest(name):
    # seconds=0: exactly one unit after the warm-up, the pinned one.
    workload = WORKLOADS[name](DEFAULT_SEED)
    try:
        workload.setup()
        warmup, workload.tally = workload.tally, Tally(workload.spec)
        workload.measure(0.0)
    finally:
        workload.close()
    tally = workload.tally
    assert warmup.failed == 0 and tally.failed == 0, tally.errors
    clocked = workload.report()
    assert tally.attempted > 0 and clocked["ops_per_sec"] > 0
    assert clocked["latency"]["samples"] > 0
    # Durations stated for a machine half as fast, softened by the
    # workload's exponent: latencies grow and rates shrink by that much
    # (except the open loop's rate, which its schedule sets).
    factor = 2.0 ** workload.PROBE_EXPONENT
    slowed = workload.report(lambda start, end: 2.0)
    assert slowed["latency"]["p50_ms"] == pytest.approx(
        factor * clocked["latency"]["p50_ms"]
    )
    if name != "serve_inproc_open":
        assert slowed["ops_per_sec"] == pytest.approx(
            clocked["ops_per_sec"] / factor
        )
    assert tally.digest == load_expected()["digests"][name]
    assert workload.peak_rss_mb() > 0


def test_self_time_of_a_nested_span_tree():
    # root 0..10 { a 1..4 { b 2..3 }, a 5..9 }, 0.5 s of leaf time in
    # the second a.
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1),
             (1, 5.0, 9.0, 0)]
    leaf = [0.0, 0.0, 0.0, 0.5]
    assert self_times(spans, leaf) == [3.0, 2.0, 1.0, 3.5]
    # A second thread with a top-level span of its own.
    other = [(1, 100.0, 102.0, -1)]
    summary = summarize(
        ["root", "a", "b", "leafy"],
        [(spans, leaf, {3: [7, 0.5]}, {2: 4}), (other, [0.0], {}, {})],
    )
    assert summary["seams"]["a"] == {
        "calls": 3, "self_s": 7.5, "total_s": 9.0
    }
    assert summary["seams"]["root"]["self_s"] == 3.0
    assert summary["leaves"] == {"leafy": {"calls": 7, "total_s": 0.5}}
    assert summary["counts"] == {"b": 4}
    assert summary["top_level_s"] == 12.0
    assert summary["identity_residual"] == pytest.approx(0.0)


def test_recorder_keeps_threads_apart_and_nests_leaves():
    recorder = Recorder("t")
    inner = recorder.wrap_leaf("leaf", lambda: None)
    outer = recorder.wrap_leaf("leaf", inner)  # a leaf calling a leaf
    work = recorder.wrap_span("work", outer)

    def on_thread():
        with recorder.span("root"):
            work()

    threads = [threading.Thread(target=on_thread) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    summary = recorder.summary()
    assert len(recorder.threads) == 2
    assert summary["seams"]["work"]["calls"] == 2
    assert summary["leaves"]["leaf"]["calls"] == 4  # both levels counted
    # ...but timed once: leaf time never exceeds the span it ran in.
    assert (summary["leaves"]["leaf"]["total_s"]
            <= summary["seams"]["work"]["total_s"])
    assert summary["identity_residual"] < 1e-9
    recorder.reset()
    assert recorder.summary()["seams"] == {}


def test_probe_log_scales_by_the_samples_around_an_interval(tmp_path):
    path = tmp_path / "probe.log"
    quiet, busy = PROBE_REF_S, 2 * PROBE_REF_S
    path.write_text(
        "10.0 %r\n10.1 %r\n10.2 %r\n10.3 %r\n10.4 0.00"
        % (quiet, quiet, busy, busy)
    )
    log = ProbeLog(str(path))
    assert log.summary()["samples"] == 4
    assert log.scale(10.0, 10.05) == pytest.approx(1.0)
    assert log.scale(10.25, 10.35) == pytest.approx(0.5)
    assert log.scale(10.12, 10.18) == pytest.approx(1 / 1.5)  # straddles


def test_latency_percentiles_are_medians_over_groups():
    samples = [(0.1 * k, 1.0) for k in range(1, 40)]  # 4 s of 1 s calls
    samples[12] = (1.3, 50.0)  # one stall, in the second window
    block = latency_block(by_window(samples, 0.0, 1.0))
    assert block["groups"] == 3  # the partial fourth window is dropped
    assert block["p50_ms"] == 1000.0 and block["p90_ms"] == 1000.0
    assert block["p99_ms"] > 1000.0  # ...but the stall is not hidden


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [103.0, 104.0, 102.0, 103.5],
                           "lower", 0.10)[0] == "within"
    assert compare.verdict(steady, [120.0, 121.0, 119.0, 120.5],
                           "lower", 0.10)[0] == "worse"
    assert compare.verdict(steady, [80.0, 81.0, 79.0, 80.5],
                           "higher", 0.10)[0] == "worse"
    noisy = [100.0, 140.0, 70.0, 120.0]
    assert compare.verdict(steady, noisy, "lower", 0.10)[0] == "unresolved"
    # Wide spread, yet every run of B beats every run of A.
    assert compare.verdict(noisy, [40.0, 50.0, 45.0, 60.0],
                           "lower", 0.10)[0] == "within"
    # An exact count with bound 0: any increase is worse.
    assert compare.verdict([22.1], [22.1], "lower", 0.0)[0] == "within"
    assert compare.verdict([22.1], [22.2], "lower", 0.0)[0] == "worse"


def test_compare_files(tmp_path, capsys):
    def write(name, ops):
        record = {
            "workload": "batch_split_inputs_n7", "trace": 0,
            "metrics": {"ops_per_sec": {"value": ops, "unit": "1/s"}},
        }
        path = tmp_path / name
        path.write_text(json.dumps({"records": [record]}))
        return str(path)

    a, slower = write("a.json", 10.0), write("b.json", 8.0)
    assert compare.main([a, a]) == 0
    assert compare.main([a, slower]) == 1
    assert "worse" in capsys.readouterr().out


def _bindings():
    """Identity of everything bound in every repro module and class."""
    snapshot = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            snapshot[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for member, raw in vars(value).items():
                    snapshot[(name, attr, member)] = id(raw)
    return snapshot


def test_wrappers_patch_every_binding_and_uninstall_cleanly():
    seams._import_all_repro()
    before = _bindings()
    assert seams.installed_seams() == []
    recorder = Recorder("t")
    installed = seams.install(recorder)
    try:
        from repro.broadcast_bit.ideal import AccountedIdealBroadcast
        from repro.service.serving import sdk, server, wire

        mark = seams.MARK
        # imported-by-name binding, not just the defining module
        assert getattr(server.result_to_wire, mark) == "serving.wire.encode"
        assert getattr(sdk.result_from_wire, mark) == "serving.wire.decode"
        assert not hasattr(wire.result_to_wire, mark)  # audit's stays bare
        # the subclass override, not just the base method
        override = vars(AccountedIdealBroadcast)["broadcast_bits_many_grouped"]
        assert getattr(override, mark) == "broadcast_bit.grouped"
        assert getattr(server.json.dumps, mark) == "serving.wire.encode"
        assert not hasattr(json.dumps, mark)  # the real json is untouched
        assert seams.installed_seams()
    finally:
        installed.uninstall()
    assert seams.installed_seams() == []
    assert _bindings() == before


def test_metrics_and_workloads_agree_with_benchmark_json():
    benchmark = load_benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert set(layers.EXPECT) == set(WORKLOADS)
    seam_names = {seam.name for seam in seams.SEAMS}
    for expect in layers.EXPECT.values():
        assert set(expect["nonzero"] + expect["zero"]) <= seam_names
    empty = {"seams": {"workload": {"calls": 1, "self_s": 1.0,
                                    "total_s": 1.0}},
             "leaves": {}, "counts": {}}
    facts = {
        "ops": 1, "served": 1, "wall_s": 1.0, "instances": 1,
        "network_messages": 0, "broadcast_instances": 0, "diagnoses": 0,
        "edges_removed": 0,
        "stage_bits": {"matching": 0, "checking": 0, "diagnosis": 0},
    }
    emitted = set(layers.per_layer(empty, facts)) | {"trace.overhead_ratio"}
    assert emitted == {m["name"] for m in benchmark["per_layer"]}
    assert "setup_s" in {m["name"] for m in benchmark["end_to_end"]}
