"""One workload, once, in this fresh process.

:mod:`perf.run` starts one of these per measurement (and more, with
``--setup-only``, to time set-up): the process builds the workload,
warms it, measures for ``--seconds``, checks every output and prints one
JSON report as its last line.  With ``--trace 1`` the seams of
:mod:`perf.seams` are wrapped first and the report carries the per-layer
metrics; with ``--trace 0`` the process asserts no wrapper is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy

from perf import OUT_DIR, REPO_ROOT, layers, seams
from perf.probe import ProbeLog
from perf.spans import Recorder
from perf.workloads import WORKLOADS, Tally, as_clocked

EXPECTED_PATH = os.path.join(REPO_ROOT, "perf", "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def wire_bytes(results) -> float:
    """Mean NDJSON bytes of one served result (line feed included)."""
    from repro.service.serving.wire import result_to_wire

    if not results:
        return 0.0
    return sum(
        len(json.dumps(result_to_wire(result))) + 1 for result in results
    ) / len(results)


def pin(cpu) -> None:
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass  # not allowed here: run unpinned


def run(args) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    name = args.workload
    recorder = installed = server_files = None
    kwargs = {}
    # The engine runs on the CPU the probe watches: this process, or for
    # the TCP workload the server child while this loader takes another.
    if name == "serve_tcp_closed":
        pin(args.loader_cpu)
        kwargs["server_cpu"] = args.engine_cpu
    else:
        pin(args.engine_cpu)
    if args.trace:
        recorder = Recorder("%s-seed%d-%d" % (name, args.seed, os.getpid()))
        installed = seams.install(recorder)
        if name == "serve_tcp_closed":
            server_files = [
                os.path.join(OUT_DIR, "server-%s.%s" % (os.getpid(), ext))
                for ext in ("summary.json", "trace.jsonl")
            ]
            kwargs["server_argv"] = [
                sys.executable, "-m", "perf.serve_launcher", *server_files
            ]
    workload = WORKLOADS[name](args.seed, **kwargs)
    if recorder is not None:
        workload.root_span = recorder.span
    try:
        workload.setup()
        ready_at = time.monotonic()
        if not args.setup_only:
            warmup, workload.tally = workload.tally, Tally(workload.spec)
            if recorder is None:
                workload.measure(args.seconds)
            else:
                recorder.reset()
                with recorder.span("workload"):
                    workload.measure(args.seconds)
    finally:
        workload.close()
        if installed is not None:
            installed.uninstall()
    leftover = seams.installed_seams()
    if leftover:
        raise RuntimeError("wrappers still installed: %s" % leftover)
    log = ProbeLog(args.probe_log) if args.probe_log else None
    probe = log.summary() if log else None
    scale = log.scale if log else as_clocked
    report = {
        "workload": name,
        "setup_s": (
            (ready_at - args.spawned_at) * scale(args.spawned_at, ready_at)
        ),
        "setup_s_as_clocked": ready_at - args.spawned_at,
    }
    if args.setup_only:
        return report

    tally = workload.tally
    expected = load_expected()
    if args.seed == expected["seed"] and (
        tally.digest != expected["digests"].get(name)
    ):
        tally.fail(
            "digest %s differs from the pinned %s"
            % (tally.digest, expected["digests"].get(name))
        )
    report.update(workload.report(scale))
    report.update({
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": warmup.attempted + tally.attempted,
        "failed": warmup.failed + tally.failed,
        "errors": warmup.errors + tally.errors,
        "as_clocked": workload.report(),
        "probe": probe,
        "probe_exponent": workload.PROBE_EXPONENT,
        "elapsed_s": workload.elapsed_s,
        "bits_per_value_bit": tally.bits_per_value_bit,
        "peak_rss_mb": workload.peak_rss_mb(),
        "digest": tally.digest,
        "numpy": numpy.__version__,
        "loader_threads": workload.loader_threads,
    })
    if recorder is not None:
        report.update(traced_report(workload, recorder, server_files, probe))
    return report


def traced_report(workload, recorder, server_files, probe) -> dict:
    """What a traced run adds: the per-layer metrics, after checking
    that the seams read what :data:`perf.layers.EXPECT` says they must
    and that the self times add up to the traced wall time."""
    name, tally = workload.name, workload.tally
    summary = recorder.summary()
    server_summary = None
    if server_files is not None:
        summary_path, trace_path = server_files
        with open(summary_path) as handle:
            server_summary = json.load(handle)
        os.remove(summary_path)
        os.replace(
            trace_path, os.path.join(OUT_DIR, "trace-%s.server.jsonl" % name)
        )
    recorder.write_jsonl(
        os.path.join(OUT_DIR, "trace-%s.jsonl" % name),
        workload=name, seed=workload.seed,
    )
    broken = layers.broken_expectations(name, summary, server_summary)
    residual = max(
        summary["identity_residual"],
        (server_summary or summary)["identity_residual"],
    )
    if residual > 0.05:
        broken.append(
            "self times miss the traced wall time by %.1f%%"
            % (residual * 100)
        )
    if broken:
        raise RuntimeError("traced run rejected: " + "; ".join(broken))
    stats = workload.server_stats
    per_layer = layers.per_layer(
        summary,
        {
            "ops": tally.attempted,
            "served": stats.get("served", tally.attempted),
            "wall_s": workload.elapsed_s,
            "instances": tally.instances,
            "network_messages": tally.network_messages,
            "broadcast_instances": tally.broadcast_instances,
            "stage_bits": tally.stage_bits,
            "diagnoses": tally.diagnoses,
            "edges_removed": tally.edges_removed,
            "server_stats": stats,
            "wire_bytes": wire_bytes(workload.wire_sample),
            "loadgen_cpu_share": workload.loader_cpu_share,
            "latency_p99_ms": (
                workload.report()["latency"]["p99_ms"] if stats else 0.0
            ),
            "late_p99_ms": workload.late_p99_ms,
            "transcript_entries": workload.transcript_entries,
            "probe_slowdown": (
                probe["median_s"] / probe["ref_s"] if probe else 1.0
            ),
        },
        server_summary,
    )
    return {
        "per_layer": per_layer,
        "identity_residual": residual,
        "layer_self_s": layer_self_seconds(summary, server_summary),
    }


def layer_self_seconds(summary, server_summary) -> dict:
    """Self seconds by layer (the seam name up to its first dot; the
    harness's root spans appear under their own names): the
    where-did-a-second-go table."""
    totals = {}
    for source in (summary, server_summary or {}):
        for table, field in (("seams", "self_s"), ("leaves", "total_s")):
            for seam, row in source.get(table, {}).items():
                layer = seam.split(".")[0]
                totals[layer] = totals.get(layer, 0.0) + row[field]
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe-log", default=None,
                        help="file a perf.probe process is writing")
    parser.add_argument("--engine-cpu", type=int, default=None)
    parser.add_argument("--loader-cpu", type=int, default=None)
    print(json.dumps(run(parser.parse_args(argv))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
