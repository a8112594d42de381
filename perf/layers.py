"""Per-layer metrics of a traced run, and what each seam must read.

:func:`per_layer` turns the recorder's per-seam totals (this process's,
plus the server process's for ``serve_tcp_closed``) and the workload's
own counts into the ``per_layer`` metrics of ``BENCHMARK.json``.

Units: ``*_ms_per_req`` / ``_per_inst`` / ``_per_gen`` are **self** time
(a span minus its children and charged leaves) per operation of the
workload, so the rows of one workload add up without double counting;
``service.*_ms`` is self time per call; ``audit.*_ms`` is *inclusive*
time per audit, because the audit phases nest (``prove`` runs ``replay``)
and the question there is which phase costs what.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Seams that must record calls / must record none, per workload.  A
#: traced run that breaks one fails: either a wrapper is not where the
#: work is, or a workload stopped exercising the layer it is here for.
EXPECT = {
    "serve_tcp_closed": {
        "nonzero": [
            "serving.wire.encode", "serving.wire.decode",
            "serving.submit_many", "service.run_many",
            "service.cohort.instance", "processors.make_attack",
        ],
        "zero": ["audit.record", "audit.verify", "audit.replay",
                 "audit.prove"],
    },
    "serve_inproc_open": {
        "nonzero": ["service.run_many", "service.cohort.instance",
                    "processors.make_attack"],
        "zero": ["serving.wire.encode", "serving.wire.decode",
                 "serving.submit_many", "audit.record", "audit.prove"],
    },
    "batch_adversarial_n127": {
        "nonzero": ["service.run_many", "service.cohort.instance",
                    "broadcast_bit.grouped", "graphs.clique",
                    "utils.bits.convert", "processors.make_attack",
                    "service.arena.acquire"],
        "zero": ["serving.wire.encode", "serving.wire.decode",
                 "serving.submit_many", "audit.record", "audit.prove"],
    },
    "batch_split_inputs_n7": {
        "nonzero": ["service.run_many", "service.engine.execute",
                    "core.generation.run", "coding.encode",
                    "coding.decode", "network.send", "network.deliver"],
        "zero": ["serving.wire.encode", "serving.wire.decode",
                 "serving.submit_many", "service.cohort.instance",
                 "audit.record", "audit.prove"],
    },
    "audit_replay_n15": {
        "nonzero": ["audit.record", "audit.verify", "audit.replay",
                    "audit.prove", "service.engine.execute",
                    "core.generation.run", "network.send"],
        "zero": ["serving.wire.encode", "serving.wire.decode",
                 "serving.submit_many", "service.cohort.instance"],
    },
}


#: The harness's own spans: one per thread it starts work on.
ROOTS = ("workload", "loader", "server.main")


def calls_of(summary: Optional[dict], seam: str) -> int:
    if not summary:
        return 0
    for table in ("seams", "leaves"):
        if seam in summary[table]:
            return int(summary[table][seam]["calls"])
    return int(summary["counts"].get(seam, 0))


def broken_expectations(
    workload: str, summary: dict, server_summary: Optional[dict]
) -> List[str]:
    """Every way the recorded calls contradict :data:`EXPECT`."""
    def calls(seam):
        return calls_of(summary, seam) + calls_of(server_summary, seam)

    expect = EXPECT[workload]
    return [
        "%s recorded no call on %s" % (seam, workload)
        for seam in expect["nonzero"] if calls(seam) == 0
    ] + [
        "%s recorded %d calls on %s, expected none"
        % (seam, calls(seam), workload)
        for seam in expect["zero"] if calls(seam)
    ]


def per_layer(
    summary: dict,
    facts: dict,
    server_summary: Optional[dict] = None,
) -> Dict[str, float]:
    """Every ``per_layer`` metric except ``trace.overhead_ratio`` (which
    needs the untraced run and is added by :mod:`perf.run`).

    ``facts``: ``ops`` (operations measured in this process),
    ``served`` (requests the server process handled, warm-up included;
    equals ``ops`` in-process), ``wall_s``, the :class:`~perf.workloads.
    Tally` counts and the serving figures.
    """
    ops = facts["ops"]
    served = facts["served"]
    wall = facts["wall_s"]
    instances = facts["instances"]

    def row(seam, table="seams"):
        here = summary[table].get(seam, {})
        there = (server_summary or {table: {}})[table].get(seam, {})
        return here, there

    def self_ms_per_op(*seams):
        total = 0.0
        for seam in seams:
            here, there = row(seam)
            total += here.get("self_s", 0.0) / ops
            total += there.get("self_s", 0.0) / served
        return total * 1e3

    def calls_per_op(*seams, table="seams"):
        total = 0.0
        for seam in seams:
            here, there = row(seam, table)
            total += here.get("calls", 0) / ops
            total += there.get("calls", 0) / served
        return total

    def ms_per_call(seam, field="self_s"):
        here, there = row(seam)
        calls = here.get("calls", 0) + there.get("calls", 0)
        seconds = here.get(field, 0.0) + there.get(field, 0.0)
        return seconds / calls * 1e3 if calls else 0.0

    def leaf_ms_per_op(seam):
        here, there = row(seam, "leaves")
        return (
            here.get("total_s", 0.0) / ops
            + there.get("total_s", 0.0) / served
        ) * 1e3

    def count_per_op(seam):
        there = (server_summary or {"counts": {}})["counts"].get(seam, 0)
        return summary["counts"].get(seam, 0) / ops + there / served

    cohort = calls_per_op("service.cohort.instance")
    engine = calls_per_op("service.engine.execute")
    generation_runs = calls_per_op("core.generation.run")
    stats = facts.get("server_stats") or {}
    latency = stats.get("latency_ms", {})
    # The process that hosts the engine, and its root span.
    host, root = (
        (server_summary, "server.main") if server_summary
        else (summary, "workload")
    )
    root_s = host["seams"][root]["total_s"]
    in_seams = sum(
        row["self_s"] for seam, row in host["seams"].items()
        if seam not in ROOTS
    ) + sum(row["total_s"] for row in host["leaves"].values())

    return {
        # service.serving
        "serving.wire.encode_ms_per_req":
            self_ms_per_op("serving.wire.encode"),
        "serving.wire.decode_ms_per_req":
            self_ms_per_op("serving.wire.decode"),
        "serving.wire.bytes_per_result": facts.get("wire_bytes", 0.0),
        "serving.submit_many_ms_per_req":
            self_ms_per_op("serving.submit_many"),
        "serving.loadgen_cpu_share": facts.get("loadgen_cpu_share", 0.0),
        "serving.admit_to_result_p50_ms": latency.get("p50", 0.0),
        "serving.admit_to_result_p99_ms": latency.get("p99", 0.0),
        "serving.batch_mean": stats.get("mean_batch", 0.0),
        "serving.flushes": stats.get("flushes", 0),
        "serving.execute_busy_share":
            stats.get("execute_seconds", 0.0) / wall,
        "serving.rejected": stats.get("rejected_total", 0),
        "serving.latency_p99_ms": facts.get("latency_p99_ms", 0.0),
        "serving.loadgen_late_p99_ms": facts.get("late_p99_ms", 0.0),
        # service
        "service.run_many_ms_per_inst": self_ms_per_op("service.run_many"),
        "service.lane.cohort_share": cohort,
        "service.lane.engine_share": engine,
        "service.lane.clone_share": max(0.0, 1.0 - cohort - engine),
        "service.cohort.instance_ms": ms_per_call("service.cohort.instance"),
        "service.engine.execute_ms": ms_per_call("service.engine.execute"),
        "service.engine.prepare_ms": ms_per_call("service.engine.prepare"),
        "service.engine.finalize_ms":
            ms_per_call("service.engine.finalize"),
        "service.arena.acquisitions_per_inst":
            count_per_op("service.arena.acquire"),
        # core
        "core.generation.run_ms_per_gen": ms_per_call("core.generation.run"),
        "core.generation.runs_per_inst": generation_runs,
        "core.consensus.split_ms_per_inst":
            self_ms_per_op("core.consensus.split"),
        # coding
        "coding.encode_ms_per_inst": self_ms_per_op("coding.encode"),
        "coding.decode_ms_per_inst": self_ms_per_op("coding.decode"),
        "coding.calls_per_inst":
            calls_per_op("coding.encode", "coding.decode"),
        # network
        "network.send_ms_per_inst": self_ms_per_op("network.send"),
        "network.deliver_ms_per_inst": self_ms_per_op("network.deliver"),
        "network.charge_ms_per_inst": self_ms_per_op("network.charge"),
        "network.messages_per_inst": facts["network_messages"] / instances,
        "network.bits.matching_per_inst":
            facts["stage_bits"]["matching"] / instances,
        "network.bits.checking_per_inst":
            facts["stage_bits"]["checking"] / instances,
        "network.bits.diagnosis_per_inst":
            facts["stage_bits"]["diagnosis"] / instances,
        # broadcast_bit
        "broadcast_bit.many_ms_per_inst":
            self_ms_per_op("broadcast_bit.many"),
        "broadcast_bit.grouped_ms_per_inst":
            self_ms_per_op("broadcast_bit.grouped"),
        "broadcast_bit.charge_ms_per_inst":
            self_ms_per_op("broadcast_bit.charge"),
        "broadcast_bit.instances_per_inst":
            facts["broadcast_instances"] / instances,
        # graphs
        "graphs.clique_ms_per_inst": self_ms_per_op("graphs.clique"),
        "graphs.clique_calls_per_inst": calls_per_op("graphs.clique"),
        "graphs.diagnosis_per_inst": facts["diagnoses"] / instances,
        "graphs.edges_removed_per_inst":
            facts["edges_removed"] / instances,
        # utils.bits
        "utils.bits.convert_ms_per_inst":
            leaf_ms_per_op("utils.bits.convert"),
        "utils.bits.convert_calls_per_inst":
            calls_per_op("utils.bits.convert", table="leaves"),
        # processors
        "processors.make_attack_ms_per_inst":
            self_ms_per_op("processors.make_attack"),
        # audit (inclusive, per audit)
        "audit.record_ms": ms_per_call("audit.record", "total_s"),
        "audit.verify_ms": ms_per_call("audit.verify", "total_s"),
        "audit.replay_ms": ms_per_call("audit.replay", "total_s"),
        "audit.prove_ms": ms_per_call("audit.prove", "total_s"),
        "audit.entries_per_transcript":
            facts.get("transcript_entries", 0) / ops,
        # trace
        "trace.unattributed_share": 1.0 - in_seams / root_s,
        # How contended the machine was while these times were clocked
        # (perf.probe; 1 = quiet).  Per-layer times are as clocked.
        "machine.probe_slowdown": facts.get("probe_slowdown", 1.0),
    }
