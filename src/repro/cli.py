"""Command-line driver: run the protocols and print audit reports.

Installed as the ``repro-sim`` entry point::

    repro-sim consensus --n 7 --t 2 --l-bits 256 --value 0xDEADBEEF
    repro-sim consensus --n 7 --t 2 --l-bits 96 --attack slow-bleed
    repro-sim consensus --n 7 --l-bits 96 --attack trust_poison
    repro-sim broadcast --n 10 --l-bits 4096 --source 0 --value 0x1234
    repro-sim baseline --which fitzi-hirt --n 7 --l-bits 128
    repro-sim analyze --n 7 --t 2 --l-bits 1048576
    repro-sim sweep --n 7 --t 2 --l-min 10 --l-max 18
    repro-sim serve --n 7 --l-bits 1024 --port 7411
    repro-sim submit --port 7411 --value 0xBEEF --count 8
    repro-sim ps --port 7411
    repro-sim stop --port 7411
    repro-sim audit record --n 7 --attack corrupt --out transcript.json
    repro-sim audit verify --transcript transcript.json
    repro-sim audit replay --transcript transcript.json
    repro-sim audit prove --transcript transcript.json --json proof.json

Every subcommand prints deterministic bit counts; no randomness beyond
the seeded adversaries.  Attack names come from the canonical registry
(:data:`repro.processors.ATTACKS`; hyphenated spellings normalize), the
run description is one :class:`repro.service.RunSpec`, and the
``consensus`` subcommand executes through a
:class:`repro.service.ConsensusService`.  Faulty pids default to the
attack's registry-chosen set — the pids where that attack actually
bites — rather than the historical fixed low-pid prefix.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis.complexity import (
    bitwise_baseline_bits,
    consensus_total_bits_optimal,
    crossover_vs_bitwise,
    fitzi_hirt_bits,
    leading_term_per_bit,
    optimal_d,
    optimal_d_feasible,
)
from repro.analysis.report import consensus_report, format_table
from repro.analysis.sweeps import sweep_l
from repro.baselines import BitwiseConsensus, FitziHirtConsensus
from repro.broadcast_bit.ideal import default_b
from repro.coding.reed_solomon import DecodingError
from repro.core import MultiValuedBroadcast
from repro.core.config import BACKENDS
from repro.processors import normalize_attack
from repro.processors import ATTACKS as _ATTACKS
from repro.service import ConsensusService, InstanceSpec, RunSpec
from repro.service.serving import (
    DEFAULT_PORT,
    AdmissionError,
    ConsensusServer,
    ServingClient,
    ServingError,
)
from repro.service.serving.wire import runspec_from_wire
from repro.utils.boundary import check_input_value


def _int_literal(text: str) -> int:
    """``--value``: an int literal (``0x…`` and ``0b…`` too)."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError("not an int literal: %r" % text)


def _pid_list(text: str) -> List[int]:
    """``--faulty``: comma-separated pids."""
    try:
        return [int(pid) for pid in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "not comma-separated pids: %r" % text
        )


def _parse_value(value: int, l_bits: int) -> int:
    return check_input_value(value, l_bits, "value")


def _make_spec(args) -> RunSpec:
    """The one declarative run description every subcommand shares."""
    return RunSpec(
        n=args.n,
        t=args.t,
        l_bits=args.l_bits,
        d_bits=getattr(args, "d_bits", None),
        backend=args.backend,
        attack=args.attack,
        seed=args.seed,
        faulty=tuple(args.faulty) if args.faulty is not None else None,
    )


def cmd_consensus(args) -> int:
    service = ConsensusService(_make_spec(args))
    value = _parse_value(args.value, args.l_bits)
    if args.instances > 1:
        batch = [
            InstanceSpec(
                inputs=(value,) * args.n, seed=args.seed + i
            )
            for i in range(args.instances)
        ]
        results = service.run_many(batch)
        rows = [
            (
                i,
                result.consistent,
                result.valid,
                result.default_used,
                result.meter.total_bits,
            )
            for i, result in enumerate(results)
        ]
        print(
            format_table(
                ("instance", "consistent", "valid", "default", "total bits"),
                rows,
            )
        )
        ok = all(r.error_free for r in results)
        return 0 if ok else 1
    result = service.run(value)
    print(consensus_report(result, service.config))
    return 0 if result.error_free else 1


def cmd_broadcast(args) -> int:
    broadcast = MultiValuedBroadcast(
        n=args.n, t=args.t, l_bits=args.l_bits, backend=args.backend,
        adversary=_make_spec(args).make_adversary(),
    )
    value = _parse_value(args.value, args.l_bits)
    result = broadcast.run(source=args.source, value=value)
    print("broadcast run report")
    print("====================")
    print("consistent : %s" % result.consistent)
    print("delivered  : %s" % (result.value == value))
    print("default    : %s" % result.default_used)
    print("diagnoses  : %d" % result.diagnosis_count)
    print("total bits : %d" % result.total_bits)
    print(
        "vs (n-1)L  : %.3fx"
        % (result.total_bits / ((args.n - 1) * args.l_bits))
    )
    return 0 if result.consistent else 1


def cmd_baseline(args) -> int:
    value = _parse_value(args.value, args.l_bits)
    inputs = [value] * args.n
    t = args.t if args.t is not None else (args.n - 1) // 3
    if args.which == "bitwise":
        result = BitwiseConsensus(n=args.n, t=t, l_bits=args.l_bits).run(
            inputs
        )
    else:
        result = FitziHirtConsensus(
            n=args.n, t=t, l_bits=args.l_bits, kappa=args.kappa
        ).run(inputs)
    print("%s baseline" % args.which)
    print("consistent : %s" % result.consistent)
    print("erred      : %s" % (not result.error_free))
    print("total bits : %d" % result.total_bits)
    return 0 if result.error_free else 1


def cmd_analyze(args) -> int:
    n, l_bits = args.n, args.l_bits
    t = args.t if args.t is not None else (n - 1) // 3
    b = default_b(n)
    rows = [
        ("optimal D (paper)", "%.1f" % optimal_d(n, t, l_bits, b)),
        ("optimal D (feasible)", optimal_d_feasible(n, t, l_bits, b)),
        ("leading term per bit", "%.3f" % leading_term_per_bit(n, t)),
        (
            "total bits (Eq. 2)",
            "%.0f" % consensus_total_bits_optimal(n, t, l_bits, b),
        ),
        ("bitwise baseline bits", "%.0f" % bitwise_baseline_bits(l_bits, b)),
        (
            "fitzi-hirt bits (kappa=%d)" % args.kappa,
            "%.0f" % fitzi_hirt_bits(n, t, l_bits, args.kappa, b),
        ),
        (
            "crossover L vs bitwise",
            "%.0f" % crossover_vs_bitwise(n, t, b),
        ),
    ]
    print(format_table(("quantity", "value"), rows))
    return 0


def cmd_sweep(args) -> int:
    t = args.t if args.t is not None else (args.n - 1) // 3
    l_values = [1 << e for e in range(args.l_min, args.l_max + 1, args.step)]
    points = sweep_l(args.n, t, l_values)
    rows = [
        (
            point.l_bits,
            point.d_bits,
            point.generations,
            point.total_bits,
            "%.2f" % point.per_bit,
            "%.3f" % point.ratio_to_asymptote,
        )
        for point in points
    ]
    print(
        format_table(
            ("L", "D", "gens", "total bits", "bits/bit", "vs asymptote"),
            rows,
        )
    )
    return 0


def cmd_serve(args) -> int:
    spec = _make_spec(args)

    async def _serve() -> None:
        server = ConsensusServer(
            spec, max_batch=args.max_batch, max_queue=args.max_queue
        )
        tcp = await server.serve_tcp(host=args.host, port=args.port)
        host, port = tcp.sockets[0].getsockname()[:2]
        print(
            "serving n=%d t=%d l_bits=%d on %s:%s"
            % (spec.n, spec.resolved_t, spec.l_bits, host, port)
        )
        print(
            "knobs: max batch %d | max queue %d"
            % (args.max_batch, args.max_queue),
            flush=True,
        )
        try:
            await server.wait_closed()
        finally:
            if server.running:
                await server.stop()
        snap = server.stats.snapshot()
        print(
            "drained: served %d | rejected %d | flushes %d"
            % (snap["served"], snap["rejected_total"], snap["flushes"])
        )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\ninterrupted; server stopped")
    return 0


def _client(args) -> ServingClient:
    return ServingClient(host=args.host, port=args.port)


def cmd_ps(args) -> int:
    with _client(args) as client:
        snap = client.ps()
    stats = snap["stats"]
    latency = stats["latency_ms"]
    deployment = runspec_from_wire(snap["default_deployment"])
    in_flight = snap["in_flight"]
    rows = [
        ("running", snap["running"]),
        ("uptime", "%.1f s" % snap["uptime_s"]),
        (
            "default deployment",
            "n=%d t=%d l_bits=%d" % (
                deployment.n, deployment.resolved_t, deployment.l_bits
            ),
        ),
        ("deployments seen", len(snap["deployments"]) or 1),
        ("queued", snap["queued"]),
        (
            "in flight",
            "%d instances (%.1f ms)"
            % (in_flight["instances"], in_flight["age_ms"])
            if in_flight
            else "-",
        ),
        (
            "knobs",
            "batch %(max_batch)d | queue %(max_queue)d" % snap["knobs"],
        ),
        ("served", stats["served"]),
        ("rejected", stats["rejected_total"]),
        ("flushes", stats["flushes"]),
        ("mean batch", "%.2f" % stats["mean_batch"]),
        ("p50 latency", "%.2f ms" % latency["p50"]),
        ("p99 latency", "%.2f ms" % latency["p99"]),
    ]
    for code, count in sorted(stats["rejected"].items()):
        rows.append(("rejected[%s]" % code, count))
    print(format_table(("field", "value"), rows))
    return 0


def cmd_submit(args) -> int:
    value = args.value
    with _client(args) as client:
        if args.count > 1:
            # Pipeline the whole batch so it queues at once and flushes
            # together; vary seeds so instances stay distinct.
            n = client.ps()["default_deployment"]["n"]
            base = args.seed if args.seed is not None else 0
            faulty = args.faulty
            batch = [
                InstanceSpec(
                    inputs=(value,) * n,
                    attack=args.attack,
                    seed=base + i,
                    faulty=tuple(faulty) if faulty is not None else None,
                )
                for i in range(args.count)
            ]
            results = client.submit_many(batch)
        else:
            results = [
                client.submit(
                    value,
                    attack=args.attack,
                    seed=args.seed,
                    faulty=args.faulty,
                )
            ]
    rows = [
        (
            i,
            result.consistent,
            result.valid,
            hex(result.value) if result.value is not None else "-",
            result.meter.total_bits,
        )
        for i, result in enumerate(results)
    ]
    print(
        format_table(
            ("instance", "consistent", "valid", "decided", "total bits"),
            rows,
        )
    )
    return 0 if all(r.error_free for r in results) else 1


def cmd_stop(args) -> int:
    with _client(args) as client:
        client.shutdown()
    print("server at %s:%d draining and stopping" % (args.host, args.port))
    return 0


def _write_report(path: Optional[str], payload: dict) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("report     : %s" % path)


def cmd_audit(args) -> int:
    from repro.audit import (
        DEFAULT_KEY,
        Transcript,
        prove,
        replay,
        verify_transcript,
    )

    key = bytes.fromhex(args.key) if args.key else DEFAULT_KEY
    if args.action == "record":
        service = ConsensusService(_make_spec(args))
        value = _parse_value(args.value, args.l_bits)
        result, transcript = service.record(value, key=key)
        transcript.save(args.out)
        print("recorded   : %d journal entries -> %s"
              % (len(transcript.entries), args.out))
        print("digest     : %s" % transcript.digest())
        print("consistent : %s" % result.consistent)
        print("valid      : %s" % result.valid)
        print("total bits : %d" % result.total_bits)
        return 0 if result.error_free else 1
    try:
        transcript = Transcript.load(args.transcript)
    except json.JSONDecodeError as exc:
        raise ValueError(
            "cannot load %s: not JSON (%s)" % (args.transcript, exc)
        ) from None
    except OSError as exc:
        raise ValueError(
            "cannot load %s: %s" % (args.transcript, exc.strerror or exc)
        ) from None
    except ValueError as exc:
        raise ValueError("cannot load %s: %s" % (args.transcript, exc)) from None
    if args.action == "verify":
        report = verify_transcript(transcript, key=key)
        print("verified   : %s" % report.ok)
        print("entries    : %d checked" % report.checked)
        if not report.ok:
            where = (
                "entry %d" % report.failed_index
                if report.failed_index is not None
                else "seal/header"
            )
            print("failed at  : %s" % where)
            print("reason     : %s" % report.reason)
        _write_report(args.json, report.to_wire())
        return 0 if report.ok else 1
    if args.action == "replay":
        report = replay(transcript, key=key)
        print("verified   : %s" % report.verify.ok)
        print("journal    : %s"
              % ("match" if report.journal_match else "DIVERGED"))
        print("result     : %s"
              % ("match" if report.divergence.identical else "DIVERGED"))
        print("deviations : %d" % len(report.deviations))
        if report.first_journal_divergence is not None:
            div = report.first_journal_divergence
            print("first journal divergence: entry %s field %s"
                  % (div["index"], div["field"]))
        if report.divergence.first is not None:
            print("first result divergence : %s"
                  % report.divergence.first.detail)
        _write_report(args.json, report.to_wire())
        return 0 if report.ok else 1
    proof = prove(transcript, key=key)
    print("verified   : %s" % proof.verified)
    print("replay     : journal %s, result %s"
          % ("match" if proof.journal_match else "DIVERGED",
             "match" if proof.result_match else "DIVERGED"))
    print("culprits   : %s"
          % (",".join(str(pid) for pid in proof.culprits) or "none"))
    print("claimed    : %s"
          % (",".join(str(pid) for pid in proof.claimed_faulty) or "none"))
    print("digest     : %s" % proof.transcript_digest)
    _write_report(args.json, proof.to_wire())
    return 0 if proof.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Error-free multi-valued Byzantine consensus "
        "(Liang & Vaidya, PODC 2011) — simulation driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_value=True):
        p.add_argument("--n", type=int, default=7, help="processors")
        p.add_argument("--t", type=int, default=None,
                       help="faults tolerated (default ⌊(n-1)/3⌋)")
        p.add_argument("--l-bits", type=int, default=256,
                       help="value length in bits")
        p.add_argument("--backend", default="ideal",
                       choices=sorted(BACKENDS),
                       help="Broadcast_Single_Bit backend")
        p.add_argument("--attack", default="none", type=normalize_attack,
                       choices=sorted(_ATTACKS),
                       help="Byzantine strategy for the faulty processors "
                       "(canonical registry names; hyphenated spellings "
                       "like slow-bleed are normalized)")
        p.add_argument("--faulty", type=_pid_list, default=None,
                       help="comma-separated faulty pids (default: the "
                       "attack's registry-chosen set)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomised attacks")
        if with_value:
            p.add_argument("--value", type=_int_literal,
                           default=0xDEADBEEF,
                           help="common input value (int literal)")

    p = sub.add_parser("consensus", help="run the paper's Algorithm 1")
    common(p)
    p.add_argument("--d-bits", type=int, default=None,
                   help="generation size (default: paper-optimal)")
    p.add_argument("--instances", type=int, default=1,
                   help="independent instances to batch through the "
                   "service (per-instance seeds seed, seed+1, ...)")
    p.set_defaults(func=cmd_consensus)

    p = sub.add_parser("broadcast", help="run the §4 multi-valued broadcast")
    common(p)
    p.add_argument("--source", type=int, default=0)
    p.set_defaults(func=cmd_broadcast)

    p = sub.add_parser("baseline", help="run a §1 baseline")
    common(p)
    p.add_argument("--which", choices=["bitwise", "fitzi-hirt"],
                   default="fitzi-hirt")
    p.add_argument("--kappa", type=int, default=16)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("analyze", help="closed-form complexity (Eq. 1-3)")
    common(p, with_value=False)
    p.add_argument("--kappa", type=int, default=16)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="measured L-sweep")
    common(p, with_value=False)
    p.add_argument("--l-min", type=int, default=10,
                   help="smallest L as a power of two")
    p.add_argument("--l-max", type=int, default=16,
                   help="largest L as a power of two")
    p.add_argument("--step", type=int, default=2)
    p.set_defaults(func=cmd_sweep)

    def endpoint(p):
        p.add_argument("--host", default="127.0.0.1",
                       help="serving host")
        p.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help="serving TCP port")

    p = sub.add_parser(
        "serve",
        help="run the async serving front-end (docs/SERVING.md)",
    )
    common(p, with_value=False)
    endpoint(p)
    p.add_argument("--d-bits", type=int, default=None,
                   help="generation size (default: paper-optimal)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="size cap per cohort")
    p.add_argument("--max-queue", type=int, default=1024,
                   help="admission queue bound (beyond it: queue_full)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("ps", help="snapshot a running server")
    endpoint(p)
    p.set_defaults(func=cmd_ps)

    p = sub.add_parser("submit", help="submit instances to a server")
    endpoint(p)
    p.add_argument("--value", type=_int_literal, default=0xDEADBEEF,
                   help="common input value (int literal; the server "
                   "broadcasts it to all n processors)")
    p.add_argument("--count", type=int, default=1,
                   help="instances to pipeline in one batch "
                   "(seeds seed, seed+1, ...)")
    p.add_argument("--attack", default=None, type=normalize_attack,
                   choices=sorted(_ATTACKS),
                   help="Byzantine strategy (default: the deployment's)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomised attacks")
    p.add_argument("--faulty", type=_pid_list, default=None,
                   help="comma-separated faulty pids")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("stop", help="drain and stop a running server")
    endpoint(p)
    p.set_defaults(func=cmd_stop)

    p = sub.add_parser(
        "audit",
        help="record / verify / replay / prove authenticated "
        "transcripts (docs/AUDIT.md)",
    )
    p.add_argument("action",
                   choices=["record", "verify", "replay", "prove"],
                   help="record runs an instance and saves its "
                   "transcript; verify checks the authentication tags; "
                   "replay re-executes it on the forced-scalar "
                   "reference engine; prove names the provably faulty "
                   "pids")
    common(p)
    p.add_argument("--d-bits", type=int, default=None,
                   help="generation size (default: paper-optimal)")
    p.add_argument("--out", default="transcript.json",
                   help="record: transcript output path")
    p.add_argument("--transcript", default="transcript.json",
                   help="verify/replay/prove: transcript path")
    p.add_argument("--key", default=None,
                   help="hex-encoded HMAC master key (default: the "
                   "built-in demo key)")
    p.add_argument("--json", default=None,
                   help="verify/replay/prove: also write the full "
                   "machine-readable report to this path")
    p.set_defaults(func=cmd_audit)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DecodingError:
        raise
    except ValueError as exc:
        # A refused deployment or instance argument (the boundary rules
        # raise ValueError naming it) is a usage error, not a traceback.
        parser.exit(2, "%s: error: %s\n" % (parser.prog, exc))
    except ServingError as exc:
        print("serving error: %s" % exc, file=sys.stderr)
        return 2
    except AdmissionError as exc:
        print(
            "request rejected (%s): %s" % (exc.code, exc), file=sys.stderr
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
