"""Service-layer throughput: instances/sec across many consensus runs.

The service layer exists for the many-instances workload shape — heavy
traffic of independent consensus instances sharing one deployment.  This
benchmark measures exactly that: a batch of failure-free instances (each
with its own input value) executed three ways —

* **looped** — the pre-service API: one
  ``MultiValuedConsensus(config).run(...)`` per instance, rebuilding
  code tables, backend and network every time;
* **batched** — ``ConsensusService.run_many`` in-process, with the
  cross-instance batching (shared code tables, content-keyed part
  splits, the value-independent failure-free result template);
* **process** — ``run_many`` sharded over worker processes via
  :class:`~repro.service.executors.ProcessExecutor`.

plus a mixed honest/adversarial batch — the fault-sweep shape cohort
batching exists for.  The mixed section times four ways: looped,
serial cold (fresh service, first batch pays the cohort build), serial
steady-state (the same warm long-lived service the deployment shape
keeps around — recorded as ``serial_per_sec``) and process-sharded,
with a per-attack cohort timing breakdown and the cohort count.  Every mode's
per-instance results are asserted byte-identical to the looped
reference on every run — the service must never trade a single bit of
fidelity for speed.  ``BENCH_throughput.json`` records instances/sec
and speedups; the full grid asserts the ≥3× batched-vs-looped bar on
the 64-instance (n=7, L=2^14) acceptance workload and the ≥10×
mixed-workload serial-vs-looped bar on the (n=7, L=2^12, 40) point.

``--check`` additionally sweeps every canonical attack
(``repro.processors.ATTACKS``) at n ∈ {4, 7, 31}, running each workload
looped, batched and process-sharded and asserting byte-identical per-instance results and bit totals — plus one
interleaved mixed-cycle batch covering every attack in the mixed
cycle — the service-layer analogue of ``bench_wallclock.py``'s
``--check`` discipline.  It also runs the ``tracemalloc`` allocation
smoke: the failure-free steady-state path must allocate O(1) arrays per
generation (retained growth independent of generation count) and the
adversarial path must reuse the service arena's buffers by identity.

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py           # full grid
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick --check  # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import time
from pathlib import Path
from typing import List, Optional

from repro.core.consensus import MultiValuedConsensus
from repro.processors import ATTACKS
from repro.service import (
    ConsensusService,
    InstanceSpec,
    ProcessExecutor,
    RunSpec,
)

#: Deterministic input seed: every run times the identical workload.
INPUT_SEED = 12345

#: Failure-free grid points: (n, l_bits, instances).  The (7, 2^14, 64)
#: row is the acceptance workload for the ≥3× batched-vs-looped bar.
FULL_GRID = [(7, 1 << 14, 64), (31, 1 << 12, 32)]
QUICK_GRID = [(7, 1 << 10, 16), (31, 1 << 8, 8)]

#: The ≥3× acceptance bar applies to this grid point, full mode only
#: (quick CI runners are too noisy to gate wall-clock ratios).
ACCEPTANCE_POINT = (7, 1 << 14, 64)
ACCEPTANCE_SPEEDUP = 3.0

#: Mixed workload: honest instances interleaved with registry attacks,
#: the fault-sweep shape cohort batching exists for.
MIXED_ATTACK_CYCLE = ["none", "corrupt", "crash", "trust_poison", "random"]
FULL_MIXED = (7, 1 << 12, 40)
QUICK_MIXED = (7, 1 << 10, 10)

#: Full-mode bar for the mixed point: steady-state cohort-batched
#: serial must beat the looped one-shot reference by this factor.
MIXED_ACCEPTANCE_SPEEDUP = 10.0

#: The --check equivalence grid: every canonical attack at each n.
CHECK_NS = [(4, 64), (7, 256), (31, 256)]


def _available_cpus() -> int:
    """CPUs this process may actually schedule on (affinity-limited),
    falling back to the box total where affinity is not exposed."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _values(l_bits: int, count: int) -> List[int]:
    rng = random.Random(INPUT_SEED)
    return [rng.getrandbits(l_bits) for _ in range(count)]


def _looped_reference(spec: RunSpec, instances: List[InstanceSpec]):
    """The pre-service API looped over the batch: fresh config, code,
    backend and network per instance — the byte-identity baseline."""
    results = []
    for instance in instances:
        run_spec = instance.resolve(spec)
        config = run_spec.make_config()
        consensus = MultiValuedConsensus(
            config, adversary=run_spec.make_adversary()
        )
        results.append(consensus.run(list(instance.inputs)))
    return results


def _assert_identical(reference, candidates, label: str) -> None:
    for name, results in candidates.items():
        if len(results) != len(reference):
            raise AssertionError(
                "%s (%s): %d results for %d instances"
                % (label, name, len(results), len(reference))
            )
        for idx, (want, got) in enumerate(zip(reference, results)):
            if want != got:
                raise AssertionError(
                    "%s (%s): instance %d diverged from the looped "
                    "reference — the service layer altered a result"
                    % (label, name, idx)
                )


def _best_of(repeats: int, thunk):
    """Best-of-``repeats`` wall-clock (every repeat runs cold state);
    returns (seconds, last result) — the standard noise filter for
    sub-100ms measurements."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = thunk()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run_throughput_point(
    n: int, l_bits: int, count: int, repeats: int
) -> dict:
    """One failure-free batch, executed looped / batched / process."""
    spec = RunSpec(n=n, l_bits=l_bits)
    instances = [
        InstanceSpec(inputs=(value,) * n) for value in _values(l_bits, count)
    ]

    looped_s, looped = _best_of(
        repeats, lambda: _looped_reference(spec, instances)
    )
    # A fresh service per repeat: each measurement pays the full
    # cold-cache batch cost, exactly like a fresh deployment would.
    batched_s, batched = _best_of(
        repeats, lambda: ConsensusService(spec).run_many(instances)
    )
    process_s, processed = _best_of(
        repeats,
        lambda: ConsensusService(spec).run_many(
            instances, executor="process"
        ),
    )

    _assert_identical(
        looped,
        {"batched": batched, "process": processed},
        "failure-free (n=%d, L=%d)" % (n, l_bits),
    )
    workers = _available_cpus()
    record = {
        "n": n,
        "l_bits": l_bits,
        "instances": count,
        "repeats": repeats,
        "total_bits_per_instance": looped[0].total_bits,
        "looped_seconds": round(looped_s, 4),
        "batched_seconds": round(batched_s, 4),
        "process_seconds": round(process_s, 4),
        "looped_per_sec": round(count / looped_s, 1),
        "batched_per_sec": round(count / batched_s, 1),
        "process_per_sec": round(count / process_s, 1),
        "speedup_batched": round(looped_s / batched_s, 2),
        "speedup_process": round(looped_s / process_s, 2),
        "workers": workers,
    }
    if workers == 1:
        # One schedulable CPU: the process pool serializes behind IPC
        # overhead, so its "speedup" column measures overhead, not the
        # executor — annotate rather than let it read as a regression.
        record["parallelism_degenerate"] = True
    return record


def run_mixed_point(n: int, l_bits: int, count: int, repeats: int) -> dict:
    """Mixed honest/adversarial batch through the cohort engine.

    ``serial_per_sec`` is the **steady-state** rate: the same warm
    long-lived service re-running the workload (best-of-``repeats``).
    That is the deployment shape the service exists for — one service
    per deployment, heavy instance traffic through it — so the
    steady-state rate is the honest throughput number; the one-time
    cohort/template build cost is reported separately as the cold
    first-batch rate.  Per-attack rows time each attack's instances
    alone on the warm service, so the breakdown shows where a mixed
    batch's time actually goes.
    """
    spec = RunSpec(n=n, l_bits=l_bits)
    instances = []
    for idx, value in enumerate(_values(l_bits, count)):
        attack = MIXED_ATTACK_CYCLE[idx % len(MIXED_ATTACK_CYCLE)]
        instances.append(
            InstanceSpec(inputs=(value,) * n, attack=attack, seed=idx)
        )

    looped_s, looped = _best_of(
        repeats, lambda: _looped_reference(spec, instances)
    )

    # Cold: a fresh service's first batch pays the cohort builds.
    service = ConsensusService(spec)
    start = time.perf_counter()
    serial_cold = service.run_many(instances)
    cold_s = time.perf_counter() - start
    cohorts = len(service._cohorts)

    # Steady state: the warm service re-runs the identical workload.
    steady_s, serial = _best_of(
        repeats, lambda: service.run_many(instances)
    )

    process_s, processed = _best_of(
        repeats,
        lambda: ConsensusService(spec).run_many(
            instances, executor=ProcessExecutor()
        ),
    )

    _assert_identical(
        looped,
        {
            "serial_cold": serial_cold,
            "serial_steady": serial,
            "process": processed,
        },
        "mixed (n=%d, L=%d)" % (n, l_bits),
    )

    by_attack = {}
    for attack in MIXED_ATTACK_CYCLE:
        subset = [
            (idx, instance)
            for idx, instance in enumerate(instances)
            if instance.attack == attack
        ]
        specs = [instance for _, instance in subset]
        sub_s, sub_results = _best_of(
            repeats, lambda specs=specs: service.run_many(specs)
        )
        _assert_identical(
            [looped[idx] for idx, _ in subset],
            {"serial": sub_results},
            "mixed per-attack (n=%d, %s)" % (n, attack),
        )
        by_attack[attack] = {
            "instances": len(specs),
            "seconds": round(sub_s, 4),
            "per_sec": round(len(specs) / sub_s, 1),
        }

    workers = _available_cpus()
    record = {
        "n": n,
        "l_bits": l_bits,
        "instances": count,
        "attack_cycle": MIXED_ATTACK_CYCLE,
        "repeats": repeats,
        "cohorts": cohorts,
        "looped_seconds": round(looped_s, 4),
        "looped_per_sec": round(count / looped_s, 1),
        "serial_cold_seconds": round(cold_s, 4),
        "serial_cold_per_sec": round(count / cold_s, 1),
        "serial_seconds": round(steady_s, 4),
        "serial_per_sec": round(count / steady_s, 1),
        "process_seconds": round(process_s, 4),
        "process_per_sec": round(count / process_s, 1),
        "speedup_serial_vs_looped": round(looped_s / steady_s, 2),
        "speedup_process_vs_serial": round(cold_s / process_s, 2),
        "by_attack": by_attack,
        "workers": workers,
    }
    if workers == 1:
        # See run_throughput_point: with one schedulable CPU the
        # process row measures pool overhead, not
        # parallelism — speedup_process_vs_serial is not a regression.
        record["parallelism_degenerate"] = True
    return record


def run_check() -> int:
    """The byte-identity sweep: every canonical attack, both executors.

    For each (n, attack) workload — two all-equal adversarial
    instances, one honest all-equal instance and one honest
    mixed-inputs instance — assert that ``run_many`` (serial and
    process-sharded, which reconstructs seeded stateful adversaries in
    the workers) returns per-instance results and bit totals
    byte-identical to the looped one-shot reference.  One additional
    interleaved mixed-cycle batch per n covers every attack in
    ``MIXED_ATTACK_CYCLE`` with differing seeds and duplicate cohorts.
    """
    checked = 0
    for n, l_bits in CHECK_NS:
        spec = RunSpec(n=n, l_bits=l_bits)
        values = _values(l_bits, 4)
        for attack in sorted(ATTACKS):
            instances = [
                InstanceSpec(inputs=(values[0],) * n, attack=attack, seed=1),
                InstanceSpec(inputs=(values[1],) * n, attack=attack, seed=2),
                InstanceSpec(inputs=(values[2],) * n),
                InstanceSpec(
                    inputs=tuple(
                        values[3] if pid % 2 else values[2]
                        for pid in range(n)
                    )
                ),
            ]
            looped = _looped_reference(spec, instances)
            serial = ConsensusService(spec).run_many(instances)
            processed = ConsensusService(spec).run_many(
                instances, executor=ProcessExecutor(shards=2)
            )
            _assert_identical(
                looped,
                {"serial": serial, "process": processed},
                "check (n=%d, %s)" % (n, attack),
            )
            if sum(r.total_bits for r in serial) != sum(
                r.total_bits for r in looped
            ):
                raise AssertionError(
                    "check (n=%d, %s): batch bit total diverged"
                    % (n, attack)
                )
            checked += 1
        # Interleaved mixed cycle: every mixed-workload attack in one
        # batch, two seeds per attack, through both executors.
        mixed = [
            InstanceSpec(
                inputs=(values[idx % 4],) * n,
                attack=MIXED_ATTACK_CYCLE[idx % len(MIXED_ATTACK_CYCLE)],
                seed=idx,
            )
            for idx in range(2 * len(MIXED_ATTACK_CYCLE))
        ]
        looped = _looped_reference(spec, mixed)
        _assert_identical(
            looped,
            {
                "serial": ConsensusService(spec).run_many(mixed),
                "process": ConsensusService(spec).run_many(
                    mixed, executor=ProcessExecutor(shards=3)
                ),
            },
            "check mixed cycle (n=%d)" % n,
        )
        checked += 1
    print(
        "checked %d workloads: run_many serial and process "
        "byte-identical to the looped reference" % checked
    )
    return checked


def run_alloc_smoke() -> None:
    """Tracemalloc smoke: steady state allocates O(1) arrays per generation.

    Two warm services with a 16× generation-count gap re-run their
    failure-free workload under ``tracemalloc``.  If the engine
    allocated and held exchange-plane buffers per generation, the long
    workload would retain on the order of a hundred extra ``(n, n)``
    arrays over the short one; instead, the retained growth inside
    ``repro`` code must stay below a *single* ``(n, n)`` int64 buffer
    for both, i.e. generation-count independent.

    Then an adversarial steady-state re-run — which drives the real
    per-generation vectorized protocol rather than the bulk replay —
    must reuse the service arena's buffers by identity: the acquisition
    counter grows, the arrays do not move.  Reset, never reallocated.
    """
    import gc
    import tracemalloc

    n = 31
    marker = os.sep + "repro" + os.sep
    for l_bits in (1 << 10, 1 << 14):
        spec = RunSpec(n=n, l_bits=l_bits)
        service = ConsensusService(spec)
        instances = [
            InstanceSpec(inputs=(value,) * n)
            for value in _values(l_bits, 4)
        ]
        # Two warm passes: the first batch serves one instance from the
        # real template run, so its clone-path cache entries only land
        # on the second — steady state starts at pass three.
        service.run_many(instances)
        service.run_many(instances)
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        service.run_many(instances)
        gc.collect()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        growth = 0
        for stat in after.compare_to(before, "filename"):
            frame = stat.traceback[0] if stat.traceback else None
            if frame is not None and marker in frame.filename:
                growth += max(stat.size_diff, 0)
        bound = n * n * 8  # one (n, n) int64 exchange buffer
        if growth >= bound:
            raise AssertionError(
                "failure-free steady state retained %d bytes across a "
                "re-run at (n=%d, L=%d) — at least one (n, n) buffer "
                "per batch is being allocated instead of reused"
                % (growth, n, l_bits)
            )

    spec = RunSpec(n=7, l_bits=256)
    service = ConsensusService(spec)
    value = _values(256, 1)[0]
    instances = [
        InstanceSpec(inputs=(value,) * 7, attack="corrupt", seed=1)
    ]
    service.run_many(instances)
    arena = service._arena
    if arena is None or arena.acquisitions == 0:
        raise AssertionError(
            "adversarial vectorized run never touched the service arena"
        )
    buffer_ids = {
        name: id(getattr(arena, name))
        for name in (
            "_exchange", "_codewords", "_m", "_adjacency", "_detected",
            "_trust",
        )
        if getattr(arena, name) is not None
    }
    acquired = arena.acquisitions
    service.run_many(instances)
    if arena.acquisitions <= acquired:
        raise AssertionError(
            "steady-state adversarial re-run did not go through the arena"
        )
    for name, ident in buffer_ids.items():
        if id(getattr(arena, name)) != ident:
            raise AssertionError(
                "arena buffer %s was reallocated between instances" % name
            )
    print(
        "alloc smoke: steady-state retained growth is generation-count "
        "independent; arena buffers reused by identity "
        "(%d acquisitions, %d buffers)"
        % (arena.acquisitions, len(buffer_ids))
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small smoke grid for CI (seconds, no speedup gate)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="also run the byte-identity sweep: every canonical attack "
        "at n in {4, 7, 31}, serial and process executors vs the "
        "looped one-shot reference",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON report (default: "
        "BENCH_throughput.json at the repo root; quick mode writes "
        "BENCH_throughput_quick.json)",
    )
    args = parser.parse_args()
    if args.output is None:
        name = (
            "BENCH_throughput_quick.json" if args.quick
            else "BENCH_throughput.json"
        )
        args.output = Path(__file__).resolve().parent.parent / name

    checked: Optional[int] = None
    if args.check:
        checked = run_check()
        run_alloc_smoke()

    repeats = 1 if args.quick else 3
    results = []
    for n, l_bits, count in (QUICK_GRID if args.quick else FULL_GRID):
        record = run_throughput_point(n, l_bits, count, repeats)
        results.append(record)
        print(
            "n=%-3d L=2^%-3d %3d inst  looped %7.1f/s  batched %8.1f/s "
            "(%.1fx)  process %8.1f/s (%.1fx)"
            % (
                n,
                l_bits.bit_length() - 1,
                count,
                record["looped_per_sec"],
                record["batched_per_sec"],
                record["speedup_batched"],
                record["process_per_sec"],
                record["speedup_process"],
            )
        )

    n, l_bits, count = QUICK_MIXED if args.quick else FULL_MIXED
    mixed = run_mixed_point(n, l_bits, count, repeats)
    print(
        "mixed n=%d L=2^%d %d inst  looped %6.1f/s  serial %7.1f/s "
        "(%.1fx; cold %.1f/s)  process %7.1f/s "
        "(%s workers, %d cohorts)"
        % (
            n,
            l_bits.bit_length() - 1,
            count,
            mixed["looped_per_sec"],
            mixed["serial_per_sec"],
            mixed["speedup_serial_vs_looped"],
            mixed["serial_cold_per_sec"],
            mixed["process_per_sec"],
            mixed["workers"],
            mixed["cohorts"],
        )
    )
    for attack, row in mixed["by_attack"].items():
        print(
            "  %-13s %2d inst  %7.4fs  %8.1f/s"
            % (attack, row["instances"], row["seconds"], row["per_sec"])
        )

    if not args.quick:
        for record in results:
            if (
                record["n"],
                record["l_bits"],
                record["instances"],
            ) != ACCEPTANCE_POINT:
                continue
            if record["speedup_batched"] < ACCEPTANCE_SPEEDUP:
                raise AssertionError(
                    "batched run_many managed only %.2fx over looped "
                    "one-shot at the acceptance point (bar: %.1fx)"
                    % (record["speedup_batched"], ACCEPTANCE_SPEEDUP)
                )
        if mixed["speedup_serial_vs_looped"] < MIXED_ACCEPTANCE_SPEEDUP:
            raise AssertionError(
                "cohort-batched mixed workload managed only %.2fx over "
                "looped one-shot (bar: %.1fx)"
                % (
                    mixed["speedup_serial_vs_looped"],
                    MIXED_ACCEPTANCE_SPEEDUP,
                )
            )

    report = {
        "benchmark": "bench_throughput",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Both CPU counts: the box's total and the affinity-limited
        # slice this process can schedule on — a bare "cpus" was
        # ambiguous on cgroup-limited runners.
        "cpus": os.cpu_count(),
        "cpus_available": _available_cpus(),
        "input_seed": INPUT_SEED,
        "acceptance": {
            "point": {
                "n": ACCEPTANCE_POINT[0],
                "l_bits": ACCEPTANCE_POINT[1],
                "instances": ACCEPTANCE_POINT[2],
            },
            "min_speedup_batched": ACCEPTANCE_SPEEDUP,
            "mixed_point": {
                "n": FULL_MIXED[0],
                "l_bits": FULL_MIXED[1],
                "instances": FULL_MIXED[2],
            },
            "min_speedup_mixed_serial": MIXED_ACCEPTANCE_SPEEDUP,
        },
        "results": results,
        "mixed": mixed,
    }
    if checked is not None:
        report["check_workloads"] = checked
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print("wrote %s" % args.output)


if __name__ == "__main__":
    main()
