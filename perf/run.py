"""One run of one workload: the command ``BENCHMARK.json`` names.

    python3 -m perf run --workload W --seed N --seconds S --trace 0|1

``--trace 0`` times set-up in :data:`SETUP_SAMPLES` fresh processes (the
last of which goes on to measure for ``S`` seconds with no wrapper
installed) and prints every end-to-end metric.  ``--trace 1`` spends a
third of ``S`` on an untraced run and the rest on a traced one, and
prints every per-layer metric; the ratio of the two speeds is the
tracing overhead.  The last line of standard output is the result
object of the builder's contract; the full record, with the hardware it
was taken on, goes to ``perf/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from statistics import median
from typing import List

from perf import DEFAULT_SEED, OUT_DIR, REPO_ROOT, child_env

SETUP_SAMPLES = 3
#: A run is refused by the driver at 180 s; fail on our own before that.
CHILD_TIMEOUT_S = 150


def load_benchmark() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class Probe:
    """A :mod:`perf.probe` process watching the CPU the engine is pinned
    to, for as long as the ``with`` block runs."""

    def __init__(self):
        cpus = sorted(os.sched_getaffinity(0))
        self.engine_cpu, self.loader_cpu = cpus[0], cpus[-1]
        os.makedirs(OUT_DIR, exist_ok=True)
        self.path = os.path.join(OUT_DIR, "probe-%d.log" % os.getpid())

    def __enter__(self) -> "Probe":
        self._process = subprocess.Popen(
            [sys.executable, "-m", "perf.probe", str(self.engine_cpu),
             self.path],
            env=child_env(), cwd=REPO_ROOT,
        )
        # Set-up intervals start right away: have a sample by then.
        deadline = time.monotonic() + 10
        while not (os.path.exists(self.path) and os.path.getsize(self.path)):
            if self._process.poll() is not None:
                raise RuntimeError("perf.probe exited early")
            if time.monotonic() > deadline:
                self.__exit__()
                raise RuntimeError("perf.probe wrote no sample")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc_info) -> None:
        self._process.terminate()
        self._process.wait()
        if os.path.exists(self.path):
            os.remove(self.path)

    def child_args(self) -> List[str]:
        return ["--probe-log", self.path,
                "--engine-cpu", str(self.engine_cpu),
                "--loader-cpu", str(self.loader_cpu)]


def spawn_child(probe: Probe, workload: str, seed: int, seconds: float,
                trace: int, setup_only: bool = False) -> dict:
    """Run :mod:`perf.child` in a fresh process; its last line of output
    is its report."""
    command = [
        sys.executable, "-m", "perf.child", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace),
    ] + probe.child_args()
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.monotonic())]
    # Its own process group, so that a child that hangs is stopped with
    # everything it started (the TCP workload's server).
    child = subprocess.Popen(
        command, env=child_env(), cwd=REPO_ROOT, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    if child.returncode:
        raise RuntimeError(
            "%s exited with code %d" % (" ".join(command), child.returncode)
        )
    return json.loads(output.strip().splitlines()[-1])


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def hardware(probe: Probe, report: dict, seconds: float) -> dict:
    """Where and how a record was taken.  ``serve_tcp_closed`` needs the
    server and the loader on a CPU each, so with fewer than two it is
    marked degenerate."""
    cpus = len(os.sched_getaffinity(0))
    return {
        "cpus_available": cpus,
        "engine_cpu": probe.engine_cpu,
        "loader_cpu": probe.loader_cpu,
        "loader_threads": report["loader_threads"],
        "degenerate": report["workload"] == "serve_tcp_closed" and cpus < 2,
        "executor": "serial",
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "seconds": seconds,
        "seed": report["seed"],
        "commit": commit(),
    }


def speed(report: dict) -> float:
    """What tracing overhead is a ratio of: the rate, or for the open
    loop (whose rate is fixed by its schedule) the inverse latency."""
    if report["workload"] == "serve_inproc_open":
        return 1e3 / report["latency"]["p50_ms"]
    return report["ops_per_sec"]


def _children(probe: Probe, workload: str, seed: int, seconds: float,
              trace: int):
    """The child processes of one run: ``(their reports, metric values)``."""
    if trace:
        plain = spawn_child(probe, workload, seed, seconds / 3, 0)
        traced = spawn_child(probe, workload, seed, seconds * 2 / 3, 1)
        values = dict(traced["per_layer"])
        values["trace.overhead_ratio"] = speed(traced) / speed(plain)
        return [plain, traced], values
    setups = [
        spawn_child(probe, workload, seed, seconds, 0, setup_only=True)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    report = spawn_child(probe, workload, seed, seconds, 0)
    report["setup_samples"] = setups
    return [report], {
        "setup_s": median(s["setup_s"] for s in setups + [report]),
        "ops_per_sec": report["ops_per_sec"],
        "latency_p50_ms": report["latency"]["p50_ms"],
        "latency_p90_ms": report["latency"]["p90_ms"],
        "bits_per_value_bit": report["bits_per_value_bit"],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One complete run; returns the record ``perf/out`` keeps."""
    benchmark = load_benchmark()
    with Probe() as probe:
        reports, values = _children(probe, workload, seed, seconds, trace)
    declared = benchmark["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(values):
        raise RuntimeError(
            "metrics do not match BENCHMARK.json: %s"
            % sorted(set(units) ^ set(values))
        )
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    record = {
        "workload": workload,
        "trace": trace,
        "hardware": hardware(probe, reports[-1], seconds),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": [error for r in reports for error in r["errors"]],
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
        "reports": reports,
    }
    if trace:
        loadgen = values["serving.loadgen_cpu_share"]
        # Above this the loader, not the server, is what is being timed.
        record["hardware"]["loadgen_bound"] = loadgen > 0.8
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result-%s-trace%d.json" % (workload, trace))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    return record


def print_record(record: dict) -> None:
    """Every metric by name with its unit, then the contract's result
    object as the last line."""
    hw = record["hardware"]
    print("# %s  trace=%d  seed=%d  seconds=%s  cpus=%d  python=%s  "
          "numpy=%s  commit=%s%s" % (
              record["workload"], record["trace"], hw["seed"], hw["seconds"],
              hw["cpus_available"], hw["python"], hw["numpy"],
              hw["commit"][:12],
              "  DEGENERATE(<2 cpus)" if hw["degenerate"] else ""))
    for name, metric in record["metrics"].items():
        print("%-40s %16.6f %s" % (name, metric["value"], metric["unit"]))
    for report in record["reports"]:
        latency, clocked = report["latency"], report["as_clocked"]
        tag = "  (traced)" if report["trace"] else ""
        print("# latency of %d operations: q1 %.3f  median %.3f  q3 %.3f  "
              "p99 %.3f ms%s" % (
                  latency["samples"], latency["q1_ms"], latency["p50_ms"],
                  latency["q3_ms"], latency["p99_ms"], tag))
        print("# as clocked, before scaling by the probe (%.2f ms, quiet "
              "machine %.2f ms): %.4f ops/s, latency p50 %.3f p90 %.3f ms, "
              "set-up %.3f s%s" % (
                  report["probe"]["median_s"] * 1e3,
                  report["probe"]["ref_s"] * 1e3, clocked["ops_per_sec"],
                  clocked["latency"]["p50_ms"], clocked["latency"]["p90_ms"],
                  report["setup_s_as_clocked"], tag))
    for error in record["errors"]:
        print("# WRONG: %s" % error)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv: List[str]) -> int:
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        print("perf: no src/repro beside perf/ - nothing to benchmark",
              file=sys.stderr)
        return 2
    names = [w["name"] for w in load_benchmark()["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m perf run")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print_record(measure(args.workload, args.seed, args.seconds, args.trace))
    return 0


def main_all(argv: List[str]) -> int:
    """``python -m perf all``: every workload, one after another, each
    run in fresh processes — untraced ``--repeats`` times, then traced
    once — written to ``--out`` for :mod:`perf.compare`."""
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(prog="python -m perf all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced pass")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "all.json"))
    args = parser.parse_args(argv)
    records = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in [0] * args.repeats + ([] if args.no_trace else [1]):
            record = measure(workload, args.seed, args.seconds, trace)
            print_record(record)
            records.append(record)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump({"claim": None, "records": records}, handle, indent=1)
    print("# wrote %s" % args.out)
    return 0 if all(record["correct"] for record in records) else 1
