"""The five workloads: generators, drivers and output checks.

Inputs are a pure function of ``(workload, seed, unit index)`` — unit
``i`` of a run is the same instances whether the run reaches 10 units
or 1000 — so a run measures for a fixed *time* (``--seconds``) over
whole units and still has deterministic inputs.  The program under test
only ever sees the generated instances.

Every workload exposes the same steps to :mod:`perf.child`: ``setup``
(build the deployment, warm it), ``measure(seconds)`` (which only
clocks), ``report(scale)`` (the run's figures, each duration first
multiplied by ``scale(start, end)`` — see :mod:`perf.probe`), ``close``
and ``peak_rss_mb``.  Each result is checked as it arrives
(:func:`check_result`) and folded into a :class:`Tally`; nothing but
counters and latency samples is retained, so memory does not grow with
the run length.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import resource
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perf import REPO_ROOT, child_env
from repro import audit
from repro.core.result import ConsensusResult
from repro.processors import FAULT_GRID_ATTACKS
from repro.service import ConsensusService, InstanceSpec, RunSpec
from repro.service.serving import ConsensusServer, ServingClient


#: The serving traffic mix: five honest requests to three adversarial.
SERVING_CYCLE = (
    "none", "none", "none", "corrupt", "none", "crash", "none",
    "trust_poison",
)
SERVING_SPEC = RunSpec(n=7, l_bits=1024)
CHUNK = 32
CONNECTIONS = 2
#: About a third of what the in-process server sustains on one contended
#: vCPU, so a slow spell queues nothing.
OPEN_LOOP_RATE = 250.0


def unit_rng(workload: str, seed: int, *unit) -> random.Random:
    """The generator of one unit's inputs (string seeds hash through
    sha512, so the stream is the same on every platform)."""
    return random.Random("/".join(map(str, (workload, seed) + unit)))


# -- checking ---------------------------------------------------------------


def check_result(
    inputs: Sequence[int], result: ConsensusResult, t: int
) -> Optional[str]:
    """Why ``result`` is wrong for an instance with ``inputs``, or
    ``None``.  Recomputed from the inputs, not from the result's own
    ``honest_inputs_equal`` flag: the fault-free processors are the ones
    that hold a decision."""
    if not result.consistent:
        return "fault-free processors decided differently"
    if not result.valid:
        return "validity violated"
    honest = {inputs[pid] for pid in result.decisions}
    if len(honest) == 1 and result.value != next(iter(honest)):
        return "decided a value other than the common honest input"
    if result.diagnosis_count > t * (t + 1):
        return "more than t(t+1) diagnosis stages"
    return None


def _stage_of(tag: str) -> str:
    # Meter tags read "gen<g>.<stage>.<what>"; Eq. (1) has one term per
    # stage.
    parts = tag.split(".")
    return parts[1] if len(parts) > 1 else "other"


class Tally:
    """Running totals over checked results: the failure count, the
    paper's metered cost split by Eq. (1) stage, and the digest of the
    run's *pinned* units (the first ones, which every run reaches)."""

    STAGES = ("matching", "checking", "diagnosis")

    def __init__(self, spec: RunSpec):
        self.t = spec.resolved_t
        self.l_bits = spec.l_bits
        #: messages one modelled Broadcast_Single_Bit instance counts as.
        self._per_broadcast = spec.n * (spec.n - 1)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.instances = 0
        self.total_bits = 0
        self.stage_bits = dict.fromkeys(self.STAGES, 0)
        self.network_messages = 0
        self.broadcast_instances = 0
        self.diagnoses = 0
        self.edges_removed = 0
        self.generation_records = 0
        self._digest = hashlib.sha256()
        self._lock = threading.Lock()

    def fail(self, why: str, count: int = 1) -> None:
        with self._lock:
            self.failed += count
            if len(self.errors) < 5:
                self.errors.append(why)

    def attempt(self, count: int) -> None:
        with self._lock:
            self.attempted += count

    def add(self, inputs: Sequence[int], result: ConsensusResult) -> bool:
        """Check one result and fold its meter in; True when right."""
        why = check_result(inputs, result, self.t)
        with self._lock:
            self.instances += 1
            self.total_bits += result.total_bits
            for tag, bits in result.meter.bits_by_tag.items():
                stage = _stage_of(tag)
                if stage in self.stage_bits:
                    self.stage_bits[stage] += bits
            for tag, count in result.meter.messages_by_tag.items():
                # Only the matching-stage symbol exchange crosses the
                # point-to-point network; every other tag is broadcast.
                if tag.endswith(".matching.symbols"):
                    self.network_messages += count
                else:
                    self.broadcast_instances += count // self._per_broadcast
            self.diagnoses += result.diagnosis_count
            self.generation_records += len(result.generation_results)
            for record in result.generation_results:
                self.edges_removed += len(record.removed_edges)
        if why is not None:
            self.fail(why)
        return why is None

    def pin(self, result: ConsensusResult, extra: tuple = ()) -> None:
        """Fold one pinned result into the digest (call in unit order)."""
        # Hex: decimal conversion of a 2^16-bit value is slow and capped.
        self._digest.update(repr((
            [(pid, "%x" % value)
             for pid, value in sorted(result.decisions.items())],
            result.total_bits,
            result.meter.total_messages,
        ) + extra).encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def bits_per_value_bit(self) -> float:
        return self.total_bits / (self.instances * self.l_bits)


def percentile(ordered: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile of a sorted sample."""
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(sorted(values), 50)


#: One timed call: (when it ended on ``time.monotonic()``, seconds taken).
Sample = Tuple[float, float]
#: ``scale(start, end)``: what to multiply a duration clocked over that
#: interval by to state it at the reference machine speed (perf.probe).
Scale = Callable[[float, float], float]


def as_clocked(start: float, end: float) -> float:
    return 1.0


def rescaled(samples: Sequence[Sample], scale: Scale) -> List[Sample]:
    return [(end, took * scale(end - took, end)) for end, took in samples]


def softened(scale: Scale, exponent: float) -> Scale:
    """``scale`` raised to a workload's ``PROBE_EXPONENT``: how much of
    the probe's slowdown the workload shares.  The probe is small-array
    numpy arithmetic, the most contention-sensitive code there is here;
    the engines are made of the same and follow it one for one
    (exponent 1), while ``json``/``asyncio``-heavy serving follows it
    about half way.  Fitted as the slope of log(duration as clocked)
    against log(probe) over ten runs that caught the machine in both
    states; a wrong exponent leaves noise in, it cannot hide a change."""
    if exponent == 1.0:
        return scale
    return lambda start, end: scale(start, end) ** exponent


def by_window(
    samples: Sequence[Sample], start: float, width: float
) -> List[List[float]]:
    """Durations grouped into whole ``width``-second windows by end time
    (the partial last window is dropped when there is another)."""
    windows: Dict[int, List[float]] = {}
    for end, took in samples:
        windows.setdefault(int((end - start) / width), []).append(took)
    if len(windows) > 1:
        windows.pop(max(windows))
    return [windows[key] for key in sorted(windows)]


def latency_block(groups: Sequence[Sequence[float]]) -> dict:
    """One run's latencies in milliseconds.  ``groups`` are the
    durations of successive stretches of the run (a window of time, or
    one pass over the attack grid); p50 and p90, the gated figures, are
    the **median over groups** of each group's percentile, so a stalled
    stretch moves one group and not the reported number.  The quartiles
    and p99 are over all samples."""
    ordered = sorted(took for group in groups for took in group)
    p50, p90 = (
        median([percentile(sorted(group), p) for group in groups])
        for p in (50, 90)
    )
    return {
        "p50_ms": p50 * 1e3,
        "p90_ms": p90 * 1e3,
        "q1_ms": percentile(ordered, 25) * 1e3,
        "q3_ms": percentile(ordered, 75) * 1e3,
        "p99_ms": percentile(ordered, 99) * 1e3,
        "samples": len(ordered),
        "groups": len(groups),
    }


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb_of(pid: int) -> float:
    """Peak resident size of another process of ours, so far."""
    with open("/proc/%d/status" % pid) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# -- serving: request generation --------------------------------------------


def serving_chunk(workload: str, seed: int, *unit) -> List[InstanceSpec]:
    """``CHUNK`` requests: four turns of :data:`SERVING_CYCLE`, a fresh
    random value and adversary seed per request."""
    rng = unit_rng(workload, seed, *unit)
    n, l_bits = SERVING_SPEC.n, SERVING_SPEC.l_bits
    return [
        InstanceSpec(
            inputs=(rng.getrandbits(l_bits),) * n,
            attack=SERVING_CYCLE[i % len(SERVING_CYCLE)],
            seed=rng.getrandbits(31),
        )
        for i in range(CHUNK)
    ]


class Workload:
    """What :mod:`perf.child` reads off any workload; the serving and
    audit workloads overwrite the figures that apply to them."""

    name: str
    spec: RunSpec
    #: See :func:`softened`.
    PROBE_EXPONENT = 1.0
    tally: Tally
    elapsed_s = 0.0
    loader_threads = 1
    server_stats: dict = {}
    wire_sample: Sequence[ConsensusResult] = ()
    loader_cpu_share = 0.0
    late_p99_ms = 0.0
    transcript_entries = 0
    #: ``Recorder.span`` in a traced run, for threads a workload starts.
    root_span = None


class ServeTcpClosed(Workload):
    """Closed loop over TCP against a ``repro-sim serve`` child."""

    name = "serve_tcp_closed"
    spec = SERVING_SPEC
    loader_threads = CONNECTIONS
    SAMPLE_CHUNKS = 4
    #: Throughput is the median over windows this wide (about 50 chunks).
    RATE_WINDOW_S = 2.0
    #: Fitted slope 0.54-0.60 (throughput, p50, p90): half the request
    #: path is pure-Python JSON and event-loop work.
    PROBE_EXPONENT = 0.55
    #: Peak memory is read when a connection has this many chunks back:
    #: the server's caches grow with every request, so memory is stated
    #: at a fixed amount of work, not at whatever a run's time allowed.
    RSS_AFTER_CHUNKS = 40

    def __init__(
        self,
        seed: int,
        server_argv: Optional[List[str]] = None,
        server_cpu: Optional[int] = None,
    ):
        self.seed = seed
        #: argv prefix that starts the server; the traced run passes the
        #: perf launcher that patches and then calls ``repro.cli.main``.
        self.server_argv = server_argv or [sys.executable, "-m", "repro.cli"]
        #: CPU to pin the server to (where the probe is watching).
        self.server_cpu = server_cpu
        self.tally = Tally(self.spec)
        self.proc: Optional[subprocess.Popen] = None
        self.clients: List[ServingClient] = []
        self.samples: List[Sample] = []
        self.start = 0.0
        self.rss_mb = 0.0

    def chunk(self, conn: int, index) -> List[InstanceSpec]:
        return serving_chunk(self.name, self.seed, "conn%d" % conn, index)

    def pinned(self) -> List[InstanceSpec]:
        return [
            request for conn in range(CONNECTIONS)
            for request in self.chunk(conn, 0)
        ]

    def _pin_server(self) -> None:
        try:
            os.sched_setaffinity(0, {self.server_cpu})
        except OSError:
            pass  # not allowed here: the server runs unpinned

    def setup(self) -> None:
        self.proc = subprocess.Popen(
            self.server_argv + [
                "serve", "--n", str(self.spec.n),
                "--l-bits", str(self.spec.l_bits), "--port", "0",
            ],
            stdout=subprocess.PIPE, text=True, env=child_env(),
            cwd=REPO_ROOT,
            preexec_fn=None if self.server_cpu is None else self._pin_server,
        )
        banner = self.proc.stdout.readline()
        if " on " not in banner:
            raise RuntimeError("server did not start: %r" % banner)
        port = int(banner.rsplit(":", 1)[1])
        self.clients = [
            ServingClient(port=port, timeout=60.0)
            for _ in range(CONNECTIONS)
        ]
        for conn, client in enumerate(self.clients):
            self._submit(client, self.chunk(conn, "warmup"))

    def _submit(self, client, chunk) -> List[ConsensusResult]:
        self.tally.attempt(len(chunk))
        results = client.submit_many(chunk)
        if len(results) != len(chunk):
            self.tally.fail("short reply", len(chunk) - len(results))
        for instance, result in zip(chunk, results):
            self.tally.add(instance.inputs, result)
        return results

    def measure(self, seconds: float) -> None:
        samples: List[List[Sample]] = [[] for _ in self.clients]
        # The first chunks of each connection: chunk 0 is pinned in the
        # digest, and together they are the wire-size sample.
        kept: List[List[ConsensusResult]] = [[] for _ in self.clients]
        failures: List[BaseException] = []
        self.start = time.monotonic()
        deadline = self.start + seconds

        def load(conn: int) -> None:
            client = self.clients[conn]
            index = 0
            try:
                while True:
                    chunk = self.chunk(conn, index)
                    sent = time.monotonic()
                    results = self._submit(client, chunk)
                    done = time.monotonic()
                    samples[conn].append((done, done - sent))
                    if index < self.SAMPLE_CHUNKS:
                        kept[conn].extend(results)
                    index += 1
                    if conn == 0 and index == self.RSS_AFTER_CHUNKS:
                        self.rss_mb = rss_mb_of(self.proc.pid)
                    if done >= deadline:
                        return
            except BaseException as exc:  # re-raised on the main thread
                failures.append(exc)

        def rooted(conn: int) -> None:
            if self.root_span is None:
                return load(conn)
            with self.root_span("loader"):
                load(conn)

        threads = [
            threading.Thread(
                target=rooted, args=(conn,), name="loader-%d" % conn
            )
            for conn in range(len(self.clients))
        ]
        cpu_before = time.process_time()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.elapsed_s = time.monotonic() - self.start
        self.loader_cpu_share = (
            (time.process_time() - cpu_before) / self.elapsed_s
        )
        if failures:
            raise failures[0]
        for results in kept:
            for result in results[:CHUNK]:
                self.tally.pin(result)
        self.wire_sample = [r for results in kept for r in results]
        self.samples = sorted(s for per_conn in samples for s in per_conn)

    def report(self, scale: Scale = as_clocked) -> dict:
        scale = softened(scale, self.PROBE_EXPONENT)
        width = self.RATE_WINDOW_S
        windows = by_window(self.samples, self.start, width)
        if self.elapsed_s >= 2 * width:
            # Requests finished in each whole window, over the window's
            # length at the reference machine speed.
            rate = median([
                len(chunks) * CHUNK / (width * scale(
                    self.start + k * width, self.start + (k + 1) * width
                ))
                for k, chunks in enumerate(windows)
            ])
        else:
            rate = len(self.samples) * CHUNK / (self.elapsed_s * scale(
                self.start, self.start + self.elapsed_s
            ))
        return {
            "ops_per_sec": rate,
            "latency": latency_block(
                by_window(rescaled(self.samples, scale), self.start, width)
            ),
        }

    def close(self) -> None:
        if self.clients and self.proc.poll() is None:
            # Hang up the other connections first: the server cancels a
            # handler that is still reading when it shuts down.
            for client in self.clients[1:]:
                client.close()
            try:
                self.server_stats = self.clients[0].ps()["stats"]
                self.clients[0].shutdown()
            finally:
                self.clients[0].close()
        if self.proc is not None:
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def peak_rss_mb(self) -> float:
        # A run too short for RSS_AFTER_CHUNKS reads the end-of-life peak
        # (the only child this process has waited for is the server).
        return self.rss_mb or (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )


class ServeInprocOpen(Workload):
    """Open loop at a fixed offered rate into an in-process server."""

    name = "serve_inproc_open"
    spec = SERVING_SPEC
    #: p50/p90 are medians over windows this wide.
    LATENCY_WINDOW_S = 1.0
    #: Fitted slope 0.09: at this offered rate latency is the batching
    #: window plus a short flush, and does not follow CPU speed.  The
    #: figures of this workload are as clocked.
    PROBE_EXPONENT = 0.0

    def __init__(self, seed: int):
        self.seed = seed
        self.tally = Tally(self.spec)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[ConsensusServer] = None
        self.samples: List[Sample] = []
        self.start = 0.0

    def requests(self, count: int) -> List[InstanceSpec]:
        chunks = -(-count // CHUNK)
        flat = [
            request
            for index in range(chunks)
            for request in serving_chunk(self.name, self.seed, index)
        ]
        return flat[:count]

    def pinned(self) -> List[InstanceSpec]:
        return self.requests(CHUNK)

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()

        async def start():
            self.server = ConsensusServer(self.spec)
            await self.server.start()
            warmup = serving_chunk(self.name, self.seed, "warmup")
            self.tally.attempt(len(warmup))
            results = await asyncio.gather(
                *(self.server.submit(request) for request in warmup)
            )
            for request, result in zip(warmup, results):
                self.tally.add(request.inputs, result)

        self.loop.run_until_complete(start())

    def measure(self, seconds: float) -> None:
        cycle = len(SERVING_CYCLE)
        # Whole cycles (the cost per value bit is then exact), and at
        # least the pinned first chunk.
        count = max(CHUNK, int(OPEN_LOOP_RATE * seconds) // cycle * cycle)
        self.loop.run_until_complete(self._drive(self.requests(count)))

    async def _drive(self, requests: List[InstanceSpec]) -> None:
        server, tally = self.server, self.tally
        clock = time.monotonic
        samples = self.samples = []
        late: List[float] = []
        pinned: List[Optional[ConsensusResult]] = [None] * CHUNK

        async def one(index: int, due: float) -> None:
            request = requests[index]
            try:
                result = await server.submit(request)
            except Exception as exc:  # rejected or failed: counted
                tally.fail("%s: %s" % (type(exc).__name__, exc))
                return
            done = clock()
            samples.append((done, done - due))
            # Checked here and dropped: a run's worth of retained
            # results would put the garbage collector in the latency.
            tally.add(request.inputs, result)
            if index < CHUNK:
                pinned[index] = result

        tally.attempt(len(requests))
        self.start = clock() + 0.01
        tasks = []
        for index in range(len(requests)):
            due = self.start + index / OPEN_LOOP_RATE
            wait = due - clock()
            if wait > 0:
                await asyncio.sleep(wait)
            late.append(clock() - due)
            tasks.append(asyncio.create_task(one(index, due)))
        await asyncio.gather(*tasks)
        self.elapsed_s = clock() - self.start
        for result in pinned:
            if result is not None:
                tally.pin(result)
        self.late_p99_ms = percentile(sorted(late), 99) * 1e3

    def report(self, scale: Scale = as_clocked) -> dict:
        scale = softened(scale, self.PROBE_EXPONENT)
        return {
            # Set by the schedule, not by the machine: never rescaled.
            "ops_per_sec": len(self.samples) / self.elapsed_s,
            "latency": latency_block(by_window(
                rescaled(self.samples, scale), self.start,
                self.LATENCY_WINDOW_S,
            )),
        }

    def close(self) -> None:
        if self.server is not None:
            self.server_stats = self.server.stats.snapshot()
            self.loop.run_until_complete(self.server.stop())
        if self.loop is not None:
            self.loop.close()

    peak_rss_mb = staticmethod(self_rss_mb)


# -- batch and audit: whole passes until the time is up ----------------------


class _Passes(Workload):
    """Shared driver: run whole passes until ``seconds`` have gone by.
    One latency sample per *call into the program* (a ``run_many`` pass,
    or one audit); the rate comes from the median pass."""

    #: Fitted slopes 0.9-1.0 on all three pass workloads.
    PROBE_EXPONENT = 1.0
    #: Peak memory is read after this many passes (see ServeTcpClosed).
    RSS_AFTER_PASSES: int

    def __init__(self, seed: int):
        self.seed = seed
        self.tally = Tally(self.spec)
        self.service: Optional[ConsensusService] = None
        self.rss_mb = 0.0
        self.samples: List[Sample] = []
        #: ``samples[a:b]`` are the calls of one pass.
        self.pass_bounds: List[Tuple[int, int]] = []
        self.per_pass = 0.0
        self.start = 0.0

    def instances(self, index) -> List[InstanceSpec]:
        """Pass ``index``'s instances (``"warmup"``: the warm-up's)."""
        raise NotImplementedError

    def pinned(self) -> List[InstanceSpec]:
        return self.instances(0)

    def run_pass(self, index) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        self.service = ConsensusService(self.spec)
        self.run_pass("warmup")
        self.samples = []

    def measure(self, seconds: float) -> None:
        before = self.tally.attempted
        self.start = time.monotonic()
        while True:
            first = len(self.samples)
            self.run_pass(len(self.pass_bounds))
            self.pass_bounds.append((first, len(self.samples)))
            if len(self.pass_bounds) == self.RSS_AFTER_PASSES:
                self.rss_mb = self_rss_mb()
            if time.monotonic() - self.start >= seconds:
                break
        self.elapsed_s = time.monotonic() - self.start
        self.per_pass = (
            (self.tally.attempted - before) / len(self.pass_bounds)
        )

    def report(self, scale: Scale = as_clocked) -> dict:
        samples = rescaled(
            self.samples, softened(scale, self.PROBE_EXPONENT)
        )
        passes = [
            [took for _, took in samples[first:last]]
            for first, last in self.pass_bounds
        ]
        if len(passes[0]) == 1:
            # One call per pass: the calls are alike, one group of all.
            groups = [[took for _, took in samples]]
        else:
            # A pass holds one call per attack, which differ in cost by
            # 2x: its percentiles are taken within each pass.
            groups = passes
        return {
            # Operations per pass over the *median* pass (time inside
            # the program only): one stalled pass does not move the rate.
            "ops_per_sec": self.per_pass / median(map(sum, passes)),
            "latency": latency_block(groups),
        }

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return self.rss_mb or self_rss_mb()


def grid_instances(workload: "_Passes", index, attacks) -> List[InstanceSpec]:
    """One instance per attack, all processors holding one fresh value."""
    rng = unit_rng(workload.name, workload.seed, index)
    spec = workload.spec
    return [
        InstanceSpec(
            inputs=(rng.getrandbits(spec.l_bits),) * spec.n,
            attack=attack,
            seed=rng.getrandbits(31),
        )
        for attack in attacks
    ]


class _BatchPasses(_Passes):
    def run_pass(self, index) -> None:
        batch = self.instances(index)
        self.tally.attempt(len(batch))
        sent = time.monotonic()
        results = self.service.run_many(batch)
        done = time.monotonic()
        self.samples.append((done, done - sent))
        for instance, result in zip(batch, results):
            self.tally.add(instance.inputs, result)
            if index == 0:
                self.tally.pin(result)


class BatchAdversarialN127(_BatchPasses):
    """``run_many`` over the six fault-grid attacks at n=127."""

    name = "batch_adversarial_n127"
    spec = RunSpec(n=127, l_bits=4096)
    RSS_AFTER_PASSES = 8

    def instances(self, index) -> List[InstanceSpec]:
        return grid_instances(self, index, FAULT_GRID_ATTACKS)


class BatchSplitInputsN7(_BatchPasses):
    """Failure-free ``run_many`` whose honest inputs differ (``a`` on
    five processors, ``b`` on two), so every generation runs the real
    vectorized ``GenerationProtocol``."""

    name = "batch_split_inputs_n7"
    spec = RunSpec(n=7, l_bits=1 << 16)
    PER_PASS = 4
    RSS_AFTER_PASSES = 16

    def instances(self, index) -> List[InstanceSpec]:
        rng = unit_rng(self.name, self.seed, index)
        l_bits = self.spec.l_bits
        return [
            InstanceSpec(
                inputs=(rng.getrandbits(l_bits),) * 5
                + (rng.getrandbits(l_bits),) * 2
            )
            for _ in range(2 if index == "warmup" else self.PER_PASS)
        ]


def audit_one(service: ConsensusService, instance: InstanceSpec):
    """One audit: ``(result, transcript, verify report, proof, why it
    is wrong or None)``."""
    result, transcript = service.record(instance)
    verified = transcript.verify()
    # Looked up on the module at call time, so the traced run's wrapper
    # (installed after this module was imported) is the one called.
    proof = audit.prove(transcript)
    if not verified.ok:
        why = "transcript does not verify"
    elif not proof.ok:
        why = "replay is not byte-identical"
    elif proof.culprits != proof.claimed_faulty:
        why = "%s convicted %r, injected %r" % (
            instance.attack, proof.culprits, proof.claimed_faulty
        )
    else:
        why = None
    return result, transcript, proof, why


class AuditReplayN15(_Passes):
    """``record`` -> ``Transcript.verify`` -> ``prove`` (scalar replay)
    for each fault-grid attack at n=15."""

    name = "audit_replay_n15"
    spec = RunSpec(n=15, l_bits=1 << 12)
    RSS_AFTER_PASSES = 3

    def instances(self, index) -> List[InstanceSpec]:
        return grid_instances(
            self, index,
            FAULT_GRID_ATTACKS[:1] if index == "warmup"
            else FAULT_GRID_ATTACKS,
        )

    def run_pass(self, index) -> None:
        for instance in self.instances(index):
            self.tally.attempt(1)
            sent = time.monotonic()
            result, transcript, proof, why = audit_one(self.service, instance)
            done = time.monotonic()
            self.samples.append((done, done - sent))
            self.transcript_entries += len(transcript.entries)
            right = self.tally.add(instance.inputs, result)
            if right and why is not None:  # one failure per operation
                self.tally.fail(why)
            if index == 0:
                self.tally.pin(result, (proof.culprits,))


WORKLOADS = {
    cls.name: cls
    for cls in (
        ServeTcpClosed, ServeInprocOpen, BatchAdversarialN127,
        BatchSplitInputsN7, AuditReplayN15,
    )
}
