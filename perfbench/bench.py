"""Set-up, replay, output checks and metrics of one benchmark run.

One run sets the workload up several times (``setup_s`` is their
median), then replays the trip stream through
``Simulation.run()`` again and again on fresh simulations until its time
is up. Every replay of one seed must make the same assignments, and
every replay is checked: ``verify_service_guarantees()`` returns ``[]``,
every request is either assigned or rejected, and nothing raised. A
replay that fails a check counts all its requests as failed.

With tracing on, the run alternates untraced and traced replays: the
untraced ones give the base for ``tracing_overhead``, the traced ones
the per-layer ledger (:mod:`perfbench.layers`).

Every reported time is in reference seconds (:mod:`perfbench.hostspeed`);
the wall-clock figures are printed alongside.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter as clock

import numpy as np

from perfbench.hostspeed import NATIVE_REFERENCE_S, ReplaySpeed, native_probe
from perfbench.layers import instrument, per_layer_metrics
from perfbench.spans import SpanRecorder
from perfbench.workloads import (
    WORKLOADS,
    Workload,
    input_digest,
    make_city,
    make_trips,
)
from repro.dispatch import BatchDispatcher, PendingQuotes, QuoteService
from repro.roadnet.matrix import MatrixEngine
from repro.sim.events import EventQueue
from repro.sim.simulator import Simulation

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


@dataclass
class Setup:
    """Generated inputs and the engine built over them."""

    workload: Workload
    seed: int
    trips: list
    engine: MatrixEngine
    digest: str
    #: Reference seconds of the set-up and of its all-pairs build.
    seconds: float
    engine_seconds: float
    wall_seconds: float

    def simulation(self) -> Simulation:
        return Simulation(self.engine, self.workload.config(self.seed), self.trips)


@dataclass
class Replay:
    """Outcome of one ``Simulation.run()``."""

    requests: int
    #: Reference seconds of ``Simulation.run()``.
    seconds: float
    ok: bool
    wall_seconds: float = 0.0
    assigned: int = 0
    rejected: int = 0
    violations: int = 0
    digest: str = ""
    flush_s: list[float] = field(default_factory=list)
    waits: list[float] = field(default_factory=list)
    detours: list[float] = field(default_factory=list)
    ledger: dict | None = None
    counters: dict | None = None


def set_up(workload: Workload, seed: int, num_trips: int | None = None) -> Setup:
    """Generate the city and trips, build the all-pairs engine and
    construct a ``Simulation`` (discarded: replays build their own),
    scaled by the native probes taken before and after."""
    before = native_probe()
    t0 = clock()
    city = make_city(workload)
    trips = make_trips(workload, city, seed, num_trips)
    t1 = clock()
    engine = MatrixEngine(city)
    t2 = clock()
    Simulation(engine, workload.config(seed), trips)
    t3 = clock()
    scale = NATIVE_REFERENCE_S / ((before + native_probe()) / 2)
    return Setup(
        workload=workload,
        seed=seed,
        trips=trips,
        engine=engine,
        digest=input_digest(city, trips),
        seconds=(t3 - t0) * scale,
        engine_seconds=(t2 - t1) * scale,
        wall_seconds=t3 - t0,
    )


def assignment_digest(report) -> str:
    """Fingerprint of the run's decisions: request -> vehicle, in
    request-id order, plus the request count."""
    h = hashlib.sha256(str(report.num_requests).encode())
    for rid in sorted(report.service_log):
        vehicle = report.service_log[rid].get("vehicle")
        if vehicle is not None:
            h.update(f"{rid}:{vehicle};".encode())
    return h.hexdigest()[:16]


def replay(setup: Setup, traced: bool) -> Replay:
    """One replay on a fresh ``Simulation``, with the flush clock and the
    host-speed probe always on and the full per-layer instrumentation
    when ``traced``."""
    requested = len(setup.trips)
    sim = setup.simulation()
    recorder = SpanRecorder()
    speed = ReplaySpeed()
    try:
        with recorder:
            recorder.flush_spans(QuoteService, PendingQuotes, BatchDispatcher)
            speed.watch(recorder, EventQueue)
            if traced:
                instrument(recorder)
            t0 = clock()
            report = sim.run()
            t1 = clock()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Replay(requests=requested, seconds=0.0, ok=False)
    violations = report.verify_service_guarantees()
    for line in violations[:5]:
        print(f"violation: {line}", file=sys.stderr)
    ok = (
        not violations
        and report.num_requests == requested
        and report.num_assigned + report.num_rejected == requested
    )
    waits, detours = [], []
    for entry in report.service_log.values():
        request, picked = entry.get("request"), entry.get("pickup")
        if request is None or picked is None:
            continue
        waits.append(picked - request.request_time)
        dropped = entry.get("dropoff")
        if dropped is not None:
            detours.append((dropped - picked) / request.direct_cost)
    start, end = speed.reference([t0, t1])
    return Replay(
        requests=requested,
        seconds=end - start,
        ok=ok,
        wall_seconds=t1 - t0 - speed.probe_seconds(),
        assigned=report.num_assigned,
        rejected=report.num_rejected,
        violations=len(violations),
        digest=assignment_digest(report),
        flush_s=recorder.flush_seconds(speed.reference),
        waits=waits,
        detours=detours,
        ledger=recorder.ledger(speed.reference) if traced else None,
        counters=dict(recorder.counters) if traced else None,
    )


@dataclass
class RunResult:
    """What one benchmark run prints."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict[str, float | str]]
    lines: list[str]
    assignment_digest: str = ""
    traced_digest: str = ""

    def as_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    num_trips: int | None = None,
) -> RunResult:
    """One benchmark run: set up, replay until ``seconds`` of replay
    time are spent (a round of replays is started only if it is expected
    to end in time, but one round always runs), check and summarize."""
    workload = WORKLOADS[workload_name]
    setup_s, setup_wall_s, engine_s, input_digests = [], [], [], set()
    setup = None
    for _ in range(SETUPS):
        # Drop the previous set-up first: one all-pairs table at a time.
        setup = None
        gc.collect()
        setup = set_up(workload, seed, num_trips)
        setup_s.append(setup.seconds)
        setup_wall_s.append(setup.wall_seconds)
        engine_s.append(setup.engine_seconds)
        input_digests.add(setup.digest)
    inputs_repeat = len(input_digests) == 1

    kinds = (False, True) if trace else (False,)
    replays: dict[bool, list[Replay]] = {kind: [] for kind in kinds}
    spent = 0.0
    longest = 0.0
    while True:
        for kind in kinds:
            started = clock()
            replays[kind].append(replay(setup, kind))
            # Free the replay's simulation now, so that the peak memory
            # does not depend on when the collector happened to run.
            gc.collect()
            elapsed = clock() - started
            spent += elapsed
            longest = max(longest, elapsed)
        failed_replay = not all(r.ok for rs in replays.values() for r in rs)
        if failed_replay or spent + longest * len(kinds) > seconds:
            break

    every = [r for rs in replays.values() for r in rs]
    untraced = replays[False]
    digests = {r.digest for r in every}
    flush_counts = {len(r.flush_s) for r in every}
    correct = (
        inputs_repeat
        and len(digests) == 1
        and len(flush_counts) == 1
        and all(r.ok for r in every)
    )
    attempted = sum(r.requests for r in every)
    failed = sum(r.requests for r in every if not r.ok)
    first = untraced[0]
    lines = [
        f"workload {workload.name} seed {seed} trips {len(setup.trips)} "
        f"replays {len(untraced)} untraced"
        + (f", {len(replays[True])} traced" if trace else ""),
        f"input digest {setup.digest} (repeats across {SETUPS} set-ups: "
        f"{inputs_repeat})",
        "assignment digests " + ", ".join(sorted(digests)),
        f"assigned {first.assigned} rejected {first.rejected} "
        f"violations {max(r.violations for r in every)}",
    ]
    result = RunResult(
        correct=correct,
        attempted=attempted,
        failed=failed,
        metrics={},
        lines=lines,
        assignment_digest=first.digest,
    )
    if not all(r.ok for r in every):
        return result

    rate = sum(r.requests for r in untraced) / sum(r.seconds for r in untraced)
    if trace:
        traced = replays[True]
        result.traced_digest = traced[0].digest
        traced_rate = sum(r.requests for r in traced) / sum(r.seconds for r in traced)
        metrics, ledger, repeat = per_layer_metrics(
            [r.ledger for r in traced],
            [r.counters for r in traced],
            engine_build_s=statistics.median(engine_s),
            tracing_overhead=traced_rate / rate - 1.0,
        )
        result.correct = result.correct and repeat
        result.metrics = metrics
        lines.append(
            f"traced counters repeat across {len(traced)} traced replays: {repeat}"
        )
        lines.append(f"{'span':<24}{'calls':>10}{'busy_s':>10}{'self_s':>10}")
        for name, row in sorted(
            ledger.items(), key=lambda item: -item[1]["self_s"]
        ):
            lines.append(
                f"{name:<24}{row['calls']:>10}{row['busy_s']:>10.3f}"
                f"{row['self_s']:>10.3f}"
            )
        return result

    # Every replay makes the same flushes (same inputs, same decisions),
    # so a flush's time is the mean over its repeats.
    flushes = np.mean([r.flush_s for r in untraced], axis=0)
    p50, p90 = (float(p) for p in np.percentile(flushes, [50, 90]))
    lines.append(
        "replay req/s, reference (wall): "
        + " ".join(
            f"{r.requests / r.seconds:.1f} ({r.requests / r.wall_seconds:.1f})"
            for r in untraced
        )
    )
    lines.append(
        "set-up s, reference (wall): "
        + " ".join(f"{a:.3f} ({b:.3f})" for a, b in zip(setup_s, setup_wall_s))
    )
    lines.append(
        f"flushes {len(flushes)}, each the mean of {len(untraced)} repeats: "
        f"p50 {p50 * 1e3:.3f} ms (n={len(flushes)}), "
        f"p90 {p90 * 1e3:.3f} ms (n={len(flushes)}, "
        f"{int(np.sum(flushes > p90))} beyond)"
    )
    result.metrics = {
        "requests_per_s": {"value": rate, "unit": "req/s"},
        "flush_ms_p50": {"value": p50 * 1e3, "unit": "ms"},
        "flush_ms_p90": {"value": p90 * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "service_rate": {"value": first.assigned / first.requests, "unit": "fraction"},
        "pickup_wait_s_mean": {"value": statistics.fmean(first.waits), "unit": "s"},
        "detour_ratio_mean": {
            "value": statistics.fmean(first.detours),
            "unit": "ratio",
        },
    }
    return result
