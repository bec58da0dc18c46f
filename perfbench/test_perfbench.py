"""Tests of the dispatch benchmark on shortened trip streams: the
per-layer wrappers fire where the ledger predicts, counts and digests
repeat, the generator is seeded, and the command refuses to run without
the program."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.bench import run
from perfbench.hostspeed import PYTHON_REFERENCE_S, ReplaySpeed
from perfbench.layers import instrument
from perfbench.spans import SpanRecorder
from perfbench.workloads import (
    MIN_TRIP_M,
    START_SECONDS,
    WORKLOADS,
    input_digest,
    make_city,
    make_trips,
)

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TRIPS = 60


@pytest.fixture(scope="module")
def traced():
    return {
        name: run(name, seed=3, seconds=0, trace=True, num_trips=TRIPS)
        for name in WORKLOADS
    }


def values(result) -> dict[str, float]:
    return {name: m["value"] for name, m in result.metrics.items()}


def test_untraced_run_reports_every_end_to_end_metric():
    result = run("immediate", seed=3, seconds=0, trace=False, num_trips=TRIPS)
    assert result.correct and result.failed == 0
    assert result.attempted == TRIPS
    assert set(result.as_json()) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result.metrics.items()} == wanted
    assert all(m["value"] > 0 for m in result.metrics.values())


def test_traced_run_reports_every_per_layer_metric(traced):
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in traced.values():
        assert {k: m["unit"] for k, m in result.metrics.items()} == wanted


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_fire_where_predicted(traced, name):
    result = traced[name]
    assert result.correct and result.failed == 0
    # Telemetry never steers dispatch.
    assert result.traced_digest == result.assignment_digest
    v = values(result)
    for metric in (
        "sim.events",
        "sim.run_s",
        "spatial.update_calls",
        "kinetic.try_insert_calls",
        "kinetic.try_insert_s",
        "kinetic.nodes_built",
        "kinetic.commit_calls",
        "kinetic.advance_calls",
        "roadnet.distance_calls",
        "roadnet.engine_build_s",
        "dispatch.assign_s",
        "dispatch.agent_commit_calls",
        "metrics.record_s",
        "obs.histogram_adds",
    ):
        assert v[metric] > 0, metric
    assert v["spatial.query_calls"] == TRIPS
    if WORKLOADS[name].window_s == 0:
        assert v["matching.submit_calls"] == TRIPS
        assert v["dispatch.solve_calls"] == 0
        assert v["dispatch.quote_columns"] == 0
        assert v["kinetic.screened_share"] == 0
    else:
        for metric in (
            "dispatch.solve_calls",
            "dispatch.solve_cells",
            "dispatch.solve_s",
            "dispatch.plan_columns_s",
            "dispatch.quote_collect_s",
            "dispatch.quote_columns",
            "dispatch.assemble_s",
            "roadnet.distance_many_calls",
            "kinetic.screened_share",
        ):
            assert v[metric] > 0, metric
        # The grid index filters vehicles only on the batched workload.
        assert v["spatial.candidates_mean"] < WORKLOADS[name].vehicles
    assert 0 < v["kinetic.try_insert_feasible_share"] <= 1


def test_traced_counts_repeat_exactly(traced):
    again = run("batched", seed=3, seconds=0, trace=True, num_trips=TRIPS)
    first = values(traced["batched"])
    second = values(again)
    exact = [
        name
        for name in first
        if name.endswith("_calls")
        or name
        in (
            "kinetic.nodes_built",
            "dispatch.solve_cells",
            "roadnet.distance_calls",
            "sim.events",
        )
    ]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    assert again.assignment_digest == traced["batched"].assignment_digest


def test_recorder_restores_every_patched_attribute():
    from repro.dispatch import BatchDispatcher, PendingQuotes, QuoteService
    from repro.dispatch import policies, quoting

    watched = [
        (QuoteService, "begin"),
        (PendingQuotes, "collect"),
        (BatchDispatcher, "dispatch"),
        (quoting, "plan_columns"),
        (policies, "solve_assignment"),
        (policies.LapPolicy, "assign"),
    ]
    before = [getattr(owner, attr) for owner, attr in watched]
    with SpanRecorder() as rec:
        rec.flush_spans(QuoteService, PendingQuotes, BatchDispatcher)
        instrument(rec)
        assert all(
            getattr(owner, attr) is not old
            for (owner, attr), old in zip(watched, before)
        )
    assert [getattr(owner, attr) for owner, attr in watched] == before
    assert "assign" not in vars(policies.LapPolicy)


def test_quote_rounds_inside_dispatch_are_not_flushes():
    class Pending:
        def collect(self):
            return object()

    class Service:
        def begin(self):
            return Pending()

    class Batch:
        def dispatch(self, quote_set=None):
            if quote_set is None:
                Service().begin().collect()

    with SpanRecorder() as rec:
        rec.flush_spans(Service, Pending, Batch)
        Batch().dispatch(quote_set=Service().begin().collect())
        Batch().dispatch()
    flushes = rec.flush_seconds()
    ledger = rec.ledger()
    assert len(flushes) == 2
    assert ledger["flush.begin"]["calls"] == ledger["flush.collect"]["calls"] == 2
    assert list(rec.flush) == [0, 0, 0, 1, 1, 1]
    nested = sum(rec.end[i] - rec.start[i] for i in (4, 5))
    assert flushes[1] == pytest.approx(rec.end[3] - rec.start[3])
    assert ledger["flush.dispatch"]["self_s"] < ledger["flush.dispatch"]["busy_s"]
    assert nested > 0


def test_reference_clock_follows_the_probes_and_stops_during_them():
    speed = ReplaySpeed()
    took = 2 * PYTHON_REFERENCE_S  # a host at half the reference speed
    for start in (0.0, 1.0, 2.0):
        speed.starts.append(start)
        speed.ends.append(start + took)
    ref = speed.reference([took, 1.0, 1.0 + took, 2.0 + took, 3.0 + took])
    assert ref[0] == 0
    assert ref[1] == pytest.approx((1.0 - took) / 2)
    assert ref[2] == ref[1]
    assert ref[3] - ref[2] == pytest.approx((1.0 - took) / 2)
    assert ref[4] - ref[3] == pytest.approx(0.5)


def test_generator_is_seeded_and_has_no_start_burst():
    workload = WORKLOADS["immediate"]
    city = make_city(workload)
    trips = make_trips(workload, city, 5)
    assert len(trips) == workload.trips
    again = make_trips(workload, make_city(workload), 5)
    assert input_digest(city, trips) == input_digest(city, again)
    assert input_digest(city, trips) != input_digest(
        city, make_trips(workload, city, 6)
    )
    times = np.array([t.request_time for t in trips])
    assert times[0] > START_SECONDS and np.all(np.diff(times) > 0)
    rate = len(trips) / (times[-1] - START_SECONDS) * 3600
    assert abs(rate - workload.trips_per_hour) < 0.15 * workload.trips_per_hour
    span = [
        np.hypot(*(city.coords[t.origin] - city.coords[t.destination]))
        for t in trips
    ]
    assert min(span) >= MIN_TRIP_M


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "immediate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
