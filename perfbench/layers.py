"""The per-layer ledger: which entry points are wrapped, and the metrics
derived from their spans and counters.

Each layer names the end-to-end metric and workload it should move (see
``perfbench/NOTES.md``). Suffixes: ``_calls`` is an exact count, ``_s``
is busy wall seconds, ``self_s`` is busy time minus child spans.
Counters are noise-free; times are reference seconds
(:mod:`perfbench.hostspeed`), medians over the run's traced replays.
"""

from __future__ import annotations

import statistics

import repro.dispatch.policies as policies
import repro.dispatch.quoting as quoting
from repro.core.kinetic.node import TreeNode
from repro.core.kinetic.tree import KineticTree
from repro.core.matching import Dispatcher, KineticAgent
from repro.obs.metrics import Histogram
from repro.roadnet.matrix import MatrixEngine
from repro.sim.events import EventQueue
from repro.sim.metrics import SimulationReport
from repro.sim.simulator import Simulation
from repro.spatial.grid_index import GridIndex

from perfbench.spans import SpanRecorder


def instrument(rec: SpanRecorder) -> None:
    """Wrap every layer's entry points, on the names callers resolve."""
    count = rec.count
    counters = rec.counters

    rec.span(Simulation, "run", "sim.run")
    rec.counter(EventQueue, "pop", "sim.events")

    def queried(args, kwargs, ids):
        count("spatial.queries")
        count("spatial.candidates", len(ids))

    rec.span(GridIndex, "query_radius", "spatial.query", queried)
    rec.span(GridIndex, "update", "spatial.update")

    rec.span(Dispatcher, "submit", "matching.submit")

    def tried(args, kwargs, trial):
        count("kinetic.try_insert_calls")
        count("kinetic.try_insert_feasible", trial is not None)

    rec.span(KineticTree, "try_insert", "kinetic.try_insert", tried)
    rec.span(KineticTree, "commit", "kinetic.commit")
    rec.span(KineticTree, "advance", "kinetic.advance")
    rec.counter(TreeNode, "__init__", "kinetic.nodes_built")

    def screened(quote_batch_at):
        def wrapper(agent, requests, vertex, t):
            before = counters.get("kinetic.try_insert_calls", 0)
            quotes = quote_batch_at(agent, requests, vertex, t)
            inserted = counters.get("kinetic.try_insert_calls", 0) - before
            count("kinetic.batch_pairs", len(requests))
            count("kinetic.screened", len(requests) - inserted)
            return quotes

        return wrapper

    rec.wrap(KineticAgent, "quote_batch_at", screened)

    rec.counter(MatrixEngine, "distance", "roadnet.distance_calls")
    rec.counter(
        MatrixEngine,
        "distance_many",
        "roadnet.distance_many_calls",
        lambda args, kwargs, out: count("roadnet.distance_many_targets", len(out)),
    )

    rec.span(quoting, "plan_columns", "dispatch.plan_columns")
    rec.counter(quoting, "quote_column", "dispatch.quote_columns")
    rec.span(quoting, "assemble_matrix", "dispatch.assemble")

    def solved(args, kwargs, pairs):
        keys = args[0]
        count("dispatch.solve_cells", int(keys.size))
        count("dispatch.solve_finite", int((keys < float("inf")).sum()))

    rec.span(policies, "solve_assignment", "dispatch.solve", solved)
    rec.span(policies.GreedyPolicy, "assign", "dispatch.assign")
    rec.span(policies._AssignmentRoundsPolicy, "assign", "dispatch.assign")
    rec.span(KineticAgent, "commit", "dispatch.agent_commit")

    for attr in sorted(vars(SimulationReport)):
        if attr.startswith("record_"):
            rec.span(SimulationReport, attr, "metrics.record")
    rec.span(Histogram, "add", "obs.histogram_add")


#: Per-layer metric -> (span name, field) for the timed and counted spans.
SPAN_METRICS = {
    "sim.run_s": ("sim.run", "busy_s"),
    "sim.self_s": ("sim.run", "self_s"),
    "spatial.query_calls": ("spatial.query", "calls"),
    "spatial.query_s": ("spatial.query", "busy_s"),
    "spatial.update_calls": ("spatial.update", "calls"),
    "spatial.update_s": ("spatial.update", "busy_s"),
    "matching.submit_calls": ("matching.submit", "calls"),
    "matching.submit_s": ("matching.submit", "busy_s"),
    "kinetic.try_insert_calls": ("kinetic.try_insert", "calls"),
    "kinetic.try_insert_s": ("kinetic.try_insert", "busy_s"),
    "kinetic.commit_calls": ("kinetic.commit", "calls"),
    "kinetic.commit_s": ("kinetic.commit", "busy_s"),
    "kinetic.advance_calls": ("kinetic.advance", "calls"),
    "kinetic.advance_s": ("kinetic.advance", "busy_s"),
    "dispatch.plan_columns_s": ("dispatch.plan_columns", "busy_s"),
    "dispatch.quote_collect_s": ("flush.collect", "busy_s"),
    "dispatch.assemble_s": ("dispatch.assemble", "busy_s"),
    "dispatch.solve_calls": ("dispatch.solve", "calls"),
    "dispatch.solve_s": ("dispatch.solve", "busy_s"),
    "dispatch.assign_s": ("dispatch.assign", "busy_s"),
    "dispatch.agent_commit_calls": ("dispatch.agent_commit", "calls"),
    "dispatch.agent_commit_s": ("dispatch.agent_commit", "busy_s"),
    "metrics.record_s": ("metrics.record", "busy_s"),
    "obs.histogram_adds": ("obs.histogram_add", "calls"),
    "obs.histogram_add_s": ("obs.histogram_add", "busy_s"),
}

#: Per-layer metrics that are counters of the same name.
COUNTER_METRICS = (
    "sim.events",
    "kinetic.nodes_built",
    "roadnet.distance_calls",
    "roadnet.distance_many_calls",
    "roadnet.distance_many_targets",
    "dispatch.quote_columns",
    "dispatch.solve_cells",
)

#: Ratio metrics: (numerator counter, denominator counter).
RATIO_METRICS = {
    "spatial.candidates_mean": ("spatial.candidates", "spatial.queries"),
    "kinetic.try_insert_feasible_share": (
        "kinetic.try_insert_feasible",
        "kinetic.try_insert_calls",
    ),
    "kinetic.screened_share": ("kinetic.screened", "kinetic.batch_pairs"),
    "dispatch.solve_finite_share": ("dispatch.solve_finite", "dispatch.solve_cells"),
}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name == "tracing_overhead":
        return "fraction"
    if name == "spatial.candidates_mean":
        return "vehicles"
    return "count"


def exact_counts(ledger: dict, counters: dict[str, int]) -> dict[str, int]:
    """Every noise-free count of one traced replay: span calls and
    counters. Host-speed probes run on a timer, so they are left out."""
    counts = {
        f"{name}.spans": row["calls"]
        for name, row in ledger.items()
        if name != "host.probe"
    }
    counts.update(counters)
    return counts


def per_layer_metrics(
    ledgers: list[dict],
    counters: list[dict[str, int]],
    engine_build_s: float,
    tracing_overhead: float,
) -> tuple[dict, dict, bool]:
    """Per-layer metrics from the traced replays' ledgers and counters,
    the ledger table of the first traced replay, and whether every
    traced replay made exactly the same counts."""
    counts = [exact_counts(ledger, c) for ledger, c in zip(ledgers, counters)]
    repeat = all(c == counts[0] for c in counts)
    first = counts[0]
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    values: dict[str, float] = {}
    for metric, (span, key) in SPAN_METRICS.items():
        rows = [ledger.get(span, empty) for ledger in ledgers]
        # Calls repeat exactly (checked above); times are medians.
        values[metric] = (
            rows[0][key] if key == "calls" else statistics.median(r[key] for r in rows)
        )
    for metric in COUNTER_METRICS:
        values[metric] = first.get(metric, 0)
    for metric, (num, den) in RATIO_METRICS.items():
        den_value = first.get(den, 0)
        values[metric] = first.get(num, 0) / den_value if den_value else 0.0
    values["roadnet.engine_build_s"] = engine_build_s
    values["tracing_overhead"] = tracing_overhead
    metrics = {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in sorted(values.items())
    }
    return metrics, ledgers[0], repeat
