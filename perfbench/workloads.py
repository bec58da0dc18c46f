"""The benchmark's workloads and its seeded input generator.

Each workload fixes the city, the fleet size and the demand's shape; the
seed draws the fleet's start positions and the trip stream. The program under test receives
only the generated inputs: a road network, a shortest-path engine, a
``SimulationConfig`` and a trip list.

Arrivals are an open Poisson stream in *simulated* time (exponential
inter-arrival gaps at the workload's rate): the dispatcher cannot slow
the stream down, but the replay itself runs as fast as one core allows.
The generator is the benchmark's own rather than
``repro.sim.workload.ShanghaiLikeWorkload`` because that generator's
``_sample_times`` puts about ``1/len(grid)`` of all trips at exactly the
start instant (see ``perfbench/NOTES.md``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.constraints import ConstraintConfig
from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.sim.config import SimulationConfig
from repro.sim.workload import TripSpec

#: Simulated start of every trip stream (07:00, the morning peak).
START_SECONDS = 7 * 3600.0
#: Seed of every workload's ``grid_city``.
CITY_SEED = 0
#: Seats per vehicle.
CAPACITY = 4
#: Detour guarantee: a rider's trip may take at most this share longer
#: than the direct trip.
DETOUR = 0.2
#: Demand hotspots, on a ring around the city centre.
HOTSPOTS = 6
#: Share of trip endpoints drawn around a hotspot rather than uniformly.
HOTSPOT_WEIGHT = 0.55
#: Standard deviation of an endpoint's distance from its hotspot.
HOTSPOT_RADIUS_M = 600.0
#: Trips shorter than this in straight line are redrawn.
MIN_TRIP_M = 800.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: city, fleet, demand and dispatch shape."""

    name: str
    grid: int
    vehicles: int
    trips_per_hour: float
    #: Trips in one replay: enough for the fleet to reach steady state,
    #: for the service metrics to vary little from seed to seed, and on
    #: ``batched`` for at least 100 flushes.
    trips: int
    wait_s: float
    policy: str
    window_s: float

    def config(self, seed: int) -> SimulationConfig:
        """The simulator configuration: one process, no quote workers,
        no threads, no fault plan, no telemetry."""
        return SimulationConfig(
            num_vehicles=self.vehicles,
            capacity=CAPACITY,
            constraints=ConstraintConfig(self.wait_s, DETOUR),
            engine_kind="matrix",
            dispatch_policy=self.policy,
            batch_window_s=self.window_s,
            quote_workers=0,
            seed=seed,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="immediate",
            grid=40,
            vehicles=100,
            trips_per_hour=1000.0,
            trips=4000,
            wait_s=600.0,
            policy="greedy",
            window_s=0.0,
        ),
        Workload(
            name="batched",
            grid=50,
            vehicles=400,
            trips_per_hour=4000.0,
            trips=4000,
            wait_s=180.0,
            policy="lap",
            window_s=30.0,
        ),
        Workload(
            name="overload",
            grid=40,
            vehicles=40,
            trips_per_hour=1500.0,
            trips=4000,
            wait_s=600.0,
            policy="greedy",
            window_s=0.0,
        ),
    )
}


def make_city(workload: Workload) -> RoadNetwork:
    """The workload's grid city. The map is part of the workload's
    shape, not of the seed: with a seeded map the mean pickup wait moved
    by twice as much from seed to seed as with a fixed one."""
    return grid_city(workload.grid, workload.grid, seed=CITY_SEED)


def hotspot_points(coords: np.ndarray) -> np.ndarray:
    """Hotspot centres: evenly spaced on a ring around the city centre at
    a third of the city's half-width. Like the map, the demand's
    geography is part of the workload's shape: random hotspot placement
    moved the mean pickup wait by a third from seed to seed."""
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    centre, half = (lo + hi) / 2, (hi - lo) / 2
    angles = 2 * np.pi * (np.arange(HOTSPOTS) + 0.5) / HOTSPOTS
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    return centre + ring * half / 3


def make_trips(
    workload: Workload, city: RoadNetwork, seed: int, num_trips: int | None = None
) -> list[TripSpec]:
    """Seeded Poisson trip stream over ``city``.

    Endpoints come from a hotspot/background mixture: with probability
    ``HOTSPOT_WEIGHT`` an endpoint is the vertex nearest a Gaussian draw
    around one of the workload's hotspots (:func:`hotspot_points`),
    otherwise a uniform vertex. Trips shorter than ``MIN_TRIP_M`` in straight line
    are redrawn.
    """
    from scipy.spatial import cKDTree

    count = workload.trips if num_trips is None else num_trips
    rng = np.random.default_rng([seed, 0x7EA1])
    coords = city.coords
    n = city.num_vertices
    kdtree = cKDTree(coords)
    hotspots = kdtree.query(hotspot_points(coords))[1]

    def endpoints(k: int) -> np.ndarray:
        hot = rng.random(k) < HOTSPOT_WEIGHT
        out = rng.integers(0, n, size=k)
        n_hot = int(hot.sum())
        if n_hot:
            centers = rng.choice(hotspots, size=n_hot)
            jitter = rng.normal(0.0, HOTSPOT_RADIUS_M, size=(n_hot, 2))
            out[hot] = kdtree.query(coords[centers] + jitter)[1]
        return out

    gaps = rng.exponential(3600.0 / workload.trips_per_hour, size=count)
    times = START_SECONDS + np.cumsum(gaps)
    origins = np.empty(0, dtype=np.int64)
    destinations = np.empty(0, dtype=np.int64)
    while len(origins) < count:
        o = endpoints(count)
        d = endpoints(count)
        span = np.hypot(*(coords[o] - coords[d]).T)
        keep = (o != d) & (span >= MIN_TRIP_M)
        origins = np.concatenate([origins, o[keep]])
        destinations = np.concatenate([destinations, d[keep]])
    return [
        TripSpec(int(o), int(d), float(t))
        for o, d, t in zip(origins[:count], destinations[:count], times)
    ]


def input_digest(city: RoadNetwork, trips: list[TripSpec]) -> str:
    """Fingerprint of the generated inputs: the city's CSR arrays, edge
    weights and coordinates, and the trip list."""
    h = hashlib.sha256()
    for array in (city.indptr, city.indices, city.weights, city.coords):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(
        np.array(
            [(t.origin, t.destination, t.request_time) for t in trips],
            dtype=np.float64,
        ).tobytes()
    )
    return h.hexdigest()[:16]
