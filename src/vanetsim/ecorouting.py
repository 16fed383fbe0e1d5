"""Fuel-cost routing fed by a lossy roadside uplink.

The cost table starts from free-flow fuel per link and is smoothed
toward measured reports as they arrive. Route queries perturb each
link cost with trip-private multiplicative noise so identical vehicles
do not all pile onto one path; with the noise width at zero the choice
is the exact argmin, ties broken by smallest link-id sequence.

The uplink is evaluated per roadside cell on one recount clock: every
``refresh`` seconds it counts the vehicles in each cell and solves the
channel fixed point at that count and offered packet rate (background
plus the reports the cell carried since the last recount). Each cell's
solution, its drop probability and delay, then decides the fate of
every report sent there until the next recount. Solutions are memoized
across cells and recounts on the (count, rate) pair, since solving the
fixed point per packet would dominate the run.

``mode="ideal"`` short-circuits all of it: every report lands in the
table the instant it is created and leaves its carrier, which is the
loss-free baseline the realistic mode is compared against.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import random

from . import energy, mac_analytic, roadnet
from .errors import SimulationError, ValidationError

BETA = 0.2              # cost smoothing weight for delivered reports
ETA = 0.05              # route-noise half width
CELL_REFRESH = 1.0      # s between cell occupancy recounts / re-solves
BACKGROUND_RATE = 50.0  # packets/s per station besides the eco reports


class TmcCostTable:
    """Per-link fuel cost estimates held by the traffic management center."""

    def __init__(self, network: roadnet.RoadNetwork, coeffs=None, beta: float = BETA):
        if not 0.0 < beta <= 1.0:
            raise ValidationError(f"beta {beta} outside (0, 1]", field="beta")
        coeffs = coeffs or energy.load_coefficients()
        self.beta = beta
        self.costs = {
            lid: energy.free_flow_link_fuel(ln.length, ln.free_speed, coeffs)
            for lid, ln in network.links.items()}

    def apply_update(self, update) -> None:
        """Fold one delivered measurement into the link estimate.

        Age does not matter: stale reports get the same smoothing weight,
        and the closed loop tolerates that because newer reports keep
        arriving while the estimate is off.
        """
        if update.fate != "delivered":
            raise SimulationError(
                f"update {update.uid} applied while {update.fate}")
        b = self.beta
        self.costs[update.link_id] = \
            (1.0 - b) * self.costs[update.link_id] + b * update.fuel


class EcoRouter:
    """Minimum-fuel route choice over the shared cost table.

    Usable directly as a Simulation router. Each query draws one noise
    factor per link it actually inspects, from a single seeded stream,
    so runs replay exactly for a fixed seed and call order.
    ``roadnet.shortest_path`` weighs a link only when it settles the
    link's tail node, once per query, so each inspected link is weighed
    once and no per-query cache of its factor is needed.
    """

    def __init__(self, network: roadnet.RoadNetwork, table: TmcCostTable,
                 *, eta: float = ETA, seed: int = 0):
        if not 0.0 <= eta < math.inf:
            raise ValidationError(f"noise width {eta} must be finite and not negative",
                                  field="eta")
        self.network = network
        self.table = table
        self.eta = eta
        self._rng = random.Random(seed)

    def __call__(self, now, vehicle, at_node) -> list[int]:
        costs = self.table.costs
        rnd = self._rng.random
        # random.uniform(-eta, eta) spelled out: a + (b - a) * random()
        lo = -self.eta
        span = self.eta - lo

        def weight(ln):
            return costs[ln.id] * (1.0 + (lo + span * rnd()))

        path = roadnet.shortest_path(self.network, at_node,
                                     vehicle.destination, weight)
        return [ln.id for ln in path]


class CommModule:
    """Per-cell uplink between vehicles and the cost table.

    ``cells[rid]`` is the solution of the cell around RSU ``rid`` of the
    coverage index, as of the last recount (None before the first).
    step() is called by the simulation once per tick: due deliveries are
    applied first, then, once ``refresh`` seconds have passed since the
    last recount, every cell is recounted and re-solved, then every
    connected vehicle's queued reports face its cell's drop probability.
    Reports from unconnected vehicles simply wait; their delay is the
    mobility of the carrier. An index without RSUs leaves every carrier
    unconnected. In ideal mode step() delivers each new report at its
    creation time and empties every carrier's pending list, so in both
    modes a carrier holds only undelivered reports.
    """

    def __init__(self, index: roadnet.CoverageIndex, table: TmcCostTable,
                 params: mac_analytic.MacParams, *, mode: str = "realistic",
                 background_rate: float = BACKGROUND_RATE,
                 refresh: float = CELL_REFRESH, seed: int = 0):
        if mode not in ("realistic", "ideal"):
            raise ValidationError(f"unknown comm mode {mode!r}")
        if not 0.0 < background_rate < math.inf:
            raise ValidationError(
                f"background_rate {background_rate} must be positive and finite",
                field="background_rate")
        if not 0.0 < refresh < math.inf:
            raise ValidationError(f"refresh {refresh} must be positive and finite",
                                  field="refresh")
        self.index = index
        self.table = table
        self.params = params
        self.mode = mode
        self.background_rate = background_rate
        self.refresh = refresh
        self.cells: list[mac_analytic.MacSolution | None] = [None] * len(index.ids)
        self._sent = [0] * len(index.ids)   # reports per cell since the last recount
        self.delivered = 0
        self.dropped = 0
        self.deferred_saturated = 0
        self._rng = random.Random(seed)
        self._heap: list[tuple[float, int, object]] = []
        self._heap_seq = 0
        self._seen = 0           # prefix of sim.updates already examined
        self._recounted_at = -math.inf
        self._solve_memo: dict[tuple[int, float], mac_analytic.MacSolution] = {}

    # -- shared plumbing ---------------------------------------------------

    def _deliver(self, update, at: float) -> None:
        update.mark_delivered(at)
        self.table.apply_update(update)
        self.delivered += 1

    def _solve_cell(self, n: int, rate: float) -> mac_analytic.MacSolution:
        # one station is always present: the reporting vehicle itself
        key = (max(n, 1), round(rate, 3))
        sol = self._solve_memo.get(key)
        if sol is None:
            params = dataclasses.replace(
                self.params, n_stations=key[0], arrival_rate=key[1])
            sol = mac_analytic.solve(params)
            self._solve_memo[key] = sol
        return sol

    # -- per-tick entry point ------------------------------------------------

    def step(self, sim, now: float) -> None:
        seen, self._seen = self._seen, len(sim.updates)
        if self.mode == "ideal":
            for upd in sim.updates[seen:]:
                self._deliver(upd, upd.created_at)
            for veh in sim.carriers:
                veh.pending = []
            return

        heap = self._heap
        while heap and heap[0][0] <= now + 1e-9:
            at, _, upd = heapq.heappop(heap)
            self._deliver(upd, at)

        if now >= self._recounted_at + self.refresh - 1e-9:
            self._recount(sim, now)

        for veh in sim.carriers:
            rsu = self.index.connected_rsu(*sim.position(veh))
            if rsu is None:
                continue
            sol = self.cells[rsu]
            self._sent[rsu] += len(veh.pending)
            retained = []
            for upd in veh.pending:
                if self._rng.random() < sol.p_drop:
                    upd.mark_dropped()
                    self.dropped += 1
                elif sol.t_delay is None:
                    # saturated queue: undeliverable until the next solve
                    retained.append(upd)
                    self.deferred_saturated += 1
                else:
                    self._heap_seq += 1
                    heapq.heappush(heap, (now + sol.t_delay, self._heap_seq, upd))
            veh.pending = retained

    def _recount(self, sim, now: float) -> None:
        positions = [sim.position(veh) for veh in sim.enroute]
        counts = self.index.count_per_rsu(positions)
        window = now - self._recounted_at
        sent = self._sent
        for rid, n in counts.items():
            extra = 0.0
            if sent[rid] and window > 0.0 and math.isfinite(window):
                extra = sent[rid] / window / max(n, 1)
            self.cells[rid] = self._solve_cell(n, self.background_rate + extra)
            sent[rid] = 0
        self._recounted_at = now

    # -- reporting -------------------------------------------------------------

    def in_flight(self) -> int:
        return len(self._heap)

    def as_record(self) -> dict:
        done = self.delivered + self.dropped
        return {
            "created": self._seen,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "deferred_saturated": self.deferred_saturated,
            "in_flight": len(self._heap),
            "drop_fraction": self.dropped / done if done else None,
            "solves": len(self._solve_memo),
        }
