"""Fuel-cost routing fed by a lossy roadside uplink.

The cost table starts from free-flow fuel per link and is smoothed
toward measured reports as they arrive. Route queries perturb each
link cost with trip-private multiplicative noise so identical vehicles
do not all pile onto one path; with the noise width at zero the choice
is the exact argmin, ties broken by smallest link-id sequence.

The uplink is evaluated per roadside cell: the cell's station count and
offered packet rate feed the channel fixed point, whose drop
probability and delay then decide each report's fate. Solutions are
cached per cell and memoized across cells on the (count, rate) pair,
since solving the fixed point per packet would dominate the run.

``mode="ideal"`` short-circuits all of it: every report lands in the
table the instant it is created, which is the loss-free baseline the
realistic mode is compared against.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import random
from dataclasses import dataclass

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
            raise ValidationError(f"beta {beta} outside (0, 1]")
        coeffs = coeffs or energy.load_coefficients()
        self.beta = beta
        self.costs = {
            lid: energy.free_flow_link_fuel(ln.length, ln.free_speed, coeffs)
            for lid, ln in network.links.items()}
        self.last_update = dict.fromkeys(self.costs, 0.0)

    def cost(self, link_id: int) -> float:
        return self.costs[link_id]

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
        self.last_update[update.link_id] = update.delivered_at


class EcoRouter:
    """Minimum-fuel route choice over the shared cost table.

    Usable directly as a Simulation router. Each query draws one noise
    factor per link it actually inspects, from a single seeded stream,
    so runs replay exactly for a fixed seed and call order.
    """

    def __init__(self, network: roadnet.RoadNetwork, table: TmcCostTable,
                 *, eta: float = ETA, seed: int = 0):
        if eta < 0.0:
            raise ValidationError(f"noise width {eta} must not be negative")
        self.network = network
        self.table = table
        self.eta = eta
        self._rng = random.Random(seed)

    def __call__(self, now, vehicle, at_node) -> list[int]:
        costs = self.table.costs
        if self.eta == 0.0:
            weight = lambda ln: costs[ln.id]
        else:
            eps: dict[int, float] = {}
            rng_uniform = self._rng.uniform
            eta = self.eta

            def weight(ln):
                e = eps.get(ln.id)
                if e is None:
                    e = eps[ln.id] = rng_uniform(-eta, eta)
                return costs[ln.id] * (1.0 + e)

        path = roadnet.shortest_path(self.network, at_node,
                                     vehicle.destination, weight)
        return [ln.id for ln in path]


@dataclass
class CommCellState:
    rsu_id: int
    n: int = 0
    solution: mac_analytic.MacSolution | None = None
    solved_at: float = -math.inf
    sent_since: int = 0      # reports uplinked here since the last re-solve


@dataclass
class CommStats:
    created_seen: int = 0
    delivered: int = 0
    dropped: int = 0
    deferred_saturated: int = 0

    def drop_fraction(self) -> float | None:
        done = self.delivered + self.dropped
        return self.dropped / done if done else None


class CommModule:
    """Per-cell uplink between vehicles and the cost table.

    step() is called by the simulation once per tick: due deliveries are
    applied first, then every connected vehicle's queued reports face the
    current cell drop probability. Reports from unconnected vehicles
    simply wait; their delay is the mobility of the carrier.
    """

    def __init__(self, network: roadnet.RoadNetwork, table: TmcCostTable,
                 params: mac_analytic.MacParams, *, mode: str = "realistic",
                 background_rate: float = BACKGROUND_RATE,
                 refresh: float = CELL_REFRESH, seed: int = 0):
        if mode not in ("realistic", "ideal"):
            raise ValidationError(f"unknown comm mode {mode!r}")
        self.network = network
        self.table = table
        self.params = params
        self.mode = mode
        self.background_rate = background_rate
        self.refresh = refresh
        self.index = roadnet.CoverageIndex(network) if network.rsus else None
        self.cells = {rsu.id: CommCellState(rsu.id) for rsu in network.rsus}
        self.stats = CommStats()
        self._rng = random.Random(seed)
        self._heap: list[tuple[float, int, object]] = []
        self._heap_seq = 0
        self._seen = 0           # prefix of sim.updates already examined
        self._recount_at = -math.inf
        self._solve_memo: dict[tuple[int, float], mac_analytic.MacSolution] = {}

    # -- shared plumbing ---------------------------------------------------

    def _deliver(self, update, at: float) -> None:
        update.mark_delivered(at)
        self.table.apply_update(update)
        self.stats.delivered += 1

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
        new = sim.updates[self._seen:]
        self._seen = len(sim.updates)
        self.stats.created_seen += len(new)

        if self.mode == "ideal":
            for upd in new:
                self._deliver(upd, upd.created_at)
            return

        heap = self._heap
        while heap and heap[0][0] <= now + 1e-9:
            at, _, upd = heapq.heappop(heap)
            self._deliver(upd, at)

        if self.index is None:
            return
        if now >= self._recount_at - 1e-9:
            self._recount(sim, now)
            self._recount_at = now + self.refresh

        for veh, x, y in sim.pending_carriers():
            rsu = self.index.connected_rsu(x, y)
            if rsu is None:
                continue
            cell = self.cells[rsu]
            sol = cell.solution
            retained = []
            for upd in veh.pending:
                cell.sent_since += 1
                if self._rng.random() < sol.p_drop:
                    upd.mark_dropped()
                    self.stats.dropped += 1
                elif sol.t_delay is None:
                    # saturated queue: undeliverable until the next solve
                    retained.append(upd)
                    self.stats.deferred_saturated += 1
                else:
                    self._heap_seq += 1
                    heapq.heappush(heap, (now + sol.t_delay, self._heap_seq, upd))
            veh.pending = retained

    def _recount(self, sim, now: float) -> None:
        positions = [(x, y) for _, x, y in sim.enroute_positions()]
        counts = self.index.count_per_rsu(positions)
        for rsu_id, cell in self.cells.items():
            n = counts[rsu_id]
            window = now - cell.solved_at
            extra = 0.0
            if cell.sent_since and window > 0.0 and math.isfinite(window):
                extra = cell.sent_since / window / max(n, 1)
            cell.n = n
            cell.solution = self._solve_cell(n, self.background_rate + extra)
            cell.solved_at = now
            cell.sent_since = 0

    # -- reporting -------------------------------------------------------------

    def in_flight(self) -> int:
        return len(self._heap)

    def as_record(self) -> dict:
        s = self.stats
        return {
            "mode": self.mode,
            "created": s.created_seen,
            "delivered": s.delivered,
            "dropped": s.dropped,
            "deferred_saturated": s.deferred_saturated,
            "in_flight": len(self._heap),
            "drop_fraction": s.drop_fraction(),
            "solves": len(self._solve_memo),
        }
