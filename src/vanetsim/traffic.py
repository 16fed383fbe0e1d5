"""Deci-second microscopic traffic simulation.

Vehicles track the Greenshields speed for the local link density, queue
behind fixed-cycle two-phase signals, and are admitted onto the network
only while the entry link is below jam density, so per-link density can
never exceed the jam value. The step loop is single threaded and fully
deterministic for a given schedule and router, which is what makes run
hashes comparable across reruns; distinct scenarios parallelize as
separate processes, never by threading inside one simulation.

The step (DT), the signal cycle and green share, and the interval of
the flow-density samples are module constants. The scenario's [sim]
keys set the acceleration bound, the horizon and the drain time
through TrafficConfig.

Speed lives in km/h and acceleration in km/h per second throughout,
matching the engine-map conventions in :mod:`vanetsim.energy`. Engine
rates are refreshed once per simulated second and held in between; by
default the lookup quantizes speed and acceleration to 0.5-unit bins so
the exp() evaluations amortize across the fleet, and
``TrafficConfig(exact_energy=True)`` disables the binning when a test
needs bit-exact hand arithmetic.

Blocking at a stop line is an instantaneous halt: the acceleration
clamp shapes free driving, not the last half metre before a red light.
The engine map sees envelope-clamped kinematics for that step.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import ClassVar

from . import energy, roadnet
from .errors import SimulationError, ValidationError

DT = 0.1                 # s
A_MAX = 3.6              # km/h per s, about 1 m/s^2
SIGNAL_CYCLE = 60.0      # s
GREEN_SHARE = 0.5        # per phase
NFD_INTERVAL = 30.0      # s
RATE_REFRESH = 1.0       # s between engine-map lookups per vehicle

_POS_EPS = 1e-6          # m, stop-line arrival tolerance
_V_LO, _V_HI = energy.ENVELOPE_V
_A_LO, _A_HI = energy.ENVELOPE_A

WAITING = "waiting"
EN_ROUTE = "enroute"
FINISHED = "finished"
DEFERRED = "deferred"


def greenshields(free_speed: float, density: float, jam_density: float) -> float:
    """Equilibrium speed for a link density, clamped into [0, free_speed]."""
    v = free_speed * (1.0 - density / jam_density)
    if v < 0.0:
        return 0.0
    return v if v < free_speed else free_speed


# --- demand ---------------------------------------------------------------

@dataclass(frozen=True)
class OdEntry:
    """One origin-destination stream: rate veh/h active over [start, end) s."""
    origin: int
    destination: int
    rate: float
    start: float
    end: float
    preload: bool = False


@dataclass(frozen=True)
class OdDemand:
    entries: tuple[OdEntry, ...]
    odsf: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not 0.0 <= self.odsf <= 1.0:
            raise ValidationError(f"odsf {self.odsf} outside [0, 1]")
        for e in self.entries:
            if e.rate < 0.0:
                raise ValidationError(f"negative rate for {e.origin}->{e.destination}")
            if e.end <= e.start:
                raise ValidationError(f"empty window for {e.origin}->{e.destination}")
            if e.origin == e.destination:
                raise ValidationError(f"degenerate trip at node {e.origin}")

    def end_time(self) -> float:
        return max((e.end for e in self.entries), default=0.0)


@dataclass(frozen=True)
class Departure:
    time: float
    origin: int
    destination: int
    preload: bool = False


def generate_demand(od: OdDemand, seed: int) -> list[Departure]:
    """Poisson departure schedule, scaled by the demand factor.

    Each entry is an independent Poisson stream at rate*odsf; exponential
    gaps come from one seeded generator consumed in entry order, so the
    schedule is reproducible. odsf zero is allowed and yields no trips.
    """
    rng = random.Random(seed)
    out = []
    for e in od.entries:
        lam = e.rate * od.odsf / 3600.0
        if lam <= 0.0:
            continue
        t = e.start + rng.expovariate(lam)
        while t < e.end:
            out.append(Departure(t, e.origin, e.destination, e.preload))
            t += rng.expovariate(lam)
    out.sort(key=lambda d: (d.time, d.origin, d.destination))
    return out


# --- per-vehicle state ----------------------------------------------------

@dataclass
class LinkCostUpdate:
    """One measured link-fuel report, queued for the roadside uplink.

    Fate moves queued -> delivered or queued -> dropped exactly once.
    """
    uid: int
    link_id: int
    fuel: float
    created_at: float
    fate: str = "queued"
    delivered_at: float | None = None

    def mark_delivered(self, at: float) -> None:
        if self.fate != "queued":
            raise SimulationError(f"update {self.uid} already {self.fate}")
        if at < self.created_at:
            raise SimulationError(f"update {self.uid} delivered before creation")
        self.fate = "delivered"
        self.delivered_at = at

    def mark_dropped(self) -> None:
        if self.fate != "queued":
            raise SimulationError(f"update {self.uid} already {self.fate}")
        self.fate = "dropped"


class Vehicle:
    """Mutable per-vehicle record; slots keep the step loop lean."""

    __slots__ = (
        "id", "origin", "destination", "depart", "preload", "state",
        "route", "pos", "speed", "entered_at", "finished_at",
        "distance", "ff_time", "fuel", "co", "hc", "nox", "link_fuel",
        "pending", "rates", "rate_until", "decided")

    def __init__(self, vid: int, dep: Departure):
        self.id = vid
        self.origin = dep.origin
        self.destination = dep.destination
        self.depart = dep.time
        self.preload = dep.preload
        self.state = WAITING
        self.route: list[int] = []
        self.pos = 0.0
        self.speed = 0.0
        self.entered_at = None
        self.finished_at = None
        self.distance = 0.0       # m, completed links only
        self.ff_time = 0.0        # s, free-flow time of links actually driven
        self.fuel = 0.0           # liters
        self.co = 0.0             # mg
        self.hc = 0.0
        self.nox = 0.0
        self.link_fuel = 0.0      # liters on the current link
        self.pending: list[LinkCostUpdate] = []
        self.rates = None
        self.rate_until = -math.inf
        self.decided = False      # route tail already refreshed at this stop


@dataclass(frozen=True)
class TrafficConfig:
    dt: ClassVar[float] = DT       # the step is fixed; readable, not settable
    a_max: float = A_MAX
    horizon: float | None = None    # None: demand end + drain
    drain: float = 1800.0
    exact_energy: bool = False

    def __post_init__(self):
        if not self.a_max > 0.0:
            raise ValidationError("a_max must be positive")
        if self.horizon is not None and not self.horizon > 0.0:
            raise ValidationError("horizon must be positive")


@dataclass(frozen=True)
class NfdSample:
    time: float
    density: float     # veh/km/lane
    flow: float        # veh/h/lane
    speed: float | None


def free_flow_router(network: roadnet.RoadNetwork):
    """Static shortest-time router with a per-OD cache."""
    cache: dict[tuple[int, int], list[int]] = {}

    def route(now, vehicle, at_node):
        key = (at_node, vehicle.destination)
        got = cache.get(key)
        if got is None:
            path = roadnet.shortest_path(network, at_node, vehicle.destination,
                                         lambda ln: ln.length / ln.free_speed)
            got = cache[key] = [ln.id for ln in path]
        return got

    return route


class _LinkData:
    __slots__ = ("length", "free_speed", "jam", "cap", "inv_len_lanes",
                 "to_node", "to_signal", "is_ew", "ff_time")

    def __init__(self, link: roadnet.Link, network: roadnet.RoadNetwork):
        self.length = link.length
        self.free_speed = link.free_speed
        self.jam = link.jam_density
        len_lanes_km = link.length / 1000.0 * link.lanes
        self.cap = int(link.jam_density * len_lanes_km + 1e-9)
        self.inv_len_lanes = 1.0 / len_lanes_km
        self.to_node = link.to_node
        self.to_signal = network.has_signal(link.to_node)
        a = network.nodes[link.from_node]
        b = network.nodes[link.to_node]
        # approach axis decides which phase is green; ties read as east-west
        self.is_ew = abs(b.x - a.x) >= abs(b.y - a.y)
        self.ff_time = link.length / (link.free_speed / 3.6)


class Simulation:
    """Single-run co-simulation shell around the vehicle step loop.

    Construct with either a demand description (a schedule is drawn from
    it with the seed) or an explicit departure list. The router callable
    is asked for a remaining link-id path at admission and whenever a
    vehicle first reaches the end of a link short of its destination; the
    answer is reused while the vehicle sits blocked. An optional comm
    object gets ``comm.step(sim, now)`` once per step after movement.
    """

    def __init__(self, network: roadnet.RoadNetwork, *,
                 demand: OdDemand | None = None,
                 schedule: list[Departure] | None = None,
                 config: TrafficConfig | None = None,
                 router=None, coeffs=None, comm=None, seed: int = 0):
        if schedule is None:
            if demand is None:
                raise ValidationError("need a demand description or a schedule")
            schedule = generate_demand(demand, seed)
        self.network = network
        self.config = config or TrafficConfig()
        self.router = router or free_flow_router(network)
        self.coeffs = coeffs or energy.load_coefficients()
        self.comm = comm
        self.vehicles = [Vehicle(i + 1, dep) for i, dep in enumerate(schedule)]
        for veh in self.vehicles:
            if veh.origin not in network.nodes or veh.destination not in network.nodes:
                raise ValidationError(f"vehicle {veh.id} references unknown node")

        self._lk = {lid: _LinkData(link, network)
                    for lid, link in network.links.items()}
        self._occ = dict.fromkeys(network.links, 0)
        self._total_len_lanes_km = sum(
            ln.length / 1000.0 * ln.lanes for ln in network.links.values())

        cfg = self.config
        self._phase_steps = round(SIGNAL_CYCLE * GREEN_SHARE / DT)
        self._nfd_steps = round(NFD_INTERVAL / DT)
        self._dv_max = cfg.a_max * DT

        if demand is not None:
            self._demand_end = demand.end_time()
        else:
            self._demand_end = max((d.time for d in schedule), default=0.0)
        self.horizon = cfg.horizon if cfg.horizon is not None \
            else self._demand_end + cfg.drain

        self._due = sorted(self.vehicles, key=lambda v: (v.depart, v.id))
        self._due_ptr = 0
        self._entry_queues: dict[int, deque[Vehicle]] = {}
        self._enroute: list[Vehicle] = []
        self._counts = {WAITING: len(self.vehicles), EN_ROUTE: 0,
                        FINISHED: 0, DEFERRED: 0}
        self._n = 0
        self._update_seq = 0
        self._rate_cache: dict = {}
        self.updates: list[LinkCostUpdate] = []
        self.nfd: list[NfdSample] = []
        self.finished: list[Vehicle] = []

    # -- clock and public state ------------------------------------------

    @property
    def now(self) -> float:
        return self._n * DT

    def counts(self) -> dict[str, int]:
        """Trip accounting over measured (non-preload) vehicles."""
        out = {"generated": 0, WAITING: 0, EN_ROUTE: 0, FINISHED: 0, DEFERRED: 0}
        for veh in self.vehicles:
            if veh.preload:
                continue
            out["generated"] += 1
            out[veh.state] += 1
        return out

    def done(self) -> bool:
        if self.now >= self.horizon - 1e-9:
            return True
        return (not self._enroute and self._due_ptr >= len(self._due)
                and all(not q for q in self._entry_queues.values()))

    def _position(self, veh: Vehicle) -> tuple[float, float]:
        """Plane coordinates of a moving vehicle, interpolated along its link."""
        link = self.network.link(veh.route[0])
        a = self.network.nodes[link.from_node]
        b = self.network.nodes[link.to_node]
        f = veh.pos / link.length
        return a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f

    def enroute_positions(self) -> list[tuple[Vehicle, float, float]]:
        """Plane coordinates of every moving vehicle, route-order interpolated."""
        return [(veh, *self._position(veh)) for veh in self._enroute]

    def pending_carriers(self) -> list[tuple[Vehicle, float, float]]:
        """Positions of moving vehicles that still hold queued reports."""
        return [(veh, *self._position(veh))
                for veh in self._enroute if veh.pending]

    # -- engine-map plumbing ----------------------------------------------

    def _lookup_rates(self, v: float, a: float):
        # envelope clamp here, not in the map, so stop-line discontinuities
        # do not spray warnings
        if v < _V_LO:
            v = _V_LO
        elif v > _V_HI:
            v = _V_HI
        if a < _A_LO:
            a = _A_LO
        elif a > _A_HI:
            a = _A_HI
        if self.config.exact_energy:
            key = (v, a)
        else:
            key = (round(v * 2.0), round(a * 2.0))
            v = key[0] / 2.0
            a = key[1] / 2.0
        got = self._rate_cache.get(key)
        if got is None:
            got = tuple(energy.vt_micro_rate(v, a, self.coeffs, m)
                        for m in energy.MEASURES)
            self._rate_cache[key] = got
        return got

    # -- step loop ---------------------------------------------------------

    def step(self) -> None:
        n = self._n
        now = n * DT
        if n % self._nfd_steps == 0:
            self._sample_nfd(now)
        phase = (n // self._phase_steps) % 2
        now_end = (n + 1) * DT

        occ_snap = dict(self._occ)
        finished_now: list[Vehicle] = []
        survivors = []
        for veh in self._enroute:
            self._move(veh, now, now_end, phase, occ_snap)
            if veh.state == EN_ROUTE:
                survivors.append(veh)
            else:
                finished_now.append(veh)
        self._enroute = survivors

        self._admit(now, now_end)
        if self.comm is not None:
            self.comm.step(self, now_end)
        for veh in finished_now:
            # the carrier left the network; whatever it still held is lost
            for upd in veh.pending:
                if upd.fate == "queued":
                    upd.mark_dropped()
            veh.pending = []
        if self._demand_end is not None and now_end >= self._demand_end - 1e-9:
            self._defer_waiting()
        self._n = n + 1

        c = self._counts
        if c[WAITING] + c[EN_ROUTE] + c[FINISHED] + c[DEFERRED] != len(self.vehicles):
            raise SimulationError(f"conservation broken at t={now_end}: {c}")

    def run(self, until: float | None = None) -> None:
        stop = self.horizon if until is None else min(until, self.horizon)
        while not self.done() and self.now < stop - 1e-9:
            self.step()

    # -- movement ----------------------------------------------------------

    def _move(self, veh, now, now_end, phase, occ_snap) -> None:
        route = veh.route
        lid = route[0]
        lk = self._lk[lid]
        crossed = False

        if veh.pos >= lk.length - _POS_EPS:
            # held at the stop line since an earlier step
            if not self._try_cross(veh, now, now_end, phase):
                veh.speed = 0.0
                self._burn(veh, now, 0.0, 0.0)
                return
            if veh.state == FINISHED:
                return
            lid = route[0]
            lk = self._lk[lid]
            crossed = True

        k_cnt = occ_snap.get(lid, 0) - (0 if crossed else 1)
        if k_cnt < 0:
            k_cnt = 0
        target = greenshields(lk.free_speed, k_cnt * lk.inv_len_lanes, lk.jam)
        dv = target - veh.speed
        if dv > self._dv_max:
            dv = self._dv_max
        elif dv < -self._dv_max:
            dv = -self._dv_max
        v = veh.speed + dv
        a = dv / DT
        veh.speed = v
        veh.pos += v / 3.6 * DT
        self._burn(veh, now, v, a)

        if veh.pos >= lk.length - _POS_EPS:
            over = veh.pos - lk.length
            if over < 0.0:
                over = 0.0
            if self._try_cross(veh, now, now_end, phase):
                if veh.state == FINISHED:
                    return
                nlk = self._lk[veh.route[0]]
                if over >= nlk.length:
                    raise SimulationError(
                        f"position overrun: vehicle {veh.id} jumped past "
                        f"link {veh.route[0]} ({over:.2f} m beyond entry)")
                veh.pos = over
                if veh.speed > nlk.free_speed:
                    veh.speed = nlk.free_speed
            else:
                veh.pos = lk.length
                veh.speed = 0.0

    def _burn(self, veh, now, v, a) -> None:
        if now >= veh.rate_until - 1e-9:
            veh.rates = self._lookup_rates(v, a)
            veh.rate_until = now + RATE_REFRESH
        f, c, h, x = veh.rates
        veh.fuel += f * DT
        veh.link_fuel += f * DT
        veh.co += c * DT
        veh.hc += h * DT
        veh.nox += x * DT

    def _try_cross(self, veh, now, now_end, phase) -> bool:
        lid = veh.route[0]
        lk = self._lk[lid]
        to = lk.to_node
        if to != veh.destination and not veh.decided:
            tail = self.router(now, veh, to)
            veh.route = [lid] + list(tail)
            veh.decided = True
        if lk.to_signal and phase != (0 if lk.is_ew else 1):
            return False
        if to == veh.destination:
            self._exit_link(veh, lid, lk, now_end)
            veh.state = FINISHED
            veh.finished_at = now_end
            self._counts[EN_ROUTE] -= 1
            self._counts[FINISHED] += 1
            if not veh.preload:
                self.finished.append(veh)
            return True
        nxt = veh.route[1]
        nlk = self._lk[nxt]
        if self._occ[nxt] + 1 > nlk.cap:
            return False
        self._exit_link(veh, lid, lk, now_end)
        veh.route.pop(0)
        self._occ[nxt] += 1
        veh.pos = 0.0
        veh.decided = False
        return True

    def _exit_link(self, veh, lid, lk, now_end) -> None:
        self._update_seq += 1
        upd = LinkCostUpdate(self._update_seq, lid, veh.link_fuel, now_end)
        veh.pending.append(upd)
        self.updates.append(upd)
        veh.link_fuel = 0.0
        veh.distance += lk.length
        veh.ff_time += lk.ff_time
        self._occ[lid] -= 1

    # -- admissions ----------------------------------------------------------

    def _admit(self, now, now_end) -> None:
        due = self._due
        while self._due_ptr < len(due) and due[self._due_ptr].depart <= now_end + 1e-9:
            veh = due[self._due_ptr]
            self._due_ptr += 1
            veh.route = list(self.router(now, veh, veh.origin))
            if not veh.route:
                raise ValidationError(f"vehicle {veh.id} has an empty route")
            self._entry_queues.setdefault(veh.route[0], deque()).append(veh)
        for lid in sorted(self._entry_queues):
            q = self._entry_queues[lid]
            lk = self._lk[lid]
            while q and self._occ[lid] + 1 <= lk.cap:
                veh = q.popleft()
                occ = self._occ[lid]
                self._occ[lid] = occ + 1
                veh.state = EN_ROUTE
                veh.entered_at = now_end
                veh.pos = 0.0
                veh.speed = greenshields(lk.free_speed, occ * lk.inv_len_lanes, lk.jam)
                self._enroute.append(veh)
                self._counts[WAITING] -= 1
                self._counts[EN_ROUTE] += 1

    def _defer_waiting(self) -> None:
        # demand window closed: whoever never found a spot gives up
        for q in self._entry_queues.values():
            for veh in q:
                veh.state = DEFERRED
                self._counts[WAITING] -= 1
                self._counts[DEFERRED] += 1
            q.clear()
        self._demand_end = None

    # -- outputs -------------------------------------------------------------

    def _sample_nfd(self, now) -> None:
        count = len(self._enroute)
        if count == 0:
            self.nfd.append(NfdSample(now, 0.0, 0.0, None))
            return
        density = count / self._total_len_lanes_km
        speed = math.fsum(v.speed for v in self._enroute) / count
        self.nfd.append(NfdSample(now, density, density * speed, speed))

    def state_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self._n}\n".encode())
        for veh in self.vehicles:
            lid = veh.route[0] if veh.state == EN_ROUTE else 0
            h.update(f"{veh.id} {veh.state} {lid} {veh.pos!r} "
                     f"{veh.speed!r} {veh.fuel!r}\n".encode())
        return h.hexdigest()

    def summary(self) -> dict:
        out = dict(self.counts())
        done = self.finished
        out["unfinished"] = out.pop(EN_ROUTE)
        n = len(done)
        def mean(get):
            return math.fsum(get(v) for v in done) / n if n else None
        out["mean_travel_s"] = mean(lambda v: v.finished_at - v.depart)
        out["mean_delay_s"] = mean(lambda v: v.finished_at - v.depart - v.ff_time)
        out["mean_distance_km"] = mean(lambda v: v.distance / 1000.0)
        out["mean_speed_kmh"] = mean(
            lambda v: v.distance / 1000.0 / ((v.finished_at - v.depart) / 3600.0))
        out["mean_fuel_l"] = mean(lambda v: v.fuel)
        out["mean_co_mg"] = mean(lambda v: v.co)
        out["mean_hc_mg"] = mean(lambda v: v.hc)
        out["mean_nox_mg"] = mean(lambda v: v.nox)
        return out

    VEHICLE_COLUMNS = ("id", "origin", "destination", "depart_s", "entered_s",
                       "finished_s", "travel_s", "delay_s", "distance_km",
                       "fuel_l", "co_mg", "hc_mg", "nox_mg")

    def vehicle_rows(self) -> list[tuple]:
        return [(v.id, v.origin, v.destination, v.depart, v.entered_at,
                 v.finished_at, v.finished_at - v.depart,
                 v.finished_at - v.depart - v.ff_time, v.distance / 1000.0,
                 v.fuel, v.co, v.hc, v.nox)
                for v in self.finished]

    NFD_COLUMNS = ("time_s", "density_veh_km_lane", "flow_veh_h_lane", "speed_kmh")

    def nfd_rows(self) -> list[tuple]:
        return [(s.time, s.density, s.flow, s.speed) for s in self.nfd]

    UPDATE_COLUMNS = ("uid", "link", "created_s", "fate", "delivered_s")

    def update_rows(self) -> list[tuple]:
        return [(u.uid, u.link_id, u.created_at, u.fate, u.delivered_at)
                for u in self.updates]
