"""Deci-second microscopic traffic simulation.

Vehicles track the Greenshields speed for the local link density, queue
behind fixed-cycle two-phase signals, and are admitted onto the network
only while the entry link is below jam density, so per-link density can
never exceed the jam value. The step loop is single threaded and fully
deterministic for a given schedule and router, which is what makes run
hashes comparable across reruns; distinct scenarios parallelize as
separate processes, never by threading inside one simulation.

The step (DT), the signal cycle and green share, and the interval of
the flow-density samples are module constants. TrafficConfig holds
the acceleration bound, the horizon and the drain time; a scenario
sets only the drain time ([sim] drain_s).

A vehicle's kinematics and burns are integers. Speed is counted in
thousandths of a km/h (``SPEED_UNITS`` per km/h), so ``a_max * DT`` is
360 units at the default bound. Position along a link is counted in
``roadnet.POS_UNITS`` per metre, 1/36,000 m, so one step at speed s
moves exactly s units, and a 150 m link is 5,400,000 units. Link
lengths, Greenshields targets and free speeds are converted once, when
``_LinkData`` is built. Engine rates are refreshed once per simulated
second (every RATE_REFRESH / DT steps) and held in between, as per-step
increments, each rounded once to a whole number of its measure's
quantum (``BURN_QUANTA``); the lookup bins speed and acceleration to
0.5-unit steps, from the integers, so the exp() evaluations amortize
across the fleet. Floats are made only where a value leaves the
simulation: ``position``, a report's fuel, the flow-density samples,
``vehicle_rows``, ``summary`` and ``state_hash``. A burn total below
2**53 quanta is written out exactly.

``Simulation.step`` moves the fleet in one loop body: move, burn and
stop-line crossing run inline for each vehicle, and only the rare paths
(crossing, putting a vehicle to sleep or replaying what it skipped,
leaving a link) are method calls. The Greenshields target speed is read
from a per-link table indexed by occupancy, built once per simulation
and shared by links with the same speed, density and capacity.

Blocking at a stop line is an instantaneous halt: the acceleration
clamp shapes free driving, not the last half metre before a red light.
The engine map sees envelope-clamped kinematics for that step.

The uplink reads the traffic through four names of ``Simulation``:
``updates``, ``position``, ``cover`` and ``cell_tallies``. Traffic only
creates the reports, each naming its carrier; the uplink holds every one
it has not sent.

Step order is admission order, the order of ``enroute``. The loop visits
only the vehicles that are awake or due: a sleeping vehicle keeps its
place in the step order, but it is filed under its wake step in a
calendar of per-step buckets (after Brown, "Calendar queues", CACM 1988),
and each step merges its bucket into the awake vehicles in step order.
So a sleeping vehicle costs nothing until it wakes.

A vehicle that fails to cross is parked until its wake step. At a red
light that is the next phase flip. Behind a full next link it is
"never", until a vehicle leaves that link; then the waiter's wake is the
current step, so a waiter later in the step order joins this step's
order and tries again in that same step, and an earlier one in the next.
That is the first step at which the per-step loop could have crossed, so
admission order, router draws and the competition for room do not
change. A parked step would only have added the idle burn, so the
skipped burns are replayed at the wake, and before anything reads fuel
(``state_hash`` and the end of ``run``).

A vehicle that moved on its own link short of the stop line, in a step
that left the link's count as the step's snapshot read it, sleeps
moving. Each later step repeats the loop body with the same target for
as long as that count holds: on a ramp, the speed steps toward the
target by at most ``a_max * DT``; once there, it cruises, and every step
adds the same move and burns the same rates. The loop skips it until its
wake: the step after any change of the link's count (an entry, an exit
or an admission), or at the latest the first step whose move could reach
the stop line, so every crossing and router draw happens where the
per-step loop has it.

With integer state, what a sleeper skipped is arithmetic: k cruising
steps move k times the speed, a ramp's moves are an arithmetic series,
and its burns are one run of held rates per refresh window. So
``position``, ``cover`` and ``cell_tallies`` compute a moving sleeper's
exact pos without applying anything, and ``_replay`` applies the skipped
steps at the wake, and before anything reads fuel. Results are
byte-identical to a loop that moves every vehicle every step.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import ClassVar

from . import energy, roadnet
from .errors import SimulationError, ValidationError
from .floats import left_sum

DT = 0.1                 # s
A_MAX = 3.6              # km/h per s, about 1 m/s^2
SIGNAL_CYCLE = 60.0      # s
GREEN_SHARE = 0.5        # per phase
NFD_INTERVAL = 30.0      # s
RATE_REFRESH = 1.0       # s between engine-map lookups per vehicle
_PHASE_STEPS = round(SIGNAL_CYCLE * GREEN_SHARE / DT)   # steps per signal phase

SPEED_UNITS = 1000       # per km/h: speeds are whole thousandths of a km/h
# A step at speed s units moves s position units: s / SPEED_UNITS km/h for
# DT s is s / 36,000 m, which is roadnet.POS_UNITS' unit.
POS_UNITS = roadnet.POS_UNITS
# The per-step burn increments of fuel (L), CO, HC and NOx (mg), in the
# order of energy.MEASURES, are whole multiples of these powers of two.
# Each quantum leaves 2**53 quanta above a million steps (about 28 h) at
# its measure's top rate in the calibration envelope, and 2**18 or more
# in its smallest increment.
BURN_QUANTA = (2.0 ** -41, 2.0 ** -29, 2.0 ** -38, 2.0 ** -36)
# the rate lookup's 0.5 km/h and 0.5 km/h/s bins, in speed units and in
# speed units per step, and the envelope in bins
_V_BIN = SPEED_UNITS // 2
_A_BIN = round(SPEED_UNITS * DT / 2)
_VB_LO, _VB_HI = (round(2 * v) for v in energy.ENVELOPE_V)
_AB_LO, _AB_HI = (round(2 * a) for a in energy.ENVELOPE_A)

_POS_UNITS_KM = POS_UNITS * 1000
_NEVER = math.inf        # wake of a vehicle waiting for room on a full link
_by_seq = attrgetter("seq")   # step order

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


@dataclass(frozen=True)
class OdDemand:
    entries: tuple[OdEntry, ...]
    odsf: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not 0.0 <= self.odsf <= 1.0:
            raise ValidationError(f"odsf {self.odsf} outside [0, 1]")
        for e in self.entries:
            trip = f"{e.origin}->{e.destination}"
            if not 0.0 <= e.rate < math.inf:
                raise ValidationError(f"rate {e.rate} for {trip} must be finite "
                                      f"and not negative", field="entries")
            if not -math.inf < e.start < e.end < math.inf:
                raise ValidationError(f"window [{e.start}, {e.end}) for {trip} must be "
                                      f"finite and not empty", field="entries")
            if e.origin == e.destination:
                raise ValidationError(f"degenerate trip at node {e.origin}",
                                      field="entries")

    def end_time(self) -> float:
        return max((e.end for e in self.entries), default=0.0)


@dataclass(frozen=True)
class Departure:
    time: float
    origin: int
    destination: int


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
            out.append(Departure(t, e.origin, e.destination))
            t += rng.expovariate(lam)
    out.sort(key=lambda d: (d.time, d.origin, d.destination))
    return out


# --- per-vehicle state ----------------------------------------------------

@dataclass
class LinkCostUpdate:
    """One measured link-fuel report (litres), made by its carrier at a link exit.

    Fate moves queued -> delivered or queued -> dropped exactly once.
    """
    uid: int
    link_id: int
    fuel: float
    created_at: float
    carrier: Vehicle
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
    """Mutable per-vehicle record; slots keep the step loop lean.

    ``pos`` and ``distance`` are in position units, ``speed`` and
    ``target`` in speed units, and the burns in their quanta
    (``BURN_QUANTA``), all integers.
    """

    __slots__ = (
        "id", "origin", "destination", "depart", "state",
        "route", "pos", "speed", "entered_at", "finished_at",
        "distance", "ff_time", "fuel", "co", "hc", "nox", "link_fuel",
        "rates", "rate_until", "decided", "wake", "burned_to", "moving",
        "target", "seq")

    def __init__(self, vid: int, dep: Departure):
        self.id = vid
        self.origin = dep.origin
        self.destination = dep.destination
        self.depart = dep.time
        self.state = WAITING
        self.route: list[int] = []
        self.pos = 0
        self.speed = 0
        self.entered_at = None
        self.finished_at = None
        self.distance = 0         # completed links only
        self.ff_time = 0.0        # s, free-flow time of links actually driven
        self.fuel = 0
        self.co = 0
        self.hc = 0
        self.nox = 0
        self.link_fuel = 0        # fuel on the current link
        self.rates = None
        self.rate_until = 0       # step of the next engine-map lookup
        self.decided = False      # route tail already refreshed at this stop
        self.wake = 0             # step the loop moves it again; 0: not asleep
        self.burned_to = 0        # asleep: first step whose burn (moving asleep:
                                  # and whose move) is not applied
        self.moving = False       # asleep moving (see Simulation._sleep_moving)
        self.target = 0           # moving asleep: the speed it steps toward
        self.seq = 0              # admission sequence number: the step order


@dataclass(frozen=True)
class TrafficConfig:
    dt: ClassVar[float] = DT       # the step is fixed; readable, not settable
    a_max: float = A_MAX
    horizon: float | None = None    # None: demand end + drain
    drain: float = 1800.0

    def __post_init__(self):
        if not 0.0 < self.a_max < math.inf:
            raise ValidationError(f"a_max {self.a_max} must be positive and finite",
                                  field="a_max")
        if round(self.a_max * DT * SPEED_UNITS) < 1:
            raise ValidationError(f"a_max {self.a_max} km/h per s changes the speed by "
                                  f"less than half a speed unit per step", field="a_max")
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ValidationError(f"horizon {self.horizon} must be positive and finite",
                                  field="horizon")
        if not 0.0 <= self.drain < math.inf:
            raise ValidationError(f"drain {self.drain} must be finite and not negative",
                                  field="drain")


@dataclass(frozen=True)
class NfdSample:
    time: float
    density: float     # veh/km/lane
    flow: float        # veh/h/lane
    speed: float | None


def free_flow_router(network: roadnet.RoadNetwork):
    """Static shortest-time router with a per-OD cache."""
    cache: dict[tuple[int, int], list[int]] = {}
    times = {lid: ln.length / ln.free_speed for lid, ln in network.links.items()}

    def route(now, vehicle, at_node):
        key = (at_node, vehicle.destination)
        got = cache.get(key)
        if got is None:
            got = cache[key] = roadnet.shortest_path(
                network, at_node, vehicle.destination, times.__getitem__)
        return got

    return route


class _LinkData(roadnet.LinkLine):
    """A link as the step loop reads it, in integer units.

    ``length`` is in position units (`roadnet.LinkLine`), ``free_speed``
    in speed units, and ``target[k]`` is the Greenshields speed at k
    vehicles on the link, for k = 0..cap, rounded to speed units. Links
    with equal free speed, 1 / (km * lanes), jam density and cap share
    one list, kept in ``tables``.
    """

    __slots__ = ("free_speed", "cap", "target", "to_node", "to_signal", "red_from",
                 "ff_time")

    def __init__(self, link: roadnet.Link, network: roadnet.RoadNetwork,
                 tables: dict[tuple, list[int]]):
        roadnet.LinkLine.__init__(self, link, network)
        self.free_speed = round(link.free_speed * SPEED_UNITS)
        len_lanes_km = link.length / 1000.0 * link.lanes
        self.cap = int(link.jam_density * len_lanes_km + 1e-9)
        inv_len_lanes = 1.0 / len_lanes_km
        key = (link.free_speed, inv_len_lanes, link.jam_density, self.cap)
        target = tables.get(key)
        if target is None:
            target = tables[key] = [
                round(greenshields(link.free_speed, k * inv_len_lanes,
                                   link.jam_density) * SPEED_UNITS)
                for k in range(self.cap + 1)]
        self.target = target
        self.to_node = link.to_node
        self.to_signal = network.has_signal(link.to_node)
        # the offset of red in the 2p-step signal cycle: the approach axis
        # decides which phase is green; ties read as east-west
        self.red_from = _PHASE_STEPS if abs(self.dx) >= abs(self.dy) else 0
        self.ff_time = link.length / (link.free_speed / 3.6)


def _check_nodes(network: roadnet.RoadNetwork, trips, field: str) -> None:
    """Refuse the first trip (OdEntry or Departure) with an unknown node."""
    for trip in trips:
        for node in (trip.origin, trip.destination):
            if node not in network.nodes:
                raise ValidationError(f"trip {trip.origin}->{trip.destination} "
                                      f"references unknown node {node}", field=field)


class Simulation:
    """Single-run co-simulation shell around the vehicle step loop.

    Construct with either a demand description (a schedule is drawn from
    it with the seed) or an explicit departure list. The router callable
    is asked for a remaining link-id path at admission and whenever a
    vehicle first reaches the end of a link short of its destination; the
    answer is reused while the vehicle sits blocked. An optional comm
    object gets ``comm.step(sim, now)`` once per step after movement and
    admission. It reads ``updates`` (every report, in creation order, each
    naming its carrier), ``position(veh)``, ``cover(veh, index)`` and
    ``cell_tallies(index)`` (the en-route fleet counted by RSU cover), and
    holds, sends and drops the reports; without one every report stays
    queued. ``enroute`` is the whole en-route fleet in step order.
    """

    def __init__(self, network: roadnet.RoadNetwork, *,
                 demand: OdDemand | None = None,
                 schedule: list[Departure] | None = None,
                 config: TrafficConfig | None = None,
                 router=None, coeffs=None, comm=None, seed: int = 0):
        # every trip's nodes are checked, also those of a demand row that
        # the draw gives no vehicle
        if schedule is None:
            if demand is None:
                raise ValidationError("need a demand description or a schedule")
            _check_nodes(network, demand.entries, "entries")
            schedule = generate_demand(demand, seed)
        else:
            _check_nodes(network, schedule, "schedule")
        self.network = network
        self.config = config or TrafficConfig()
        self.router = router or free_flow_router(network)
        self.coeffs = coeffs or energy.load_coefficients()
        self.comm = comm
        self.vehicles = [Vehicle(i + 1, dep) for i, dep in enumerate(schedule)]

        tables: dict[tuple, list[float]] = {}
        self._lk = {lid: _LinkData(link, network, tables)
                    for lid, link in network.links.items()}
        self._occ = dict.fromkeys(network.links, 0)
        # the start-of-step count of each link changed since the step began;
        # the others still hold it, so together they are the step's snapshot
        self._occ_before: dict[int, int] = {}
        self._total_len_lanes_km = left_sum(
            ln.length / 1000.0 * ln.lanes for ln in network.links.values())

        cfg = self.config
        self._nfd_steps = round(NFD_INTERVAL / DT)
        self._refresh_steps = round(RATE_REFRESH / DT)
        self._dv_max = round(cfg.a_max * DT * SPEED_UNITS)

        if demand is not None:
            self._demand_end = demand.end_time()
        else:
            self._demand_end = max((d.time for d in schedule), default=0.0)
        self.horizon = cfg.horizon if cfg.horizon is not None \
            else self._demand_end + cfg.drain

        self._due = sorted(self.vehicles, key=lambda v: (v.depart, v.id))
        self._due_ptr = 0
        self._entry_queues: dict[int, deque[Vehicle]] = {}   # non-empty only
        self.enroute: list[Vehicle] = []
        self._awake: list[Vehicle] = []   # en route and not asleep, in step order
        self._calendar: dict[int, list[Vehicle]] = {}  # step -> vehicles due then
        self._todo: list[Vehicle] = []    # the vehicles of the running step
        self._admitted = 0
        self._waiters: dict[int, list[Vehicle]] = {lid: [] for lid in network.links}
        self._movers: dict[int, list[Vehicle]] = {}   # made on a link's first mover
        self._n_enroute = 0       # admitted minus finished, checked against enroute
        self._n = 0
        self._moved = 0           # steps the loop has moved the fleet through
        self._update_seq = 0
        self._rate_cache: dict = {}
        self.updates: list[LinkCostUpdate] = []
        self.nfd: list[NfdSample] = []
        self.finished: list[Vehicle] = []
        # vehicle-steps in the loop, the parked ones among them by the
        # light at the stop line, and the moving asleep ones at their
        # target speed (cruise) or stepping toward it (ramp); the replay
        # counts the parked and the moving ones, and the loop the rest,
        # the ones it visits
        self.vehicle_steps = 0
        self.parked_red_steps = 0
        self.parked_full_steps = 0
        self.cruise_steps = 0
        self.ramp_steps = 0
        self.visited_steps = 0

    # -- clock and public state ------------------------------------------

    @property
    def now(self) -> float:
        return self._n * DT

    def counts(self) -> dict[str, int]:
        """Trip accounting: every vehicle, by state."""
        out = {"generated": len(self.vehicles),
               WAITING: 0, EN_ROUTE: 0, FINISHED: 0, DEFERRED: 0}
        for veh in self.vehicles:
            out[veh.state] += 1
        return out

    def done(self) -> bool:
        if self.now >= self.horizon - 1e-9:
            return True
        return (not self.enroute and self._due_ptr >= len(self._due)
                and not self._entry_queues)

    def position(self, veh: Vehicle) -> tuple[float, float]:
        """Plane coordinates of an en-route vehicle, interpolated along its link."""
        return self._lk[veh.route[0]].point(self._pos(veh))

    def cover(self, veh: Vehicle, index: roadnet.CoverageIndex) -> int:
        """Cover id of ``index`` at an en-route vehicle's pos, by its link's profile."""
        lid = veh.route[0]
        cuts, covers = index.profiles.get(lid) or index.profile(lid)
        return covers[bisect_right(cuts, self._pos(veh))]

    def cell_tallies(self, index: roadnet.CoverageIndex) -> dict[int, int]:
        """The en-route fleet as {cover id of ``index``: vehicles there}.

        Each vehicle's pos is placed in its link's profile (see
        `roadnet.LinkProfile`, built the first time a tally meets the
        link), as ``cover`` places it. A vehicle moving asleep is placed at
        the exact pos its unapplied steps reach (``_travel``), which
        applies nothing. ``index`` must be built on this simulation's
        network, whose links its profiles are made from.
        """
        profiles = index.profiles
        build = index.profile
        moved = self._moved
        travel = self._travel
        tallies: dict[int, int] = {}
        get = tallies.get
        for veh in self.enroute:
            lid = veh.route[0]
            cuts, covers = profiles.get(lid) or build(lid)
            pos = veh.pos
            if veh.moving:
                pos += travel(veh, moved - veh.burned_to)[0]
            cid = covers[bisect_right(cuts, pos)]
            tallies[cid] = get(cid, 0) + 1
        return tallies

    def _pos(self, veh) -> int:
        """An en-route vehicle's pos after the steps moved so far."""
        if veh.moving:
            return veh.pos + self._travel(veh, self._moved - veh.burned_to)[0]
        return veh.pos

    def _travel(self, veh, k) -> tuple[int, int]:
        """The move and the speed of k steps of a vehicle moving asleep.

        Its speed steps by ``a_max * DT`` toward the target while that is
        further off (``full`` steps), then takes the target: an
        arithmetic series of moves, then k - full moves at the target.
        """
        v = veh.speed
        target = veh.target
        gap = target - v
        if not gap:
            return k * v, v
        dm = self._dv_max
        full = (gap if gap > 0 else -gap) // dm
        d = dm if gap > 0 else -dm
        m = k if k < full else full
        return (m * v + d * (m * (m + 1) // 2) + (k - m) * target,
                v + k * d if k <= full else target)

    # -- engine-map plumbing ----------------------------------------------

    def _lookup_rates(self, v: int, dv: int):
        """Per-step burn increments, in quanta, at speed v and speed change dv.

        The bins are the nearest half km/h and half km/h/s, ties up,
        clamped to the calibration envelope there, not in the map, so
        stop-line discontinuities do not spray warnings.
        """
        vb = (v + _V_BIN // 2) // _V_BIN
        ab = (dv + _A_BIN // 2) // _A_BIN
        key = (_VB_LO if vb < _VB_LO else _VB_HI if vb > _VB_HI else vb,
               _AB_LO if ab < _AB_LO else _AB_HI if ab > _AB_HI else ab)
        got = self._rate_cache.get(key)
        if got is None:
            got = self._rate_cache[key] = tuple(
                round(energy.vt_micro_rate(key[0] / 2, key[1] / 2, self.coeffs, m) * DT / q)
                for m, q in zip(energy.MEASURES, BURN_QUANTA))
        return got

    # -- step loop ---------------------------------------------------------

    def step(self) -> None:
        """Advance every vehicle one step, then admit, uplink and defer.

        One loop body moves each awake or due vehicle in step order: a stop
        line reached in an earlier step is tried first, then the speed
        steps toward the link's Greenshields target for the occupancy at
        the start of the step (``_LinkData.target``), clamped to
        ``a_max * DT``, then the step's burn, then a stop line reached in
        this step is tried. A vehicle that is due at a line it already
        holds and fails to cross again burns the step at v = a = 0, through
        the same burn. A vehicle reaches the line when its pos is the
        link's length or more.

        The burn adds the held per-step increments to the accumulators.
        They are looked up every RATE_REFRESH and held in between. A parked
        vehicle skips its held steps, each a burn at v = a = 0. One moving
        asleep (see ``_sleep_moving``) skips steps that each repeat this
        body with the same target. The loop does not visit either until
        the step it is filed under in the calendar, where ``_replay``
        applies what it skipped.
        """
        n = self._n
        now = n * DT
        if n % self._nfd_steps == 0:
            self._sample_nfd(now)
        now_end = (n + 1) * DT

        occ = self._occ
        before = self._occ_before
        before.clear()
        self.vehicle_steps += len(self.enroute)
        todo = self._awake
        due = self._calendar.pop(n, None)
        if due:
            # a vehicle may be filed again under a step after its wake moved,
            # or twice under one step; only one that is due now is visited,
            # and once
            todo = todo + list(dict.fromkeys(v for v in due if 0 < v.wake <= n))
            todo.sort(key=_by_seq)
        # _exit_link puts a waiter it wakes later in the step order into
        # todo, ahead of the loop's iterator
        self._todo = todo
        finished_now = False
        awake = []
        snap_get = before.get
        keep = awake.append
        lks = self._lk
        dv_max = self._dv_max
        dv_min = -dv_max
        refresh = self._refresh_steps
        lookup = self._lookup_rates
        try_cross = self._try_cross
        for veh in todo:
            if veh.wake:
                # asleep until this step: apply what it skipped
                self._replay(veh, n)
                veh.wake, veh.moving = 0, False
            lid = veh.route[0]
            lk = lks[lid]
            own = 1          # the snapshot counts the vehicle on its link
            moving = True
            if veh.pos >= lk.length:
                # held at the stop line since an earlier step, and due again
                if not try_cross(veh, n, now_end):
                    moving = False
                elif veh.state == FINISHED:
                    finished_now = True
                    continue
                else:
                    lid = veh.route[0]
                    lk = lks[lid]
                    own = 0
            if moving:
                snap = snap_get(lid)
                if snap is None:
                    snap = occ[lid]
                k_cnt = snap - own
                if k_cnt < 0:
                    k_cnt = 0
                speed = veh.speed
                target = lk.target[k_cnt]
                dv = target - speed
                if dv > dv_max:
                    dv = dv_max
                elif dv < dv_min:
                    dv = dv_min
                v = speed + dv
                pos = veh.pos + v
                veh.pos = pos
            else:
                v = dv = 0
            veh.speed = v

            # the burn of step n
            if n >= veh.rate_until:
                veh.rates = lookup(v, dv)
                veh.rate_until = n + refresh
            f, c, h, x = veh.rates
            veh.fuel += f
            veh.link_fuel += f
            veh.co += c
            veh.hc += h
            veh.nox += x

            if moving and pos >= lk.length:
                over = pos - lk.length
                if try_cross(veh, n, now_end):
                    if veh.state == FINISHED:
                        finished_now = True
                        continue
                    nlk = lks[veh.route[0]]
                    if over >= nlk.length:
                        raise SimulationError(
                            f"position overrun: vehicle {veh.id} jumped past "
                            f"link {veh.route[0]} ({over / POS_UNITS:.2f} m beyond "
                            f"entry)")
                    veh.pos = over
                    if veh.speed > nlk.free_speed:
                        veh.speed = nlk.free_speed
                else:
                    veh.pos = lk.length
                    veh.speed = 0
            elif moving and own and occ[lid] == snap:
                # its link's count is still the snapshot's, so the next
                # snapshot gives the same target unless a change wakes it
                self._sleep_moving(veh, lid, n, target)
            if not veh.wake:
                keep(veh)
        self.visited_steps += len(todo)
        self._awake = awake
        if finished_now:
            self.enroute = [v for v in self.enroute if v.state != FINISHED]
        self._moved = n + 1

        self._admit(now, now_end)
        if self.comm is not None:
            self.comm.step(self, now_end)
        if self._demand_end is not None and now_end >= self._demand_end - 1e-9:
            self._defer_waiting()
        self._n = n + 1

        if self._n_enroute != len(self.enroute):
            raise SimulationError(
                f"conservation broken at t={now_end}: {self._n_enroute} admitted "
                f"and not finished, {len(self.enroute)} en route")

    def run(self, until: float | None = None) -> None:
        stop = self.horizon if until is None else min(until, self.horizon)
        while not self.done() and self.now < stop - 1e-9:
            self.step()
        self._settle()

    # -- stop lines, parked and moving asleep vehicles -------------------------

    def _replay(self, veh, upto) -> None:
        """Apply the steps a parked or moving asleep vehicle skipped before ``upto``.

        A parked step is the burn at v = a = 0 (see ``step``). A moving
        step is the loop body with the target held in ``veh.target``:
        ``_travel`` gives the move and the speed of all of them at once.
        The burns are those of the held increments until the next lookup
        is due, then one run per refresh window, looked up at the speed
        and speed change of the window's first step. Once that step is
        steady (the speed on its target, or parked), every later window
        looks up the same rates, so the rest is one run.
        """
        start = veh.burned_to
        k = upto - start
        if k <= 0:
            return
        veh.burned_to = upto
        v0 = target = d = full = 0
        if veh.moving:
            v0, target = veh.speed, veh.target
            dm = self._dv_max
            d = dm if target > v0 else -dm
            full = abs(target - v0) // dm
            ramp = min(-(-abs(target - v0) // dm), k)      # the steps off target
            self.ramp_steps += ramp
            self.cruise_steps += k - ramp
            moved, veh.speed = self._travel(veh, k)
            veh.pos += moved
        else:
            lk = self._lk[veh.route[0]]
            red = self._red_steps(lk, start, upto) if lk.to_signal else 0
            self.parked_red_steps += red
            self.parked_full_steps += k - red

        j = veh.rate_until            # the next lookup
        f, c, h, x = rates = veh.rates
        held = min(j, upto) - start
        fuel, co, hc, nox = held * f, held * c, held * h, held * x
        p = self._refresh_steps
        while j < upto:
            i = j - start + 1         # step j is the i-th skipped one
            if i <= full:
                v, dv = v0 + i * d, d
            else:
                v, dv = target, target - v0 - full * d if i == full + 1 else 0
            run = min(p, upto - j) if dv else upto - j
            f, c, h, x = rates = self._lookup_rates(v, dv)
            fuel += run * f
            co += run * c
            hc += run * h
            nox += run * x
            j += -(-run // p) * p
        veh.rates, veh.rate_until = rates, j
        veh.fuel += fuel
        veh.link_fuel += fuel
        veh.co += co
        veh.hc += hc
        veh.nox += nox

    def _red_steps(self, lk, start, upto) -> int:
        """Steps in [start, upto) at which lk's approach shows red."""
        p = _PHASE_STEPS

        def before(n):
            cycles, rem = divmod(n, 2 * p)
            return cycles * p + min(max(rem - lk.red_from, 0), p)

        return before(upto) - before(start)

    def _settle(self) -> None:
        """Bring every parked or moving asleep vehicle up to the clock."""
        for veh in self.enroute:
            if veh.wake:
                self._replay(veh, self._n)

    def _sleep_moving(self, veh, lid, n, target) -> None:
        """Let a vehicle that moved on its own link toward ``target`` sleep from n + 1.

        Called after step n's move when it did not reach the stop line and
        the link's count was still the snapshot step n read. Each later
        step then repeats the loop body with the same target for as long
        as that count holds: the speed steps toward the target (a ramp;
        once there, a cruise), and the vehicle moves and burns.
        ``_replay`` applies those steps at the wake: the step after any
        change of the link's count (``_change_occupancy``) or, at the
        latest, the step whose move could first reach the stop line.

        No step moves the vehicle by more than top, the faster of its
        speed and the target, so the first (length - pos - 1) // top
        steps surely stay short of the line, and the vehicle wakes at the
        step after them. For a cruise, top is every step's move, and that
        is the very step whose move reaches the line. A vehicle that
        stands with a target of 0 never reaches the line, and one that
        could reach it within two steps stays awake.
        """
        top = veh.speed if veh.speed > target else target
        if top:
            skip = (self._lk[lid].length - veh.pos - 1) // top
            if skip < 2:
                return
            wake = n + 1 + skip
            self._file(veh, wake)
        else:
            wake = _NEVER
        veh.wake = wake
        veh.target = target
        veh.moving, veh.burned_to = True, n + 1
        self._movers.setdefault(lid, []).append(veh)

    def _file(self, veh, n) -> None:
        """Put a sleeping vehicle in the calendar under step n."""
        self._calendar.setdefault(n, []).append(veh)

    def _change_occupancy(self, lid, delta) -> None:
        """Add delta to lid's count, keeping the step's snapshot of it.

        lid's moving sleepers wake by the next step, whose snapshot shows
        the change. One later in the step order may already be due at its
        stop line in this step, so a wake only moves earlier. Every vehicle
        on the list is on lid, since leaving lid clears it; a parked one
        keeps its wake.
        """
        occ = self._occ
        self._occ_before.setdefault(lid, occ[lid])
        occ[lid] += delta
        movers = self._movers.get(lid)
        if movers:
            nxt = self._n + 1
            for veh in movers:
                if veh.moving and veh.wake > nxt:
                    veh.wake = nxt
                    self._file(veh, nxt)
            movers.clear()

    def _try_cross(self, veh, n, now_end) -> bool:
        """Cross the stop line at step n, or park the vehicle there.

        A vehicle held by a red light wakes at the next phase flip. One
        held by a full next link waits on that link's list until a vehicle
        leaves it (see ``_exit_link``).
        """
        lid = veh.route[0]
        lk = self._lk[lid]
        to = lk.to_node
        if to != veh.destination and not veh.decided:
            tail = self.router(n * DT, veh, to)
            veh.route = [lid, *tail]
            veh.decided = True
        p = _PHASE_STEPS
        if lk.to_signal and (n - lk.red_from) % (2 * p) < p:
            veh.wake = (n // p + 1) * p
            veh.burned_to = n + 1
            self._file(veh, veh.wake)
            return False
        if to == veh.destination:
            self._exit_link(veh, lid, lk, now_end)
            veh.state = FINISHED
            veh.finished_at = now_end
            self._n_enroute -= 1
            self.finished.append(veh)
            return True
        nxt = veh.route[1]
        nlk = self._lk[nxt]
        if self._occ[nxt] + 1 > nlk.cap:
            veh.wake = _NEVER
            veh.burned_to = n + 1
            self._waiters[nxt].append(veh)
            return False
        self._exit_link(veh, lid, lk, now_end)
        veh.route.pop(0)
        self._change_occupancy(nxt, 1)
        veh.pos = 0
        veh.decided = False
        return True

    def _exit_link(self, veh, lid, lk, now_end) -> None:
        self._update_seq += 1
        self.updates.append(LinkCostUpdate(
            self._update_seq, lid, veh.link_fuel * BURN_QUANTA[0], now_end, veh))
        veh.link_fuel = 0
        veh.distance += lk.length
        veh.ff_time += lk.ff_time
        self._change_occupancy(lid, -1)
        waiters = self._waiters[lid]
        if waiters:
            # room on lid: its waiters try again at their next turn, which
            # for one later in the step order than veh, the vehicle the loop
            # is moving, is this very step
            n = self._n
            for w in waiters:
                w.wake = n
                if w.seq > veh.seq:
                    insort(self._todo, w, key=_by_seq)
                else:
                    self._file(w, n + 1)
            waiters.clear()

    # -- admissions ----------------------------------------------------------

    def _admit(self, now, now_end) -> None:
        due = self._due
        queues = self._entry_queues
        while self._due_ptr < len(due) and due[self._due_ptr].depart <= now_end + 1e-9:
            veh = due[self._due_ptr]
            self._due_ptr += 1
            veh.route = list(self.router(now, veh, veh.origin))
            if not veh.route:
                raise ValidationError(f"vehicle {veh.id} has an empty route")
            queues.setdefault(veh.route[0], deque()).append(veh)
        if not queues:
            return
        occ = self._occ
        for lid in sorted(queues):
            q = queues[lid]
            lk = self._lk[lid]
            while q and occ[lid] + 1 <= lk.cap:
                veh = q.popleft()
                k = occ[lid]
                self._change_occupancy(lid, 1)
                veh.state = EN_ROUTE
                veh.entered_at = now_end
                veh.pos = 0
                veh.speed = lk.target[k]
                veh.seq = self._admitted
                self._admitted += 1
                self.enroute.append(veh)
                self._awake.append(veh)
                self._n_enroute += 1
            if not q:
                del queues[lid]

    def _defer_waiting(self) -> None:
        # demand window closed: whoever never found a spot gives up
        for q in self._entry_queues.values():
            for veh in q:
                veh.state = DEFERRED
        self._entry_queues.clear()
        self._demand_end = None

    # -- outputs -------------------------------------------------------------

    def _sample_nfd(self, now) -> None:
        count = len(self.enroute)
        if count == 0:
            self.nfd.append(NfdSample(now, 0.0, 0.0, None))
            return
        moved = self._moved
        total = sum(self._travel(v, moved - v.burned_to)[1] if v.moving else v.speed
                    for v in self.enroute)
        density = count / self._total_len_lanes_km
        speed = total / (count * SPEED_UNITS)
        self.nfd.append(NfdSample(now, density, density * speed, speed))

    def state_hash(self) -> str:
        self._settle()
        h = hashlib.sha256()
        h.update(f"{self._n}\n".encode())
        for veh in self.vehicles:
            lid = veh.route[0] if veh.state == EN_ROUTE else 0
            h.update(f"{veh.id} {veh.state} {lid} {veh.pos} "
                     f"{veh.speed} {veh.fuel}\n".encode())
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
        out["mean_distance_km"] = mean(lambda v: v.distance / _POS_UNITS_KM)
        out["mean_speed_kmh"] = mean(
            lambda v: v.distance / _POS_UNITS_KM / ((v.finished_at - v.depart) / 3600.0))
        qf, qc, qh, qx = BURN_QUANTA
        out["mean_fuel_l"] = mean(lambda v: v.fuel * qf)
        out["mean_co_mg"] = mean(lambda v: v.co * qc)
        out["mean_hc_mg"] = mean(lambda v: v.hc * qh)
        out["mean_nox_mg"] = mean(lambda v: v.nox * qx)
        return out

    VEHICLE_COLUMNS = ("id", "origin", "destination", "depart_s", "entered_s",
                       "finished_s", "travel_s", "delay_s", "distance_km",
                       "fuel_l", "co_mg", "hc_mg", "nox_mg")

    def vehicle_rows(self) -> list[tuple]:
        qf, qc, qh, qx = BURN_QUANTA
        return [(v.id, v.origin, v.destination, v.depart, v.entered_at,
                 v.finished_at, v.finished_at - v.depart,
                 v.finished_at - v.depart - v.ff_time, v.distance / _POS_UNITS_KM,
                 v.fuel * qf, v.co * qc, v.hc * qh, v.nox * qx)
                for v in self.finished]

    NFD_COLUMNS = ("time_s", "density_veh_km_lane", "flow_veh_h_lane", "speed_kmh")

    def nfd_rows(self) -> list[tuple]:
        return [(s.time, s.density, s.flow, s.speed) for s in self.nfd]

    UPDATE_COLUMNS = ("uid", "link", "created_s", "fate", "delivered_s")

    def update_rows(self) -> list[tuple]:
        return [(u.uid, u.link_id, u.created_at, u.fate, u.delivered_at)
                for u in self.updates]
