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
rates are refreshed once per simulated second (every RATE_REFRESH / DT
steps, counted in whole steps) and held in between, as per-step
increments (rate times DT) that the burn adds as they are. The lookup
quantizes speed and acceleration to 0.5-unit bins so the exp()
evaluations amortize across the fleet.

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
``updates``, ``carriers``, ``position`` and ``cell_tallies``.

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
(``state_hash`` and the end of ``run``). A parked vehicle stands at its
stop line, whose RSUs its link's coverage profile holds, so
``cell_tallies`` places it without computing its point.

A vehicle that holds its link's target speed is cruising, the second
sleeping state. It enters at a step that kept its speed short of the
stop line and looked its rates up at that speed, so each later step
repeats it: the same target, the same increment of position and the same
burn, for as long as the link's occupancy snapshot stays the same. The
loop skips it until its wake: the step after any change of the link's
occupancy (an entry, an exit or an admission), or at the latest the
step that reaches the stop line, so every crossing and router draw
happens where the per-step loop has it. The skipped moves and burns are
replayed at the wake and before fuel is read. ``position`` brings the
position alone up to date, since the uplink reads it; ``cell_tallies``
does so only for a cruiser whose estimated position falls in a guard
band of its link's coverage profile.

Both replays use ``floats.add_repeated``, which gives the bits of the
step-by-step sums; results are byte-identical to a loop that moves
every vehicle every step.
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
from .floats import add_repeated, left_sum

DT = 0.1                 # s
A_MAX = 3.6              # km/h per s, about 1 m/s^2
SIGNAL_CYCLE = 60.0      # s
GREEN_SHARE = 0.5        # per phase
NFD_INTERVAL = 30.0      # s
RATE_REFRESH = 1.0       # s between engine-map lookups per vehicle

_POS_EPS = 1e-6          # m, stop-line arrival tolerance
_NEVER = math.inf        # wake of a vehicle waiting for room on a full link
_ESTIMATE_STEPS = 2 ** 30  # most steps a cruiser's position is estimated over
_V_LO, _V_HI = energy.ENVELOPE_V
_A_LO, _A_HI = energy.ENVELOPE_A
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
        "pending", "rates", "rate_until", "decided", "wake", "burned_to",
        "moved_to", "seq")

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
        self.rate_until = 0       # step of the next engine-map lookup
        self.decided = False      # route tail already refreshed at this stop
        self.wake = 0             # step the loop moves it again; 0: not asleep
        self.burned_to = 0        # asleep: first step whose burn is not applied
        self.moved_to = 0         # cruising: first step whose move is not applied;
                                  # 0: not cruising
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
    """A link as the step loop reads it.

    ``target[k]`` is the Greenshields speed at k vehicles on the link, for
    k = 0..cap. Links with equal (free_speed, inv_len_lanes, jam, cap)
    share one list, kept in ``tables``.
    """

    __slots__ = ("free_speed", "jam", "cap", "inv_len_lanes", "target",
                 "to_node", "to_signal", "is_ew", "ff_time")

    def __init__(self, link: roadnet.Link, network: roadnet.RoadNetwork,
                 tables: dict[tuple, list[float]]):
        roadnet.LinkLine.__init__(self, link, network)
        self.free_speed = link.free_speed
        self.jam = link.jam_density
        len_lanes_km = link.length / 1000.0 * link.lanes
        self.cap = int(link.jam_density * len_lanes_km + 1e-9)
        self.inv_len_lanes = 1.0 / len_lanes_km
        key = (self.free_speed, self.inv_len_lanes, self.jam, self.cap)
        target = tables.get(key)
        if target is None:
            target = tables[key] = [
                greenshields(self.free_speed, k * self.inv_len_lanes, self.jam)
                for k in range(self.cap + 1)]
        self.target = target
        self.to_node = link.to_node
        self.to_signal = network.has_signal(link.to_node)
        # approach axis decides which phase is green; ties read as east-west
        self.is_ew = abs(self.dx) >= abs(self.dy)
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
    admission. It reads ``updates`` (every report, in creation order),
    ``carriers`` (the en-route vehicles that hold pending reports, asleep
    or not, in step order), ``position(veh)`` and
    ``cell_tallies(index)`` (the en-route fleet counted by RSU cover), and
    takes what it sends out of ``veh.pending``. ``enroute`` is the whole
    en-route fleet in step order.
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
        self._total_len_lanes_km = left_sum(
            ln.length / 1000.0 * ln.lanes for ln in network.links.values())

        cfg = self.config
        self._phase_steps = round(SIGNAL_CYCLE * GREEN_SHARE / DT)
        self._nfd_steps = round(NFD_INTERVAL / DT)
        self._refresh_steps = round(RATE_REFRESH / DT)
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
        self.enroute: list[Vehicle] = []
        self.carriers: list[Vehicle] = []
        self._awake: list[Vehicle] = []   # en route and not asleep, in step order
        self._calendar: dict[int, list[Vehicle]] = {}  # step -> vehicles due then
        self._todo: list[Vehicle] = []    # the vehicles of the running step
        self._admitted = 0
        self._waiters: dict[int, list[Vehicle]] = {lid: [] for lid in network.links}
        self._cruisers: dict[int, list[Vehicle]] = {}   # made on a link's first cruise
        self._n_enroute = 0       # admitted minus finished, checked against enroute
        self._n = 0
        self._moved = 0           # steps the loop has moved the fleet through
        self._update_seq = 0
        self._rate_cache: dict = {}
        self.updates: list[LinkCostUpdate] = []
        self.nfd: list[NfdSample] = []
        self.finished: list[Vehicle] = []
        # vehicle-steps in the loop, the parked ones among them by the
        # light at the stop line, and the cruising ones; the replay counts
        # the parked and the cruising ones, and the loop the rest, the ones
        # it visits
        self.vehicle_steps = 0
        self.parked_red_steps = 0
        self.parked_full_steps = 0
        self.cruise_steps = 0
        self.visited_steps = 0

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
        return (not self.enroute and self._due_ptr >= len(self._due)
                and all(not q for q in self._entry_queues.values()))

    def position(self, veh: Vehicle) -> tuple[float, float]:
        """Plane coordinates of an en-route vehicle, interpolated along its link.

        A cruiser's position is brought up to the steps moved so far; its
        burns wait for its wake.
        """
        if veh.moved_to:
            self._move_to(veh, self._moved)
        return self._lk[veh.route[0]].point(veh.pos)

    def cell_tallies(self, index: roadnet.CoverageIndex) -> dict[int, int]:
        """The en-route fleet as {cover id of ``index``: vehicles there}.

        Each vehicle's pos is placed in its link's profile (see
        `roadnet.LinkProfile`, built the first time a tally meets the
        link), and only a pos in a guard band goes to ``index.cover_at``
        and its exact test. A cruiser is placed by its estimate
        pos + inc * k, k the steps it has not applied yet: that is off by
        at most k + 2 roundings of a pos, a small part of a band for k up
        to ``_ESTIMATE_STEPS``, so an estimate outside every band gets the
        cover of the settled position. The cruiser is settled (its moves
        applied, as ``position`` does) only where the estimate falls in a
        band, or at or past the stop line. The estimate and the inlined
        bisection together make the impact-realistic benchmark about 3%
        faster than settling every cruiser and calling ``cover_at`` for
        every vehicle. ``index`` must be built on this simulation's
        network, whose links its profiles are made from.
        """
        profiles = index.profiles
        build = index.profile
        lks = self._lk
        moved = self._moved
        tallies: dict[int, int] = {}
        get = tallies.get
        for veh in self.enroute:
            lid = veh.route[0]
            cuts, covers, _ = profiles.get(lid) or build(lid)
            pos = veh.pos
            if veh.moved_to:
                k = moved - veh.moved_to
                est = pos + veh.speed / 3.6 * DT * k
                cid = covers[bisect_right(cuts, est)]
                if cid < 0 or est >= lks[lid].length or k > _ESTIMATE_STEPS:
                    self._move_to(veh, moved)
                    pos = veh.pos
                    cid = covers[bisect_right(cuts, pos)]
            else:
                cid = covers[bisect_right(cuts, pos)]
            if cid < 0:
                cid = index.cover_at(lid, pos)
            tallies[cid] = get(cid, 0) + 1
        return tallies

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
        key = (round(v * 2.0), round(a * 2.0))
        v = key[0] / 2.0
        a = key[1] / 2.0
        got = self._rate_cache.get(key)
        if got is None:
            # per-step increments: the burn adds them as they are
            got = tuple(energy.vt_micro_rate(v, a, self.coeffs, m) * DT
                        for m in energy.MEASURES)
            self._rate_cache[key] = got
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
        the same burn.

        The burn adds the held per-step increments (rate times DT) to the
        accumulators. They are looked up every RATE_REFRESH and held in
        between. A parked vehicle skips its held steps, each a burn at
        v = a = 0. A cruising one (see ``_cruise``) skips steps that each
        move it by the same increment and burn the same rates. The loop
        does not visit either until the step it is filed under in the
        calendar, where ``_replay`` applies what it skipped, bit for bit.
        """
        n = self._n
        now = n * DT
        if n % self._nfd_steps == 0:
            self._sample_nfd(now)
        now_end = (n + 1) * DT

        occ_snap = dict(self._occ)
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
        finished_now: list[Vehicle] = []
        awake = []
        carried = []
        occ_get = occ_snap.get
        keep = awake.append
        carry = carried.append
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
                veh.wake = veh.moved_to = 0
            lid = veh.route[0]
            lk = lks[lid]
            own = 1          # the snapshot counts the vehicle on its link
            moving = True
            if veh.pos >= lk.length - _POS_EPS:
                # held at the stop line since an earlier step, and due again
                if not try_cross(veh, n, now_end):
                    moving = False
                elif veh.state == FINISHED:
                    finished_now.append(veh)
                    continue
                else:
                    lid = veh.route[0]
                    lk = lks[lid]
                    own = 0
            if moving:
                k_cnt = occ_get(lid, 0) - own
                if k_cnt < 0:
                    k_cnt = 0
                speed = veh.speed
                dv = lk.target[k_cnt] - speed
                if dv > dv_max:
                    dv = dv_max
                elif dv < dv_min:
                    dv = dv_min
                v = speed + dv
                a = dv / DT
                pos = veh.pos + v / 3.6 * DT
                veh.pos = pos
            else:
                v = a = 0.0
            veh.speed = v

            # the burn of step n
            fresh = n >= veh.rate_until
            if fresh:
                veh.rates = lookup(v, a)
                veh.rate_until = n + refresh
            f, c, h, x = veh.rates
            veh.fuel += f
            veh.link_fuel += f
            veh.co += c
            veh.hc += h
            veh.nox += x

            if moving and pos >= lk.length - _POS_EPS:
                over = pos - lk.length
                if over < 0.0:
                    over = 0.0
                if try_cross(veh, n, now_end):
                    if veh.state == FINISHED:
                        finished_now.append(veh)
                        continue
                    nlk = lks[veh.route[0]]
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
            elif fresh and moving and not dv and own:
                self._cruise(veh, lid, n, occ_snap[lid])
            if not veh.wake:
                keep(veh)
            if veh.pending:
                carry(veh)
        self.visited_steps += len(todo)
        self._awake = awake
        if finished_now:
            self.enroute = [v for v in self.enroute if v.state != FINISHED]
        # a carrier the loop did not visit still holds what it held after
        # the last uplink step
        held = [v for v in self.carriers if v.pending and v.state == EN_ROUTE]
        if held:
            visited = set(carried)
            carried += [v for v in held if v not in visited]
            carried.sort(key=_by_seq)
        self.carriers = carried
        self._moved = n + 1

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

        if self._n_enroute != len(self.enroute):
            raise SimulationError(
                f"conservation broken at t={now_end}: {self._n_enroute} admitted "
                f"and not finished, {len(self.enroute)} en route")

    def run(self, until: float | None = None) -> None:
        stop = self.horizon if until is None else min(until, self.horizon)
        while not self.done() and self.now < stop - 1e-9:
            self.step()
        self._settle()

    # -- stop lines, parked and cruising vehicles ------------------------------

    def _replay(self, veh, upto) -> None:
        """Apply the steps a parked or cruising vehicle skipped before ``upto``.

        A parked step is the burn at v = a = 0 (see ``step``): the
        increments held since the last lookup until the next one is due,
        then the idle ones, which every later lookup returns again. A
        cruising step moves the vehicle by its constant increment and
        burns the held rates, which are the lookup at its speed and a = 0
        (see ``_cruise``), so every later lookup returns them again. So
        the stretch is at most two runs of constant rates (one, when the
        held rates are already those of the sleeping state), and each
        accumulator jumps over a run with ``add_repeated``, which gives
        the bits of the step-by-step sums.
        """
        start = veh.burned_to
        k = upto - start
        if k <= 0:
            return
        veh.burned_to = upto
        if veh.moved_to:
            self._move_to(veh, upto)
            self.cruise_steps += k
        else:
            lk = self._lk[veh.route[0]]
            red = self._red_steps(lk, start, upto) if lk.to_signal else 0
            self.parked_red_steps += red
            self.parked_full_steps += k - red

        rates = veh.rates
        held = min(veh.rate_until, upto) - start
        if held < k:
            # a lookup is due inside the stretch; it and every later one
            # return the rates of the sleeping state
            after = rates if veh.moved_to else self._lookup_rates(0.0, 0.0)
            p = self._refresh_steps
            veh.rate_until += ((upto - 1 - veh.rate_until) // p + 1) * p
            veh.rates = after
            if rates == after:
                held = k
            else:
                self._add_burns(veh, rates, held)
                rates, held = after, k - held
        self._add_burns(veh, rates, held)

    @staticmethod
    def _move_to(veh, upto) -> None:
        """Apply a cruiser's moves of the steps before ``upto``."""
        k = upto - veh.moved_to
        if k > 0:
            veh.pos = add_repeated(veh.pos, veh.speed / 3.6 * DT, k)
            veh.moved_to = upto

    @staticmethod
    def _add_burns(veh, rates, k) -> None:
        f, c, h, x = rates
        veh.fuel = add_repeated(veh.fuel, f, k)
        veh.link_fuel = add_repeated(veh.link_fuel, f, k)
        veh.co = add_repeated(veh.co, c, k)
        veh.hc = add_repeated(veh.hc, h, k)
        veh.nox = add_repeated(veh.nox, x, k)

    def _red_steps(self, lk, start, upto) -> int:
        """Steps in [start, upto) at which lk's approach shows red."""
        p = self._phase_steps
        red_from = p if lk.is_ew else 0       # offset of red in the cycle

        def before(n):
            cycles, rem = divmod(n, 2 * p)
            return cycles * p + min(max(rem - red_from, 0), p)

        return before(upto) - before(start)

    def _settle(self) -> None:
        """Bring every parked or cruising vehicle up to the clock."""
        for veh in self.enroute:
            if veh.wake:
                self._replay(veh, self._n)

    def _cruise(self, veh, lid, n, occ) -> None:
        """Let a vehicle that holds its link's target speed sleep from step n + 1.

        Called after step n's move when it kept the speed (dv == 0), did
        not reach the stop line, and looked its rates up at this speed and
        a = 0 in this step. Each later step repeats it for as long as the
        link's occupancy snapshot stays ``occ``, the one step n read: the
        same target, speed, increment and rates. The vehicle wakes at the
        first change of the link's occupancy (``_occupancy_changed``) or,
        at the latest, in the step that reaches its stop line. That step
        comes from a closed-form estimate, confirmed with ``add_repeated``
        to be still short of the line one step before; a position that a
        step no longer changes never reaches it.
        """
        if self._occ[lid] != occ:
            return          # changed earlier in step n: the next target differs
        pos = veh.pos
        inc = veh.speed / 3.6 * DT
        if pos + inc == pos:
            wake = _NEVER
        else:
            line = self._lk[lid].length - _POS_EPS
            steps = (line - pos) / inc
            if not 2.0 <= steps < math.inf:
                return
            k = int(steps)
            if add_repeated(pos, inc, k - 1) >= line:
                return
            wake = n + k
            self._file(veh, wake)
        veh.wake = wake
        veh.moved_to = veh.burned_to = n + 1
        self._cruisers.setdefault(lid, []).append(veh)

    def _file(self, veh, n) -> None:
        """Put a sleeping vehicle in the calendar under step n."""
        self._calendar.setdefault(n, []).append(veh)

    def _occupancy_changed(self, lid) -> None:
        """Wake lid's cruisers by the next step, whose snapshot shows the change.

        One later in the step order may already be due at its stop line
        in this step, so a wake only moves earlier. Every vehicle on the
        list is on lid, since leaving lid clears it; a parked one keeps
        its wake.
        """
        cruisers = self._cruisers.get(lid)
        if cruisers:
            nxt = self._n + 1
            for veh in cruisers:
                if veh.moved_to and veh.wake > nxt:
                    veh.wake = nxt
                    self._file(veh, nxt)
            cruisers.clear()

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
        flips = n // self._phase_steps
        if lk.to_signal and flips % 2 != (0 if lk.is_ew else 1):
            veh.wake = (flips + 1) * self._phase_steps
            veh.burned_to = n + 1
            self._file(veh, veh.wake)
            return False
        if to == veh.destination:
            self._exit_link(veh, lid, lk, now_end)
            veh.state = FINISHED
            veh.finished_at = now_end
            self._n_enroute -= 1
            if not veh.preload:
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
        self._occ[nxt] += 1
        self._occupancy_changed(nxt)
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
        self._occupancy_changed(lid)
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
                self._occupancy_changed(lid)
                veh.state = EN_ROUTE
                veh.entered_at = now_end
                veh.pos = 0.0
                veh.speed = lk.target[occ]
                veh.seq = self._admitted
                self._admitted += 1
                self.enroute.append(veh)
                self._awake.append(veh)
                self._n_enroute += 1

    def _defer_waiting(self) -> None:
        # demand window closed: whoever never found a spot gives up
        for q in self._entry_queues.values():
            for veh in q:
                veh.state = DEFERRED
            q.clear()
        self._demand_end = None

    # -- outputs -------------------------------------------------------------

    def _sample_nfd(self, now) -> None:
        count = len(self.enroute)
        if count == 0:
            self.nfd.append(NfdSample(now, 0.0, 0.0, None))
            return
        density = count / self._total_len_lanes_km
        speed = math.fsum(v.speed for v in self.enroute) / count
        self.nfd.append(NfdSample(now, density, density * speed, speed))

    def state_hash(self) -> str:
        self._settle()
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
