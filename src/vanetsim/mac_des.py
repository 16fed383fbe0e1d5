"""Slot-synchronous discrete-event simulator of the CSMA/CA cell.

Brute-force counterpart of mac_analytic: N stations with finite FIFO
queues contend with AIFS sensing plus binary-exponential back-off, and
everything is counted instead of approximated. Used as the measurement
oracle the analytical model is validated against.

The event loop walks idle phases in bulk: nothing can happen between
"the next station counter reaches zero" and "the next packet lands at
an empty station", so the clock jumps straight to the earlier of the
two. Busy periods (success or collision) end every idle phase and
restart AIFS sensing for everyone, which is the EDCA rule. The channel
occupancy of a busy period excludes the AIFS share of t_s/t_f, because
here AIFS is simulated literally as sensed idle slots.

No step scans the stations. Because every contender restarts AIFS after
a busy period, all contenders with the same AIFS value A count the same
max(0, P - A) back-off slots in an idle phase of P slots. Each AIFS
group keeps one clock of counted back-off slots and a heap of
(expiry, idx, version) entries; an entity fires at phase slot
A + expiry - clock, and a busy period touches only its transmitters.
An entity admitted at slot s of a phase counts from s + A on; if the
phase ends before that, it gets a corrected entry with a higher version
and the old one is skipped as stale. Empty entities wait in a heap
keyed by (next arrival, idx). A phase scans the groups once; an
admission pushes one entry and can only bring the phase's firing slot
forward, and a busy period costs O(transmitters * log N). Ties go to
the lowest idx.

Arrivals at non-empty stations cannot change contention state, so each
station's Poisson stream is materialized lazily: pending packets are
folded in when that station's queue is next touched. So the number of
loop steps follows channel events and admissions, not arrivals.

Every departure, a delivery or a drop after the last retry, goes
through one closure, `leave`: it folds in the station's arrivals, if
one is due, books the counters, batch sums, service and sojourn sums
and the trace row, and hands the channel to the next packet in the
queue.

All randomness comes from one `random.Random(seed)`, drawn by hand in
the two forms the standard library uses, so the streams rest on the
Mersenne Twister core alone. An exponential gap is
-log(1.0 - random()) / lam, as `expovariate(lam)` computes it. A
back-off in a window of w slots is getrandbits(k) with k =
w.bit_length(), redrawn while it is >= w, as `randrange(w)` draws it
(`_randbelow_with_getrandbits`, Python 3.10 to 3.13). The widths k are
kept per retry stage on each entity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from heapq import heapify, heappop, heappush
from operator import attrgetter
from random import Random

from . import constants
from .errors import ConfigurationError
from .floats import left_sum
from .mac_analytic import MacParams, transmission_times, window_sizes

BATCH_COUNT = 20
DEFAULT_MIN_DELIVERED = 1000
WARMUP_SHARE = 0.1                   # of measured_duration, discarded first

_by_idx = attrgetter("idx")

# two-sided 95% Student-t critical values for df = 1 .. BATCH_COUNT - 1;
# the value for n batch means (df = n - 1) is _T95[n - 2]
_T95 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093)


class AcMode(Enum):
    SINGLE_AC = "single_ac"
    FOUR_AC = "four_ac"


@dataclass(frozen=True)
class DesConfig:
    """Inputs of one replication.

    Built means valid: construction refuses a duration or a minimum out
    of range. mac_params checked its own fields when it was built.
    """

    mac_params: MacParams
    seed: int
    measured_duration: float
    ac_mode: AcMode = AcMode.SINGLE_AC
    min_delivered: int = DEFAULT_MIN_DELIVERED
    collect_trace: bool = False

    def validate(self) -> "DesConfig":
        bad = []
        if not 0 < self.measured_duration < math.inf:
            bad.append(f"measured_duration must be finite and > 0, "
                       f"got {self.measured_duration}")
        if self.min_delivered < 0:
            bad.append(f"min_delivered must be >= 0, got {self.min_delivered}")
        if bad:
            raise ConfigurationError("invalid DesConfig: " + "; ".join(bad))
        return self

    def __post_init__(self):
        self.validate()

    @property
    def warmup_time(self) -> float:
        return WARMUP_SHARE * self.measured_duration


@dataclass
class DesStats:
    """Measured counterparts of the analytical cell metrics."""

    delivered_per_station: float     # packets/second, per station
    mean_total_delay: float | None   # birth -> ACK, delivered packets
    drop_rate: float                 # (rejected + retry-dropped) / offered
    empty_fraction: float            # time-average of the q0 estimate
    collision_fraction: float        # colliding attempts / air attempts
    confidence_halfwidth: dict[str, float]
    mean_service_time: float | None  # head-of-line -> completion or final drop
    # full-run conservation counters
    generated: int
    delivered: int
    rejected: int
    retry_dropped: int
    in_system: int
    attempts: int
    air_collisions: int
    internal_collisions: int
    # occupancy measured over the stats window, for Little's-law checks
    mean_system_size: float
    accepted_rate: float
    mean_sojourn: float | None       # accepted packets, birth -> leave
    per_ac_delivered: dict[str, float] | None = None
    per_ac_delay: dict[str, float | None] | None = None
    trace: list | None = None        # (id, entity, birth, attempts, fate, done)


class _Entity:
    """One contending queue: a station, or one AC of a station."""

    __slots__ = ("idx", "station", "ac", "lam", "aifs", "windows", "bits",
                 "max_stage", "queue", "backoff", "stage", "hol_start",
                 "next_arrival", "empty_since", "last_sync", "attempts_hol",
                 "group", "version")

    def __init__(self, idx, station, ac, lam, aifs, windows):
        self.idx = idx
        self.station = station
        self.ac = ac
        self.lam = lam
        self.aifs = aifs
        self.windows = windows
        self.bits = tuple(w.bit_length() for w in windows)  # per stage, for draws
        self.max_stage = len(windows)
        self.queue: list[float] = []     # birth times, FIFO
        self.backoff = 0                 # back-off left when its heap entry was pushed
        self.stage = 0
        self.hol_start = 0.0
        self.next_arrival = 0.0
        self.empty_since = 0.0
        self.last_sync = 0.0
        self.attempts_hol = 0
        self.group: _AifsGroup | None = None
        self.version = 0                 # of its live heap entry; older ones are stale


class _AifsGroup:
    """The contenders that share one AIFS value.

    `clock` is the number of back-off slots the group has counted before
    the current idle phase. A heap entry (expiry, idx, version) holds
    expiry = clock + remaining back-off, so its entity fires at phase
    slot aifs + expiry - clock.
    """

    __slots__ = ("aifs", "clock", "heap")

    def __init__(self, aifs: int):
        self.aifs = aifs
        self.clock = 0
        self.heap: list[tuple[int, int, int]] = []


def _build_entities(cfg: DesConfig, rng: Random) -> list[_Entity]:
    p = cfg.mac_params
    if cfg.ac_mode is AcMode.SINGLE_AC:
        classes = [("single", p)]
    else:
        classes = [(ac, replace(p, **constants.EDCA_PARAMETER_SETS[ac]))
                   for ac in constants.AC_PRIORITY]
    ents = []
    for s in range(p.n_stations):
        for ac, q in classes:
            ents.append(_Entity(len(ents), s, ac, p.arrival_rate,
                                q.aifs_slots, window_sizes(q)))
    random = rng.random
    for e in ents:
        e.next_arrival = -math.log(1.0 - random()) / e.lam  # expovariate
    return ents


def simulate(config: DesConfig) -> DesStats:
    """Run one replication and return measured statistics.

    Deterministic for a fixed config (seed included). Raises a
    configuration error when fewer than config.min_delivered packets
    complete inside the measured window.
    """
    p = config.mac_params
    rng = Random(config.seed)
    random = rng.random
    getrandbits = rng.getrandbits
    log = math.log
    ceil = math.ceil
    slot = constants.SLOT_TIME
    t_s, t_f = transmission_times(p)
    t_aifs = p.aifs_slots * slot
    dur_success = t_s - t_aifs
    dur_collision = t_f - t_aifs
    cap = p.queue_capacity

    warmup = config.warmup_time
    horizon = warmup + config.measured_duration
    batch_len = config.measured_duration / BATCH_COUNT

    ents = _build_entities(config, rng)
    four_ac = config.ac_mode is AcMode.FOUR_AC

    generated = delivered = rejected = retry_dropped = 0
    attempts = air_collisions = internal_collisions = 0
    m_offered = [0] * BATCH_COUNT
    m_dropped = [0] * BATCH_COUNT
    m_delivered = [0] * BATCH_COUNT
    m_delay_sum = [0.0] * BATCH_COUNT
    m_attempts = 0
    m_collisions = 0
    service_sum = 0.0
    sojourn_sum = 0.0
    left = 0           # departures (delivered or retry-dropped) in the window
    empty_time = 0.0
    size_integral = 0.0
    trace: list | None = [] if config.collect_trace else None
    ac_delivered = dict.fromkeys(constants.AC_PRIORITY, 0) if four_ac else None
    ac_delay_sum = dict.fromkeys(constants.AC_PRIORITY, 0.0) if four_ac else None

    def draw_backoff(e: _Entity) -> int:
        """Back-off for e's current stage, drawn as randrange(window) does."""
        w = e.windows[e.stage]
        k = e.bits[e.stage]
        r = getrandbits(k)
        while r >= w:
            r = getrandbits(k)
        return r

    def sync_arrivals(e: _Entity, upto: float) -> None:
        """Fold e's Poisson stream into its queue through time `upto`.

        Only valid while e stays non-empty (no departures in between),
        which is exactly when laziness is safe.
        """
        nonlocal generated, rejected, size_integral
        queue = e.queue
        size = len(queue)
        lam = e.lam
        last = e.last_sync
        ta = e.next_arrival
        integral = size_integral
        while ta <= upto:
            # the queue's size over [last, ta] inside the stats window
            lo = last if last > warmup else warmup
            hi = ta if ta < horizon else horizon
            if hi > lo:
                integral += size * (hi - lo)
            last = ta
            generated += 1
            in_window = warmup <= ta < horizon
            if in_window:
                b = int((ta - warmup) / batch_len)
                if b >= BATCH_COUNT:
                    b = BATCH_COUNT - 1
                m_offered[b] += 1
            if size >= cap:
                rejected += 1
                if in_window:
                    m_dropped[b] += 1
                if trace is not None:
                    trace.append([e.idx, ta, 0, "rejected", ta])
            else:
                queue.append(ta)
                size += 1
            ta += -log(1.0 - random()) / lam
        size_integral = integral
        e.last_sync = last
        e.next_arrival = ta

    def leave(e: _Entity, now: float, fate: str) -> None:
        """e's head packet leaves at `now`, "delivered" or "dropped" after
        its last retry, and the next packet takes over.

        The one place a departure is booked: counters, batch and
        per-AC sums, service and sojourn sums, and its trace row.
        """
        nonlocal delivered, retry_dropped, service_sum, sojourn_sum, left
        nonlocal size_integral
        if e.next_arrival <= now:
            sync_arrivals(e, now)
        queue = e.queue
        birth = queue[0]
        delivery = fate == "delivered"
        if delivery:
            delivered += 1
        else:
            retry_dropped += 1
        if warmup <= now < horizon:
            b = int((now - warmup) / batch_len)
            if b >= BATCH_COUNT:
                b = BATCH_COUNT - 1
            if delivery:
                if ac_delivered is not None:
                    ac_delivered[e.ac] += 1
                    ac_delay_sum[e.ac] += now - birth
                m_delivered[b] += 1
                m_delay_sum[b] += now - birth
            else:
                m_dropped[b] += 1
            service_sum += now - e.hol_start
            sojourn_sum += now - birth
            left += 1
        if trace is not None:
            trace.append([e.idx, birth, e.attempts_hol, fate, now])
        last = e.last_sync
        lo = last if last > warmup else warmup
        hi = now if now < horizon else horizon
        if hi > lo:
            size_integral += len(queue) * (hi - lo)
        e.last_sync = now
        queue.pop(0)
        e.stage = 0
        e.attempts_hol = 0
        if queue:
            e.hol_start = now
            e.backoff = draw_backoff(e)
        else:
            e.empty_since = now

    by_aifs = {a: _AifsGroup(a) for a in sorted({e.aifs for e in ents})}
    for e in ents:
        e.group = by_aifs[e.aifs]
    groups = list(by_aifs.values())
    arrivals = [(e.next_arrival, e.idx) for e in ents]  # empty entities only
    heapify(arrivals)

    t0 = 0.0  # start of the current idle phase
    while t0 < horizon:
        # phase slot of the next transmission, -1 for none
        fire = -1
        for g in groups:
            heap = g.heap
            while heap:
                expiry, idx, version = heap[0]
                if version == ents[idx].version:
                    f = g.aifs + expiry - g.clock
                    if fire < 0 or f < fire:
                        fire = f
                    break
                heappop(heap)  # stale
        # walk idle slots, admitting arrivals at empty entities, until a
        # transmission fires inside the horizon
        pos = 0
        admitted: list[tuple[_Entity, int]] = []
        while arrivals:
            arr_time, arr_idx = arrivals[0]
            boundary = ceil((arr_time - t0) / slot - 1e-12)
            rem_arr = boundary - pos if boundary > pos else 0
            if fire >= 0 and fire - pos <= rem_arr:
                break
            if arr_time >= horizon:
                fire = -1  # nothing else can happen inside the horizon
                break
            heappop(arrivals)
            pos += rem_arr
            # the entity becomes a contender, counting back-off from
            # pos + aifs; arr_time < horizon here, and its stage and
            # attempts are 0 since it emptied
            e = ents[arr_idx]
            lo = e.empty_since if e.empty_since > warmup else warmup
            if arr_time > lo:
                empty_time += arr_time - lo
            e.last_sync = arr_time
            generated += 1
            if warmup <= arr_time:
                b = int((arr_time - warmup) / batch_len)
                m_offered[b if b < BATCH_COUNT else BATCH_COUNT - 1] += 1
            e.queue.append(arr_time)
            e.hol_start = arr_time
            e.backoff = draw_backoff(e)
            e.next_arrival = arr_time + -log(1.0 - random()) / e.lam
            g = e.group
            e.version += 1
            heappush(g.heap, (g.clock + pos + e.backoff, arr_idx, e.version))
            admitted.append((e, pos))
            f = e.aifs + pos + e.backoff
            if fire < 0 or f < fire:
                fire = f
        if fire < 0:
            break
        now = t0 + fire * slot
        if now >= horizon:
            break

        # pop everyone due at slot `fire`; the phase ends for all groups
        transmitters: list[_Entity] = []
        for g in groups:
            heap = g.heap
            due = g.clock + fire - g.aifs
            while heap and heap[0][0] == due:
                _, idx, version = heappop(heap)
                e = ents[idx]
                if e.version == version:
                    # a loser of an internal collision spends a retry stage too
                    e.attempts_hol += 1
                    e.backoff = 0
                    transmitters.append(e)
            if fire > g.aifs:
                g.clock += fire - g.aifs
        if len(transmitters) > 1:
            transmitters.sort(key=_by_idx)
        # admitted at slot s, an entity counts back-off from s + aifs only
        for e, s in admitted:
            if fire < s + e.aifs:
                g = e.group
                e.version += 1
                heappush(g.heap, (g.clock + e.backoff, e.idx, e.version))

        # internal collisions first: one winner per station takes the air
        if four_ac:
            by_station: dict[int, list[_Entity]] = {}
            for e in transmitters:
                by_station.setdefault(e.station, []).append(e)
            on_air = []
            losers = []
            for group in by_station.values():
                group.sort(key=lambda e: constants.AC_PRIORITY.index(e.ac))
                on_air.append(group[0])
                losers.extend(group[1:])
            internal_collisions += len(losers)
        else:
            on_air = transmitters
            losers = []

        n_air = len(on_air)
        success = n_air == 1
        t_end = now + (dur_success if success else dur_collision)
        in_window = warmup <= now < horizon
        attempts += n_air
        if in_window:
            m_attempts += n_air
        if not success:
            air_collisions += n_air
            if in_window:
                m_collisions += n_air

        if success:
            leave(on_air[0], t_end, "delivered")
            # 802.11e: a loser of an internal collision backs off as if
            # its frame had collided on the air
            failed = losers
        else:
            failed = transmitters  # on_air + losers, in idx order
        for e in failed:
            e.stage += 1
            if e.stage >= e.max_stage:
                leave(e, t_end, "dropped")
            else:
                e.backoff = draw_backoff(e)

        # the busy period restarts AIFS for everyone; only the
        # transmitters' back-off changed
        for e in transmitters:
            if e.queue:
                g = e.group
                e.version += 1
                heappush(g.heap, (g.clock + e.backoff, e.idx, e.version))
            else:
                heappush(arrivals, (e.next_arrival, e.idx))
        t0 = t_end

    # close the books at the horizon
    for e in ents:
        if e.queue:
            sync_arrivals(e, horizon)
            size_integral += len(e.queue) * max(
                0.0, horizon - max(e.last_sync, warmup))
        else:
            empty_time += max(0.0, horizon - max(e.empty_since, warmup))
        if trace is not None:
            # only the head has been attempted; the rest wait behind it
            for k, birth in enumerate(e.queue):
                trace.append([e.idx, birth, e.attempts_hol if k == 0 else 0,
                              "pending", None])
    in_system = sum(len(e.queue) for e in ents)

    if generated != delivered + rejected + retry_dropped + in_system:
        raise AssertionError("packet conservation violated")  # pragma: no cover

    measured_delivered = sum(m_delivered)
    if measured_delivered < config.min_delivered:
        raise ConfigurationError(
            f"only {measured_delivered} packets delivered in the measured "
            f"window (need >= {config.min_delivered}); extend the horizon")

    if trace is not None:
        trace.sort(key=lambda row: (row[1], row[0]))
        for i, row in enumerate(trace):
            row.insert(0, i)

    offered = sum(m_offered)
    dropped = sum(m_dropped)
    dur_m = config.measured_duration

    def halfwidth(values: list[float]) -> float:
        n = len(values)
        if n < 2:
            return math.inf
        mean = left_sum(values) / n
        var = left_sum((v - mean) ** 2 for v in values) / (n - 1)
        return _T95[n - 2] * math.sqrt(var / n)

    rate_batches = [m_delivered[i] / batch_len / p.n_stations
                    for i in range(BATCH_COUNT)]
    delay_batches = [m_delay_sum[i] / m_delivered[i]
                     for i in range(BATCH_COUNT) if m_delivered[i] > 0]
    drop_batches = [m_dropped[i] / m_offered[i]
                    for i in range(BATCH_COUNT) if m_offered[i] > 0]

    return DesStats(
        delivered_per_station=measured_delivered / dur_m / p.n_stations,
        mean_total_delay=(left_sum(m_delay_sum) / measured_delivered
                          if measured_delivered else None),
        drop_rate=dropped / offered if offered else 0.0,
        empty_fraction=empty_time / (len(ents) * dur_m),
        collision_fraction=m_collisions / m_attempts if m_attempts else 0.0,
        confidence_halfwidth={
            "delivered_per_station": halfwidth(rate_batches),
            "mean_total_delay": halfwidth(delay_batches),
            "drop_rate": halfwidth(drop_batches),
        },
        mean_service_time=service_sum / left if left else None,
        generated=generated, delivered=delivered, rejected=rejected,
        retry_dropped=retry_dropped, in_system=in_system,
        attempts=attempts, air_collisions=air_collisions,
        internal_collisions=internal_collisions,
        mean_system_size=size_integral / dur_m,
        accepted_rate=left / dur_m,
        mean_sojourn=sojourn_sum / left if left else None,
        per_ac_delivered=({ac: cnt / dur_m for ac, cnt in ac_delivered.items()}
                          if ac_delivered is not None else None),
        per_ac_delay=({ac: (ac_delay_sum[ac] / cnt if cnt else None)
                       for ac, cnt in ac_delivered.items()}
                      if ac_delivered is not None else None),
        trace=trace,
    )
