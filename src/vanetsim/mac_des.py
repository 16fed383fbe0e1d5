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
keyed by (next arrival, idx). An idle step thus costs O(groups) and a
busy period O(transmitters * log N). Ties go to the lowest idx.

Arrivals at non-empty stations cannot change contention state, so each
station's Poisson stream is materialized lazily: pending packets are
folded in when that station's queue is next touched. So the number of
loop steps follows channel events and admissions, not arrivals.
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
from .mac_analytic import MacParams, transmission_times, window_sizes

BATCH_COUNT = 20
DEFAULT_MIN_DELIVERED = 1000
WARMUP_SHARE = 0.1                   # of measured_duration, discarded first
SINGLE_AC_CHECK_STATIONS = 10
SINGLE_AC_CHECK_MIN_DELIVERED = 200

_by_idx = attrgetter("idx")

# two-sided 95% Student-t critical values by degrees of freedom
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
        13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
        19: 2.093, 20: 2.086, 25: 2.060, 30: 2.042}


def _t95(df: int) -> float:
    if df <= 0:
        return math.inf
    while df not in _T95 and df < 30:
        df += 1
    return _T95.get(df, 1.96)


class AcMode(Enum):
    SINGLE_AC = "single_ac"
    FOUR_AC = "four_ac"


@dataclass(frozen=True)
class DesConfig:
    mac_params: MacParams
    seed: int
    measured_duration: float
    ac_mode: AcMode = AcMode.SINGLE_AC
    min_delivered: int = DEFAULT_MIN_DELIVERED
    collect_trace: bool = False

    def validate(self) -> "DesConfig":
        bad = self.mac_params.problems()
        if not self.measured_duration > 0:
            bad.append(f"measured_duration must be > 0, got {self.measured_duration}")
        if self.min_delivered < 0:
            bad.append(f"min_delivered must be >= 0, got {self.min_delivered}")
        if bad:
            raise ConfigurationError("invalid DesConfig: " + "; ".join(bad))
        return self

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
    duration_measured: float
    per_ac_delivered: dict[str, float] | None = None
    per_ac_delay: dict[str, float | None] | None = None
    trace: list | None = None        # (id, entity, birth, attempts, fate, done)


class _Entity:
    """One contending queue: a station, or one AC of a station."""

    __slots__ = ("idx", "station", "ac", "lam", "aifs", "windows", "max_stage",
                 "queue", "backoff", "stage", "hol_start", "next_arrival",
                 "empty_since", "last_sync", "attempts_hol", "group", "version")

    def __init__(self, idx, station, ac, lam, aifs, windows):
        self.idx = idx
        self.station = station
        self.ac = ac
        self.lam = lam
        self.aifs = aifs
        self.windows = windows
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
    for e in ents:
        e.next_arrival = rng.expovariate(e.lam)
    return ents


def simulate(config: DesConfig) -> DesStats:
    """Run one replication and return measured statistics.

    Deterministic for a fixed config (seed included). Raises a
    configuration error when fewer than config.min_delivered packets
    complete inside the measured window.
    """
    config.validate()
    p = config.mac_params
    rng = Random(config.seed)
    expovariate = rng.expovariate
    randrange = rng.randrange
    slot = p.slot_time
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
    service_count = 0
    sojourn_sum = 0.0
    sojourn_count = 0
    empty_time = 0.0
    size_integral = 0.0
    trace: list | None = [] if config.collect_trace else None
    ac_delivered = dict.fromkeys(constants.AC_PRIORITY, 0) if four_ac else None
    ac_delay_sum = dict.fromkeys(constants.AC_PRIORITY, 0.0) if four_ac else None

    def window_overlap(a: float, b: float) -> float:
        return max(0.0, min(b, horizon) - max(a, warmup))

    def batch_of(t: float) -> int:
        if warmup <= t < horizon:
            b = int((t - warmup) / batch_len)
            return b if b < BATCH_COUNT else BATCH_COUNT - 1
        return -1

    def sync_arrivals(e: _Entity, upto: float) -> None:
        """Fold e's Poisson stream into its queue through time `upto`.

        Only valid while e stays non-empty (no departures in between),
        which is exactly when laziness is safe.
        """
        nonlocal generated, rejected, size_integral
        queue = e.queue
        lam = e.lam
        last = e.last_sync
        ta = e.next_arrival
        while ta <= upto:
            # window_overlap(last, ta) and batch_of(ta), inlined
            lo = last if last > warmup else warmup
            hi = ta if ta < horizon else horizon
            if hi > lo:
                size_integral += len(queue) * (hi - lo)
            last = ta
            generated += 1
            in_window = warmup <= ta < horizon
            if in_window:
                b = int((ta - warmup) / batch_len)
                if b >= BATCH_COUNT:
                    b = BATCH_COUNT - 1
                m_offered[b] += 1
            if len(queue) >= cap:
                rejected += 1
                if in_window:
                    m_dropped[b] += 1
                if trace is not None:
                    trace.append([e.idx, ta, 0, "rejected", ta])
            else:
                queue.append(ta)
            ta += expovariate(lam)
        e.last_sync = last
        e.next_arrival = ta

    def push(e: _Entity, start: int = 0) -> None:
        """Enter e in its group heap; it counts back-off from slot start + aifs."""
        g = e.group
        e.version += 1
        heappush(g.heap, (g.clock + start + e.backoff, e.idx, e.version))

    def admit_first(e: _Entity, pos: int) -> None:
        """Arrival at an empty entity at phase slot pos: it becomes a contender."""
        nonlocal generated, empty_time
        ta = e.next_arrival
        empty_time += window_overlap(e.empty_since, ta)
        e.last_sync = ta
        generated += 1
        b = batch_of(ta)
        if b >= 0:
            m_offered[b] += 1
        e.queue.append(ta)
        e.hol_start = ta
        e.stage = 0
        e.attempts_hol = 0
        e.backoff = randrange(e.windows[0])
        e.next_arrival = ta + expovariate(e.lam)
        push(e, pos)

    def pop_head(e: _Entity, now: float) -> None:
        """Head packet leaves (delivered or dropped); next one takes over."""
        nonlocal size_integral
        size_integral += len(e.queue) * window_overlap(e.last_sync, now)
        e.last_sync = now
        e.queue.pop(0)
        e.stage = 0
        e.attempts_hol = 0
        if e.queue:
            e.hol_start = now
            e.backoff = randrange(e.windows[0])
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
        # walk idle slots until a transmission fires inside the horizon
        pos = 0
        admitted: list[tuple[_Entity, int]] = []
        while True:
            fire = -1  # phase slot of the next transmission, -1 for none
            for g in groups:
                heap = g.heap
                while heap and heap[0][2] != ents[heap[0][1]].version:
                    heappop(heap)  # stale
                if heap:
                    f = g.aifs + heap[0][0] - g.clock
                    if fire < 0 or f < fire:
                        fire = f
            if not arrivals:
                break  # only a transmission can come next, if anything
            arr_time, arr_idx = arrivals[0]
            boundary = math.ceil((arr_time - t0) / slot - 1e-12)
            rem_arr = boundary - pos if boundary > pos else 0
            if fire >= 0 and fire - pos <= rem_arr:
                break
            if arr_time >= horizon:
                fire = -1  # nothing else can happen inside the horizon
                break
            heappop(arrivals)
            pos += rem_arr
            e = ents[arr_idx]
            admit_first(e, pos)
            admitted.append((e, pos))
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
                    e.backoff = 0
                    transmitters.append(e)
            if fire > g.aifs:
                g.clock += fire - g.aifs
        transmitters.sort(key=_by_idx)
        # admitted at slot s, an entity counts back-off from s + aifs only
        for e, s in admitted:
            if fire < s + e.aifs:
                push(e)

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

        success = len(on_air) == 1
        t_end = now + (dur_success if success else dur_collision)
        in_window = warmup <= now < horizon
        attempts += len(on_air)
        if in_window:
            m_attempts += len(on_air)
        if not success:
            air_collisions += len(on_air)
            if in_window:
                m_collisions += len(on_air)
        # a loser of an internal collision spends a retry stage too
        for e in transmitters:
            e.attempts_hol += 1

        if success:
            e = on_air[0]
            sync_arrivals(e, t_end)
            birth = e.queue[0]
            delivered += 1
            b = batch_of(t_end)
            if b >= 0:
                if ac_delivered is not None:
                    ac_delivered[e.ac] += 1
                    ac_delay_sum[e.ac] += t_end - birth
                m_delivered[b] += 1
                m_delay_sum[b] += t_end - birth
                service_sum += t_end - e.hol_start
                service_count += 1
                sojourn_sum += t_end - birth
                sojourn_count += 1
            if trace is not None:
                trace.append([e.idx, birth, e.attempts_hol, "delivered", t_end])
            pop_head(e, t_end)
            # 802.11e: a loser of an internal collision backs off as if
            # its frame had collided on the air
            failed = losers
        else:
            failed = transmitters  # on_air + losers, in idx order
        for e in failed:
            e.stage += 1
            if e.stage >= e.max_stage:
                sync_arrivals(e, t_end)
                birth = e.queue[0]
                retry_dropped += 1
                b = batch_of(t_end)
                if b >= 0:
                    m_dropped[b] += 1
                    service_sum += t_end - e.hol_start
                    service_count += 1
                    sojourn_sum += t_end - birth
                    sojourn_count += 1
                if trace is not None:
                    trace.append([e.idx, birth, e.attempts_hol, "dropped", t_end])
                pop_head(e, t_end)
            else:
                e.backoff = randrange(e.windows[e.stage])

        # the busy period restarts AIFS for everyone; only the
        # transmitters' back-off changed
        for e in transmitters:
            if e.queue:
                push(e)
            else:
                heappush(arrivals, (e.next_arrival, e.idx))
        t0 = t_end

    # close the books at the horizon
    for e in ents:
        if e.queue:
            sync_arrivals(e, horizon)
            size_integral += len(e.queue) * window_overlap(e.last_sync, horizon)
        else:
            empty_time += window_overlap(e.empty_since, horizon)
        if trace is not None:
            for birth in e.queue:
                trace.append([e.idx, birth, 0, "pending", None])
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
        trace = [[i] + row for i, row in enumerate(trace)]

    offered = sum(m_offered)
    dropped = sum(m_dropped)
    dur_m = config.measured_duration

    def halfwidth(values: list[float]) -> float:
        n = len(values)
        if n < 2:
            return math.inf
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        return _t95(n - 1) * math.sqrt(var / n)

    rate_batches = [m_delivered[i] / batch_len / p.n_stations
                    for i in range(BATCH_COUNT)]
    delay_batches = [m_delay_sum[i] / m_delivered[i]
                     for i in range(BATCH_COUNT) if m_delivered[i] > 0]
    drop_batches = [m_dropped[i] / m_offered[i]
                    for i in range(BATCH_COUNT) if m_offered[i] > 0]

    return DesStats(
        delivered_per_station=measured_delivered / dur_m / p.n_stations,
        mean_total_delay=(sum(m_delay_sum) / measured_delivered
                          if measured_delivered else None),
        drop_rate=dropped / offered if offered else 0.0,
        empty_fraction=empty_time / (len(ents) * dur_m),
        collision_fraction=m_collisions / m_attempts if m_attempts else 0.0,
        confidence_halfwidth={
            "delivered_per_station": halfwidth(rate_batches),
            "mean_total_delay": halfwidth(delay_batches),
            "drop_rate": halfwidth(drop_batches),
        },
        mean_service_time=service_sum / service_count if service_count else None,
        generated=generated, delivered=delivered, rejected=rejected,
        retry_dropped=retry_dropped, in_system=in_system,
        attempts=attempts, air_collisions=air_collisions,
        internal_collisions=internal_collisions,
        mean_system_size=size_integral / dur_m,
        accepted_rate=sojourn_count / dur_m,
        mean_sojourn=sojourn_sum / sojourn_count if sojourn_count else None,
        duration_measured=dur_m,
        per_ac_delivered=({ac: cnt / dur_m for ac, cnt in ac_delivered.items()}
                          if ac_delivered is not None else None),
        per_ac_delay=({ac: (ac_delay_sum[ac] / cnt if cnt else None)
                       for ac, cnt in ac_delivered.items()}
                      if ac_delivered is not None else None),
        trace=trace,
    )


def single_ac_approximation_check(lambda_per_ac: float, *, seed: int = 1,
                                  measured_duration: float = 30.0) -> float:
    """Relative error of collapsing four ACs into one queue at 4x the rate.

    Runs ten stations with each AC offered lambda_per_ac and ten
    single best-effort queues offered 4*lambda_per_ac, then compares the
    per-AC share of the single-queue throughput against the measured
    best-effort throughput (both network-wide rates).
    """
    if not lambda_per_ac > 0:
        raise ConfigurationError("lambda_per_ac must be > 0")
    n = SINGLE_AC_CHECK_STATIONS
    stats_four = simulate(DesConfig(
        mac_params=MacParams(n_stations=n, arrival_rate=lambda_per_ac),
        seed=seed, measured_duration=measured_duration,
        ac_mode=AcMode.FOUR_AC, min_delivered=SINGLE_AC_CHECK_MIN_DELIVERED))
    stats_single = simulate(DesConfig(
        mac_params=MacParams(n_stations=n, arrival_rate=4.0 * lambda_per_ac),
        seed=seed + 1, measured_duration=measured_duration,
        ac_mode=AcMode.SINGLE_AC, min_delivered=SINGLE_AC_CHECK_MIN_DELIVERED))
    thr_be = stats_four.per_ac_delivered["ac_be"]
    if thr_be <= 0:
        raise ConfigurationError(
            "best-effort throughput is zero; cannot form a relative error")
    thr_single_share = stats_single.delivered_per_station * n / 4.0
    return abs(thr_single_share - thr_be) / thr_be
