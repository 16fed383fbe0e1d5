"""Tests for the cell simulator.

The two-station saturation value 2/3 comes from enumerating the slot
game by hand: after every busy period both stations are either freshly
drawn (state A) or one is frozen one slot behind (state B). Both states
produce a collision with probability 1/2, collisions carry two attempts
and successes one, so colliding attempts / attempts = 1/(3/2) = 2/3.
"""

import dataclasses
import hashlib
import itertools
import math

import pytest

from vanetsim import constants
from vanetsim import mac_analytic as ma
from vanetsim import mac_des as des
from vanetsim.errors import ConfigurationError


def config(n=1, lam=1.0, duration=60.0, seed=42, **kw):
    mac_kw = {}
    for key in ("w0", "m_stages", "f_extra", "queue_capacity", "payload_bits",
                "access_mode"):
        if key in kw:
            mac_kw[key] = kw.pop(key)
    params = ma.MacParams(n_stations=n, arrival_rate=lam, **mac_kw)
    kw.setdefault("min_delivered", 0)
    return des.DesConfig(mac_params=params, seed=seed,
                         measured_duration=duration, **kw)


def test_config_refuses_bad_values_at_construction():
    # each owner checks its own fields when it is built, once
    with pytest.raises(ConfigurationError, match="n_stations"):
        ma.MacParams(n_stations=0, arrival_rate=1.0)
    with pytest.raises(ConfigurationError) as err:
        des.DesConfig(mac_params=ma.MacParams(n_stations=1, arrival_rate=1.0),
                      seed=1, measured_duration=-5.0, min_delivered=-1)
    assert "measured_duration" in str(err.value) and "min_delivered" in str(err.value)
    # an endless horizon is refused before any event runs
    with pytest.raises(ConfigurationError, match="measured_duration"):
        config(duration=math.inf)


def test_default_warmup_is_tenth_of_horizon():
    assert config(duration=50.0).warmup_time == pytest.approx(5.0)


def test_single_station_never_collides_or_drops():
    stats = des.simulate(config(n=1, lam=1.0, duration=60.0))
    assert stats.drop_rate == 0.0
    assert stats.collision_fraction == 0.0
    assert stats.air_collisions == 0 and stats.rejected == 0
    assert stats.delivered > 30


def test_conservation_identity_exact():
    for seed in (1, 2, 3):
        stats = des.simulate(config(n=5, lam=40.0, duration=20.0, seed=seed,
                                    payload_bits=4000))
        assert (stats.generated == stats.delivered + stats.rejected
                + stats.retry_dropped + stats.in_system)


def test_seed_determinism():
    a = des.simulate(config(n=5, lam=30.0, duration=10.0, seed=7))
    b = des.simulate(config(n=5, lam=30.0, duration=10.0, seed=7))
    assert a == b
    c = des.simulate(config(n=5, lam=30.0, duration=10.0, seed=8))
    assert c != a


def test_two_station_saturation_slot_game():
    # N=2, w0=2, one attempt per packet: hand enumeration gives 2/3
    stats = des.simulate(config(n=2, lam=2000.0, duration=30.0, seed=11,
                                w0=2, m_stages=0, f_extra=1,
                                queue_capacity=8, payload_bits=4000))
    assert stats.collision_fraction == pytest.approx(2.0 / 3.0, abs=0.02)
    # every collision kills both packets: half the busy events deliver
    assert stats.retry_dropped > 0
    assert stats.empty_fraction < 1e-3


def test_micro_trace_fates_replayable():
    # K=1, one attempt per packet, one station: fate decided by arithmetic.
    # The rate is high enough that arrivals regularly land inside the
    # previous exchange and get turned away at the full queue.
    cfg = config(n=1, lam=200.0, duration=5.0, seed=3, w0=2, m_stages=0,
                 f_extra=1, queue_capacity=1, collect_trace=True)
    stats = des.simulate(cfg)
    trace = stats.trace
    assert trace, "trace requested but empty"
    assert [row[0] for row in trace] == list(range(len(trace)))
    p = cfg.mac_params
    t_s, t_f = ma.transmission_times(p)
    t_aifs = p.aifs_slots * constants.SLOT_TIME
    busy_until = 0.0
    for _, entity, birth, att, fate, done in trace:
        assert entity == 0
        if fate == "pending":
            continue
        if birth < busy_until:
            assert fate == "rejected" and att == 0 and done == birth
        else:
            assert fate == "delivered" and att == 1
            # delay = grid alignment + AIFS + backoff*slot + exchange time
            residual = done - birth - (t_s - t_aifs) - t_aifs
            assert 0.0 <= residual < p.w0 * constants.SLOT_TIME + constants.SLOT_TIME
            busy_until = done
    fates = {row[4] for row in trace}
    assert "delivered" in fates and "rejected" in fates


def test_utilization_law():
    # P(station busy) = accepted rate x mean service time, any service law
    stats = des.simulate(config(n=1, lam=25.0, duration=60.0, seed=5))
    busy = 1.0 - stats.empty_fraction
    predicted = stats.accepted_rate * stats.mean_service_time
    assert busy == pytest.approx(predicted, abs=0.01)


def test_empty_fraction_tracks_model_q0():
    stats = des.simulate(config(n=1, lam=25.0, duration=60.0, seed=5))
    sol = ma.solve(ma.MacParams(n_stations=1, arrival_rate=25.0))
    assert stats.empty_fraction == pytest.approx(sol.q0, abs=0.03)


def test_littles_law():
    stats = des.simulate(config(n=5, lam=40.0, duration=60.0, seed=9,
                                payload_bits=4000))
    predicted = stats.accepted_rate * stats.mean_sojourn
    assert stats.mean_system_size == pytest.approx(predicted, rel=0.10)


def test_short_horizon_rejected():
    with pytest.raises(ConfigurationError) as err:
        des.simulate(des.DesConfig(
            mac_params=ma.MacParams(n_stations=1, arrival_rate=1.0),
            seed=1, measured_duration=5.0))
    assert "extend the horizon" in str(err.value)


def test_confidence_halfwidths_present_and_finite():
    stats = des.simulate(config(n=5, lam=30.0, duration=30.0, seed=13))
    ci = stats.confidence_halfwidth
    assert set(ci) == {"delivered_per_station", "mean_total_delay", "drop_rate"}
    assert all(math.isfinite(v) for v in ci.values())
    assert ci["mean_total_delay"] < stats.mean_total_delay  # sane batch spread


def test_four_ac_priorities_and_internal_collisions():
    cfg = config(n=5, lam=20.0, duration=20.0, seed=17, payload_bits=4000,
                 ac_mode=des.AcMode.FOUR_AC)
    stats = des.simulate(cfg)
    per_ac = stats.per_ac_delivered
    assert set(per_ac) == {"ac_vo", "ac_vi", "ac_be", "ac_bk"}
    assert stats.internal_collisions > 0
    assert (stats.generated == stats.delivered + stats.rejected
            + stats.retry_dropped + stats.in_system)
    # Channel-access priority shows up as head-of-line delay, not as
    # delivered counts (those track the arrival processes, which are
    # identical across classes). Shorter waits and smaller windows must
    # order the mean delays strictly.
    dly = stats.per_ac_delay
    assert dly["ac_vo"] < dly["ac_vi"] < dly["ac_be"] < dly["ac_bk"]


def test_mid_load_against_model():
    # One cross-validation point; the full grid runs in the acceptance
    # suite. Below saturation the analytical throughput tracks the
    # simulator, while the analytical service time runs long: the chain
    # normalization spreads probability over the backoff states even
    # when the queue is mostly empty, so the attempt rate it predicts
    # (and with it the per-packet wait) overshoots at light load. The
    # bias is pinned here so a regression in either direction surfaces.
    params = ma.MacParams(n_stations=10, arrival_rate=25.0, payload_bits=4000)
    stats = des.simulate(des.DesConfig(mac_params=params, seed=21,
                                       measured_duration=20.0))
    sol = ma.solve(params)
    assert stats.delivered_per_station == pytest.approx(
        sol.throughput / params.n_stations, rel=0.20)
    assert sol.t_serv > stats.mean_service_time          # known overshoot
    assert sol.t_serv < 6.0 * stats.mean_service_time    # but bounded
    assert sol.t_delay > stats.mean_total_delay


def test_internal_collision_loser_backs_off():
    # A lone station never collides on the air, but its four ACs collide
    # inside it. Each loser backs off as after an air collision (802.11e),
    # so a packet that keeps losing reaches its retry limit.
    stats = des.simulate(config(n=1, lam=200.0, duration=20.0, seed=5,
                                payload_bits=4000, ac_mode=des.AcMode.FOUR_AC))
    assert stats.air_collisions == 0
    assert stats.internal_collisions > 0
    assert stats.retry_dropped > 0


def test_dropped_trace_rows_count_every_attempt():
    # A retry-dropped packet failed once per retry stage, on the air or
    # inside its station, so its trace row shows its class's stage count.
    cfg = config(n=1, lam=200.0, duration=20.0, seed=5, payload_bits=4000,
                 ac_mode=des.AcMode.FOUR_AC, collect_trace=True)
    stats = des.simulate(cfg)
    stages = {ac: ma.MacParams(n_stations=1, arrival_rate=1.0,
                               **constants.EDCA_PARAMETER_SETS[ac]).retry_stages
              for ac in constants.AC_PRIORITY}
    dropped = [row for row in stats.trace if row[4] == "dropped"]
    assert len(dropped) == stats.retry_dropped > 0
    for _, entity, _, attempts, _, _ in dropped:
        # one station: entity idx i is the i-th access class
        assert attempts == stages[constants.AC_PRIORITY[entity]]
    assert {constants.AC_PRIORITY[row[1]] for row in dropped} == {"ac_vi"}
    assert stages["ac_vi"] == 2


def test_pending_head_row_counts_its_attempts():
    # At the horizon a station's head packet may already have collided;
    # its "pending" row carries those attempts, the packets behind it none.
    cfg = config(n=20, lam=50.0, duration=20.0, seed=1, payload_bits=8000,
                 collect_trace=True)
    stats = des.simulate(cfg)
    pending = [row for row in stats.trace if row[4] == "pending"]
    assert len(pending) == stats.in_system
    heads = {}
    for _, entity, birth, attempts, _, _ in pending:
        heads.setdefault(entity, []).append((birth, attempts))
    tried = 0
    for rows in heads.values():
        rows.sort()
        assert all(att == 0 for _, att in rows[1:])
        assert 0 <= rows[0][1] < cfg.mac_params.retry_stages
        tried += rows[0][1] > 0
    assert tried == 18


# Seed 1, 20 s: (generated, delivered, rejected, retry_dropped, in_system,
# attempts, air_collisions, internal_collisions), the mean total delay,
# (mean_service_time, mean_sojourn, accepted_rate) and the 95% half-widths
# of (delivered_per_station, mean_total_delay, drop_rate), pinned so that
# any change to the event loop that alters a result shows.
GOLDEN = {
    "basic-1000B-N20-lam50": (
        dict(n=20, lam=50.0, payload_bits=8000),
        (22072, 9376, 11416, 69, 1211, 17964, 8588, 0), 2.716844099379698,
        (0.046286212424379226, 2.7239811251532156, 429.8),
        (0.15344702139500804, 0.1860718986332639, 0.01572030317776522)),
    "rtscts-500B-N5-lam25": (
        dict(n=5, lam=25.0, payload_bits=4000, access_mode=ma.AccessMode.RTS_CTS),
        (2822, 2821, 0, 0, 1, 2843, 22, 0), 0.002142722760610596,
        (0.002093611832326079, 0.002142722760610596, 128.1),
        (0.8842900556646379, 3.7829311432452784e-05, 0.0)),
    "basic-1000B-N40-lam100": (
        dict(n=40, lam=100.0, payload_bits=8000),
        (88236, 8469, 76991, 227, 2549, 20103, 11634, 0), 5.705828532554676,
        (0.10049474005884358, 5.724423471049415, 396.5),
        (0.06870753742264535, 0.5751829986935536, 0.001115769704391961)),
    "four-ac-basic-500B-N5-lam50": (
        dict(n=5, lam=50.0, payload_bits=4000, ac_mode=des.AcMode.FOUR_AC),
        (21836, 18625, 2531, 362, 318, 23667, 5042, 310), 0.35234480447350736,
        (0.010274255615299224, 0.3460462437148375, 863.9),
        (0.7611974293281538, 0.04477502151905057, 0.014303806764927795)),
}


def _golden_run(name, trace):
    kw, counters, delay, means, halfwidths = GOLDEN[name]
    s = des.simulate(config(seed=1, duration=20.0, collect_trace=trace, **kw))
    assert (s.generated, s.delivered, s.rejected, s.retry_dropped, s.in_system,
            s.attempts, s.air_collisions, s.internal_collisions) == counters
    assert s.mean_total_delay == delay
    assert (s.mean_service_time, s.mean_sojourn, s.accepted_rate) == means
    hw = s.confidence_halfwidth
    assert (hw["delivered_per_station"], hw["mean_total_delay"],
            hw["drop_rate"]) == halfwidths
    return s


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_counters(name):
    assert _golden_run(name, trace=False).trace is None


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_counters_with_trace(name):
    # collecting the trace must not change a single statistic
    traced = _golden_run(name, trace=True)
    assert traced.trace
    assert dataclasses.replace(traced, trace=None) == _golden_run(name, trace=False)


# sha256 over repr(DesStats) of every point of the grid below, trace off
# then on, in grid order. The reprs are the same on Python 3.10 to 3.13:
# the simulator draws from the Mersenne Twister core only.
GRID_PIN = "49594d3be2da2508d27036f76b149c9adc33278e5f75d9dd1ad265e4512b1808"


def test_grid_stats_pinned():
    # N x rate x payload x access x AC mode: 96 configurations, 3 s each
    digest = hashlib.sha256()
    for n, lam, bits, access, ac_mode in itertools.product(
            (1, 5, 20, 40), (10.0, 50.0, 200.0), (4000, 8000),
            (ma.AccessMode.BASIC, ma.AccessMode.RTS_CTS),
            (des.AcMode.SINGLE_AC, des.AcMode.FOUR_AC)):
        for trace in (False, True):
            stats = des.simulate(config(n=n, lam=lam, duration=3.0, seed=3,
                                        payload_bits=bits, access_mode=access,
                                        ac_mode=ac_mode, collect_trace=trace))
            digest.update(repr(stats).encode())
    assert digest.hexdigest() == GRID_PIN


def test_t95_covers_every_batch_count():
    # halfwidth reads _T95[n - 2] for n = 2 .. BATCH_COUNT batch means
    assert len(des._T95) == des.BATCH_COUNT - 1
