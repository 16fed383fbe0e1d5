"""Unit tests for the analytical cell model.

Golden values were derived by hand from the model definitions before the
implementation existed; they are frozen here on purpose.
"""

import random

import pytest

from vanetsim import mac_analytic as ma
from vanetsim.errors import ConfigurationError, DegenerateInputError


def params(**kw):
    base = dict(n_stations=10, arrival_rate=25.0)
    base.update(kw)
    return ma.MacParams(**base)


# ---------------------------------------------------------------- parameters

def test_validate_collects_every_problem():
    bad = ma.MacParams(n_stations=0, arrival_rate=-1.0, w0=1)
    with pytest.raises(ConfigurationError) as err:
        bad.validate()
    msg = str(err.value)
    assert "n_stations" in msg and "arrival_rate" in msg and "w0" in msg


def test_validate_returns_self_on_good_params():
    p = params()
    assert p.validate() is p


def test_zero_total_retries_rejected():
    with pytest.raises(ConfigurationError):
        params(m_stages=0, f_extra=0).validate()


def test_window_sizes_double_then_cap():
    # defaults: w0=16, alpha=2, M=6, f=1 -> 7 stages, capped at 1024
    assert ma.window_sizes(params()) == (16, 32, 64, 128, 256, 512, 1024)
    assert ma.window_sizes(params(m_stages=1, f_extra=2, w0=4)) == (4, 8, 8)


# ---------------------------------------------------- transmission times

def test_transmission_times_basic_1000_byte():
    p = params(payload_bits=8000, access_mode=ma.AccessMode.BASIC)
    t_s, t_f = ma.transmission_times(p)
    # 78 us AIFS + 8000/6e6 frame + 1 us + 32 us SIFS + 1760/6e6 ack + 1 us
    assert t_s == pytest.approx(1738.6666666e-6, rel=1e-9)
    assert t_f == pytest.approx(1412.3333333e-6, rel=1e-9)


def test_transmission_times_handshake_mode():
    p = params(payload_bits=8000, access_mode=ma.AccessMode.RTS_CTS)
    t_s, t_f = ma.transmission_times(p)
    assert t_s == pytest.approx(2404.6666666e-6, rel=1e-9)
    # a failed handshake only burns the reservation frame
    assert t_f == pytest.approx(385.6666666e-6, rel=1e-9)
    assert t_f < ma.transmission_times(params())[1]


# ------------------------------------------------------- state probabilities

def test_normalize_p00_single_stage_hand_value():
    # one stage, w0=2, empty state off: mass = 1 + 1/2 -> p00 = 2/3
    p = params(w0=2, m_stages=0, f_extra=1)
    assert ma.normalize_p00(0.37, 1.0, 0.0, p) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_state_mass_sums_to_one():
    p = params()
    for p_col, p_idle, q0 in [(0.0, 1.0, 0.5), (0.3, 0.2, 0.1), (0.9, 0.05, 0.7)]:
        p00 = ma.normalize_p00(p_col, p_idle, q0, p)
        dist = ma.state_probabilities(p00, p_col, p_idle, q0, p)
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_state_distribution_shape_and_heads():
    p = params(w0=4, m_stages=1, f_extra=1)
    p00 = ma.normalize_p00(0.5, 0.8, 0.2, p)
    dist = ma.state_probabilities(p00, 0.5, 0.8, 0.2, p)
    assert len(dist.head) == 2 and len(dist.backoff) == 2
    assert dist.head[1] == pytest.approx(0.5 * p00)
    assert dist.p_last == pytest.approx(dist.head[-1])
    assert dist.p_trans == pytest.approx(p00 * 1.5)
    # P(i,1) = (w-1)/w * p_col^i/p_idle * p00
    assert dist.backoff[0][0] == pytest.approx(0.75 / 0.8 * p00)
    assert dist.backoff[1].shape == (7,)


def test_closed_form_matches_summation():
    rng = random.Random(7)
    for _ in range(200):
        p = params(w0=rng.choice([2, 4, 8, 16, 32]),
                   m_stages=rng.randint(0, 6),
                   f_extra=rng.randint(0, 2))
        if p.retry_stages < 1:
            continue
        p_col = rng.uniform(0.01, 0.45)  # away from 1/alpha and 1
        p_idle = rng.uniform(0.05, 1.0)
        q0 = rng.uniform(0.0, 0.95)
        direct = ma.normalize_p00(p_col, p_idle, q0, p)
        closed = ma.normalize_p00_closed_form(p_col, p_idle, q0, p)
        assert closed == pytest.approx(direct, rel=1e-9)


def test_degenerate_inputs_rejected():
    p = params()
    with pytest.raises(DegenerateInputError):
        ma.normalize_p00(0.2, 1.0, 1.0, p)
    with pytest.raises(DegenerateInputError):
        ma.state_probabilities(0.1, 0.2, 0.0, 0.3, p)
    with pytest.raises(DegenerateInputError):
        ma._service_terms(0.2, 0.0, 0.3, 0.1, 1e-3, 1e-3, p)
    with pytest.raises(DegenerateInputError):
        ma.normalize_p00_closed_form(0.5, 1.0, 0.2, p)  # p_col = 1/alpha


# ------------------------------------------------------------- coupling

def test_coupling_two_stations_hand_values():
    p = params(n_stations=2)
    p_col, p_idle_slot, p_idle, p_suc, p_fail = ma.coupling_equations(0.5, p)
    assert p_col == pytest.approx(0.5)
    assert p_idle_slot == pytest.approx(0.25)
    assert p_suc == pytest.approx(0.5)
    assert p_fail == pytest.approx(0.25)
    assert p_idle == pytest.approx(0.25 ** p.aifs_slots)


def test_coupling_single_station_never_collides():
    p_col, p_idle_slot, _, p_suc, p_fail = ma.coupling_equations(
        0.3, params(n_stations=1))
    assert p_col == 0.0
    assert p_suc == pytest.approx(0.3)
    assert p_idle_slot == pytest.approx(0.7)
    assert p_fail == 0.0  # 1 - 0.3 - 0.7 clamps to zero, not -1e-17


# ----------------------------------------------------------- service time

def test_service_time_no_collisions():
    p = params(w0=16)
    t_s, t_f = ma.transmission_times(p)
    slot = p.slot_time
    got = ma._service_terms(0.0, 0.8, 0.3, 0.1, t_s, t_f, p)[0]
    t_w = 0.1 * (t_f / slot) + 0.3 * (t_s / slot) + 1.0 / 0.8
    want = slot * (t_w * 7.5 + t_s / slot)  # (w0-1)/2 = 7.5, t_tr_av = t_s
    assert got == pytest.approx(want, rel=1e-12)


def test_service_time_all_collisions_counts_every_stage():
    p = params(w0=4, m_stages=2, f_extra=1)
    t_s, t_f = ma.transmission_times(p)
    slot = p.slot_time
    got = ma._service_terms(1.0, 0.5, 0.0, 0.4, t_s, t_f, p)[0]
    t_w = 0.4 * (t_f / slot) + 2.0
    t_tr = t_f / slot  # p_col = 1 -> every attempt fails
    want = slot * sum(t_w * (w - 1) / 2.0 + t_tr for w in (4, 8, 16))
    assert got == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------ finite queue

def test_queue_metrics_half_load():
    q0, p_rej, lam_eff, t_q = ma.mm1k_metrics(0.5, 2, 4.0, 2.0)
    assert q0 == pytest.approx(4.0 / 7.0, abs=1e-15)
    assert p_rej == pytest.approx(1.0 / 7.0, abs=1e-15)
    assert lam_eff == pytest.approx(2.0 * 6.0 / 7.0)
    assert t_q == pytest.approx(7.0 / 16.0)  # 1/(mu*q0)


def test_queue_metrics_equal_rates_branch():
    q0, p_rej, _, _ = ma.mm1k_metrics(1.0, 63, 100.0, 100.0)
    assert q0 == pytest.approx(1.0 / 64.0, abs=1e-15)
    assert p_rej == pytest.approx(1.0 / 64.0, abs=1e-15)
    near = ma.mm1k_metrics(1.0 + 1e-12, 63, 100.0, 100.0)[0]
    assert near == pytest.approx(1.0 / 64.0, abs=1e-12)


def test_queue_metrics_overload_stays_finite():
    q0, p_rej, _, _ = ma.mm1k_metrics(2.0, 10, 10.0, 20.0)
    assert q0 == pytest.approx(1.0 / 2047.0, rel=1e-12)
    assert p_rej == pytest.approx(1024.0 / 2047.0, rel=1e-12)
    # deep overload must not overflow
    q0, p_rej, _, t_q = ma.mm1k_metrics(50.0, 64, 10.0, 500.0)
    assert 0.0 <= q0 <= 1.0 and 0.97 < p_rej < 1.0
    assert t_q is None  # saturated: q0 below float meaning


def test_queue_wait_exact_variant():
    # rho=0.5, K=2: pi = (4/7, 2/7, 1/7), Lq = 1/7, lam_eff = 12/7 -> Wq = 1/12
    *_, t_q = ma.mm1k_metrics(0.5, 2, 4.0, 2.0, exact_wait=True)
    assert t_q == pytest.approx(1.0 / 12.0, rel=1e-12)
    # saturated regime stays finite and below the full-buffer bound
    q0, p_rej, lam_eff, t_q = ma.mm1k_metrics(5.0, 64, 500.0, 2500.0, exact_wait=True)
    assert t_q is not None and 0.0 < t_q < 64.0 / lam_eff * 1.01


def test_drop_probability_arithmetic():
    assert ma.drop_probability(0.0, 0.3, 0.0) == 0.0
    assert ma.drop_probability(1.0, 0.3, 0.4) == 1.0
    assert ma.drop_probability(0.1, 0.05, 0.4) == pytest.approx(0.118, abs=1e-15)
    # tiny rejection must survive the arithmetic
    assert ma.drop_probability(1e-170, 0.0, 0.0) == 1e-170


# ------------------------------------------------------------------ solve

def test_solve_single_station_identities():
    sol = ma.solve(params(n_stations=1, arrival_rate=1.0))
    assert sol.p_col == 0.0
    assert sol.p_drop == sol.p_rej
    assert sol.p_suc == pytest.approx(sol.p_trans)
    assert sol.residual < 1e-9


def test_solve_mass_normalized_at_fixed_point():
    for n in (1, 5, 20, 40):
        sol = ma.solve(params(n_stations=n, arrival_rate=50.0))
        dist = ma.state_probabilities(sol.p00, sol.p_col, sol.p_idle, sol.q0,
                                      params(n_stations=n, arrival_rate=50.0))
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_solve_is_deterministic():
    a = ma.solve(params(n_stations=20, arrival_rate=50.0))
    b = ma.solve(params(n_stations=20, arrival_rate=50.0))
    assert a.as_record() == b.as_record()


def test_solve_probabilities_in_range_randomized():
    rng = random.Random(20260819)
    prob_fields = ("p_trans", "p_col", "p_idle_slot", "p_idle", "p_suc",
                   "p_fail", "q0", "p00", "p_rej", "p_drop")
    for _ in range(25):
        p = params(
            n_stations=rng.randint(1, 50),
            arrival_rate=rng.uniform(0.1, 200.0),
            w0=rng.choice([4, 8, 16, 32]),
            m_stages=rng.randint(0, 6),
            f_extra=rng.randint(1, 2),
            payload_bits=rng.choice([4000, 8000]),
            access_mode=rng.choice(list(ma.AccessMode)),
        )
        sol = ma.solve(p)
        for name in prob_fields:
            v = getattr(sol, name)
            assert 0.0 <= v <= 1.0, f"{name}={v} out of range for {p}"
        assert sol.t_serv > 0.0 and sol.rho >= 0.0
        assert sol.throughput >= 0.0
        if sol.t_q is not None:
            assert sol.t_q > 0.0 and sol.t_delay > sol.t_serv


def test_solve_low_demand_limit():
    sols = [ma.solve(params(arrival_rate=lam)) for lam in (0.001, 0.01, 0.1)]
    assert sols[0].q0 > 0.999
    assert sols[0].p_rej < 1e-12
    assert sols[0].throughput < sols[1].throughput < sols[2].throughput


def test_solve_drop_monotone_in_population():
    drops = [ma.solve(params(n_stations=n, arrival_rate=50.0)).p_drop
             for n in (5, 10, 20, 40)]
    for lo, hi in zip(drops, drops[1:]):
        assert hi >= lo - 1e-6


def test_solve_delay_monotone_in_demand_below_saturation():
    delays = []
    for lam in (5.0, 10.0, 20.0):
        sol = ma.solve(params(n_stations=10, arrival_rate=lam))
        assert sol.t_q is not None
        delays.append(sol.t_delay)
    for lo, hi in zip(delays, delays[1:]):
        assert hi >= lo - 1e-6


def test_solve_throughput_consistency():
    p = params(n_stations=20, arrival_rate=50.0)
    sol = ma.solve(p)
    p_last = sol.p00 * sol.p_col ** (p.retry_stages - 1)
    want_raw = (p.n_stations * (1.0 - sol.q0)
                * (1.0 - p_last * sol.p_col) * (1.0 - sol.p_fail))
    assert sol.throughput_raw == pytest.approx(want_raw, rel=1e-12)
    assert sol.throughput == pytest.approx(want_raw / sol.t_serv, rel=1e-12)


def test_solve_exact_queue_wait_flag_only_touches_wait():
    p = params(n_stations=40, arrival_rate=100.0)
    plain = ma.solve(p)
    exact = ma.solve(p, exact_queue_wait=True)
    assert exact.q0 == plain.q0 and exact.p_drop == plain.p_drop
    assert exact.t_q is not None  # exact wait is finite even when saturated
    if plain.t_q is not None:
        assert exact.t_q <= plain.t_q * (1.0 + 1e-9)


def test_solution_record_field_order():
    sol = ma.solve(params())
    keys = list(sol.as_record())
    assert keys[0] == "p_trans"
    assert "throughput_raw" in keys and "iterations" in keys
