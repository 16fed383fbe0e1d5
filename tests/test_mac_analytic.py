"""Unit tests for the analytical cell model.

Golden values were derived by hand from the model definitions before the
implementation existed; they are frozen here on purpose.
"""

import math
import random
import sys

import pytest

from vanetsim import mac_analytic as ma
from vanetsim.constants import SLOT_TIME
from vanetsim.errors import ConfigurationError, ConvergenceError, DegenerateInputError


def params(**kw):
    base = dict(n_stations=10, arrival_rate=25.0)
    base.update(kw)
    return ma.MacParams(**base)


def stages(p_col, p):
    """The stage vectors (p_col ** i, w_i - 1) that solve builds for p."""
    return ([p_col ** i for i in range(p.retry_stages)],
            [w - 1 for w in ma.window_sizes(p)])


def slot_times(p):
    """(t_s in slots, t_f in slots, slot) as solve hoists them for p."""
    t_s, t_f = ma.transmission_times(p)
    return t_s / SLOT_TIME, t_f / SLOT_TIME, SLOT_TIME


# ---------------------------------------------------------------- parameters

def test_validate_collects_every_problem():
    with pytest.raises(ConfigurationError) as err:
        ma.MacParams(n_stations=0, arrival_rate=-1.0, w0=1)
    msg = str(err.value)
    assert "n_stations" in msg and "arrival_rate" in msg and "w0" in msg
    # the float field must be finite
    with pytest.raises(ConfigurationError) as err:
        params(arrival_rate=math.inf, w0=1)
    msg = str(err.value)
    assert "arrival_rate must be finite" in msg and "w0 must be in" in msg


def test_validate_returns_self_on_good_params():
    p = params()
    assert p.validate() is p


def test_zero_total_retries_rejected():
    with pytest.raises(ConfigurationError):
        params(m_stages=0, f_extra=0).validate()


def test_retry_stages_stop_at_the_802_11_retry_limit():
    # dot11ShortRetryLimit and dot11LongRetryLimit range over 1..255
    assert params(m_stages=6, f_extra=249).retry_stages == 255
    for f_extra in (250, 10 ** 9):
        with pytest.raises(ConfigurationError, match="m_stages \\+ f_extra") as err:
            params(m_stages=6, f_extra=f_extra)
        assert f"got 6 + {f_extra}" in str(err.value)


def test_window_sizes_double_then_cap():
    # defaults: w0=16, M=6, f=1 -> 7 stages, doubling to a cap of 1024
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
    p00 = ma.normalize_p00(*stages(0.37, p), 1.0, 0.0)
    assert p00 == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_state_mass_sums_to_one():
    p = params()
    for p_col, p_idle, q0 in [(0.0, 1.0, 0.5), (0.3, 0.2, 0.1), (0.9, 0.05, 0.7)]:
        p00 = ma.normalize_p00(*stages(p_col, p), p_idle, q0)
        dist = ma.state_probabilities(p00, p_col, p_idle, q0, p)
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_state_distribution_shape_and_heads():
    p = params(w0=4, m_stages=1, f_extra=1)
    p00 = ma.normalize_p00(*stages(0.5, p), 0.8, 0.2)
    dist = ma.state_probabilities(p00, 0.5, 0.8, 0.2, p)
    assert len(dist.head) == 2 and len(dist.backoff) == 2
    assert dist.head[1] == pytest.approx(0.5 * p00)
    assert dist.p_last == pytest.approx(dist.head[-1])
    assert dist.p_trans == pytest.approx(p00 * 1.5)
    # P(i,1) = (w-1)/w * p_col^i/p_idle * p00
    assert dist.backoff[0][0] == pytest.approx(0.75 / 0.8 * p00)
    assert len(dist.backoff[1]) == 7


def test_closed_form_matches_summation():
    rng = random.Random(7)
    for _ in range(200):
        w0, m_stages, f_extra = (rng.choice([2, 4, 8, 16, 32]), rng.randint(0, 6),
                                 rng.randint(0, 2))
        if m_stages + f_extra < 1:
            continue
        p = params(w0=w0, m_stages=m_stages, f_extra=f_extra)
        p_col = rng.uniform(0.01, 0.45)  # away from 1/2 and 1
        p_idle = rng.uniform(0.05, 1.0)
        q0 = rng.uniform(0.0, 0.95)
        direct = ma.normalize_p00(*stages(p_col, p), p_idle, q0)
        closed = ma.normalize_p00_closed_form(p_col, p_idle, q0, p)
        assert closed == pytest.approx(direct, rel=1e-9)


def test_degenerate_inputs_rejected():
    p = params()
    # q0 = 1 is the zero-load limit, not an error: the chain holds no mass
    assert ma.normalize_p00(*stages(0.2, p), 1.0, 1.0) == 0.0
    with pytest.raises(DegenerateInputError):
        ma.state_probabilities(0.1, 0.2, 0.0, 0.3, p)
    with pytest.raises(DegenerateInputError):
        ma.normalize_p00_closed_form(0.5, 1.0, 0.2, p)  # p_col = 1/2


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
    slot = SLOT_TIME
    got = ma._service_terms(0.0, 0.8, 0.3, 0.1, *stages(0.0, p), *slot_times(p))[0]
    t_w = 0.1 * (t_f / slot) + 0.3 * (t_s / slot) + 1.0 / 0.8
    want = slot * (t_w * 7.5 + t_s / slot)  # (w0-1)/2 = 7.5, t_tr_av = t_s
    assert got == pytest.approx(want, rel=1e-12)


def test_service_time_all_collisions_counts_every_stage():
    p = params(w0=4, m_stages=2, f_extra=1)
    t_s, t_f = ma.transmission_times(p)
    slot = SLOT_TIME
    got = ma._service_terms(1.0, 0.5, 0.0, 0.4, *stages(1.0, p), *slot_times(p))[0]
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
    assert t_q == 1.0 / (10.0 * q0)  # saturated: the sojourn diverges, still a number


def test_queue_metrics_where_q0_underflows():
    q0, p_rej, lam_eff, t_q = ma.mm1k_metrics(1e300, 64, 10.0, 1e301)
    assert q0 == 0.0 and p_rej == 1.0 and lam_eff == 0.0
    assert t_q == math.inf
    # the exact wait reads lambda_eff by flow balance, mu*(1 - q0): (K-1)/mu
    *_, exact = ma.mm1k_metrics(1e300, 64, 10.0, 1e301, exact_wait=True)
    assert exact == pytest.approx(63.0 / 10.0, rel=1e-12)


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
        assert sol.t_q > 0.0 and sol.t_delay > sol.t_serv


def test_solve_low_demand_limit():
    sols = [ma.solve(params(arrival_rate=lam)) for lam in (0.001, 0.01, 0.1)]
    assert sols[0].q0 > 0.999
    assert sols[0].p_rej < 1e-12
    assert sols[0].throughput < sols[1].throughput < sols[2].throughput


@pytest.mark.parametrize("rate", [1e-14, 1e-300])
def test_solve_at_the_zero_load_limit(rate):
    # q0 rounds to 1, so the chain holds no mass: one iterate settles it
    sol = ma.solve(params(n_stations=5, arrival_rate=rate))
    assert sol.q0 == 1.0 and sol.p00 == 0.0 and sol.p_trans == 0.0
    assert sol.p_col == 0.0 and sol.throughput == 0.0 and sol.p_drop == 0.0
    assert sol.iterations == 1 and sol.residual < ma.FIXED_POINT_TOL


@pytest.mark.parametrize("field", ["n_stations", "queue_capacity", "w0", "f_extra",
                                   "aifs_slots", "payload_bits"])
def test_int_beyond_float_range_is_refused(field):
    # the model makes floats of every int field; 10 ** 400 has none
    with pytest.raises(ConfigurationError, match=f"{field} must be in") as err:
        params(**{field: 10 ** 400})
    assert field in err.value.fields
    big = int(sys.float_info.max)                # the largest int a float holds
    with pytest.raises(ConfigurationError, match=f"{field} must be in"):
        params(**{field: big + 2 ** 971})        # past it by one float spacing


def test_window_beyond_float_range_is_refused():
    with pytest.raises(ConfigurationError, match="m_stages must be below"):
        params(m_stages=1030)
    # checked in logarithms: an exponent this large is never built
    with pytest.raises(ConfigurationError, match="m_stages must be below"):
        params(m_stages=10 ** 400)
    # just below the cap, and one stage past it: 2 ** 800 * 2 ** 222 is 2 ** 1022
    assert params(w0=2 ** 800, m_stages=222, f_extra=0).retry_stages == 222
    with pytest.raises(ConfigurationError, match="m_stages must be below"):
        params(w0=2 ** 800, m_stages=223, f_extra=0)
    # this window is in range, but 1022 stages are past 802.11's retry limit
    with pytest.raises(ConfigurationError,
                       match=r"m_stages \+ f_extra must be in \[1, 255\]"):
        params(w0=2, m_stages=1021)


def test_solve_drop_monotone_in_population():
    drops = [ma.solve(params(n_stations=n, arrival_rate=50.0)).p_drop
             for n in (5, 10, 20, 40)]
    for lo, hi in zip(drops, drops[1:]):
        assert hi >= lo - 1e-6


def test_solve_delay_monotone_in_demand_below_saturation():
    delays = []
    for lam in (5.0, 10.0, 20.0):
        sol = ma.solve(params(n_stations=10, arrival_rate=lam))
        assert math.isfinite(sol.t_delay)
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


def test_exact_wait_at_solution_is_finite_and_below_reported():
    # solve reports the infinite-queue wait; the exact finite-queue wait
    # (mm1k_metrics' exact_wait) at the same solved point stays finite,
    # and the reported wait is never below it
    p = params(n_stations=40, arrival_rate=100.0)
    sol = ma.solve(p)
    *_, exact = ma.mm1k_metrics(sol.rho, p.queue_capacity, sol.mu, p.arrival_rate,
                                exact_wait=True)
    assert math.isfinite(exact)
    assert exact <= sol.t_q


def test_solution_record_field_order():
    sol = ma.solve(params())
    keys = list(sol.as_record())
    assert keys[0] == "p_trans"
    assert "throughput_raw" in keys and "iterations" in keys


# Every as_record() field of solve at ten points, in field order. The first
# eight are from the model as it stood before its report was read from the
# last iterate; the last two, on other stage shapes (AC_VO's two stages, and
# a single stage), from the model as it stood before its per-cell constants
# were hoisted out of the loop. The comparison is ==, so the values,
# iterations and residual are pinned bit for bit. Basic access unless the
# point says rtscts.
RTS = ma.AccessMode.RTS_CTS
PINNED_SOLUTIONS = {
    "n1-rate50": (dict(n_stations=1, arrival_rate=50.0), (
        0.05482366431655706, 0.0, 0.945176335683443, 0.7129794912394908,
        0.05482366431655706, 0.0, 0.8704841334758517, 0.054823664556778236,
        0.0017386666666666664, 0.0014123333333333331, 0.00011355342123067694,
        0.0017386666666666664, 0.002590317325896743, 386.0530870108007,
        0.12951586629483716, 1.344098958890999e-57, 1.344098958890999e-57,
        0.002975720321140392, 0.005566037647037135, 50.0, 50.00000008852626,
        0.12951586652414826, 26, 9.182699045595655e-10)),
    "n10-rate25-4000bit": (dict(n_stations=10, arrival_rate=25.0, payload_bits=4000), (
        0.02212313216776785, 0.18236861238947305, 0.7995428206488504,
        0.2612464316271973, 0.1808856725920538, 0.019571506759095803,
        0.8917508729291084, 0.01808868862577998, 0.001072,
        0.0007456666666666667, 0.000258264706459401, 0.0010124870428235688,
        0.0043299650517995055, 230.9487462455168, 0.10824912629498763,
        1.4236562107519508e-62, 1.213550178622593e-07, 0.0048555770220998305,
        0.009185542073899336, 25.0, 245.10709532211607, 1.0613051566928526, 31,
        7.759038966881349e-10)),
    "n40-rate100": (dict(n_stations=40, arrival_rate=100.0), (
        0.008924211964750578, 0.29503461677937376, 0.698674122906959,
        0.11631827505920317, 0.25165042037677693, 0.049675456716264166,
        7.200959925365877e-10, 0.006292484944122398, 0.0017386666666666664,
        0.0014123333333333331, 0.0006194568185319756, 0.0016423870367243305,
        0.013677924212515312, 73.11050890931236, 1.367792421251531,
        0.26889491129437487, 0.268895806479421, 25806550.89628826,
        25806550.909966186, 73.11050887056251, 2779.145034672817,
        38.01293515984303, 32, 7.469727475450938e-10)),
    "n40-rate250-saturated": (dict(n_stations=40, arrival_rate=250.0), (
        0.00892421195395619, 0.2950346167896686, 0.6986741232113451,
        0.11631827531296424, 0.25165042017928396, 0.049675456609370894,
        1.2595167693992458e-10, 0.006292484957468914, 0.0017386666666666664,
        0.0014123333333333331, 0.0006194568177938105, 0.0016423870367209712,
        0.01367792419953318, 73.11050897870376, 3.4194810498832946,
        0.7075579640851849, 0.7075583221592048, 2.882113316642798e+32,
        2.882113316642798e+32, 73.11050897870378,
        2779.1450392743936, 38.012935186703814, 32, 6.966807131192354e-10)),
    "rtscts-n20-rate50": (dict(n_stations=20, arrival_rate=50.0, access_mode=RTS), (
        0.014691246361789465, 0.24512597478820283, 0.7437839849366877,
        0.16930934819706311, 0.22180080553045897, 0.034415209532853264,
        0.408294022061082, 0.01109063004418603, 0.002404666666666667,
        0.0003856666666666667, 0.0006234123322087936, 0.0019097573235692853,
        0.011834119548112967, 84.50142792071566, 0.5917059774056483,
        1.0610949319103034e-15, 5.897684764007826e-07, 0.02898430761468773,
        0.040818427162800694, 49.99999999999994, 965.5842218659011,
        11.426839115332708, 36, 5.332703167937325e-10)),
    "k8-n15-rate200": (dict(n_stations=15, arrival_rate=200.0, queue_capacity=8), (
        0.017955954008732213, 0.22405035874484722, 0.7620167253719582,
        0.19578843023453812, 0.20899374112368382, 0.028989533504357956,
        0.005332187566491399, 0.013933310994730486, 0.0017386666666666664,
        0.0014123333333333331, 0.00047071153904778754, 0.0016655515662629314,
        0.008641502266845194, 115.72061999412934, 1.7283004533690387,
        0.424482120521841, 0.4244823477868929, 1.6206297125844475,
        1.6292712148512927, 115.1035758956318, 1676.5009925458476,
        14.487487127453159, 31, 9.854445037760229e-10)),
    "k8-n60-rate200": (dict(n_stations=60, arrival_rate=200.0, queue_capacity=8), (
        0.006574639253917181, 0.3223907588894507, 0.6731542057300645,
        0.09304378751141752, 0.26730217929660044, 0.05954361497333516,
        4.542872809968194e-05, 0.004456649495014092, 0.0017386666666666664,
        0.0014123333333333331, 0.0006885639830650971, 0.0016334598156824089,
        0.016690740934742404, 59.91345764156356, 3.338148186948481,
        0.7004463207337948, 0.7004468039719628, 367.4055001765191,
        367.42219091745386, 59.91073585324105, 3380.600590099059,
        56.42472865318069, 33, 9.411251777891039e-10)),
    "rtscts-k1-n5-rate10-4000bit": (dict(n_stations=5, arrival_rate=10.0, queue_capacity=1, payload_bits=4000,
         access_mode=RTS), (
        0.023620899710359605, 0.09118832278180887, 0.8873447275714812,
        0.4881510631746614, 0.10733474739609147, 0.0053205250324273035,
        0.9637236473424321, 0.02146695063497893, 0.001738,
        0.0003856666666666667, 0.0002152308405823108, 0.0016146829914914004,
        0.003764186217881289, 265.66167084126363, 0.03764186217881289,
        0.036276352709762025, 0.03627635379443162, 0.0039058771967101632,
        0.007670063414591453, 9.63723647290238, 47.92980645211846,
        0.180416716872782, 47, 6.747389869055098e-10)),
    "acvo-w4-m1-f1-aifs2": (dict(n_stations=10, arrival_rate=25.0, w0=4, m_stages=1,
                                 f_extra=1, aifs_slots=2), (
        0.06840235395921149, 0.4714872826277452, 0.4923612038565915,
        0.2424195559396361, 0.3615151399868124, 0.14612365615659612,
        0.8757130291114983, 0.046485181511227734, 0.0016866666666666664,
        0.0013603333333333332, 0.0008621584530545275, 0.0015328046501024788,
        0.004971478840748529, 201.14739135637868, 0.12428697101871322,
        9.673874927180851e-59, 0.010333667828233332, 0.00567706391959456,
        0.010648542760343088, 25.0, 211.26316711360124, 1.050290365134789, 28,
        8.765240755437276e-10)),
    "single-stage-m0-f1": (dict(n_stations=10, arrival_rate=25.0, m_stages=0,
                                f_extra=1), (
        0.024343273466610797, 0.1989246143782087, 0.7815745888212173,
        0.22794107185921175, 0.19500797189017965, 0.02341743928860307,
        0.8776888438043384, 0.024343273267859244, 0.0017386666666666664,
        0.0014123333333333331, 0.00042915937478725524, 0.0016737509341745776,
        0.004892446245078992, 204.3967270986039, 0.1223111561269748,
        3.4767153963005074e-59, 0.004842476247512256, 0.005574237703067785,
        0.010466683948146777, 25.0, 242.96337085079628, 1.1886852314107128, 29,
        6.753287928873419e-10)),
}


@pytest.mark.parametrize("case", sorted(PINNED_SOLUTIONS))
def test_solve_pinned_bit_for_bit(case):
    kw, want = PINNED_SOLUTIONS[case]
    got = ma.solve(ma.MacParams(**kw)).as_record()
    assert len(got) == len(want)
    assert got == dict(zip(got, want))


def test_solve_raises_at_the_iteration_cap(monkeypatch):
    # solve reads the cap from the module on every call
    monkeypatch.setattr(ma, "FIXED_POINT_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as err:
        ma.solve(params(n_stations=20, arrival_rate=50.0))
    assert err.value.iterations == 3
    assert err.value.residual >= ma.FIXED_POINT_TOL
