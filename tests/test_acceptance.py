"""Acceptance gate: one check per shipped claim, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict line;
without ``-s`` pytest shows the lines of failing checks only. The grid
scenarios below are desk-scale calibrations: rates, background channel
load, and queue size are sized so each trend is resolvable in minutes on
one core, not to match any street network's absolute numbers.
"""

import functools
import itertools
import math
import multiprocessing
import random
import time
from concurrent import futures

import pytest

from vanetsim import cli, mac_analytic, mac_des, roadnet
from vanetsim.errors import ConfigurationError

TREND_INI = """\
[network]
rows = 10
cols = 10
spacing_m = 150

[rsu]
range_m = 250

[comm]
background_rate = 200
queue_capacity = 8
payload_bytes = 1000

[demand]
od =
    1 100 330 0 600
    100 1 330 0 600
    10 91 330 0 600
    91 10 330 0 600
    4 97 330 0 600
    97 4 330 0 600
    7 94 330 0 600
    94 7 330 0 600
    31 40 330 0 600
    40 31 330 0 600
    61 70 330 0 600
    70 61 330 0 600
odsf = 1.0

[sim]
seed = 1
drain_s = 1800
"""

# heavier and longer than the trend scenario so origin spillback has time
# to develop; extra route noise keeps the ideal-mode assignment spread out
IMPACT_INI = TREND_INI.replace(" 330 0 600", " 500 0 900") + """
[routing]
eta = 0.15
"""

# six light streams under a deliberately hostile channel
LOWDEM_INI = """\
[network]
rows = 10
cols = 10
spacing_m = 150

[rsu]
range_m = 250

[comm]
background_rate = 3000
queue_capacity = 8
payload_bytes = 1000

[routing]
eta = 0.15

[demand]
od =
    1 100 60 0 600
    100 1 60 0 600
    10 91 60 0 600
    91 10 60 0 600
    4 97 60 0 600
    97 4 60 0 600
odsf = 1.0

[sim]
seed = 1
drain_s = 1800
"""


def _verdict(criterion: int, ok: bool, detail: str) -> bool:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    return ok


def _scenario(tmp_path, text: str) -> dict:
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return cli.parse_scenario(path)


def _congested(nfd_rows) -> bool:
    """True when the flow-density samples show a backward-bending branch."""
    pts = [(r[1], r[2]) for r in nfd_rows if r[1] and r[1] > 0]
    if not pts:
        return False
    q_peak, k_peak = max((q, k) for k, q in pts)
    k_max = max(k for k, _ in pts)
    q_at_kmax = max(q for k, q in pts if k == k_max)
    return k_max > 1.2 * k_peak and q_at_kmax < 0.8 * q_peak


def _run_point(sc, odsf, mode, seed):
    sim, _table, _comm = cli.build_run(sc, odsf=odsf, mode=mode, seed=seed)
    sim.run()
    return sim


def _drop_and_delay(sim):
    total = len(sim.updates)
    dropped = sum(1 for u in sim.updates if u.fate == "dropped")
    delays = [u.delivered_at - u.created_at
              for u in sim.updates if u.fate == "delivered"]
    mean_delay = sum(delays) / len(delays) if delays else None
    return dropped / total, mean_delay


def _pool_runs(fn, points, cost):
    """{point: fn(*point)} for every point, from two worker processes.

    The runs are independent and seeded, so where each one runs changes
    no result. They are handed out in falling ``cost``, so that a long
    run does not start last. Each worker returns only what the check
    reads. Workers are spawned, not forked, since forking a process that
    runs threads is unsafe.
    """
    ordered = sorted(points, key=cost, reverse=True)
    with futures.ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        return dict(zip(ordered, pool.map(fn, *zip(*ordered))))


def _trend_point(sc, odsf, seed):
    return _drop_and_delay(_run_point(sc, odsf, "realistic", seed))


def _impact_point(sc, odsf, mode, seed):
    sim = _run_point(sc, odsf, mode, seed)
    return sim.counts(), sim.nfd_rows()


def test_criterion_1_cell_model_vs_event_sim():
    """Fixed-point model tracks the event simulator within 20% (or 95% CI)."""
    t0 = time.perf_counter()
    rows = cli.validation_rows(
        (5, 10, 20, 40), (10.0, 25.0, 50.0, 100.0), (500, 1000),
        ("basic", "rtscts"), duration=40.0, seed=1)
    wall = time.perf_counter() - t0
    thr_pass = delay_pass = both = 0
    failures = []
    for r in rows:
        d = dict(zip(cli.VALIDATION_COLUMNS, r))
        thr_ok = ((d["thr_rel_err"] is not None and d["thr_rel_err"] <= 0.20)
                  or (d["thr_ci95"] is not None
                      and abs(d["thr_model"] - d["thr_meas"]) <= d["thr_ci95"]))
        delay_ok = (d["delay_model"] is not None and d["delay_meas"] is not None
                    and ((d["delay_rel_err"] is not None
                          and d["delay_rel_err"] <= 0.20)
                         or (d["delay_ci95"] is not None
                             and abs(d["delay_model"] - d["delay_meas"])
                             <= d["delay_ci95"])))
        thr_pass += thr_ok
        delay_pass += delay_ok
        both += thr_ok and delay_ok
        if not (thr_ok and delay_ok):
            derr = ("sat" if d["delay_model"] is None
                    else f"{d['delay_rel_err']:.0%}")
            failures.append(
                f"  {d['access']:6s} {d['payload_bytes']:4d}B N={d['stations']:2d} "
                f"lam={d['rate']:5.1f}: thr_err="
                f"{d['thr_rel_err']:.1%} delay_err={derr}")
    n = len(rows)
    detail = (f"{both}/{n} points within tolerance "
              f"(throughput {thr_pass}/{n}, delay {delay_pass}/{n}), "
              f"{wall:.0f}s")
    ok = _verdict(1, both == n, detail)
    if failures:
        print("\n".join(failures), flush=True)
    assert wall < 600.0, f"grid took {wall:.0f}s, budget 600s"
    assert ok, (
        f"{detail}. Known limitation, documented in the README: the "
        "per-slot coupling of queue emptiness and medium state misweights "
        "contention, so the model is accurate for unsaturated throughput, "
        "but at light load it over-estimates delay, and at saturation it "
        "under-estimates service time and its delay diverges.")


# criterion 2's computation, with two checks of its own that print no
# verdict line
SINGLE_AC_CHECK_STATIONS = 10
SINGLE_AC_CHECK_MIN_DELIVERED = 200


def single_ac_approximation_check(lambda_per_ac: float, *, seed: int = 1,
                                  measured_duration: float = 30.0) -> float:
    """Relative error of collapsing four ACs into one queue at 4x the rate.

    Runs ten stations with each AC offered lambda_per_ac and ten
    single best-effort queues offered 4*lambda_per_ac, then compares the
    per-AC share of the single-queue throughput against the measured
    best-effort throughput (both network-wide rates).
    """
    n = SINGLE_AC_CHECK_STATIONS
    stats_four = mac_des.simulate(mac_des.DesConfig(
        mac_params=mac_analytic.MacParams(n_stations=n, arrival_rate=lambda_per_ac),
        seed=seed, measured_duration=measured_duration,
        ac_mode=mac_des.AcMode.FOUR_AC, min_delivered=SINGLE_AC_CHECK_MIN_DELIVERED))
    stats_single = mac_des.simulate(mac_des.DesConfig(
        mac_params=mac_analytic.MacParams(n_stations=n, arrival_rate=4.0 * lambda_per_ac),
        seed=seed + 1, measured_duration=measured_duration,
        ac_mode=mac_des.AcMode.SINGLE_AC, min_delivered=SINGLE_AC_CHECK_MIN_DELIVERED))
    thr_be = stats_four.per_ac_delivered["ac_be"]
    if thr_be <= 0:
        raise ConfigurationError(
            "best-effort throughput is zero; cannot form a relative error")
    thr_single_share = stats_single.delivered_per_station * n / 4.0
    return abs(thr_single_share - thr_be) / thr_be


def test_criterion_2_single_ac_check_rejects_zero_rate():
    with pytest.raises(ConfigurationError):
        single_ac_approximation_check(0.0)


def test_criterion_2_single_ac_check_uncontended_limit():
    # light enough that both systems deliver essentially everything
    err = single_ac_approximation_check(5.0, seed=11, measured_duration=120.0)
    assert err < 0.02


def test_criterion_2_priority_collapse_error():
    """Folding the four priority queues into one stays within 15%."""
    t0 = time.perf_counter()
    errs = {lam: single_ac_approximation_check(
        lam, seed=1, measured_duration=60.0)
        for lam in (1.0, 2.0, 5.0, 10.0, 20.0)}
    wall = time.perf_counter() - t0
    worst = max(errs.values())
    detail = ("max rel err "
              + f"{worst:.2%} over per-class rates {sorted(errs)} "
              + f"(errors {', '.join(f'{e:.2%}' for _, e in sorted(errs.items()))}), "
              + f"{wall:.0f}s")
    ok = _verdict(2, worst <= 0.15, detail)
    assert wall < 300.0, f"sweep took {wall:.0f}s, budget 300s"
    assert ok, detail


def test_criterion_3_exact_identities(tmp_path):
    """Structural identities hold exactly (solver, queue, both simulators)."""
    # a lone station never collides, so every loss is a queue rejection
    solo = mac_analytic.solve(mac_analytic.MacParams(
        n_stations=1, arrival_rate=50.0))
    assert solo.p_col == 0.0
    assert solo.p_drop == solo.p_rej

    # converged solves put exactly unit mass on the expanded chain
    worst_mass = 0.0
    for n, lam, payload in itertools.product(
            (1, 5, 20, 40), (10.0, 100.0), (4000, 8000)):
        params = mac_analytic.MacParams(n_stations=n, arrival_rate=lam,
                                        payload_bits=payload)
        sol = mac_analytic.solve(params)
        dist = mac_analytic.state_probabilities(
            sol.p00, sol.p_col, sol.p_idle, sol.q0, params)
        worst_mass = max(worst_mass, abs(dist.total_mass() - 1.0))
    assert worst_mass <= 1e-9

    # critically loaded finite queue: uniform occupancy over K+1 states
    for cap in (1, 8, 64):
        q0, _, _, _ = mac_analytic.mm1k_metrics(1.0, cap, 50.0, 50.0)
        assert q0 == pytest.approx(1.0 / (cap + 1), abs=1e-12)

    # event simulator: every generated packet is accounted for
    stats = mac_des.simulate(mac_des.DesConfig(
        mac_params=mac_analytic.MacParams(n_stations=10, arrival_rate=80.0),
        seed=3, measured_duration=20.0))
    assert (stats.generated
            == stats.delivered + stats.rejected + stats.retry_dropped
            + stats.in_system)

    # traffic: vehicles are conserved across states (also asserted per step)
    sc = _scenario(tmp_path, LOWDEM_INI)
    sim = _run_point(sc, 1.0, "ideal", seed=5)
    c = sim.counts()
    assert (c["generated"]
            == c["waiting"] + c["enroute"] + c["finished"] + c["deferred"])
    _verdict(3, True, "solver, queue, and both simulators hold exact identities")


def test_criterion_4_monotone_channel_trends(tmp_path):
    """Report loss and report delay both rise monotonically with demand."""
    sc = _scenario(tmp_path, TREND_INI)
    seeds = (1, 2, 3, 4, 5)
    odsfs = [round(0.1 * i, 1) for i in range(1, 11)]
    t0 = time.perf_counter()
    # the more demand, the longer the run
    runs = _pool_runs(functools.partial(_trend_point, sc),
                      itertools.product(odsfs, seeds), cost=lambda pt: pt[0])
    drop_curve, delay_curve = [], []
    for odsf in odsfs:
        drops, delays = [], []
        for seed in seeds:
            dr, dl = runs[odsf, seed]
            drops.append(dr)
            delays.append(dl)
        drop_curve.append(sum(drops) / len(drops))
        delay_curve.append(sum(delays) / len(delays))
    wall = time.perf_counter() - t0
    drop_steps = [b - a for a, b in zip(drop_curve, drop_curve[1:])]
    delay_steps = [b - a for a, b in zip(delay_curve, delay_curve[1:])]
    detail = (f"drop {drop_curve[0]:.3f}->{drop_curve[-1]:.3f} "
              f"(min step {min(drop_steps):+.4f}), delay "
              f"{delay_curve[0]:.2f}s->{delay_curve[-1]:.2f}s "
              f"(min step {min(delay_steps):+.3f}s), {len(seeds)} seeds, "
              f"{wall:.0f}s")
    ok = _verdict(4, min(drop_steps) > 0 and min(delay_steps) > 0, detail)
    print("  drop :", " ".join(f"{v:.4f}" for v in drop_curve), flush=True)
    print("  delay:", " ".join(f"{v:.2f}" for v in delay_curve), flush=True)
    assert wall < 1800.0, f"sweep took {wall:.0f}s, budget 1800s"
    assert ok, detail


def test_criterion_5_congestion_onset_ordering(tmp_path):
    """Channel-limited reporting hits the congested regime before ideal."""
    sc = _scenario(tmp_path, IMPACT_INI)
    odsfs = (0.4, 0.6, 0.7, 0.8, 0.9, 1.0)
    seeds = (1, 2, 3)
    modes = ("ideal", "realistic")
    # the more demand, the longer the run; realistic runs gridlock first
    runs = _pool_runs(functools.partial(_impact_point, sc),
                      itertools.product(odsfs, modes, seeds),
                      cost=lambda pt: (pt[0], pt[1] == "realistic"))
    all_ok = True
    lines = []
    for seed in seeds:
        onset = {}
        first_deferred = {}
        top = {}
        for mode in modes:
            onset[mode] = math.inf
            first_deferred[mode] = math.inf
            for odsf in odsfs:
                c, nfd_rows = runs[odsf, mode, seed]
                if _congested(nfd_rows):
                    onset[mode] = min(onset[mode], odsf)
                if c["deferred"] > 0:
                    first_deferred[mode] = min(first_deferred[mode], odsf)
                if odsf == odsfs[-1]:
                    top[mode] = c["finished"] / c["generated"]
        onset_ok = onset["realistic"] < onset["ideal"]
        finished_ok = top["realistic"] < top["ideal"]
        deferred_ok = (first_deferred["realistic"]
                       < math.inf) and (first_deferred["realistic"]
                                        <= first_deferred["ideal"])
        all_ok = all_ok and onset_ok and finished_ok and deferred_ok
        lines.append(
            f"  seed {seed}: onset real={onset['realistic']:g} "
            f"ideal={onset['ideal']:g}, finished@top "
            f"real={top['realistic']:.1%} ideal={top['ideal']:.1%}, "
            f"first deferred real={first_deferred['realistic']:g} "
            f"ideal={first_deferred['ideal']:g}")
    ok = _verdict(5, all_ok,
                  "realistic mode congests first in all 3 seeds" if all_ok
                  else "ordering violated; per-seed lines follow")
    print("\n".join(lines), flush=True)
    assert ok, "\n".join(lines)


def test_criterion_6_routing_insensitive_to_loss_at_low_demand(tmp_path):
    """Light traffic: fuel matches across modes despite >50% report loss."""
    sc = _scenario(tmp_path, LOWDEM_INI)
    lines = []
    all_ok = True
    for seed in (1, 2, 3):
        fuel = {}
        drop = {}
        for mode in ("ideal", "realistic"):
            sim = _run_point(sc, 1.0, mode, seed)
            s = sim.summary()
            assert s["finished"] == s["generated"]
            fuel[mode] = s["mean_fuel_l"]
            drop[mode], _ = _drop_and_delay(sim)
        rel = abs(fuel["realistic"] - fuel["ideal"]) / fuel["ideal"]
        seed_ok = rel <= 0.05 and drop["realistic"] > 0.50
        all_ok = all_ok and seed_ok
        lines.append(f"  seed {seed}: fuel gap {rel:.2%} at "
                     f"{drop['realistic']:.0%} report loss")
    ok = _verdict(6, all_ok, "; ".join(line.strip() for line in lines))
    assert ok, "\n".join(lines)


def test_criterion_7_rsu_cover_matches_exhaustive_minimum():
    """Greedy cover is complete, deterministic, and optimal on 20 instances."""
    t0 = time.perf_counter()
    r_com = 400.0
    worst_gap = 0
    for inst in range(20):
        rng = random.Random(1000 + inst)
        nodes = [roadnet.Node(i + 1, rng.uniform(0, 1500), rng.uniform(0, 1500))
                 for i in range(16)]
        links = [roadnet.Link(i + 1, i + 1, i + 2, 100.0, 1, 50.0, 120.0)
                 for i in range(15)]
        signals = [roadnet.Signal(i + 1, nid)
                   for i, nid in enumerate(rng.sample(range(1, 17), 12))]
        net = roadnet.RoadNetwork(nodes, links, signals)
        greedy = roadnet.place_rsus(net, r_com)
        assert roadnet.signal_coverage_fraction(net, greedy, r_com) == 1.0
        assert roadnet.place_rsus(net, r_com) == greedy
        optimum = None
        for k in range(1, len(net.signals) + 1):
            for combo in itertools.combinations(sorted(net.signals), k):
                if roadnet.signal_coverage_fraction(net, combo, r_com) == 1.0:
                    optimum = k
                    break
            if optimum is not None:
                break
        assert len(greedy) >= optimum
        worst_gap = max(worst_gap, len(greedy) - optimum)
    wall = time.perf_counter() - t0
    ok = _verdict(7, wall < 60.0,
                  f"20 instances covered, deterministic, worst gap to "
                  f"optimum {worst_gap} sites, {wall:.1f}s")
    assert ok


def test_criterion_8_runtime_scales_linearly(tmp_path):
    """Cost per simulated second grows at most linearly with vehicles."""
    def run_timed(rate, mode):
        text = TREND_INI.replace(" 330 0 600", f" {rate} 0 900")
        if mode == "realistic":
            text += "\n[routing]\neta = 0.15\n"
        sc = _scenario(tmp_path, text)
        sim, _, _ = cli.build_run(sc, odsf=1.0, mode=mode, seed=1)
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        return len(sim.vehicles), sim.now, wall

    n_small, sim_small, wall_small = run_timed(167, "ideal")
    n_big, sim_big, wall_big = run_timed(1667, "ideal")
    f_small = wall_small / sim_small
    f_big = wall_big / sim_big
    growth = (f_big / f_small) / (n_big / n_small)
    n_i, sim_i, wall_i = run_timed(667, "ideal")
    n_r, sim_r, wall_r = run_timed(667, "realistic")
    inflation = (wall_r / sim_r) / (wall_i / sim_i)
    detail = (f"{n_small}->{n_big} vehicles: wall/sim-s "
              f"{f_small:.4f}->{f_big:.4f} (per-vehicle growth factor "
              f"{growth:.2f}, linear=1.0); realistic inflation "
              f"{inflation:.2f}x at {n_i} vehicles")
    ok = _verdict(8, growth <= 1.5 and inflation <= 3.0, detail)
    assert ok, detail
