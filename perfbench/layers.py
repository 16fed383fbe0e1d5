"""Per-layer metrics of one traced execution.

Self times of all span names, plus ``trace.unattributed_s``, add up to the
traced wall time: ``traffic.step_self_s + router.self_s + roadnet.sp_s +
comm.self_s + roadnet.recount_s + energy.rate_s + mac_analytic.solve_s +
mac_des.s + records.write_s + roadnet.place_rsus_s``. Every span below
``traffic.step`` and ``comm.step`` is a leaf, so a leaf's inclusive time
is its self time. Layers a workload never calls read zero.
"""

from __future__ import annotations

import math

from vanetsim import traffic

# the per-layer self times that, with trace.unattributed_s, make up trace.wall_s
SELF_TIMES = ("traffic.step_self_s", "router.self_s", "roadnet.sp_s", "comm.self_s",
              "roadnet.recount_s", "energy.rate_s", "mac_analytic.solve_s",
              "mac_des.s", "records.write_s", "roadnet.place_rsus_s")


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; zero when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def compute(tracer, rec, wall: float, check) -> dict[str, tuple[float, str]]:
    agg = tracer.aggregate()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
    step, query, sp, comm_step, recount, rate, solve, des = (
        agg.get(name, empty) for name in (
            "traffic.step", "router.query", "roadnet.shortest_path", "comm.step",
            "roadnet.count_per_rsu", "energy.vt_micro_rate", "mac_analytic.solve",
            "mac_des.simulate"))
    writes = [agg.get(f"records.{w}", empty)
              for w in ("write_record", "write_table", "write_meta")]
    counts = tracer.counts

    vehicle_steps = crossings = finished = unfinished = deferred = 0
    sim_s = 0.0
    fates = dict.fromkeys(("queued", "delivered", "dropped"), 0)
    cell_evals = 0
    for sim, comm in tracer.runs:
        dt = sim.config.dt
        for veh in sim.vehicles:
            if veh.entered_at is not None:
                end = veh.finished_at if veh.finished_at is not None else sim.now
                vehicle_steps += round((end - veh.entered_at) / dt)
        c = sim.counts()
        finished += c[traffic.FINISHED]
        unfinished += c[traffic.EN_ROUTE]
        deferred += c[traffic.DEFERRED]
        crossings += len(sim.updates)
        sim_s += sim.now
        for upd in sim.updates:
            fates[upd.fate] += 1
        cell_evals += recount["calls"] * len(comm.cells)

    solves = len(rec.solutions)
    reps = rec.replications
    attempts = sum(r[5] for r in reps)
    solve_ms = [d * 1e3 for d in solve["durations"]]
    m = {
        "traffic.steps": (step["calls"], "count"),
        "traffic.vehicle_steps": (vehicle_steps, "count"),
        "traffic.crossings": (crossings, "count"),
        "traffic.sim_s": (sim_s, "sim_s"),
        "traffic.step_self_s": (step["self_s"], "s"),
        "traffic.us_per_vehicle_step": (
            step["self_s"] / vehicle_steps * 1e6 if vehicle_steps else 0.0, "us"),
        "traffic.step_us_p50": (_pct(step["durations"], 0.50) * 1e6, "us"),
        "traffic.step_us_p99": (_pct(step["durations"], 0.99) * 1e6, "us"),
        "traffic.finished": (finished, "count"),
        "traffic.unfinished": (unfinished, "count"),
        "traffic.deferred": (deferred, "count"),
        "energy.rate_evals": (rate["calls"], "count"),
        "energy.rate_s": (rate["s"], "s"),
        "router.queries": (query["calls"], "count"),
        "router.s": (query["s"], "s"),
        "router.self_s": (query["self_s"], "s"),
        "router.query_us_p50": (_pct(query["durations"], 0.50) * 1e6, "us"),
        "router.query_us_p99": (_pct(query["durations"], 0.99) * 1e6, "us"),
        "roadnet.sp_relaxations": (counts.get("roadnet.sp_relaxations", 0), "count"),
        "roadnet.sp_s": (sp["s"], "s"),
        "roadnet.recounts": (recount["calls"], "count"),
        "roadnet.recount_s": (recount["s"], "s"),
        "roadnet.connected_rsu_calls": (counts.get("roadnet.connected_rsu_calls", 0),
                                        "count"),
        "roadnet.place_rsus_s": (agg.get("roadnet.place_rsus", empty)["s"], "s"),
        "comm.steps": (comm_step["calls"], "count"),
        "comm.s": (comm_step["s"], "s"),
        "comm.self_s": (comm_step["self_s"], "s"),
        "comm.reports": (crossings, "count"),
        "comm.delivered": (fates["delivered"], "count"),
        "comm.dropped": (fates["dropped"], "count"),
        "comm.undelivered_end": (fates["queued"], "count"),
        "comm.cell_evals": (cell_evals, "count"),
        "comm.memo_hit_ratio": (1.0 - solves / cell_evals if cell_evals else 0.0,
                                "ratio"),
        "mac_analytic.solves": (solves, "count"),
        "mac_analytic.solve_s": (solve["s"], "s"),
        "mac_analytic.solve_ms_p50": (_pct(solve_ms, 0.50), "ms"),
        "mac_analytic.solve_ms_p99": (_pct(solve_ms, 0.99), "ms"),
        "mac_analytic.iterations_mean": (
            sum(s[0] for s in rec.solutions) / solves if solves else 0.0, "count"),
        "mac_analytic.saturated": (sum(s[2] for s in rec.solutions), "count"),
        "mac_des.replications": (len(reps), "count"),
        "mac_des.s": (des["s"], "s"),
        "mac_des.attempts": (attempts, "count"),
        "mac_des.packets": (sum(r[0] for r in reps), "count"),
        "mac_des.attempts_per_s": (attempts / des["s"] if des["s"] else 0.0, "1/s"),
        "mac_agree_points": (check.agree_points, "count"),
        "records.write_s": (sum(w["s"] for w in writes), "s"),
        "records.bytes": (counts.get("records.bytes", 0), "B"),
        "ops_failed_frac": (check.failed / check.attempted, "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (wall - tracer.top_level_s(), "s"),
    }
    return m
