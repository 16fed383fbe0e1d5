"""Scenario-driven batch front end.

Every command is re-runnable: given the same inputs and seed the output
files are byte-identical, because anything time-of-day shaped goes to a
separate metadata sidecar, never into result files. Exit codes separate
the failure families so shell scripts can branch on them:

    0  success
    2  configuration (bad flags, missing files, malformed scenario)
    3  input validation (rejected values, unparseable data files, no path)
    4  solver (fixed point did not converge)
    5  simulation invariant violation

Scenario files are INI. Single-value keys have defaults, printed by the
``defaults`` subcommand; the only block that has no default is the
demand table itself. A scenario holds only the settings that its users
vary; every other value is its owner's default, link attributes come
from ``gen-grid``'s defaults or a network file, and the uplink mode is
the ``--mode`` flag of ``run`` and ``sweep``.
"""

from __future__ import annotations

import argparse
import bisect
import configparser
import dataclasses
import logging
import math
import sys
import time
from concurrent import futures
from pathlib import Path

from . import ecorouting, energy, mac_analytic, mac_des, records, roadnet, traffic
from .errors import (ConfigurationError, ConvergenceError, DegenerateInputError,
                     NoPathError, ParseError, SimulationError, ValidationError)

log = logging.getLogger("vanetsim")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_SIMULATION = 5

DELAY_BIN_EDGES = (0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
                   1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
                   1200.0, math.inf)


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, (ConfigurationError, OSError)):    # OSError: missing file
        return EXIT_CONFIG
    if isinstance(exc, (ParseError, ValidationError, NoPathError)):
        return EXIT_VALIDATION
    if isinstance(exc, (ConvergenceError, DegenerateInputError)):
        return EXIT_SOLVER
    if isinstance(exc, SimulationError):
        return EXIT_SIMULATION
    raise exc


# --- scenario files ----------------------------------------------------------

def parse_scenario(path) -> dict:
    """INI file -> plain typed dict (picklable, so sweep workers can take it)."""
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"scenario file not found: {p}")
    ini = configparser.ConfigParser()
    try:
        ini.read_string(p.read_text())
    except configparser.Error as exc:
        raise ConfigurationError(f"bad scenario syntax: {exc}") from exc

    known = {(sec, key) for sec, key, *_ in SCENARIO_KEYS}
    for sec in ini.sections():
        if sec not in {known_sec for known_sec, _ in known}:
            raise ConfigurationError(f"unknown scenario section [{sec}]")
        for key in ini[sec]:
            if (sec, key) not in known:
                raise ConfigurationError(f"unknown key {key!r} in [{sec}]")

    sc = {}
    for sec, key, name, convert, default in SCENARIO_KEYS:
        try:
            sc[name] = convert(ini[sec][key]) if ini.has_option(sec, key) else default
        except ValueError as exc:
            raise ConfigurationError(
                f"bad scenario value for [{sec}] {key}: {exc}") from exc
    if sc["net_path"]:
        # the file holds the whole network: a grid key beside it would be ignored
        grid = [key for key in ("rows", "cols", "spacing_m")
                if ini.has_option("network", key)]
        if grid:
            raise ConfigurationError(
                f"[network] path excludes {', '.join(grid)}: the network file "
                f"sets the grid")
        net_file = (p.parent / sc["net_path"]).resolve()
        if not net_file.is_file():
            raise ConfigurationError(f"network file not found: {net_file}")
        sc["net_path"] = str(net_file)
    if not sc["entries"]:
        raise ConfigurationError("scenario demand table is empty")
    if not sc["odsf"]:
        raise ConfigurationError("odsf list is empty")
    dirs = {}
    for factor in sc["odsf"]:
        _check_odsf(factor)
        name = _point_dir(factor)
        if name in dirs:
            raise ConfigurationError(
                f"odsf {dirs[name]!r} and {factor!r} share the sweep output "
                f"directory {name}")
        dirs[name] = factor
    return sc


def _point_dir(odsf: float) -> str:
    """The directory, under a sweep's --out, of one demand factor's point."""
    return f"odsf_{odsf:g}"


def _check_odsf(factor: float) -> None:
    if not 0.0 < factor <= 1.0:
        raise ConfigurationError(f"odsf {factor:g} outside (0, 1]")


def _parse_od(text: str) -> list[tuple]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 5:
            raise ConfigurationError(
                f"od line needs 'origin dest rate start end': {line!r}")
        try:
            row = (int(toks[0]), int(toks[1]), float(toks[2]),
                   float(toks[3]), float(toks[4]))
        except ValueError as exc:
            raise ConfigurationError(f"bad od line {line!r}: {exc}") from exc
        out.append(row)
    return out


# One row per scenario key: section, key, name in the parsed dict, converter
# of the INI text, and the default, read from the module that owns the value
# (None: the key has no default). A value whose range its owner checks is
# parsed under the owner's argument name, which a refusal gives as
# ValidationError.field, so build_run finds the key by that name.
SCENARIO_KEYS = (
    ("network", "path", "net_path", str, None),
    ("network", "rows", "rows", int, roadnet.GRID_ROWS),
    ("network", "cols", "cols", int, roadnet.GRID_COLS),
    ("network", "spacing_m", "spacing", float, roadnet.GRID_SPACING_M),
    ("rsu", "range_m", "r_com", float, roadnet.RSU_RANGE_M),
    ("demand", "od", "entries", _parse_od, None),
    ("demand", "odsf", "odsf", lambda text: tuple(map(float, text.split())),
     (traffic.OdDemand.odsf,)),
    ("comm", "background_rate", "background_rate", float,
     ecorouting.BACKGROUND_RATE),
    ("comm", "payload_bytes", "payload_bytes", int,
     mac_analytic.MacParams.payload_bits // 8),
    ("comm", "queue_capacity", "queue_capacity", int,
     mac_analytic.MacParams.queue_capacity),
    ("routing", "eta", "eta", float, ecorouting.ETA),
    ("sim", "seed", "seed", int, 1),
    ("sim", "drain_s", "drain", float, traffic.TrafficConfig.drain),
)


def _access_mode(name: str) -> mac_analytic.AccessMode:
    try:
        return mac_analytic.AccessMode(name)
    except ValueError:
        raise ConfigurationError(
            f"access must be basic or rtscts, got {name!r}") from None


# --- run construction -----------------------------------------------------------

def build_run(sc: dict, *, odsf: float, mode: str, seed: int):
    """Network, table, comm, and simulation for one scenario point.

    An owner that refuses a scenario value raises ValidationError; it is
    re-raised naming the value's [section] key. MacParams refuses the
    [comm] MAC values with ConfigurationError; it is re-raised as a
    ValidationError naming each key and its value as written. Either way
    nothing has been written yet.
    """
    coeffs = energy.load_coefficients()
    try:
        if sc["net_path"]:
            net = roadnet.load_network(sc["net_path"])
        else:
            net = roadnet.gen_grid(sc["rows"], sc["cols"], spacing=sc["spacing"])
        chosen = roadnet.place_rsus(net, sc["r_com"])
        index = roadnet.CoverageIndex(net, chosen, sc["r_com"])
        table = ecorouting.TmcCostTable(net, coeffs)
        router = ecorouting.EcoRouter(net, table, eta=sc["eta"], seed=seed + 1)
        params = mac_analytic.MacParams(
            n_stations=1, arrival_rate=1.0,
            payload_bits=sc["payload_bytes"] * 8,
            queue_capacity=sc["queue_capacity"])
        comm = ecorouting.CommModule(index, table, params, mode=mode,
                                     background_rate=sc["background_rate"],
                                     seed=seed + 2)
        demand = traffic.OdDemand(
            tuple(traffic.OdEntry(*row) for row in sc["entries"]), odsf=odsf)
        config = traffic.TrafficConfig(drain=sc["drain"])
        sim = traffic.Simulation(net, demand=demand, config=config, router=router,
                                 coeffs=coeffs, comm=comm, seed=seed)
    except ValidationError as exc:
        for sec, key, name, *_ in SCENARIO_KEYS:
            if name == exc.field:
                raise ValidationError(f"bad scenario value for [{sec}] {key}: {exc}",
                                      field=exc.field) from exc
        raise
    except ConfigurationError as exc:    # from MacParams: payload_bits is 8 bytes each
        fed = {"queue_capacity": "queue_capacity", "payload_bits": "payload_bytes"}
        keys = [f"[comm] {k} = {sc[k]}" for f, k in fed.items() if f in exc.fields]
        if not keys:
            raise
        raise ValidationError(
            f"bad scenario value for {' and '.join(keys)}: {exc}") from exc
    return sim, table, comm


def execute_run(sc: dict, *, odsf: float, mode: str, seed: int, out_dir) -> dict:
    """Run one scenario point and write its artifact files."""
    sim, table, comm = build_run(sc, odsf=odsf, mode=mode, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    sim_s = sim.now

    summary = {"odsf": odsf, "mode": mode, "seed": seed}
    summary.update(sim.summary())
    # end-to-end report fates; comm_* below is the uplink's own view, whose
    # dropped counts the channel's drops, not the reports lost with a carrier
    # that finished its trip
    fates = {"queued": 0, "delivered": 0, "dropped": 0}
    for upd in sim.updates:
        fates[upd.fate] += 1
    summary["packet_created"] = len(sim.updates)
    summary["packet_delivered"] = fates["delivered"]
    summary["packet_dropped"] = fates["dropped"]
    summary["packet_drop_fraction"] = (fates["dropped"] / len(sim.updates)
                                       if sim.updates else None)
    for key, val in comm.as_record().items():
        summary[f"comm_{key}"] = val

    records.write_record(out / "summary.txt", "run_summary", summary)
    records.write_table(out / "nfd.tsv", "nfd", sim.NFD_COLUMNS, sim.nfd_rows())
    records.write_table(out / "vehicles.tsv", "vehicles",
                        sim.VEHICLE_COLUMNS, sim.vehicle_rows())
    records.write_table(out / "packets.tsv", "packets",
                        sim.UPDATE_COLUMNS, sim.update_rows())
    records.write_meta(out / "meta.txt", wall_s=wall, simulated_s=sim_s,
                       wall_per_simulated_s=(wall / sim_s if sim_s else None),
                       vehicles=len(sim.vehicles), vehicle_steps=sim.vehicle_steps,
                       parked_red_steps=sim.parked_red_steps,
                       parked_full_steps=sim.parked_full_steps,
                       cruise_steps=sim.cruise_steps,
                       ramp_steps=sim.ramp_steps,
                       visited_steps=sim.visited_steps)
    log.info("run odsf=%s mode=%s: %.1f sim-s in %.2f wall-s (%.4f wall-s per sim-s)",
             odsf, mode, sim_s, wall, wall / sim_s if sim_s else float("nan"))

    delays = sorted(u.delivered_at - u.created_at
                    for u in sim.updates if u.fate == "delivered")
    summary["_delay_hist"] = _histogram(delays)
    summary["_nfd_rows"] = sim.nfd_rows()
    return summary


def _histogram(values) -> list[tuple]:
    edges = DELAY_BIN_EDGES
    counts = [0] * (len(edges) - 1)
    for v in values:
        # delays are finite and >= 0 (mark_delivered), so the bin exists
        counts[bisect.bisect_right(edges, v) - 1] += 1
    return [(edges[i], edges[i + 1], counts[i]) for i in range(len(edges) - 1)]


def _sweep_point(args: tuple) -> dict:
    sc, odsf, mode, seed, out_dir = args
    return execute_run(sc, odsf=odsf, mode=mode, seed=seed, out_dir=out_dir)


# --- model-vs-measurement grid ------------------------------------------------------

def validation_rows(stations, rates, payload_bytes, accesses, *,
                    duration: float, seed: int,
                    queue_capacity: int = mac_analytic.MacParams.queue_capacity,
                    ) -> list[tuple]:
    """Fixed-point model against the event simulator, one row per grid point.

    Throughput errors are relative to the measured per-station delivery
    rate; delay errors to the measured mean total delay. The event side
    is the reference, so its duration bounds the confidence, not the
    model's.

    The last six columns split the delay into service (head of line to
    departure) and queue wait (arrival to head of line). The service
    error is signed and relative, (model - measured) / measured; the
    wait error is signed and in seconds, model - measured. The model's
    wait diverges as its queue saturates (inf at q0 = 0); the measured
    wait is the mean sojourn less the mean service time.
    """
    rows = []
    for access in accesses:
        acc = _access_mode(access)
        for bytes_ in payload_bytes:
            for n in stations:
                for rate in rates:
                    params = mac_analytic.MacParams(
                        n_stations=n, arrival_rate=rate,
                        payload_bits=bytes_ * 8,
                        queue_capacity=queue_capacity, access_mode=acc)
                    sol = mac_analytic.solve(params)
                    stats = mac_des.simulate(mac_des.DesConfig(
                        mac_params=params, seed=seed,
                        measured_duration=duration, min_delivered=0))
                    thr_model = sol.throughput / n
                    thr_meas = stats.delivered_per_station
                    err_thr = (abs(thr_model - thr_meas) / thr_meas
                               if thr_meas else None)
                    delay_meas = stats.mean_total_delay
                    err_delay = (abs(sol.t_delay - delay_meas) / delay_meas
                                 if delay_meas else None)
                    serv_meas = stats.mean_service_time
                    err_serv = ((sol.t_serv - serv_meas) / serv_meas
                                if serv_meas else None)
                    wait_meas = (stats.mean_sojourn - serv_meas
                                 if serv_meas is not None else None)
                    err_wait = sol.t_q - wait_meas if wait_meas is not None else None
                    hw = stats.confidence_halfwidth
                    rows.append((access, bytes_, n, rate,
                                 thr_model, thr_meas, err_thr,
                                 hw.get("delivered_per_station"),
                                 sol.t_delay, delay_meas, err_delay,
                                 hw.get("mean_total_delay"),
                                 sol.p_drop, stats.drop_rate,
                                 sol.t_serv, serv_meas, err_serv,
                                 sol.t_q, wait_meas, err_wait))
    return rows


VALIDATION_COLUMNS = ("access", "payload_bytes", "stations", "rate",
                      "thr_model", "thr_meas", "thr_rel_err", "thr_ci95",
                      "delay_model", "delay_meas", "delay_rel_err",
                      "delay_ci95", "p_drop_model", "p_drop_meas",
                      "serv_model", "serv_meas", "serv_err",
                      "wait_model", "wait_meas", "wait_err_s")


# --- commands ------------------------------------------------------------------------

def _print_or_write(args, name: str, mapping: dict) -> None:
    if args.out:
        records.write_record(args.out, name, mapping)
        print(args.out)
    else:
        for key, val in mapping.items():
            print(f"{key} {records.fmt(val)}")


def _print_or_write_table(args, name: str, cols, rows) -> None:
    if args.out:
        records.write_table(args.out, name, cols, rows)
        print(args.out)
    else:
        print("\t".join(cols))
        for row in rows:
            print("\t".join(records.fmt(v) for v in row))


def _params_from_record(path) -> mac_analytic.MacParams:
    _, mapping = records.read_record(path)
    kwargs = {}
    fields = {f.name: f for f in dataclasses.fields(mac_analytic.MacParams)}
    for key, val in mapping.items():
        if key not in fields:
            raise ParseError(f"unknown parameter field {key!r}", path=str(path))
        if key == "access_mode":
            try:
                kwargs[key] = mac_analytic.AccessMode(val)
            except ValueError:
                raise ParseError(f"{key} must be basic or rtscts, got {val!r}",
                                 path=str(path)) from None
        elif fields[key].type == "int":
            if type(val) is not int:
                raise ParseError(f"{key} must be an integer, got {val!r}",
                                 path=str(path))
            kwargs[key] = val
        else:
            if type(val) not in (int, float):
                raise ParseError(f"{key} must be a number, got {val!r}", path=str(path))
            kwargs[key] = float(val)
    if "n_stations" not in kwargs or "arrival_rate" not in kwargs:
        raise ParseError("parameter file needs n_stations and arrival_rate",
                         path=str(path))
    return mac_analytic.MacParams(**kwargs)


def cmd_solve_mac(args) -> int:
    if args.params:
        base = _params_from_record(args.params)
    else:
        base = mac_analytic.MacParams(
            n_stations=args.stations, arrival_rate=args.rate,
            payload_bits=args.bytes * 8, queue_capacity=args.queue,
            access_mode=_access_mode(args.access))
    if args.grid:
        rows = []
        _, cols, table_rows = records.read_table(args.grid)
        if "stations" not in cols or "rate" not in cols:
            raise ParseError("grid table needs 'stations' and 'rate' columns",
                             path=args.grid)
        i_n, i_rate = cols.index("stations"), cols.index("rate")
        for row in table_rows:
            n, rate = row[i_n], row[i_rate]
            if type(n) is not int:
                raise ParseError(f"station count {n!r} is not an integer",
                                 path=args.grid)
            if type(rate) not in (int, float):
                raise ParseError(f"rate {rate!r} is not a number", path=args.grid)
            try:
                params = dataclasses.replace(base, n_stations=n,
                                             arrival_rate=float(rate))
            except ConfigurationError as exc:    # base is valid: the row is at fault
                raise ParseError(f"row stations {n} rate {rate!r}: {exc}",
                                 path=args.grid) from exc
            sol = mac_analytic.solve(params)
            rows.append((params.n_stations, params.arrival_rate,
                         sol.throughput / params.n_stations, sol.t_serv,
                         sol.t_delay, sol.p_col, sol.p_drop))
        cols = ("stations", "rate", "throughput_per_station", "t_serv",
                "t_delay", "p_col", "p_drop")
        _print_or_write_table(args, "mac_grid", cols, rows)
        return EXIT_OK
    sol = mac_analytic.solve(base)
    _print_or_write(args, "mac_solution", sol.as_record())
    return EXIT_OK


def cmd_validate_mac(args) -> int:
    rows = validation_rows(
        [int(t) for t in args.stations.split(",")],
        [float(t) for t in args.rates.split(",")],
        [int(t) for t in args.bytes.split(",")],
        args.access.split(","),
        duration=args.duration, seed=args.seed, queue_capacity=args.queue)
    _print_or_write_table(args, "mac_validation", VALIDATION_COLUMNS, rows)
    return EXIT_OK


def cmd_gen_grid(args) -> int:
    net = roadnet.gen_grid(args.rows, args.cols, spacing=args.spacing)
    roadnet.write_network(args.out, net)
    print(args.out)
    return EXIT_OK


def cmd_place_rsus(args) -> int:
    net = roadnet.load_network(args.network)
    chosen = roadnet.place_rsus(net, args.range)
    covered = roadnet.signal_coverage_fraction(net, chosen, args.range)
    idx = roadnet.CoverageIndex(net, chosen, args.range)
    mapping = {
        "range_m": args.range,
        "rsu_count": len(chosen),
        "signal_ids": " ".join(str(s) for s in chosen),
        "signal_coverage": covered,
        "link_length_coverage": roadnet.link_length_coverage(net, idx),
    }
    _print_or_write(args, "rsu_plan", mapping)
    return EXIT_OK


def cmd_run(args) -> int:
    sc = parse_scenario(args.scenario)
    seed = sc["seed"] if args.seed is None else args.seed
    odsf = sc["odsf"][0] if args.odsf is None else args.odsf
    _check_odsf(odsf)
    execute_run(sc, odsf=odsf, mode=args.mode, seed=seed, out_dir=args.out)
    print(str(Path(args.out) / "summary.txt"))
    return EXIT_OK


def cmd_sweep(args) -> int:
    sc = parse_scenario(args.scenario)
    seed = sc["seed"] if args.seed is None else args.seed
    out = Path(args.out)    # made by the first point's execute_run
    points = [(sc, odsf, args.mode, seed, str(out / _point_dir(odsf)))
              for odsf in sc["odsf"]]
    if args.jobs <= 1:
        results = [_sweep_point(pt) for pt in points]
    else:
        # the pool starts all its workers at once, so start no idle ones
        with futures.ProcessPoolExecutor(
                max_workers=min(args.jobs, len(points))) as pool:
            results = list(pool.map(_sweep_point, points))

    results.sort(key=lambda r: r["odsf"])
    sum_cols = [k for k in results[0] if not k.startswith("_")]
    records.write_table(out / "sweep_summary.tsv", "sweep_summary", sum_cols,
                        [tuple(r[c] for c in sum_cols) for r in results])
    records.write_table(
        out / "sweep_nfd.tsv", "sweep_nfd",
        ("odsf",) + traffic.Simulation.NFD_COLUMNS,
        [(r["odsf"], *row) for r in results for row in r["_nfd_rows"]])
    records.write_table(
        out / "drop_vs_odsf.tsv", "drop_vs_odsf",
        ("odsf", "drop_fraction", "created", "delivered", "dropped"),
        [(r["odsf"], r["packet_drop_fraction"], r["packet_created"],
          r["packet_delivered"], r["packet_dropped"]) for r in results])
    records.write_table(
        out / "delay_pdf.tsv", "delay_pdf",
        ("odsf", "bin_lo_s", "bin_hi_s", "count"),
        [(r["odsf"], lo, hi, c) for r in results
         for lo, hi, c in r["_delay_hist"]])
    print(str(out / "sweep_summary.tsv"))
    return EXIT_OK


def cmd_defaults(args) -> int:
    print("# mac parameters")
    for f in dataclasses.fields(mac_analytic.MacParams):
        if f.default is not dataclasses.MISSING:    # required fields have none
            val = f.default.value if f.name == "access_mode" else f.default
            print(f"{f.name} {records.fmt(val)}")
    print("# scenario file")
    for sec, key, _, _, default in SCENARIO_KEYS:
        text = (" ".join(map(records.fmt, default)) if isinstance(default, tuple)
                else records.fmt(default))
        print(f"{sec}.{key} {text}")
    return EXIT_OK


# --- entry point ------------------------------------------------------------------------

def _comma_list(conv):
    """argparse type: comma-separated values that `conv` accepts.

    Checking each item here makes a bad one a usage error (exit 2). The
    text itself is kept; the command splits it.
    """
    def check(text: str) -> str:
        for item in text.split(","):
            conv(item)
        return text
    check.__name__ = f"{conv.__name__} list"    # argparse names it in its error
    return check


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="vanetsim",
        description="Road traffic and roadside-uplink co-simulation toolkit.")
    top.add_argument("--quiet", action="store_true", help="suppress progress logs")
    mac = mac_analytic.MacParams
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-mac", help="solve one cell operating point")
    p.add_argument("--stations", type=int, default=10)
    p.add_argument("--rate", type=float, default=50.0)
    p.add_argument("--bytes", type=int, default=mac.payload_bits // 8)
    p.add_argument("--queue", type=int, default=mac.queue_capacity)
    p.add_argument("--access", default=mac.access_mode.value)
    p.add_argument("--params", help="record file with parameter fields")
    p.add_argument("--grid", help="table file with 'stations' and 'rate' columns")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve_mac)

    p = sub.add_parser("validate-mac", help="model vs event simulator grid")
    p.add_argument("--stations", type=_comma_list(int), default="5,10,20,40")
    p.add_argument("--rates", type=_comma_list(float), default="10,25,50,100")
    p.add_argument("--bytes", type=_comma_list(int), default="500,1000")
    p.add_argument("--access", default=mac.access_mode.value)
    p.add_argument("--queue", type=int, default=mac.queue_capacity)
    p.add_argument("--duration", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate_mac)

    p = sub.add_parser("gen-grid", help="write a signalized grid network file")
    p.add_argument("--rows", type=int, default=roadnet.GRID_ROWS)
    p.add_argument("--cols", type=int, default=roadnet.GRID_COLS)
    p.add_argument("--spacing", type=float, default=roadnet.GRID_SPACING_M)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_grid)

    p = sub.add_parser("place-rsus", help="greedy roadside coverage plan")
    p.add_argument("--network", required=True)
    p.add_argument("--range", type=float, default=roadnet.RSU_RANGE_M)
    p.add_argument("--out")
    p.set_defaults(func=cmd_place_rsus)

    p = sub.add_parser("run", help="one scenario point, full artifacts")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("ideal", "realistic"), default="realistic")
    p.add_argument("--seed", type=int)
    p.add_argument("--odsf", type=float)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="scenario over its demand-factor list")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("ideal", "realistic"), default="realistic")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("defaults", help="print every tunable and its default")
    p.set_defaults(func=cmd_defaults)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        stream=sys.stderr, format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except Exception as exc:                    # noqa: BLE001 - mapped to exit codes
        code = exit_code_for(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
