"""Command-line front end: exit codes, reproducibility, artifact shapes."""

import hashlib
import math

import pytest

from vanetsim import (cli, constants, ecorouting, mac_analytic, mac_des, records,
                      traffic)
from vanetsim.errors import (ConfigurationError, ConvergenceError,
                             DegenerateInputError, NoPathError, ParseError,
                             SimulationError, ValidationError)

# the data files of a run; meta.txt, with its wall times, is not one
RUN_FILES = ("summary.txt", "nfd.tsv", "vehicles.tsv", "packets.tsv")

TINY_SCENARIO = """\
[network]
rows = 4
cols = 4
spacing_m = 150

[demand]
od =
    1 16 300 0 120
    4 13 300 0 120
odsf = 0.5 1.0

[sim]
seed = 7
drain_s = 900
"""


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SCENARIO)
    return str(path)


def test_exit_code_mapping():
    cases = [
        (ConfigurationError("x"), cli.EXIT_CONFIG),
        (FileNotFoundError("x"), cli.EXIT_CONFIG),
        (ParseError("x"), cli.EXIT_VALIDATION),
        (ValidationError("x"), cli.EXIT_VALIDATION),
        (NoPathError("x"), cli.EXIT_VALIDATION),
        (ConvergenceError("x", 1, 1.0, {}), cli.EXIT_SOLVER),
        (DegenerateInputError("x"), cli.EXIT_SOLVER),
        (SimulationError("x"), cli.EXIT_SIMULATION),
    ]
    for exc, want in cases:
        assert cli.exit_code_for(exc) == want
    with pytest.raises(KeyError):
        cli.exit_code_for(KeyError("unmapped errors propagate"))


def test_scenario_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(TINY_SCENARIO + "\n[comm]\nbandwidth = 11\n")
    with pytest.raises(ConfigurationError, match="bandwidth"):
        cli.parse_scenario(path)
    assert cli.main(["run", "--scenario", str(path), "--out",
                     str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_scenario_bad_value_names_its_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(TINY_SCENARIO.replace("rows = 4", "rows = ten"))
    with pytest.raises(ConfigurationError, match=r"\[network\] rows"):
        cli.parse_scenario(path)
    assert cli.main(["run", "--scenario", str(path), "--out",
                     str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert "[network] rows" in capsys.readouterr().err


def test_build_run_carries_owner_defaults(tmp_path):
    path = tmp_path / "minimal.ini"
    path.write_text("[demand]\nod = 1 4 300 0 60\n")
    sim, table, comm = cli.build_run(cli.parse_scenario(path), odsf=1.0,
                                     mode="realistic", seed=1)
    assert comm.background_rate == ecorouting.BACKGROUND_RATE
    assert comm.refresh == ecorouting.CELL_REFRESH
    assert sim.router.eta == ecorouting.ETA
    assert table.beta == ecorouting.BETA
    assert comm.params.queue_capacity == constants.QUEUE_CAPACITY
    assert comm.params.payload_bits == constants.PAYLOAD_BITS
    assert sim.config.a_max == traffic.A_MAX
    assert sim.config.drain == traffic.TrafficConfig().drain


@pytest.mark.parametrize("section,key,value", [
    ("comm", "refresh_s", "0"),
    ("comm", "background_rate", "0"),
    ("sim", "drain_s", "-200"),
    ("sim", "horizon_s", "-1"),
    ("sim", "a_max", "0"),
    ("routing", "eta", "-0.1"),
    ("routing", "beta", "0"),
    ("network", "rows", "1"),
    ("network", "spacing_m", "0"),
    ("network", "spacing_m", "inf"),
    ("network", "spacing_m", "1e308"),
    ("network", "free_speed_kmh", "-5"),
    ("network", "jam_density", "0"),
    ("network", "lanes", "0"),
    ("rsu", "range_m", "0"),
    ("comm", "background_rate", "inf"),
    ("comm", "refresh_s", "inf"),
    ("routing", "eta", "inf"),
    ("sim", "a_max", "inf"),
    ("sim", "horizon_s", "inf"),
    ("sim", "drain_s", "inf"),
])
def test_refused_value_names_its_key_and_writes_nothing(tmp_path, capsys,
                                                        section, key, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[demand]\nod = 1 4 300 0 60\n\n[{section}]\n{key} = {value}\n")
    out = tmp_path / "o"
    for cmd in ("run", "sweep"):
        assert cli.main([cmd, "--scenario", str(path), "--out",
                         str(out)]) == cli.EXIT_VALIDATION
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert not out.exists()


# A demand row naming a missing node is refused whether or not the draw
# gives it a vehicle: rate 0, and a one-second window at 1 veh/h, give none.
@pytest.mark.parametrize("row", ["1 999 0 0 60", "999 1 1 0 1", "1 999 300 0 60"])
@pytest.mark.parametrize("mode", ["ideal", "realistic"])
def test_demand_row_with_unknown_node_names_its_key_and_writes_nothing(
        tmp_path, capsys, row, mode):
    path = tmp_path / "bad.ini"
    path.write_text(f"[network]\nrows = 4\ncols = 4\n\n[demand]\nod = {row}\n")
    out = tmp_path / "o"
    for cmd in ("run", "sweep"):
        assert cli.main(["--quiet", cmd, "--scenario", str(path), "--out", str(out),
                         "--mode", mode]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "[demand] od" in err and "unknown node 999" in err
        assert "Traceback" not in err
        assert not out.exists()


# MacParams checks the [comm] MAC values when build_run constructs it, so
# both uplink modes stop before any output, the ideal one included; the
# refusal names the scenario key and the value as written.
@pytest.mark.parametrize("key,value,refused", [
    ("queue_capacity", "0", "queue_capacity must be in [1, 1.8e+308], got 0"),
    ("payload_bytes", "-5", "payload_bits must be in [0, 1.8e+308], got -40"),
])
@pytest.mark.parametrize("mode", ["ideal", "realistic"])
def test_refused_mac_value_stops_before_any_output(tmp_path, capsys, key, value,
                                                   refused, mode):
    path = tmp_path / "bad.ini"
    path.write_text(f"[demand]\nod = 1 4 300 0 60\n\n[comm]\n{key} = {value}\n")
    out = tmp_path / "o"
    for cmd in ("run", "sweep"):
        assert cli.main(["--quiet", cmd, "--scenario", str(path), "--out", str(out),
                         "--mode", mode]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"[comm] {key} = {value}:" in err
        assert refused in err and "Traceback" not in err
        assert not out.exists()


# EcoRouter refuses a route-noise width above 1, which could weigh a link
# below zero mid-run; build_run names the key before any output, in both
# uplink modes.
@pytest.mark.parametrize("value", ["1.5", "3"])
@pytest.mark.parametrize("mode", ["ideal", "realistic"])
def test_refused_noise_width_stops_before_any_output(tmp_path, capsys, value, mode):
    path = tmp_path / "bad.ini"
    path.write_text(f"[demand]\nod = 1 4 300 0 60\n\n[routing]\neta = {value}\n")
    out = tmp_path / "o"
    for cmd in ("run", "sweep"):
        assert cli.main(["--quiet", cmd, "--scenario", str(path), "--out", str(out),
                         "--mode", mode]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "[routing] eta" in err and "outside [0, 1]" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_scenario_rejects_out_of_range_odsf(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(TINY_SCENARIO.replace("odsf = 0.5 1.0", "odsf = 0.0 1.0"))
    with pytest.raises(ConfigurationError, match=r"outside \(0, 1\]"):
        cli.parse_scenario(path)


def test_run_rejects_out_of_range_odsf_flag(tiny_scenario, tmp_path, capsys):
    code = cli.main(["run", "--scenario", tiny_scenario,
                     "--out", str(tmp_path / "o"), "--odsf", "1.5"])
    assert code == cli.EXIT_CONFIG
    assert "odsf" in capsys.readouterr().err


def test_solve_mac_single_station_identity(capsys):
    assert cli.main(["solve-mac", "--stations", "1", "--rate", "50"]) == 0
    out = dict(line.split(" ", 1) for line in
               capsys.readouterr().out.strip().splitlines())
    # alone in the cell: no contention, every attempt succeeds
    assert float(out["p_col"]) == 0.0
    assert float(out["p_drop"]) == pytest.approx(0.0, abs=1e-12)


def test_solve_mac_params_file_rejects_unknown_field(tmp_path, capsys):
    # the channel profile (slot, rate, frame sizes, window doubling) is fixed:
    # a record cannot set it
    path = tmp_path / "params.txt"
    for key, val in (("contention_window", 32), ("slot_time", 13e-6),
                     ("alpha", 2), ("data_rate", 6e6)):
        records.write_record(path, "mac_params",
                             {"n_stations": 5, "arrival_rate": 20.0, key: val})
        assert cli.main(["solve-mac", "--params", str(path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"unknown parameter field {key!r}" in err and "params.txt" in err


def test_solve_mac_params_past_the_retry_limit_is_refused(tmp_path, capsys):
    # a million retry stages would solve over lists of a million windows
    path = tmp_path / "params.txt"
    records.write_record(path, "mac_params",
                         {"n_stations": 5, "arrival_rate": 20.0, "f_extra": 1000000})
    assert cli.main(["solve-mac", "--params", str(path)]) == cli.EXIT_CONFIG == 2
    err = capsys.readouterr().err
    assert "m_stages + f_extra must be in [1, 255]" in err
    assert "got 6 + 1000000" in err and "Traceback" not in err


def test_solve_mac_grid_one_record_per_point(tmp_path):
    grid = tmp_path / "grid.tsv"
    records.write_table(grid, "points", ("stations", "rate"),
                        [(5, 10.0), (5, 50.0), (20, 10.0)])
    out = tmp_path / "res.tsv"
    assert cli.main(["solve-mac", "--grid", str(grid), "--out", str(out)]) == 0
    _, cols, rows = records.read_table(out)
    assert len(rows) == 3
    assert rows[0][cols.index("stations")] == 5
    assert all(row[cols.index("p_col")] >= 0 for row in rows)


GRID_COLUMNS = ("stations", "rate")


@pytest.mark.parametrize("argv, table, code", [
    pytest.param(["validate-mac", "--stations", "5,x"], None, cli.EXIT_CONFIG,
                 id="validate-station-x"),
    pytest.param(["solve-mac", "--grid", "{tmp}/grid.tsv"],
                 (("stations",), [(5,)]), cli.EXIT_VALIDATION,
                 id="grid-without-rate"),
    pytest.param(["solve-mac", "--grid", "{tmp}/grid.tsv"],
                 (GRID_COLUMNS, [("abc", 10.0)]), cli.EXIT_VALIDATION,
                 id="grid-station-abc"),
    pytest.param(["solve-mac", "--grid", "{tmp}/grid.tsv"],
                 (GRID_COLUMNS, [(3.5, 10.0)]), cli.EXIT_VALIDATION,
                 id="grid-station-3.5"),
    pytest.param(["solve-mac", "--grid", "{tmp}/grid.tsv"],
                 (GRID_COLUMNS, [(True, 10.0)]), cli.EXIT_VALIDATION,
                 id="grid-station-true"),
    pytest.param(["solve-mac", "--grid", "{tmp}/grid.tsv"],
                 (GRID_COLUMNS, [(5, "fast")]), cli.EXIT_VALIDATION,
                 id="grid-rate-fast"),
    pytest.param(["solve-mac", "--grid", "{tmp}/grid.tsv"],
                 (GRID_COLUMNS, [(3, -5.0)]), cli.EXIT_VALIDATION,
                 id="grid-rate-negative"),
    pytest.param(["solve-mac", "--grid", "{tmp}/grid.tsv"],
                 (GRID_COLUMNS, [(3, math.inf)]), cli.EXIT_VALIDATION,
                 id="grid-rate-inf"),
    pytest.param(["solve-mac", "--stations", "3", "--rate", "inf"], None,
                 cli.EXIT_CONFIG, id="solve-rate-inf"),
    pytest.param(["validate-mac", "--rates", "inf"], None, cli.EXIT_CONFIG,
                 id="validate-rate-inf"),
    pytest.param(["gen-grid", "--spacing", "0", "--out", "{tmp}/net.txt"], None,
                 cli.EXIT_VALIDATION, id="gen-grid-spacing-0"),
    pytest.param(["gen-grid", "--spacing", "1e308", "--out", "{tmp}/net.txt"], None,
                 cli.EXIT_VALIDATION, id="gen-grid-spacing-1e308"),
    pytest.param(["solve-mac", "--grid", "{tmp}/missing.tsv"], None,
                 cli.EXIT_CONFIG, id="grid-missing"),
    pytest.param(["solve-mac", "--params", "{tmp}/missing.txt"], None,
                 cli.EXIT_CONFIG, id="params-missing"),
    pytest.param(["solve-mac", "--params", "{tmp}/params.txt"],
                 {"n_stations": "abc", "arrival_rate": 20.0}, cli.EXIT_VALIDATION,
                 id="params-stations-abc"),
    pytest.param(["solve-mac", "--params", "{tmp}/params.txt"],
                 {"n_stations": math.inf, "arrival_rate": 20.0}, cli.EXIT_VALIDATION,
                 id="params-stations-inf"),
    pytest.param(["solve-mac", "--params", "{tmp}/params.txt"],
                 {"n_stations": 2.7, "arrival_rate": 20.0}, cli.EXIT_VALIDATION,
                 id="params-stations-2.7"),
    pytest.param(["solve-mac", "--params", "{tmp}/params.txt"],
                 {"n_stations": True, "arrival_rate": 20.0}, cli.EXIT_VALIDATION,
                 id="params-stations-true"),
    pytest.param(["solve-mac", "--params", "{tmp}/params.txt"],
                 {"n_stations": 5, "arrival_rate": True}, cli.EXIT_VALIDATION,
                 id="params-rate-true"),
    pytest.param(["solve-mac", "--params", "{tmp}/params.txt"],
                 {"n_stations": 5, "arrival_rate": None}, cli.EXIT_VALIDATION,
                 id="params-rate-none"),
    pytest.param(["solve-mac", "--params", "{tmp}/params.txt"],
                 {"n_stations": 5, "arrival_rate": 20.0, "access_mode": True},
                 cli.EXIT_VALIDATION, id="params-access-true"),
    pytest.param(["place-rsus", "--network", "{tmp}/missing.txt"], None,
                 cli.EXIT_CONFIG, id="network-missing"),
])
def test_bad_input_exits_with_its_code(tmp_path, capsys, argv, table, code):
    # table is a grid table's (columns, rows), or a --params record's mapping
    given = []
    if isinstance(table, dict):
        given = ["params.txt"]
        records.write_record(tmp_path / "params.txt", "mac_params", table)
    elif table is not None:
        given = ["grid.tsv"]
        records.write_table(tmp_path / "grid.tsv", "points", *table)
    try:
        got = cli.main(["--quiet"] + [a.format(tmp=tmp_path) for a in argv])
    except SystemExit as exc:               # argparse refuses a bad flag value
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert "error:" in err and "Traceback" not in err
    for name in given:
        assert name in err                  # a refused input names its file
    if isinstance(table, dict):             # and a refused record its field
        assert any(f"{key} must be" in err for key in table)
    # nothing written but the input
    assert sorted(p.name for p in tmp_path.iterdir()) == given


def test_window_beyond_float_range_is_refused(tmp_path, capsys):
    # 16 * 2 ** 1030 has no float: the solver's window sums would overflow
    path = tmp_path / "params.txt"
    records.write_record(path, "mac_params", {"n_stations": 5, "arrival_rate": 20.0,
                                              "m_stages": 1030})
    assert cli.main(["--quiet", "solve-mac", "--params", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "m_stages must be below" in err and "Traceback" not in err


@pytest.mark.parametrize("rate", ["1e-14", "1e-300"])
def test_solve_mac_at_the_zero_load_limit(capsys, rate):
    # q0 rounds to 1 here: no load, not a degenerate input
    assert cli.main(["solve-mac", "--stations", "5", "--rate", rate]) == 0
    out = dict(line.split(" ", 1) for line in
               capsys.readouterr().out.strip().splitlines())
    assert float(out["q0"]) == 1.0 and float(out["p_drop"]) == 0.0


def test_solve_mac_far_beyond_saturation(capsys):
    # q0 underflows to 0: the queue delay is a number, inf, not "none"
    assert cli.main(["solve-mac", "--stations", "5", "--rate", "1e300"]) == 0
    out = dict(line.split(" ", 1) for line in
               capsys.readouterr().out.strip().splitlines())
    assert float(out["q0"]) == 0.0
    assert float(out["t_q"]) == math.inf and float(out["t_delay"]) == math.inf


@pytest.mark.parametrize("flag,field", [("--stations", "n_stations"),
                                        ("--queue", "queue_capacity"),
                                        ("--bytes", "payload_bits")])
def test_solve_mac_int_beyond_float_range_is_refused(capsys, flag, field):
    # 10 ** 400 has no float; the model would fail converting it
    argv = ["--quiet", "solve-mac", "--rate", "5", "--stations", "1"]
    assert cli.main(argv + [flag, "1" + "0" * 400]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{field} must be in" in err and "Traceback" not in err


@pytest.mark.parametrize("token", ["yes", "prelaod"])
def test_od_line_sixth_token_must_be_preload(tmp_path, capsys, token):
    line = f"1 4 300 0 60 {token}"
    path = tmp_path / "bad.ini"
    path.write_text(f"[demand]\nod = {line}\n")
    out = tmp_path / "o"
    assert cli.main(["--quiet", "run", "--scenario", str(path),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert repr(line) in err and "Traceback" not in err
    assert not out.exists()
    path.write_text("[demand]\nod = 1 4 300 0 60 Preload\n")
    assert cli.parse_scenario(path)["entries"] == [(1, 4, 300.0, 0.0, 60.0, True)]


def test_solve_mac_exits_solver_at_the_iteration_cap(monkeypatch, capsys):
    monkeypatch.setattr(mac_analytic, "FIXED_POINT_MAX_ITER", 3)
    assert cli.main(["solve-mac", "--stations", "20", "--rate", "50"]) == cli.EXIT_SOLVER
    assert "did not converge (iterations=3" in capsys.readouterr().err


def test_gen_grid_place_rsus_roundtrip(tmp_path, capsys):
    net_path = tmp_path / "net.txt"
    assert cli.main(["gen-grid", "--rows", "3", "--cols", "3",
                     "--out", str(net_path)]) == 0
    assert cli.main(["place-rsus", "--network", str(net_path),
                     "--range", "250"]) == 0
    out = capsys.readouterr().out
    assert "signal_coverage 1.0" in out

    # the whole record for the default 10x10 grid, pick order included
    assert cli.main(["gen-grid", "--out", str(net_path)]) == 0
    capsys.readouterr()
    assert cli.main(["place-rsus", "--network", str(net_path),
                     "--range", "250"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "range_m 250.0",
        "rsu_count 16",
        "signal_ids 12 15 18 42 45 48 72 75 78 90 20 50 92 95 97 70",
        "signal_coverage 1.0",
        "link_length_coverage 0.9511111111111111",
    ]


# Coordinate / 1e-306 overflows to inf. The coverage grid's cells stay at
# least a meter wide, so a range that small places an RSU on every signal.

def test_tiny_rsu_range_puts_an_rsu_on_every_signal(tmp_path, capsys):
    net_path = tmp_path / "net.txt"
    assert cli.main(["gen-grid", "--out", str(net_path)]) == 0
    capsys.readouterr()
    assert cli.main(["place-rsus", "--network", str(net_path),
                     "--range", "1e-306"]) == 0
    plan = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert plan["rsu_count"] == "100"
    assert plan["signal_ids"] == " ".join(str(sid) for sid in range(1, 101))


def test_run_with_a_tiny_rsu_range(tmp_path):
    scenario = tmp_path / "tiny-range.ini"
    scenario.write_text(TINY_SCENARIO + "\n[rsu]\nrange_m = 1e-306\n")
    assert cli.main(["--quiet", "run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "o"), "--odsf", "0.5"]) == 0


def test_run_byte_identical_per_seed(tiny_scenario, tmp_path):
    for sub in ("a", "b"):
        code = cli.main(["--quiet", "run", "--scenario", tiny_scenario,
                         "--out", str(tmp_path / sub), "--odsf", "1.0"])
        assert code == 0
    for name in RUN_FILES:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    # wall-clock timing lives only in the sidecar
    meta = (tmp_path / "a" / "meta.txt").read_text()
    assert "wall_per_simulated_s" in meta
    # so do the step counts, which repeat with the seed
    counts = []
    for sub in ("a", "b"):
        fields = dict(line.split(" ", 1) for line in
                      (tmp_path / sub / "meta.txt").read_text().splitlines()[1:])
        counts.append([int(fields[key]) for key in
                       ("vehicle_steps", "parked_red_steps", "parked_full_steps",
                        "cruise_steps", "visited_steps", "recount_exact")])
    assert counts[0] == counts[1]
    steps, red, full, cruise, visited, exact = counts[0]
    assert red > 0 and cruise > 0 and 0 < visited < steps
    # each vehicle-step is visited by the loop or replayed, never both
    assert visited + red + full + cruise == steps
    # the guard bands send at most every located vehicle to the exact
    # test, and a recount locates at most the vehicles of one step
    assert exact <= steps
    summary = (tmp_path / "a" / "summary.txt").read_text()
    assert "wall" not in summary


# A 4x4 grid with the benchmark's small impact shape, its four streams
# raised to 1500 veh/h so that the realistic run ends with deferred and
# unfinished trips (167 generated, 133 finished, 3 deferred, 31 unfinished).
GOLDEN_SCENARIO = """\
[network]
rows = 4
cols = 4
spacing_m = 150

[rsu]
range_m = 250

[comm]
background_rate = 200
queue_capacity = 8
payload_bytes = 1000

[demand]
od =
    1 16 1500 0 90
    16 1 1500 0 90
    4 13 1500 0 90
    13 4 1500 0 90

[sim]
seed = 1
drain_s = 240

[routing]
eta = 0.15
"""

# sha256 of each data file of `run --seed 1`, pinned so that a change
# meant to keep results shows any byte it alters
GOLDEN_RUN_SHA256 = {
    "ideal": {
        "summary.txt": "e125818d39f117a5c422ec13888508cb9f55991020c9561097aa5cfb59410291",
        "nfd.tsv": "d012ed2096e705404c6d3810c8efa1cddf740de977c0db7fcd43c2774d38fa8f",
        "vehicles.tsv": "c79a1a30e1b213bcf09dd5289350c30258b806d9631eff9470f724563aa8a0fc",
        "packets.tsv": "e0e79de205084307d1d712b8620f091255fe529ab3351709df6b91fb34f1e9e6",
    },
    "realistic": {
        "summary.txt": "c5f9a9da0b8c12d092e826c7fa1f507b02ee2db17fe512feec18be5879ccf3de",
        "nfd.tsv": "ba699e3d9c7ed6e16f26a27bb7951762d1e16ecb284edaff9001a1682189b79a",
        "vehicles.tsv": "0cc73c44bc127d558be3375598920d19588032d6aeb5b1e37819efe9f019e1ea",
        "packets.tsv": "2013f1aef394fbad247a68447a64355b34399ceda629ab7292b0880a6db4c537",
    },
}


# criterion 4's 10x10 trend scenario (tests/test_acceptance.py, TREND_INI):
# a city-sized run, whose vehicles cruise, park and cross for thousands of
# steps, pinned the same way
TREND_SCENARIO = """\
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

TREND_RUN_SHA256 = {
    "ideal": {
        "summary.txt": "54ab6d1fa0493cd14237e825be79f7b61478117090d20f2d22379c09ddbeb724",
        "nfd.tsv": "6187e8a40affff99e3bf6c8f8624a95e31e979fce80c5f8041e6bfafeb6af82c",
        "vehicles.tsv": "94e477aa70a65b548faccd847538cee0ef46f7e07a4ba546b60e21e95bcb12b0",
        "packets.tsv": "8c0c9e71eb86b56f8ae511acdb43a71d8aad5c087c41c1049549e8ba0e2e0121",
    },
    "realistic": {
        "summary.txt": "84ebad8f1d110b52cbdd1136adb73874aff544dc2798e801f2fba4c7f34245d6",
        "nfd.tsv": "f9a5552f07755f781f82afd920fde32f3407939dc33bd0d7297bde6ba6965ae7",
        "vehicles.tsv": "456177bb45074aa66d7c963f9cc0374ec5610473862b1f11cd05b5e9e322e7da",
        "packets.tsv": "25cead826f38b27d2bbaf29d2c978c444d94fd8a9d77e93881ba49532b8552b2",
    },
}


# criterion 5's scenario (tests/test_acceptance.py, IMPACT_INI) at odsf 0.8 in
# realistic mode, the benchmark's impact-realistic input: the run that wakes
# full-link waiters mid-step at scale (2,249,418 parked_full_steps)
IMPACT_SCENARIO = TREND_SCENARIO.replace(" 330 0 600", " 500 0 900") + """
[routing]
eta = 0.15
"""

IMPACT_RUN_SHA256 = {
    "summary.txt": "8a0e821ceffc413a6d36d086a543b2dc3d9d48a34e89de1b72fbd80fa84dd012",
    "nfd.tsv": "83337bece9858a9d25059b83430995e89b3df5b79288d8ca4873ece397fc61ba",
    "vehicles.tsv": "f62d60538186102a410bd53b9ef2054e7a871fec65753a5db6f695aa9acd0042",
    "packets.tsv": "137a2fa8fff13df405e9f91875c57855518e5577bf5f7158e87c07ab3456489e",
}


def run_digests(tmp_path, text, mode, *flags):
    scenario = tmp_path / "golden.ini"
    scenario.write_text(text)
    out = tmp_path / mode
    assert cli.main(["--quiet", "run", "--scenario", str(scenario),
                     "--out", str(out), "--mode", mode, "--seed", "1", *flags]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in RUN_FILES}


@pytest.mark.parametrize("mode", sorted(GOLDEN_RUN_SHA256))
def test_run_golden_artifacts(mode, tmp_path):
    assert run_digests(tmp_path, GOLDEN_SCENARIO, mode) == GOLDEN_RUN_SHA256[mode]


@pytest.mark.parametrize("mode", sorted(TREND_RUN_SHA256))
def test_run_trend_golden_artifacts(mode, tmp_path):
    assert run_digests(tmp_path, TREND_SCENARIO, mode) == TREND_RUN_SHA256[mode]


def test_run_impact_golden_artifacts(tmp_path):
    assert run_digests(tmp_path, IMPACT_SCENARIO, "realistic",
                       "--odsf", "0.8") == IMPACT_RUN_SHA256


def test_run_mode_and_seed_overrides(tiny_scenario, tmp_path):
    assert cli.main(["--quiet", "run", "--scenario", tiny_scenario,
                     "--out", str(tmp_path / "ideal"), "--mode", "ideal",
                     "--seed", "3"]) == 0
    _, summary = records.read_record(tmp_path / "ideal" / "summary.txt")
    assert summary["mode"] == "ideal"
    assert summary["seed"] == 3
    # ideal uplink never loses a report
    assert summary["packet_delivered"] == summary["packet_created"]
    assert summary["finished"] == summary["generated"]


def test_sweep_aggregates(tiny_scenario, tmp_path):
    out = tmp_path / "sweep"
    assert cli.main(["--quiet", "sweep", "--scenario", tiny_scenario,
                     "--out", str(out)]) == 0
    _, cols, rows = records.read_table(out / "sweep_summary.tsv")
    assert [row[cols.index("odsf")] for row in rows] == [0.5, 1.0]
    _, _, drops = records.read_table(out / "drop_vs_odsf.tsv")
    assert len(drops) == 2
    _, ncols, nfd = records.read_table(out / "sweep_nfd.tsv")
    assert {row[0] for row in nfd} == {0.5, 1.0}
    _, pcols, pdf = records.read_table(out / "delay_pdf.tsv")
    per_point = {}
    for row in pdf:
        per_point[row[0]] = per_point.get(row[0], 0) + row[pcols.index("count")]
    _, _, summary_rows = records.read_table(out / "sweep_summary.tsv")
    assert per_point[1.0] > 0


def test_sweep_pool_starts_no_idle_worker(tiny_scenario, tmp_path, monkeypatch):
    made = []

    class InlinePool:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.futures, "ProcessPoolExecutor", InlinePool)
    assert cli.main(["--quiet", "sweep", "--scenario", tiny_scenario,
                     "--out", str(tmp_path / "sweep"), "--jobs", "64"]) == 0
    assert made == [2]                       # the tiny scenario has two points


def test_sweep_jobs_writes_the_same_tables(tiny_scenario, tmp_path):
    tables = ("sweep_summary.tsv", "sweep_nfd.tsv", "drop_vs_odsf.tsv",
              "delay_pdf.tsv")
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["--quiet", "sweep", "--scenario", tiny_scenario,
                         "--out", str(out), "--jobs", jobs]) == 0
        written.append([(out / name).read_bytes() for name in tables])
    assert written[0] == written[1]


def test_histogram_edges_open_their_bin():
    edges = cli.DELAY_BIN_EDGES
    counts = [c for _, _, c in cli._histogram([0.0, 0.002, 0.0019999, 1200.0, 5e6])]
    want = [0] * (len(edges) - 1)
    want[0] = 2                              # 0.0 and 0.0019999
    want[1] = 1                              # 0.002
    want[edges.index(1200.0)] = 2            # 1200.0 and 5e6, in [1200, inf)
    assert counts == want


def test_validate_mac_tiny_grid(tmp_path):
    out = tmp_path / "val.tsv"
    assert cli.main(["validate-mac", "--stations", "5", "--rates", "10,2000",
                     "--bytes", "500", "--access", "basic",
                     "--duration", "5", "--out", str(out)]) == 0
    _, cols, rows = records.read_table(out)
    assert len(rows) == 2
    # the service and wait split is appended; earlier columns keep their place
    assert cols[:14] == ["access", "payload_bytes", "stations", "rate",
                         "thr_model", "thr_meas", "thr_rel_err", "thr_ci95",
                         "delay_model", "delay_meas", "delay_rel_err",
                         "delay_ci95", "p_drop_model", "p_drop_meas"]
    assert cols[14:] == ["serv_model", "serv_meas", "serv_err",
                         "wait_model", "wait_meas", "wait_err_s"]
    light, saturated = (dict(zip(cols, row)) for row in rows)
    assert math.isfinite(light["thr_rel_err"])
    assert math.isfinite(light["delay_rel_err"])
    for row in (light, saturated):
        params = mac_analytic.MacParams(n_stations=5, arrival_rate=row["rate"],
                                        payload_bits=4000)
        sol = mac_analytic.solve(params)
        stats = mac_des.simulate(mac_des.DesConfig(
            mac_params=params, seed=1, measured_duration=5.0, min_delivered=0))
        assert row["serv_model"] == sol.t_serv
        assert row["serv_meas"] == stats.mean_service_time
        assert row["serv_err"] == ((sol.t_serv - stats.mean_service_time)
                                   / stats.mean_service_time)
        assert row["wait_meas"] == stats.mean_sojourn - stats.mean_service_time
        assert row["wait_model"] == sol.t_q
    # signed: the model over-counts light-load contention, so both run long
    assert light["serv_err"] > 0
    assert light["wait_err_s"] == light["wait_model"] - light["wait_meas"]
    assert light["wait_err_s"] > 0
    # a saturated model queue's wait diverges, but it is still a number
    assert saturated["wait_model"] > 1e3 * saturated["wait_meas"] > 0
    assert saturated["wait_err_s"] == saturated["wait_model"] - saturated["wait_meas"]


def test_defaults_lists_tunables(capsys):
    assert cli.main(["defaults"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines if not line.startswith("#")]
    for key in ("routing.eta", "comm.background_rate", "demand.odsf", "sim.a_max"):
        assert key in names
    # the MAC section is the defaulted MacParams fields; the fixed channel
    # profile is not a tunable
    mac = lines[lines.index("# mac parameters") + 1:lines.index("# scenario file")]
    assert [line.split()[0] for line in mac] == [
        "queue_capacity", "w0", "m_stages", "f_extra", "aifs_slots", "payload_bits",
        "access_mode"]
    for folded in ("slot_time", "sifs", "data_rate", "propagation_delay", "ack_bits",
                   "rts_bits", "cts_bits", "alpha"):
        assert folded not in names
    # each tunable once: under its scenario key where it has one
    assert len(names) == len(set(names))
    # fixed traffic constants are not tunables, and exact_energy is gone
    for gone in ("a_max", "drain", "horizon", "eta", "beta", "background_rate",
                 "cell_refresh", "sim.exact_energy", "exact_energy", "dt",
                 "signal_cycle", "green_share", "nfd_interval"):
        assert gone not in names
    # required fields have no default to show
    assert "n_stations" not in names and "arrival_rate" not in names
