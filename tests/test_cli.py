"""Command-line front end: exit codes, reproducibility, artifact shapes."""

import hashlib
import math

import pytest

from vanetsim import cli, constants, ecorouting, records, traffic
from vanetsim.errors import (ConfigurationError, ConvergenceError,
                             DegenerateInputError, NoPathError, ParseError,
                             SimulationError, ValidationError)

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
    path = tmp_path / "params.txt"
    records.write_record(path, "mac_params",
                         {"n_stations": 5, "arrival_rate": 20.0,
                          "contention_window": 32})
    assert cli.main(["solve-mac", "--params", str(path)]) == cli.EXIT_VALIDATION
    assert "contention_window" in capsys.readouterr().err


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


def test_gen_grid_place_rsus_roundtrip(tmp_path, capsys):
    net_path = tmp_path / "net.txt"
    assert cli.main(["gen-grid", "--rows", "3", "--cols", "3",
                     "--out", str(net_path)]) == 0
    assert cli.main(["place-rsus", "--network", str(net_path),
                     "--range", "250"]) == 0
    out = capsys.readouterr().out
    assert "signal_coverage 1.0" in out


def test_run_byte_identical_per_seed(tiny_scenario, tmp_path):
    for sub in ("a", "b"):
        code = cli.main(["--quiet", "run", "--scenario", tiny_scenario,
                         "--out", str(tmp_path / sub), "--odsf", "1.0"])
        assert code == 0
    for name in ("summary.txt", "nfd.tsv", "vehicles.tsv", "packets.tsv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    # wall-clock timing lives only in the sidecar
    meta = (tmp_path / "a" / "meta.txt").read_text()
    assert "wall_per_simulated_s" in meta
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
        "summary.txt": "7190373d33c7ad5058294fcd4a6957744c3d61f68b12a413f62726e657df7391",
        "nfd.tsv": "d012ed2096e705404c6d3810c8efa1cddf740de977c0db7fcd43c2774d38fa8f",
        "vehicles.tsv": "c79a1a30e1b213bcf09dd5289350c30258b806d9631eff9470f724563aa8a0fc",
        "packets.tsv": "e0e79de205084307d1d712b8620f091255fe529ab3351709df6b91fb34f1e9e6",
    },
    "realistic": {
        "summary.txt": "d8955e804de0a6adb3f3ed50ed34caec77f1bd248e313eb1c47160b8bf14a4fd",
        "nfd.tsv": "ba699e3d9c7ed6e16f26a27bb7951762d1e16ecb284edaff9001a1682189b79a",
        "vehicles.tsv": "0cc73c44bc127d558be3375598920d19588032d6aeb5b1e37819efe9f019e1ea",
        "packets.tsv": "2013f1aef394fbad247a68447a64355b34399ceda629ab7292b0880a6db4c537",
    },
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_RUN_SHA256))
def test_run_golden_artifacts(mode, tmp_path):
    scenario = tmp_path / "golden.ini"
    scenario.write_text(GOLDEN_SCENARIO)
    out = tmp_path / mode
    assert cli.main(["--quiet", "run", "--scenario", str(scenario),
                     "--out", str(out), "--mode", mode, "--seed", "1"]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN_RUN_SHA256[mode]}
    assert got == GOLDEN_RUN_SHA256[mode]


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


def test_validate_mac_tiny_grid(tmp_path):
    out = tmp_path / "val.tsv"
    assert cli.main(["validate-mac", "--stations", "5", "--rates", "10",
                     "--bytes", "500", "--access", "basic",
                     "--duration", "5", "--out", str(out)]) == 0
    _, cols, rows = records.read_table(out)
    assert len(rows) == 1
    row = dict(zip(cols, rows[0]))
    assert math.isfinite(row["thr_rel_err"])
    assert math.isfinite(row["delay_rel_err"])


def test_defaults_lists_tunables(capsys):
    assert cli.main(["defaults"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    for key in ("queue_capacity", "slot_time", "routing.eta",
                "comm.background_rate", "demand.odsf", "sim.a_max"):
        assert key in names
    # each tunable once: under its scenario key where it has one
    assert len(names) == len(set(names))
    # fixed traffic constants and the test-only exact_energy are not tunables
    for gone in ("a_max", "drain", "horizon", "eta", "beta", "background_rate",
                 "cell_refresh", "sim.exact_energy", "exact_energy", "dt",
                 "signal_cycle", "green_share", "nfd_interval"):
        assert gone not in names
    # required fields have no default to show
    assert "n_stations" not in names and "arrival_rate" not in names
