"""The benchmark's workloads: inputs made from a seed, one execution, checks.

Each workload drives vanetsim through its command-line entry point
(``cli.main``), as a user would, in this process. The scenario texts are
the benchmark's own copies of the acceptance scenarios, so later edits
to the tests cannot change what is measured.

``small=True`` swaps in cut-down inputs of the same shape; the smoke test
uses them.

``inputs`` is how many seeds one untraced run measures. The scenario seed
changes how much work a run does: for seeds 1-11 and 1001-1010 the CPU
time of one impact-realistic execution ranged over 10.9-20.4 s, because
some seeds gridlock until the horizon and some do not. Averaging over
three seeds keeps that luck from deciding the result. Trend-ideal varies
less, and the MAC workloads' work hardly depends on the seed.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

from vanetsim import cli, mac_analytic, mac_des, records

# criterion 4's trend scenario (tests/test_acceptance.py, TREND_INI)
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

# criterion 5's scenario: heavier, longer demand and wider route noise
IMPACT_INI = TREND_INI.replace(" 330 0 600", " 500 0 900") + """
[routing]
eta = 0.15
"""

SMALL_TREND_INI = """\
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
    1 16 330 0 60
    16 1 330 0 60
    4 13 330 0 60
    13 4 330 0 60

[sim]
seed = 1
drain_s = 240
"""

SMALL_IMPACT_INI = SMALL_TREND_INI.replace(" 330 0 60", " 500 0 90") + """
[routing]
eta = 0.15
"""

RUN_FILES = ("summary.txt", "nfd.tsv", "vehicles.tsv", "packets.tsv")
FATES = ("queued", "delivered", "dropped")


def digest(out: Path, names) -> str:
    """sha256 over the named data files, in the given order."""
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((out / name).read_bytes())
    return h.hexdigest()


def _solution_problems(rec) -> tuple[int, list[str]]:
    """Failed solves: ones that raised, or whose residual is not below tol."""
    bad = [res for _it, res, _sat in rec.solutions
           if not res < mac_analytic.FIXED_POINT_TOL]
    raised = rec.solve_calls - len(rec.solutions)
    problems = []
    if raised:
        problems.append(f"{raised} solve calls raised")
    if bad:
        problems.append(f"{len(bad)} solutions with residual >= "
                        f"{mac_analytic.FIXED_POINT_TOL:g} (max {max(bad):g})")
    return raised + len(bad), problems


class Check:
    """Outcome of one execution's output checks."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.problems: list[str] = []
        self.agree_points = 0

    def fail(self, ops: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + ops)
        self.problems.append(problem)


class RunWorkload:
    """One ``vanetsim run`` of a scenario point; one operation per execution."""

    outputs = RUN_FILES
    ops = 1

    def __init__(self, text: str, mode: str, odsf: float, inputs: int):
        self.text, self.mode, self.odsf, self.inputs = text, mode, odsf, inputs

    def prepare(self, work: Path, seed: int) -> None:
        self.scenario = work / "scenario.ini"
        self.scenario.write_text(self.text)
        self.seed = seed

    def setup(self) -> None:
        """Everything before the first step: parse, network, RSUs, demand."""
        sc = cli.parse_scenario(self.scenario)
        cli.build_run(sc, odsf=self.odsf, mode=self.mode, seed=self.seed)

    def execute(self, out: Path) -> int:
        return cli.main(["--quiet", "run", "--scenario", str(self.scenario),
                         "--out", str(out), "--mode", self.mode,
                         "--seed", str(self.seed), "--odsf", repr(self.odsf)])

    def check(self, out: Path, rec) -> Check:
        chk = Check(self.ops)
        _, s = records.read_record(out / "summary.txt")
        _, _, packets = records.read_table(out / "packets.tsv")
        _, _, vehicles = records.read_table(out / "vehicles.tsv")
        if s["generated"] != (s["waiting"] + s["unfinished"] + s["finished"]
                              + s["deferred"]):
            chk.fail(1, "vehicle conservation broken: generated "
                     f"{s['generated']} != waiting + enroute + finished + deferred")
        if len(vehicles) != s["finished"]:
            chk.fail(1, f"{len(vehicles)} vehicle rows for {s['finished']} finished")
        fates = Counter(row[3] for row in packets)
        if len(packets) != s["packet_created"] or len({row[0] for row in packets}) \
                != len(packets):
            chk.fail(1, f"{len(packets)} report rows (unique ids expected) for "
                     f"{s['packet_created']} created")
        if set(fates) - set(FATES):
            chk.fail(1, f"unknown report fates {sorted(set(fates) - set(FATES))}")
        if (fates["delivered"], fates["dropped"]) != (s["packet_delivered"],
                                                      s["packet_dropped"]):
            chk.fail(1, "report fate counts disagree with summary.txt")
        if any((row[3] == "delivered") != (row[4] is not None) for row in packets):
            chk.fail(1, "delivery time set on a report that is not delivered, "
                     "or missing on one that is")
        bad, problems = _solution_problems(rec)
        if bad:
            chk.fail(1, "; ".join(problems))
        return chk


class MacSolveWorkload:
    """``solve-mac --grid`` over N x lambda, once per access mode."""

    ACCESSES = ("basic", "rtscts")
    inputs = 1

    def __init__(self, small: bool):
        stations = range(1, 4) if small else range(1, 41)
        rates = (5.0, 10.0) if small else [5.0 * k for k in range(1, 51)]
        self.points = [(n, r) for n in stations for r in rates]
        self.outputs = tuple(f"mac_{acc}.tsv" for acc in self.ACCESSES)
        self.ops = len(self.points) * len(self.ACCESSES)

    def prepare(self, work: Path, seed: int) -> None:
        # the grid has no random part; the seed changes nothing here
        self.grid = work / "grid.tsv"
        records.write_table(self.grid, "mac_points", ("stations", "rate"),
                            self.points)

    def _argv(self, access: str, out: Path) -> list[str]:
        return ["--quiet", "solve-mac", "--grid", str(self.grid),
                "--access", access, "--out", str(out / f"mac_{access}.tsv")]

    def setup(self) -> None:
        """Argument parsing and the grid read, before the first solve."""
        for access in self.ACCESSES:
            args = cli.build_parser().parse_args(self._argv(access, self.grid.parent))
            records.read_table(args.grid)

    def execute(self, out: Path) -> int:
        return max(cli.main(self._argv(acc, out)) for acc in self.ACCESSES)

    def check(self, out: Path, rec) -> Check:
        chk = Check(self.ops)
        for name in self.outputs:
            _, _, rows = records.read_table(out / name)
            if [(row[0], row[1]) for row in rows] != self.points:
                chk.fail(len(self.points), f"{name}: rows do not match the "
                         f"{len(self.points)} grid points")
        bad, problems = _solution_problems(rec)
        if bad:
            chk.fail(bad, "; ".join(problems))
        return chk


class MacValidateWorkload:
    """``validate-mac``: model against the event simulator, both access modes."""

    outputs = ("validation.tsv",)
    inputs = 1

    def __init__(self, small: bool):
        self.grid = (["--stations", "5", "--rates", "10,25", "--bytes", "500",
                      "--duration", "2"] if small else [])

    def prepare(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.work = work
        # one solve and one replication per grid point
        args = cli.build_parser().parse_args(self._argv(work))
        self.ops = 2 * len(self._points(args))

    def _argv(self, out: Path) -> list[str]:
        return ["--quiet", "validate-mac", "--access", "basic,rtscts", *self.grid,
                "--seed", str(self.seed), "--out", str(out / "validation.tsv")]

    def _points(self, args) -> list[mac_analytic.MacParams]:
        return [mac_analytic.MacParams(
                    n_stations=int(n), arrival_rate=float(r),
                    payload_bits=int(b) * 8, queue_capacity=args.queue,
                    access_mode=mac_analytic.AccessMode(acc))
                for acc in args.access.split(",") for b in args.bytes.split(",")
                for n in args.stations.split(",") for r in args.rates.split(",")]

    def setup(self) -> None:
        """Argument parsing and the checked grid configurations."""
        args = cli.build_parser().parse_args(self._argv(self.work))
        for params in self._points(args):
            params.validate()
            mac_des.DesConfig(mac_params=params, seed=args.seed,
                              measured_duration=args.duration,
                              min_delivered=0).validate()

    def execute(self, out: Path) -> int:
        return cli.main(self._argv(out))

    def check(self, out: Path, rec) -> Check:
        chk = Check(self.ops)
        _, cols, rows = records.read_table(out / "validation.tsv")
        if 2 * len(rows) != self.ops:
            chk.fail(abs(self.ops - 2 * len(rows)),
                     f"{len(rows)} validation rows, expected {self.ops // 2}")
        broken = [r for r in rec.replications if r[0] != sum(r[1:5])]
        if rec.des_calls != len(rec.replications) or broken:
            chk.fail(rec.des_calls - len(rec.replications) + len(broken),
                     f"{len(broken)} replications break packet conservation, "
                     f"{rec.des_calls - len(rec.replications)} raised")
        bad, problems = _solution_problems(rec)
        if bad:
            chk.fail(bad, "; ".join(problems))
        chk.agree_points = sum(_agrees(dict(zip(cols, row))) for row in rows)
        return chk


def _agrees(d: dict) -> bool:
    """Criterion 1's rule: within 20% or the DES 95% CI on both quantities."""
    def within(model, meas, rel_err, ci):
        if model is None or meas is None:
            return False
        return ((rel_err is not None and rel_err <= 0.20)
                or (ci is not None and abs(model - meas) <= ci))
    return (within(d["thr_model"], d["thr_meas"], d["thr_rel_err"], d["thr_ci95"])
            and within(d["delay_model"], d["delay_meas"], d["delay_rel_err"],
                       d["delay_ci95"]))


def make(name: str, small: bool):
    if name == "trend-ideal":
        return RunWorkload(SMALL_TREND_INI if small else TREND_INI, "ideal", 1.0, 2)
    if name == "impact-realistic":
        return RunWorkload(SMALL_IMPACT_INI if small else IMPACT_INI, "realistic", 0.8,
                           3)
    if name == "mac-solve":
        return MacSolveWorkload(small)
    if name == "mac-validate":
        return MacValidateWorkload(small)
    raise KeyError(name)
