"""vanetsim benchmark: time to result on four workloads, plus a traced run.

    python3 perfbench/run.py --workload trend-ideal --seed 1 --seconds 12 --trace 0

The package is imported from ``src/`` next to this directory, never from
an installed copy; without it the benchmark exits with an error. One
process runs one workload, closed loop: one execution at a time, no
threads, no worker processes.

``--trace 0`` makes the workload's inputs from ``--seed`` (seeds
``seed``, ``seed + 1000``, ...; see ``inputs`` in ``workloads``) and
executes them in turn, each at least once, for as long as a further
execution still fits in ``--seconds``. It reports the end-to-end
metrics:

* ``wall_s``: time to result of one execution, the mean over the
  inputs of each input's median execution;
* ``setup_s``: the median of several set-ups (everything before the
  first step or solve);
* ``peak_rss_mb``: the process's peak resident memory.

Both times are in reference-speed seconds (see ``clock``); the measured
wall times are printed on the ``measured`` line.

``--trace 1`` alternates one untraced and one traced execution of the
first input (at least one pair, same time rule) and reports the
per-layer metrics of the median traced execution. Spans are kept in
memory and written to ``.bench_out/<workload>/spans-<n>.tsv``.

Every execution's outputs are checked (see ``workloads``) and hashed;
executions of the same seed must hash alike, traced or not. Human lines
go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import clock

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
INPUT_SEED_STRIDE = 1000


def _import_package():
    """Put ``src/`` first on the path; refuse to run without it.

    The benchmark's modules that import vanetsim (probes, workloads,
    layers) are imported inside functions, after this has run.
    """
    pkg = ROOT / "src" / "vanetsim" / "__init__.py"
    if not pkg.is_file():
        sys.exit(f"error: {pkg} not found; run the benchmark from a checkout "
                 "that holds the vanetsim sources")
    sys.path.insert(0, str(ROOT / "src"))
    import vanetsim
    if Path(vanetsim.__file__).resolve() != pkg:
        sys.exit(f"error: imported vanetsim from {vanetsim.__file__}, not {pkg}")


class Execution:
    """One timed execution of a workload and what its checks found."""

    def __init__(self, timing, digest, check, layers=None):
        self.wall, self.scaled = timing.raw, timing.scaled
        self.digest, self.check, self.layers = digest, check, layers


@contextlib.contextmanager
def _plain_wall():
    """Wall time with no speed samples, so that spans cover only the program."""
    out = clock.Timing()
    t0 = time.perf_counter()
    try:
        yield out
    finally:
        out.raw = out.scaled = time.perf_counter() - t0


def execute(wl, out: Path, tracer=None) -> Execution:
    from probes import Recorder, instrument
    from workloads import Check, digest

    out.mkdir(parents=True)
    rec = Recorder()
    with instrument(rec, tracer), contextlib.redirect_stdout(io.StringIO()), \
            (clock.timed() if tracer is None else _plain_wall()) as timing:
        try:
            code = wl.execute(out)
        except Exception:      # noqa: BLE001 - counted as a failed operation
            traceback.print_exc()
            code = None
    check = dig = None
    if code == 0:
        try:
            check = wl.check(out, rec)
            dig = digest(out, wl.outputs)
        except Exception:      # noqa: BLE001 - unreadable outputs fail the check
            traceback.print_exc()
            code = "unreadable outputs"
    if check is None or dig is None:
        check = Check(wl.ops)
        check.fail(wl.ops, f"command failed: {code}")
    shutil.rmtree(out)
    layers = None
    if tracer is not None:
        import layers as layer_metrics
        layers = layer_metrics.compute(tracer, rec, timing.raw, check)
    return Execution(timing, dig, check, layers)


def _median(runs: list[Execution], key) -> float:
    return statistics.median(key(r) for r in runs)


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    import workloads
    from probes import Tracer

    work = ROOT / ".bench_out" / name
    shutil.rmtree(work, ignore_errors=True)
    inputs = []
    for k in range(1 if trace else workloads.make(name, small).inputs):
        s = seed + INPUT_SEED_STRIDE * k
        wl = workloads.make(name, small)
        (work / f"seed{s}").mkdir(parents=True)
        wl.prepare(work / f"seed{s}", s)
        inputs.append((s, wl))
    seeds = [s for s, _ in inputs]

    setups = []
    if not trace:
        for i in range(SETUP_REPEATS):
            with clock.timed() as timing:
                inputs[i % len(inputs)][1].setup()
            setups.append(timing)

    plain: dict[int, list[Execution]] = {s: [] for s in seeds}
    traced: list[Execution] = []
    start = time.perf_counter()
    n = 0
    while True:
        s, wl = inputs[n % len(inputs)]
        plain[s].append(execute(wl, work / f"run{n}"))
        if trace:
            tracer = Tracer()
            traced.append(execute(wl, work / f"traced{n}", tracer))
            tracer.write(work / f"spans-{n}.tsv", origin=start)
        n += 1
        elapsed = time.perf_counter() - start
        # stop before a further round would overrun the budget
        if n >= len(inputs) and elapsed * (n + 1) / n > seconds:
            break

    runs = [r for rs in plain.values() for r in rs] + traced
    problems = [p for r in runs for p in r.check.problems]
    digests = {s: {r.digest for r in rs} for s, rs in plain.items()}
    digests[seed] |= {r.digest for r in traced}
    for s, ds in digests.items():
        if len(ds) != 1:
            problems.append(f"outputs differ between executions of seed {s}: "
                            f"{len(ds)} distinct digests")
    attempted = sum(r.check.attempted for r in runs)
    failed = sum(r.check.failed for r in runs)
    # mean over the inputs of each input's median execution
    wall = statistics.fmean(_median(rs, lambda r: r.wall) for rs in plain.values())
    scaled = statistics.fmean(_median(rs, lambda r: r.scaled) for rs in plain.values())

    if trace:
        chosen = sorted(traced, key=lambda r: r.wall)[(len(traced) - 1) // 2]
        metrics = dict(chosen.layers)
        metrics["ops_failed_frac"] = (failed / attempted, "ratio")
        metrics["trace.overhead_ratio"] = (_median(traced, lambda r: r.wall) / wall,
                                           "ratio")
    else:
        metrics = {
            "wall_s": (scaled, "s"),
            "setup_s": (statistics.median(t.scaled for t in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }

    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{n} untraced, {len(traced)} traced executions over seeds {list(seeds)}")
    for s, ds in digests.items():
        print(f"digest {s} {' '.join(sorted(d or 'none' for d in ds))}")
    print(f"ops attempted {attempted} failed {failed} "
          f"ops_failed_frac {failed / attempted!r}")
    print(f"measured wall_s {wall!r} s, setup_s "
          f"{statistics.median(t.raw for t in setups) if setups else 0.0!r} s")
    if name == "mac-solve":
        print(f"solve_grid_s {scaled!r} s")
    if name == "mac-validate":
        print(f"validate_grid_s {scaled!r} s")
        print(f"mac_agree_points {plain[seed][0].check.agree_points} count")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value!r} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("trend-ideal", "impact-realistic", "mac-solve",
                             "mac-validate"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="cut-down inputs of the same shape, for the smoke test")
    args = ap.parse_args(argv)
    _import_package()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.small)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
