"""Smoke test of the benchmark itself, on cut-down inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced with ``--small``. The
test asserts that every metric BENCHMARK.json names is emitted with its
unit, that traced and untraced outputs hash alike, that no operation
failed, and that the per-layer self times add up to the traced wall time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
from layers import SELF_TIMES  # noqa: E402


def _bench(run_py: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "2",
         "--seconds", "0.2", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> tuple[str, dict]:
    proc = _bench(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[2] for line in lines if line.startswith("digest 2 "))
    return digest, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_metrics_digests_and_checks(workload):
    plain_digest, plain = _result(workload, 0)
    traced_digest, traced = _result(workload, 1)

    for result, declared in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    assert plain_digest == traced_digest
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    assert layer["ops_failed_frac"] == 0
    assert sum(layer[k] for k in SELF_TIMES) + layer["trace.unattributed_s"] == \
        pytest.approx(layer["trace.wall_s"], rel=1e-9, abs=1e-12)
    for metric in SPEC["end_to_end"]:
        assert plain["metrics"][metric["name"]]["value"] > 0


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(bare / "perfbench" / "run.py", SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
