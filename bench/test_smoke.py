"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

It runs every workload end to end, checks the output format against
BENCHMARK.json, and checks the guards: the determinism check, and the exit
without a result where the library's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args, "--seed", "3",
                           "--seconds", "0.2"],
                          cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600,
                          check=False)


def _result(proc):
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_workload_list_matches_the_runner():
    assert tuple(WORKLOADS) == run.WORKLOADS


def test_all_workloads_end_to_end():
    result = _result(_bench("--workload", "all", "--trace", "0", "--size", "tiny"))
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    metrics = _result(_bench("--workload", workload, "--trace", "1", "--size", "tiny"))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    secular_calls = metrics["dpr1.funm_diff_rank1.calls"]["value"]
    assert (secular_calls > 0) == (workload == "paper-figures")
    assert metrics["arnoldi.advance.calls"]["value"] > 0
    assert (ROOT / ".bench_out" / f"spans-{workload}-seed3.jsonl").stat().st_size > 0


def test_digest_mismatch_fails_the_case():
    outputs = iter(["a", "b"])
    case = SimpleNamespace(metric="x_s", n=1, call=lambda: next(outputs),
                           finish=lambda result: (1, result, []))
    ledger = run.Ledger()
    expected = run.run_pass([case], ledger).digests
    run.run_pass([case], ledger, expected)
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_without_sources_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "many-poles", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
