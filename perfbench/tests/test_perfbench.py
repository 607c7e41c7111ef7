"""The benchmark's own tests: metric coverage, failure accounting, refusal.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
Workloads run at a tenth of their size so the whole file takes seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import bench, compare
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TINY = 0.1


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _tiny(workload, tmp_path, seed=3, trace=True):
    return bench.run(workload, seed, 2.0, trace, str(tmp_path), scale=TINY)


def test_benchmark_json_matches_the_code():
    spec = _bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, tmp_path):
    spec = _bench_json()
    result = _tiny(workload, tmp_path)
    assert result["correct"], result["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = bench.emit(result, trace)
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert all(result["metrics"][m["name"]] > 0 for m in spec["end_to_end"])
    assert result["metrics"]["dist.shm_leftover"] == 0
    assert result["metrics"]["dist.b_max_instantiations"] == 1
    with open(result["trace_file"]) as f:
        assert json.load(f)["traceEvents"]


def test_second_seed_passes_the_oracle_with_the_same_metrics(tmp_path):
    first = _tiny("gen-small", tmp_path, seed=3, trace=False)
    second = _tiny("gen-small", tmp_path, seed=4, trace=False)
    assert first["correct"] and second["correct"]
    assert first["metrics"].keys() == second["metrics"].keys()
    for name in compare.EXACT:  # structure is fixed, values come from the seed
        assert first["metrics"][name] == second["metrics"][name]


def test_wrong_c_counts_as_an_error(tmp_path, monkeypatch):
    real = bench.execute_plan_distributed
    calls = []

    def corrupt_second_call(*args, **kwargs):
        c, report = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            key = next(iter(c.keys()))
            tile = c.get_tile(*key).copy()
            tile.view(np.uint64).flat[0] ^= 1  # one bit of one element
            c.set_tile(*key, tile)
        return c, report

    monkeypatch.setattr(bench, "execute_plan_distributed", corrupt_second_call)
    result = _tiny("cold-gemm", tmp_path, trace=False)
    assert result["failures"] == {"mismatch": 1}
    assert not result["correct"]
    assert result["metrics"]["error_rate"] == pytest.approx(1 / result["attempted"])


def test_fingerprint_mismatch_is_refused(tmp_path, capsys):
    host = {"cpu_model": "x", "usable_cores": 2, "blas_threads": 2, "ranks": 2}
    base = {"workload": "cold-gemm", "host": host, "metrics": {"contraction_p50_s": 1.0}}
    new = {**base, "host": {**host, "blas_threads": 1},
           "metrics": {"contraction_p50_s": 2.0}}
    for name, r in (("base.json", base), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(r))
    status = compare.main([str(tmp_path / "base.json"), str(tmp_path / "new.json")])
    out = capsys.readouterr().out
    assert status == compare.REFUSED
    assert "blas_threads: 2 != 1" in out
    assert "REGRESSION" not in out and "improved" not in out


def test_regression_beyond_the_bound_is_reported(tmp_path):
    host = {"cpu_model": "x"}
    spec = _bench_json()
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "contraction_p50_s")
    base = [{"workload": "w", "host": host, "metrics": {"contraction_p50_s": 1.0}}]
    new = [{"workload": "w", "host": host,
            "metrics": {"contraction_p50_s": 1.0 + 2 * bound}}]
    status, lines = compare.compare(base, new, spec)
    assert status == 1 and any("REGRESSION" in line for line in lines)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-gemm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
