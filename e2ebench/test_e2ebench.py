"""Fast self-tests of the benchmark (not part of the repo's tier-1 suite).

    PYTHONPATH=src python -m pytest -q e2ebench/test_e2ebench.py

Each workload runs in smoke mode (a few steps or jobs) with tracing off
and on; every metric named in BENCHMARK.json must come out with its
unit, and the run's correctness checks must pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobmix  # noqa: E402
import metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_and_passes_checks(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metrics.PER_LAYER


def test_job_list_is_a_function_of_the_seed():
    assert jobmix.generate(11) == jobmix.generate(11)
    assert jobmix.generate(11) != jobmix.generate(12)


@pytest.mark.parametrize("seed", range(5))
def test_job_list_hits_its_shares(seed):
    jobs = jobmix.generate(seed)
    want = jobmix.counts(len(jobs))
    for (kind, hybrid), n in want.items():
        assert sum(j.kind == kind and j.hybrid == hybrid for j in jobs) == n
    seen: dict[tuple, set] = {}
    for job in jobs:
        if job.kind == "cold":
            assert job.shape not in seen
        else:
            src = jobs[job.source]
            assert src.index < job.index and src.kind != "repeat"
            assert src.shape == job.shape
            if job.kind == "repeat":
                assert job.config_kwargs() == src.config_kwargs()
            else:
                assert job.steps not in seen[job.shape]
        seen.setdefault(job.shape, set()).add(job.steps)
