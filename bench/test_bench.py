"""Local tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gate
import run
import specgen

BENCH = Path(__file__).resolve().parent
CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# per-layer metrics that depend only on the inputs
EXACT_UNITS = ("count", "bits", "bytes")


def bench(workload: str, trace: int, cwd: Path = run.ROOT, seed: int = run.DEFAULT_SEED):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(specgen.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


def _change_one_rational(path: Path):
    text = path.read_text()
    match = re.search(r'"(-?\d+)/(\d+)"', text)
    assert match, "report holds no rational"
    changed = f'"{int(match.group(1)) + 1}/{match.group(2)}"'
    path.write_text(text[: match.start()] + changed + text[match.end() :])


def test_gate_catches_one_changed_rational(monkeypatch, tmp_path):
    jobs = specgen.build_jobs("tables_ramified", run.DEFAULT_SEED, "tiny")
    specs = specgen.write_specs(jobs, tmp_path)
    golden = run.load_golden("tiny", "tables_ramified", run.DEFAULT_SEED)
    real_run_child = run.run_child

    def tampering_run_child(argv, timeout=run.JOB_TIMEOUT):
        outcome = real_run_child(argv, timeout)
        if "--out" in argv and "sen_r2" in argv[argv.index("--out") + 1]:
            _change_one_rational(Path(argv[argv.index("--out") + 1]))
        return outcome

    monkeypatch.setattr(run, "run_child", tampering_run_child)
    tally, metrics = run.timed_run(jobs, specs, tmp_path, 0.1, golden)
    assert tally.correct < tally.attempted
    assert metrics["ok_ratio"][0] < 1


def test_gate_property_checks(tmp_path):
    jobs = specgen.build_jobs("sweep_conjecture", run.DEFAULT_SEED, "tiny")
    job = jobs[0]
    specs = specgen.write_specs(jobs, tmp_path)
    out = tmp_path / "sweep.out.json"
    code, _, _ = run.run_child(["-c", run.LAUNCH, *run.job_argv(job, specs[job.name], out)])
    data = out.read_bytes()
    n = gate.expected_outcomes(job.command, job.spec)
    assert gate.check(job.command, job.spec, code, data) == n
    assert gate.check(job.command, job.spec, 1, data) == 0
    report = json.loads(data)
    noncommuting = [r for r in report["results"] if not r["ok"]]
    assert noncommuting, "the sweep mix must include non-commuting seeds"
    noncommuting[0]["ok"] = True
    assert gate.check(job.command, job.spec, code, json.dumps(report).encode()) == n - 1


def test_specs_repeat_for_a_seed_and_never_zero_a01():
    for workload in specgen.WORKLOADS:
        assert specgen.build_jobs(workload, 7) == specgen.build_jobs(workload, 7)
        for job in specgen.build_jobs(workload, 7):
            specs = job.spec["instances"] if job.command == "sweep" else [job.spec]
            for spec in specs:
                assert any(Fraction(c) != 0 for row in spec["seeds"][0] for c in row)


@pytest.mark.parametrize("workload", sorted(specgen.WORKLOADS))
def test_traced_counters_repeat_for_a_seed(workload):
    first, second = (result_of(bench(workload, 1, seed=5))["metrics"] for _ in range(2))
    exact = {n: m for n, m in first.items() if m["unit"] in EXACT_UNITS or n == "series.mul_kept_ratio"}
    assert exact
    assert exact == {n: second[n] for n in exact}


def test_fails_without_the_engine_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cocycle_large", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
