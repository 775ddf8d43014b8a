#!/usr/bin/env python3
"""The prismstrat benchmark.

    python3 bench/run.py --workload cocycle_large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from
`src/`.  With `--trace 0` a single client runs the workload's job list in a
closed loop, each job one `prismstrat <command> --spec ... --out ...` call in
a fresh interpreter, until the next pass would end after `--seconds`.  Every
report is checked (see gate.py) before it counts.  With `--trace 1` the
same jobs run in-process, once untraced and then traced (see tracer.py),
and the per-layer metrics are printed instead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads (specgen.py):
  cocycle_large     two `cocycle` jobs at T=5, D=12, e=2, ranks 1 and 2: the
                    alpha-power table, face maps and ring products
  tables_ramified   gen, closed-form and h0 at e=3, ranks 2 and 3, plus one
                    sen: field arithmetic and linear algebra, no alpha table
  sweep_conjecture  one `sweep --jobs 2` of 64 conjecture instances: many
                    small products and the process pool

Inputs depend only on --seed.  On the default seed the SHA-256 of each
report must also match bench/golden.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import specgen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0
LAUNCH = "import sys; from prismstrat.cli import main; sys.exit(main())"
SETUP_PROBES = 3
JOB_TIMEOUT = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PRISMSTRAT_JOBS", None)
    return env


def run_child(argv: list[str], timeout: float = JOB_TIMEOUT):
    """Run one fresh interpreter; returns (exit code or None, wall s, CPU s).

    CPU time is the child's user + system time, including the sweep
    workers it waited for.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, time.perf_counter() - t0, 0.0
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if proc.returncode != 0 and err:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return proc.returncode, wall, cpu


def job_argv(job: specgen.Job, spec: Path, out: Path, serial: bool = False) -> list[str]:
    extra = list(job.extra)
    if serial and "--jobs" in extra:
        extra[extra.index("--jobs") + 1] = "1"
    return [job.command, "--spec", str(spec), "--out", str(out), *extra]


def load_golden(size: str, workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return {}
    table = json.loads(GOLDEN.read_text())
    return table[size][workload]


def setup_probe() -> float:
    """Wall time of a fresh interpreter importing prismstrat.cli."""
    code, wall, _ = run_child(["-c", "import prismstrat.cli"])
    if code != 0:
        raise SystemExit("prismstrat.cli does not import")
    return wall


class Tally:
    """Attempted and correct outcomes of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.correct = 0

    def add(self, attempted: int, correct: int):
        self.attempted += attempted
        self.correct += correct


def timed_run(jobs, specs, work: Path, seconds: float, golden: dict) -> tuple[Tally, dict]:
    """Closed loop over the job list; every timing is a median.

    The machine's speed drifts over seconds, so set-up is probed before
    every job rather than in one burst, and the job-list time is the sum of
    the per-job medians.
    """
    tally = Tally()
    setup_probe()  # compiles bytecode once, like a first install
    setups = [setup_probe() for _ in range(SETUP_PROBES)]
    walls = {job.name: [] for job in jobs}
    cpus = {job.name: [] for job in jobs}
    last_report = {}
    start = time.perf_counter()
    # cycle through the jobs while the next one is expected to end in time
    for n, job in enumerate(itertools.cycle(jobs)):
        if n >= len(jobs):
            expected = statistics.median(walls[job.name]) + statistics.median(setups)
            if time.perf_counter() - start + expected > seconds:
                break
        setups.append(setup_probe())
        out = work / f"{job.name}.out.json"
        code, wall, cpu = run_child(["-c", LAUNCH, *job_argv(job, specs[job.name], out)])
        data = out.read_bytes() if out.exists() else b""
        tally.add(
            gate.expected_outcomes(job.command, job.spec),
            gate.check(job.command, job.spec, code, data, golden.get(job.name)),
        )
        walls[job.name].append(wall)
        cpus[job.name].append(cpu)
        last_report[job.name] = data
    timed_correct, timed_attempted = tally.correct, tally.attempted
    per_pass = sum(gate.expected_outcomes(job.command, job.spec) for job in jobs)
    # outside timing: a sweep must not depend on the worker count
    for job in jobs:
        if "--jobs" in job.extra:
            out = work / f"{job.name}.serial.json"
            code, _, _ = run_child(["-c", LAUNCH, *job_argv(job, specs[job.name], out, serial=True)])
            tally.add(1, int(code == 0 and out.read_bytes() == last_report[job.name]))
    wall_s = sum(statistics.median(w) for w in walls.values())
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (sum(statistics.median(c) for c in cpus.values()), "s"),
        "reports_per_s": (timed_correct / timed_attempted * per_pass / wall_s, "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ok_ratio": (tally.correct / tally.attempted, "ratio"),
    }
    return tally, metrics


def run_in_process(cli, jobs, specs, work: Path, tag: str, tracer=None):
    """One serial pass of the job list through cli.main; returns wall, CPU, reports."""
    reports = {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in jobs:
        out = work / f"{job.name}.{tag}.json"
        if tracer is not None:
            tracer.run_id = f"{tag}:{job.name}"
        code = cli.main(job_argv(job, specs[job.name], out, serial=True))
        reports[job.name] = (code, out.read_bytes() if out.exists() else b"")
    return time.perf_counter() - wall0, time.process_time() - cpu0, reports


def traced_run(jobs, specs, work: Path, seconds: float, golden: dict, workload: str, seed: int):
    sys.path.insert(0, str(SRC))
    import prismstrat.cli as cli
    from tracer import Tracer

    tally = Tally()

    def gate_all(reports):
        for job in jobs:
            code, data = reports[job.name]
            tally.add(
                gate.expected_outcomes(job.command, job.spec),
                gate.check(job.command, job.spec, code, data, golden.get(job.name)),
            )

    start = time.perf_counter()
    base_wall, base_cpu, reports = run_in_process(cli, jobs, specs, work, "untraced")
    gate_all(reports)
    sweep_eff = 0.0
    for job in jobs:
        if "--jobs" in job.extra:
            out = work / f"{job.name}.parallel.json"
            code, par_wall, _ = run_child(["-c", LAUNCH, *job_argv(job, specs[job.name], out)])
            sweep_eff = base_cpu / (specgen.SWEEP_JOBS * par_wall)
            tally.add(1, int(code == 0 and out.read_bytes() == reports[job.name][1]))

    passes = []
    while True:
        tracer = Tracer()
        tracer.install()
        try:
            wall, _, reports = run_in_process(cli, jobs, specs, work, f"traced{len(passes)}", tracer)
        finally:
            tracer.uninstall()
        gate_all(reports)
        passes.append((wall, tracer))
        if time.perf_counter() - start + wall > seconds:
            break
    first = passes[0][1]
    counts = first.deterministic_counts()
    tally.add(1, int(all(t.deterministic_counts() == counts for _, t in passes)))
    first.write_spans(WORK / f"spans-{workload}-seed{seed}.jsonl")

    layer = [t.layer_metrics() for _, t in passes]
    metrics = {
        name: (statistics.median(m[name][0] for m in layer), unit)
        for name, (_, unit) in layer[0].items()
    }
    datas = [data for _, data in reports.values()]
    metrics["field.report_max_den_bits"] = (max(gate.max_denominator_bits(d) for d in datas), "bits")
    metrics["sen.lambda1_factors"] = (
        sum(json.loads(reports[j.name][1])["report"]["lambda1"]["n_factors"] for j in jobs if j.command == "sen"),
        "count",
    )
    metrics["cli.report_bytes"] = (sum(len(d) for d in datas), "bytes")
    metrics["cli.sweep_parallel_eff"] = (sweep_eff, "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(w for w, _ in passes) / base_wall, "ratio")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(specgen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(specgen.SIZES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "prismstrat" / "cli.py").is_file():
        print(f"no engine source under {SRC}", file=sys.stderr)
        return 2
    jobs = specgen.build_jobs(args.workload, args.seed, args.size)
    golden = load_golden(args.size, args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        specs = specgen.write_specs(jobs, work)
        if args.trace:
            tally, metrics = traced_run(jobs, specs, work, args.seconds, golden, args.workload, args.seed)
        else:
            tally, metrics = timed_run(jobs, specs, work, args.seconds, golden)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = tally.attempted - tally.correct
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
