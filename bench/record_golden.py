#!/usr/bin/env python3
"""Rewrite bench/golden.json: the SHA-256 of every report on the default seed.

    python3 bench/record_golden.py

Run it only for a change that is meant to alter report bytes.  Each report
must pass the property checks of gate.py before its digest is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import run
import specgen


def record() -> dict:
    table: dict = {}
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=run.WORK))
    try:
        for size in sorted(specgen.SIZES):
            for workload in sorted(specgen.WORKLOADS):
                jobs = specgen.build_jobs(workload, run.DEFAULT_SEED, size)
                specs = specgen.write_specs(jobs, work)
                digests = {}
                for job in jobs:
                    out = work / f"{job.name}.out.json"
                    code, _, _ = run.run_child(["-c", run.LAUNCH, *run.job_argv(job, specs[job.name], out)])
                    data = out.read_bytes()
                    if gate.check(job.command, job.spec, code, data) != gate.expected_outcomes(job.command, job.spec):
                        raise SystemExit(f"{size}/{workload}/{job.name}: report fails the gate")
                    digests[job.name] = gate.sha256(data)
                table.setdefault(size, {})[workload] = digests
                print(size, workload, "ok", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return table


if __name__ == "__main__":
    run.GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
