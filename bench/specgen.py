"""Seeded problem specs for the benchmark workloads.

Every workload is a list of jobs; a job is one `prismstrat` command on one
spec file.  The specs depend only on (workload, seed, size), so the same
seed always gives the same inputs.  Seed entries are nonzero rationals of
height at most HEIGHT, which keeps the cost of a job close to the same for
every seed; A_{0,1} is never the zero matrix, because a zero A_{0,1} makes
the tables sparse and a cocycle about 50x cheaper.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gate

P = 3
E_RAMIFIED_2 = ["-3", "0", "1"]  # x^2 - 3, e = 2
E_RAMIFIED_3 = ["-3", "0", "0", "1"]  # x^3 - 3, e = 3
HEIGHT = 9

# Truncations per size: "full" is what the benchmark measures, "tiny" keeps
# the local tests fast.  T is the t-order, D the divided-power degree.
SIZES = {
    "full": {
        "cocycle": (5, 12),
        "tables": (5, 12),
        "sen": (8, 30),
        "sweep": (4, 6),
        "sweep_instances": 64,
    },
    "tiny": {
        "cocycle": (3, 4),
        "tables": (3, 4),
        "sen": (3, 10),
        "sweep": (4, 3),
        "sweep_instances": 8,
    },
}
TABLE_RANKS = (2, 3)
K_MAX = 3
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Job:
    """One CLI call: `prismstrat <command> --spec <name>.json [extra]`."""

    name: str
    command: str
    spec: dict
    extra: tuple[str, ...] = ()


def nonzero_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, HEIGHT), rng.randint(1, HEIGHT))


def random_matrix(rng: random.Random, rank: int) -> list[list[Fraction]]:
    """All entries nonzero, so for rank >= 2 the matrix is never scalar."""
    return [[nonzero_rational(rng) for _ in range(rank)] for _ in range(rank)]


def commuting_seeds(rng: random.Random, rank: int, count: int) -> list:
    """A_{m,1} = c_m I + d_m M for one random M: a commuting family."""
    if rank == 1:
        return [[[nonzero_rational(rng)]] for _ in range(count)]
    m = random_matrix(rng, rank)
    seeds = []
    for _ in range(count):
        c, d = nonzero_rational(rng), nonzero_rational(rng)
        seeds.append(
            [[d * m[i][j] + (c if i == j else 0) for j in range(rank)] for i in range(rank)]
        )
    return seeds


def general_seeds(rng: random.Random, rank: int, count: int) -> list:
    """Independent random matrices; A_{0,1} and A_{1,1} never commute."""
    while True:
        seeds = [random_matrix(rng, rank) for _ in range(count)]
        if not gate.seeds_commute(seeds[:2]):
            return seeds


def make_spec(e_coeffs, seeds, t: int, x: int, prec: int = 10, options=None) -> dict:
    spec = {
        "p": P,
        "E_coeffs": list(e_coeffs),
        "rank": len(seeds[0]),
        "seeds": [[[str(c) for c in row] for row in mat] for mat in seeds],
        "trunc": {"t": t, "x": x},
        "padic_prec": prec,
    }
    if options:
        spec["options"] = dict(options)
    return spec


def cocycle_large(rng: random.Random, size: dict) -> list[Job]:
    """Rank 1 and rank 2 cocycles at e = 2: the alpha table and ring products."""
    t, x = size["cocycle"]
    return [
        Job("cocycle_r1", "cocycle", make_spec(E_RAMIFIED_2, commuting_seeds(rng, 1, t), t, x)),
        Job("cocycle_r2", "cocycle", make_spec(E_RAMIFIED_2, general_seeds(rng, 2, t), t, x)),
    ]


def tables_ramified(rng: random.Random, size: dict) -> list[Job]:
    """gen, closed-form and h0 at e = 3 and ranks 2 and 3, plus one sen."""
    t, x = size["tables"]
    jobs = []
    for rank in TABLE_RANKS:
        spec = make_spec(E_RAMIFIED_3, commuting_seeds(rng, rank, t), t, x)
        for command in ("gen", "closed-form", "h0"):
            jobs.append(Job(f"{command}_r{rank}", command, spec))
    t_sen, prec = size["sen"]
    spec = make_spec(E_RAMIFIED_3, commuting_seeds(rng, 2, t_sen), t_sen, 4, prec)
    jobs.append(Job("sen_r2", "sen", spec))
    return jobs


def sweep_kind(index: int) -> str:
    """Instance mix: 3/4 rank 1, 1/8 rank 2 commuting, 1/8 non-commuting."""
    if index % 8 == 7:
        return "noncommuting"
    if index % 4 == 3:
        return "rank2"
    return "rank1"


def sweep_conjecture(rng: random.Random, size: dict) -> list[Job]:
    """One parallel sweep of conjecture instances: many small products."""
    t, x = size["sweep"]
    instances = []
    for i in range(size["sweep_instances"]):
        kind = sweep_kind(i)
        if kind == "rank1":
            seeds = commuting_seeds(rng, 1, t)
        elif kind == "rank2":
            seeds = commuting_seeds(rng, 2, t)
        else:
            seeds = general_seeds(rng, 2, t)
        inst = make_spec(E_RAMIFIED_2, seeds, t, x)
        instances.append({"id": f"i{i:03d}", "rank": inst["rank"], "seeds": inst["seeds"]})
    base = make_spec(E_RAMIFIED_2, [[[1]]], t, x, options={"k_max": K_MAX})
    del base["rank"], base["seeds"]
    spec = {"command": "conjecture", "base": base, "instances": instances}
    return [Job("sweep", "sweep", spec, ("--jobs", str(SWEEP_JOBS)))]


WORKLOADS = {
    "cocycle_large": cocycle_large,
    "tables_ramified": tables_ramified,
    "sweep_conjecture": sweep_conjecture,
}


def build_jobs(workload: str, seed: int, size: str = "full") -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, SIZES[size])


def write_specs(jobs: list[Job], directory: Path) -> dict[str, Path]:
    """Write each job's spec once; returns job name -> spec path."""
    paths = {}
    for job in jobs:
        path = directory / f"{job.name}.json"
        path.write_text(json.dumps(job.spec, sort_keys=True, indent=1) + "\n")
        paths[job.name] = path
    return paths
