#!/usr/bin/env python3
"""Compare the CLI reports of two source trees, byte for byte.

    python3 scripts/compare_reports.py --parent HEAD~1
    python3 scripts/compare_reports.py --parent ../old/src --seeded 100 --commands closed-form
    python3 scripts/compare_reports.py --parent HEAD~1 big_r2.json big_r3.json

`--parent` is a git revision, whose `src/` is exported with `git archive`,
or a directory that holds the `prismstrat` package (a copy of `src/`).
The tree under test is this checkout's `src/`.

Every single-spec file (the SPEC arguments, by default the files of
`specs/`) runs `gen`, `cocycle`, `closed-form`, `h0`, `sen` and
`conjecture` (or the `--commands` subset); a spec file with `instances`
runs `sweep` once.  `--seeded N` adds N specs built with the helpers of
`bench/specgen.py` at e = 1, 2, 3, rank 1-3, T 1-8, D 0-6 (1 in 6 long
specs: rank 1-2, T 9-16, D 0-3): commuting seeds, except 1 in 8
non-commuting where rank and T are at least 2 and 1 in 4 weight seeds (see `weight_seeds`), whose `h0` has dim > 0 when a
weight is below T and whose `closed-form` runs on a non-scalar A_{0,1};
1 in 5 specs takes wide seeds instead (see `wide_seeds`): commuting seeds
whose entries are coordinate lists of rationals of height up to 10^6.
No seeded spec sets `options`: `closed-form` builds its h-table to T - 1
and `gen` its table to D, the truncation alone.  Each run is a fresh
interpreter, and both trees keep their bytecode in one cache under the
temporary directory.  Before the timed runs, each tree runs the first job
once untimed, so that neither side's first run is timed cold.  The script
prints how many seeded specs are wide and how many long, every (spec,
command) whose exit code or stdout bytes differ between the trees, the
median wall time of each command in both, the five slowest runs with both
times, how many seeded `h0` reports have dim > 0 and how many runs differ,
then one line `TIME <spec> <command> <parent_s> <tree_s>` per run in run
order (`grep ^TIME` keeps them), and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import specgen  # noqa: E402

COMMANDS = ("gen", "cocycle", "closed-form", "h0", "sen", "conjecture")
E_RATIONAL = ["-3", "1"]  # x - 3, e = 1
RUN_TIMEOUT = 600
WIDE_HEIGHT = 10**6


def export_revision(rev: str, into: Path) -> Path:
    """Extract src/ of a git revision into `into`; returns into / "src"."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True)
    if archive.returncode:
        raise SystemExit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def commuting_json(m: list, pairs: list) -> list:
    """JSON seeds c I + d m, one for each (c, d) in pairs, for a matrix m of
    coordinate lists over 1, pi, ..., pi^(e-1)."""
    seeds = []
    for c, d in pairs:
        seed = [[[d * a for a in entry] for entry in row] for row in m]
        for i in range(len(m)):
            seed[i][i][0] += c
        seeds.append(seed)
    return [[[[str(a) for a in entry] for entry in row] for row in mat] for mat in seeds]


def weight_seeds(rng: random.Random, e_coeffs: list[str], rank: int, t: int) -> list:
    """JSON seeds with Sen weights m_i in [0, T]: A_{0,1} is upper triangular
    with diagonal m_i beta and specgen rationals above it, and A_{m,1} =
    c_m I + d_m A_{0,1}.  beta = E'(pi) = sum_k k c_k pi^(k-1) has degree
    < e, so it needs no reduction mod E."""
    beta = [k * Fraction(c) for k, c in enumerate(e_coeffs)][1:]

    def rational(q) -> list:
        return [Fraction(q)] + [Fraction(0)] * (len(beta) - 1)

    a01 = [[rational(0) for _ in range(rank)] for _ in range(rank)]
    for i in range(rank):
        a01[i][i] = [rng.randint(0, t) * b for b in beta]
        for j in range(i + 1, rank):
            a01[i][j] = rational(specgen.nonzero_rational(rng))
    pairs = [(specgen.nonzero_rational(rng), specgen.nonzero_rational(rng)) for _ in range(1, t)]
    return commuting_json(a01, [(0, 1)] + pairs)


def wide_seeds(rng: random.Random, e: int, rank: int, t: int) -> list:
    """JSON commuting seeds A_{m,1} = c_m I + d_m M: the coordinates of M
    and the rationals c_m, d_m are independent, of height up to WIDE_HEIGHT."""

    def rational() -> Fraction:
        return Fraction(rng.choice((1, -1)) * rng.randint(1, WIDE_HEIGHT), rng.randint(1, WIDE_HEIGHT))

    m = [[[rational() for _ in range(e)] for _ in range(rank)] for _ in range(rank)]
    return commuting_json(m, [(rational(), rational()) for _ in range(t)])


def is_wide(index: int) -> bool:
    return index % 5 == 3


def is_long(index: int) -> bool:
    return index % 6 == 5


def seeded_spec(index: int) -> dict:
    """One small spec from the specgen helpers; depends only on index."""
    rng = random.Random(f"compare:{index}")
    e_coeffs = rng.choice((E_RATIONAL, specgen.E_RAMIFIED_2, specgen.E_RAMIFIED_3))
    if is_long(index):
        rank, t, x = rng.randint(1, 2), rng.randint(9, 16), rng.randint(0, 3)
    else:
        rank, t, x = rng.randint(1, 3), rng.randint(1, 8), rng.randint(0, 6)
    if is_wide(index):  # make_spec writes each entry as one rational, not a coordinate list
        spec = specgen.make_spec(e_coeffs, [[[0] * rank] * rank], t, x)
        return {**spec, "seeds": wide_seeds(rng, len(e_coeffs) - 1, rank, t)}
    if index % 4 == 1:  # make_spec writes each entry as one rational, not a coordinate list
        spec = specgen.make_spec(e_coeffs, [[[0] * rank] * rank], t, x)
        return {**spec, "seeds": weight_seeds(rng, e_coeffs, rank, t)}
    if index % 8 == 7 and rank >= 2 and t >= 2:  # general_seeds never returns for one seed
        seeds = specgen.general_seeds(rng, rank, t)
    else:
        seeds = specgen.commuting_seeds(rng, rank, t)
    return specgen.make_spec(e_coeffs, seeds, t, x)


def run_cli(pythonpath: Path, command: str, spec: Path, pycache: Path) -> tuple[int, bytes, float]:
    """One fresh interpreter.  Both trees keep their bytecode under pycache,
    which starts empty, so neither is timed compiling every run while the
    other reads a stale __pycache__ (as under PYTHONDONTWRITEBYTECODE)."""
    env = dict(os.environ, PYTHONPATH=str(pythonpath), PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, "-m", "prismstrat.cli", command, "--spec", str(spec)]
    started = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=RUN_TIMEOUT)
    return proc.returncode, proc.stdout, time.perf_counter() - started


def jobs(specs: list[Path], commands: tuple[str, ...]) -> list[tuple[Path, str]]:
    out = []
    for spec in specs:
        if "instances" in json.loads(spec.read_text()):
            out.append((spec, "sweep"))
        else:
            out += [(spec, command) for command in commands]
    return out


def compare(parent: Path, tree: Path, runs: list[tuple[Path, str]], pycache: Path) -> int:
    """Run every job on both trees; print differences and median times."""
    times: dict[str, dict[str, list[float]]] = {}
    timed: list[tuple[float, float, str, str]] = []  # (parent_s, tree_s, spec, command)
    differences = seeded_h0 = h0_with_dim = 0
    for warm in (parent, tree) if runs else ():  # untimed: the first run of a tree is cold
        run_cli(warm, runs[0][1], runs[0][0], pycache)
    for spec, command in runs:
        code_a, out_a, time_a = run_cli(parent, command, spec, pycache)
        code_b, out_b, time_b = run_cli(tree, command, spec, pycache)
        if command == "h0" and spec.name.startswith("seeded_"):
            seeded_h0 += 1
            h0_with_dim += code_b == 0 and json.loads(out_b)["solution"]["dim"] > 0
        times.setdefault(command, {"parent": [], "tree": []})
        times[command]["parent"].append(time_a)
        times[command]["tree"].append(time_b)
        timed.append((time_a, time_b, spec.name, command))
        if (code_a, out_a) != (code_b, out_b):
            differences += 1
            print(f"DIFFER {spec.name} {command}: exit {code_a} -> {code_b}, stdout {len(out_a)} -> {len(out_b)} bytes")
    print(f"{'command':<12} {'runs':>5} {'parent_s':>9} {'tree_s':>9}")
    for command, t in times.items():
        print(f"{command:<12} {len(t['tree']):>5} {statistics.median(t['parent']):>9.3f} {statistics.median(t['tree']):>9.3f}")
    print("slowest runs:")
    for time_a, time_b, name, command in sorted(timed, key=lambda r: -max(r[:2]))[:5]:
        print(f"  {name} {command}: parent {time_a:.3f} s, tree {time_b:.3f} s")
    if seeded_h0:
        print(f"{h0_with_dim} of {seeded_h0} seeded h0 reports have dim > 0")
    print(f"{differences} of {len(runs)} runs differ")
    for time_a, time_b, name, command in timed:
        print(f"TIME {name} {command} {time_a:.4f} {time_b:.4f}")
    return 1 if differences else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision or directory of the reference tree")
    parser.add_argument("--seeded", type=int, default=0, help="number of seeded specs to add")
    parser.add_argument("--commands", default=",".join(COMMANDS), help="comma-separated single-spec commands")
    parser.add_argument("specs", nargs="*", type=Path, help="spec files (default: specs/*.json)")
    args = parser.parse_args(argv)
    commands = tuple(args.commands.split(","))
    if unknown := set(commands) - set(COMMANDS):
        parser.error(f"unknown commands {sorted(unknown)}")
    with tempfile.TemporaryDirectory(prefix="compare_reports_") as tmp:
        work = Path(tmp)
        parent = Path(args.parent)
        if not parent.is_dir():
            parent = export_revision(args.parent, work / "parent")
        elif not (parent / "prismstrat" / "cli.py").is_file():
            parser.error(f"no prismstrat package in {parent}")
        specs = args.specs or sorted((ROOT / "specs").glob("*.json"))
        for index in range(args.seeded):
            path = work / f"seeded_{index:03d}.json"
            path.write_text(json.dumps(seeded_spec(index), sort_keys=True))
            specs.append(path)
        if args.seeded:
            print(f"{sum(map(is_wide, range(args.seeded)))} of {args.seeded} seeded specs are wide")
            print(f"{sum(map(is_long, range(args.seeded)))} of {args.seeded} seeded specs are long (T >= 9)")
        return compare(parent, ROOT / "src", jobs(specs, commands), work / "pycache")


if __name__ == "__main__":
    sys.exit(main())
