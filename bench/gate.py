"""Correctness gate: every CLI outcome is checked before it counts.

A job's outcome is correct when the exit code is 0, the report parses, the
command-specific property holds, and, when a golden digest is given, the
report's SHA-256 matches it.  A sweep has one outcome per instance.  The
expected result of a sweep instance is derived from its spec alone:
commuting seeds must give `low_k_zero`, non-commuting seeds a structured
`NonCommutingSeeds` error.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fractions(mat) -> list[list[Fraction]]:
    return [[Fraction(c) for c in row] for row in mat]


def seeds_commute(seeds) -> bool:
    """Whether A_{0,1} commutes with every A_{j,1} (rational seeds)."""
    a = _fractions(seeds[0])
    n = len(a)
    for raw in seeds[1:]:
        b = _fractions(raw)
        for i in range(n):
            for j in range(n):
                ab = sum(a[i][k] * b[k][j] for k in range(n))
                ba = sum(b[i][k] * a[k][j] for k in range(n))
                if ab != ba:
                    return False
    return True


def _rational_entry(coords, value: Fraction) -> bool:
    """A K-element given as power-basis coordinates equals a rational."""
    return Fraction(coords[0]) == value and all(Fraction(c) == 0 for c in coords[1:])


def _gen_ok(report: dict, spec: dict) -> bool:
    """The table starts from A_{0,0} = I and carries the seeds as A_{m,1}."""
    table = report["table"]["A"]
    rank = spec["rank"]
    ident = table["0,0"]
    for i in range(rank):
        for j in range(rank):
            if not _rational_entry(ident[i][j], Fraction(int(i == j))):
                return False
    for m in range(spec["trunc"]["t"]):
        mat = table[f"{m},1"]
        seed = _fractions(spec["seeds"][m])
        for i in range(rank):
            for j in range(rank):
                if not _rational_entry(mat[i][j], seed[i][j]):
                    return False
    return True


def _single_ok(command: str, report: dict, spec: dict) -> bool:
    if report.get("command") != command:
        return False
    if command == "cocycle":
        return report["report"]["verdict"] == "ZERO_RESIDUAL"
    if command == "conjecture":
        return report["report"]["low_k_zero"] is True
    if command == "sen":
        rep = report["report"]
        return rep["leibniz_ok"] is True and rep["fiber_normalization_ok"] is True
    if command == "closed-form":
        verify = report["verify"]
        return verify["ok"] is True and all(r["zero"] for r in verify["rows"].values())
    if command == "h0":
        sol = report["solution"]
        return sol["dim"] <= sol["q"] and sol["dim"] <= sol["stage1_dim"]
    if command == "gen":
        return _gen_ok(report, spec)
    return False


def _sweep_outcomes(report: dict, spec: dict) -> int:
    """Number of sweep instances whose outcome is the expected one."""
    base = spec["base"]
    instances = {inst["id"]: {**base, **inst} for inst in spec["instances"]}
    if report.get("n_instances") != len(instances):
        return 0
    correct = 0
    for res in report["results"]:
        inst = instances.pop(res["id"], None)
        if inst is None:
            continue
        if seeds_commute(inst["seeds"]):
            good = res["ok"] is True and _single_ok(spec["command"], res["report"], inst)
        else:
            good = res["ok"] is False and res["error"]["type"] == "NonCommutingSeeds"
        correct += good
    return correct


def expected_outcomes(command: str, spec: dict) -> int:
    return len(spec["instances"]) if command == "sweep" else 1


def check(command: str, spec: dict, exit_code, data: bytes, golden: str | None = None) -> int:
    """Number of correct outcomes in one job's report (0 when it fails)."""
    if exit_code != 0:
        return 0
    if golden is not None and sha256(data) != golden:
        return 0
    try:
        report = json.loads(data)
        if command == "sweep":
            return _sweep_outcomes(report, spec)
        return int(_single_ok(command, report, spec))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        return 0


def max_denominator_bits(data: bytes) -> int:
    """Largest denominator, in bits, among the `num/den` rationals of a report."""
    best = 0

    def walk(node):
        nonlocal best
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        elif isinstance(node, str) and "/" in node:
            try:
                best = max(best, Fraction(node).denominator.bit_length())
            except ValueError:
                pass

    walk(json.loads(data))
    return best
