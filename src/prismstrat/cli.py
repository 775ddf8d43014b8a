"""Batch front end: JSON problem specs in, JSON reports out.

Commands: gen, cocycle, closed-form, h0, sen, conjecture, sweep, validate.
Exit codes: 0 success, 2 validation failure (a bad command line too), 3
computation error; failures emit a structured {"error": {...}} object.
Reports are byte-deterministic (sorted keys, canonical rationals).  A sweep
runs its first instance in this process, then forks workers - 1 children,
which inherit the warm process and its contexts; every worker runs a strided
share, and results come back in instance order, independent of --jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from typing import NamedTuple, TextIO

from .cosimplicial import CosimpCtx, theta_report
from .errors import (
    ComputationError,
    EngineError,
    NonCommutingSeeds,
    SeedShapeMismatch,
    ValidationError,
)
from .field import FieldDesc, KElem, field_init
from .matrix import KMat
from .series import Trunc
from .stratification import (
    Seeds,
    assemble_epsilon,
    check_near_HT,
    cocycle_residual,
    generate_Amn,
    residual_report,
    valuation_profile,
)

COMMANDS = ("gen", "cocycle", "closed-form", "h0", "sen", "conjecture", "sweep", "validate")
# Largest accepted sizes, so that every spec runs in bounded work: the
# t-order T, the pd degree D, the rank l, T * D * l, the degree e of E, the
# p-adic precision, the digits of the reduced numerator and denominator of
# each input rational and each integer option, and the length plus decimal
# exponent of each number string (they bound the digits Fraction builds).
# Below the floor of an option, its command would check nothing or fail.
MAX_T, MAX_D, MAX_RANK, MAX_TDL, MAX_E, MAX_PREC, MAX_DIGITS = 16, 64, 8, 512, 8, 1024, 20
MAX_TEXT = 4 * MAX_DIGITS
INT_OPTIONS = {  # name: (floor, limit)
    "n_max": (0, MAX_D), "m_max": (0, MAX_T), "k_max": (0, MAX_T),
    "n_probe": (0, 256), "threshold": (0, 1024), "n_phi_max": (1, 1024),
}


class ProblemSpec(NamedTuple):
    field: FieldDesc
    seeds: Seeds
    trunc: Trunc
    prec: int
    options: dict
    raw: dict


def _parse_matrix(field: FieldDesc, data, rank: int) -> KMat:
    for entry in (a for row in data for a in row):
        for value in entry if isinstance(entry, list) else [entry]:
            _written_size("seeds", value)
    rows = [[KElem.from_json(field, a) for a in row] for row in data]
    _at_most("the digits of seeds", _digits(q for row in rows for a in row for q in a.coords), MAX_DIGITS)
    mat = KMat.from_rows(field, rows)
    if mat.nrows != rank or mat.ncols != rank:
        raise SeedShapeMismatch(f"seed matrix is {mat.nrows}x{mat.ncols}, expected {rank}x{rank}")
    return mat


@contextmanager
def _parsing(name: str):
    """Report a missing or malformed value of the spec field `name` as a
    ValidationError (exit 2) instead of a raw Python exception."""
    try:
        yield
    except (LookupError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad {name}: {type(exc).__name__}: {exc}") from exc


def _at_most(name: str, value: int, limit: int) -> int:
    if value > limit:
        raise ValidationError(f"{name} = {value} is above the limit {limit}")
    return value


def _written_size(name: str, value) -> str:
    """str(value), refused before Fraction reads it if its length plus its
    decimal exponent is above MAX_TEXT: "1e9000000" took seconds to parse."""
    text = str(value)
    match = re.search(r"[eE]([-+]?[\d_]+)\s*$", text)
    _at_most(f"the written size of {name}", len(text) + (abs(int(match[1])) if match else 0), MAX_TEXT)
    return text


def _digits(values) -> int:
    """The most digits in a reduced numerator or denominator of the rationals."""
    return max((len(str(n)) for q in values for n in (abs(q.numerator), q.denominator)), default=1)


def load_problem(raw: dict, overrides: dict | None = None) -> ProblemSpec:
    """Validate a raw spec dict against the module preconditions."""
    data, overrides = dict(raw), overrides or {}
    for key, name in (("trunc_t", "t"), ("trunc_x", "x")):
        if overrides.get(key) is not None:
            with _parsing("trunc"):
                data["trunc"] = {**data.get("trunc", {}), name: overrides[key]}
    if overrides.get("prec") is not None:
        data["padic_prec"] = overrides["prec"]
    for key in ("p", "E_coeffs", "rank", "seeds", "trunc"):
        if key not in data:
            raise ValidationError(f"spec is missing the {key!r} field")
    with _parsing("E_coeffs"):
        e_coeffs = [Fraction(_written_size("E_coeffs", c)) for c in data["E_coeffs"]]
        _at_most("the degree of E_coeffs", len(e_coeffs) - 1, MAX_E)
        _at_most("the digits of E_coeffs", _digits(e_coeffs), MAX_DIGITS)
    with _parsing("p"):
        field = field_init(data["p"], e_coeffs)
    with _parsing("rank"):
        rank = int(data["rank"])
    if rank < 1:
        raise ValidationError("rank must be >= 1")
    _at_most("rank", rank, MAX_RANK)
    with _parsing("trunc.t"):
        t_order = _at_most("trunc.t", int(data["trunc"]["t"]), MAX_T)
    with _parsing("trunc.x"):
        pd_degree = _at_most("trunc.x", int(data["trunc"]["x"]), MAX_D)
    trunc = Trunc(t_order, pd_degree)
    _at_most("trunc.t * trunc.x * rank", t_order * pd_degree * rank, MAX_TDL)
    with _parsing("seeds"):
        seeds = Seeds.of([_parse_matrix(field, m, rank) for m in data["seeds"]])
    with _parsing("padic_prec"):
        prec = int(data.get("padic_prec", 10))
    if prec < 1:
        raise ValidationError("padic_prec must be >= 1")
    _at_most("padic_prec", prec, MAX_PREC)
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError("options must be a JSON object")
    options = dict(options)
    for name, (floor, limit) in INT_OPTIONS.items():
        if name in options:
            with _parsing(f"options.{name}"):
                value = int(options[name])
            if value < floor:
                raise ValidationError(f"options.{name} = {value} is below the floor {floor}")
            options[name] = _at_most(f"options.{name}", value, limit)
    return ProblemSpec(field, seeds, trunc, prec, options, data)


def validate_spec(raw: dict, overrides: dict | None = None) -> dict:
    """List all violated preconditions without computing anything."""
    try:
        spec = load_problem(raw, overrides)
    except EngineError as exc:
        return {"ok": False, "diagnostics": [_diagnostic("parse", exc)]}
    t_order, n_seeds = spec.trunc.t_order, len(spec.seeds.A1)
    cover = None if n_seeds >= t_order else SeedShapeMismatch(f"need {t_order} seed matrices, got {n_seeds}")
    commuting = None if spec.seeds.commutative() else NonCommutingSeeds("A_{0,1} does not commute with all seeds")
    checks = {"parse": None, "seeds_cover_t_order": cover, "commuting_seeds": commuting}
    return {"ok": cover is None, "diagnostics": [_diagnostic(name, exc) for name, exc in checks.items()]}


def _diagnostic(check: str, exc: EngineError | None) -> dict:
    if exc is None:
        return {"check": check, "ok": True}
    return {"check": check, "ok": False, "error": type(exc).__name__, "message": str(exc)}


def _dispatch(command: str, spec: ProblemSpec, ctx: CosimpCtx) -> dict:
    opts = spec.options
    if command == "gen":
        n_max = opts.get("n_max", spec.trunc.pd_degree)
        table = generate_Amn(spec.seeds, ctx, n_max)
        return {
            "command": "gen",
            "table": table.to_json(),
            "theta": theta_report(ctx),
            "valuation_profile": valuation_profile(table),
            "near_HT": check_near_HT(spec.seeds.a01, opts.get("n_probe", 64), opts.get("threshold", 40)),
        }
    if command == "cocycle":
        table = generate_Amn(spec.seeds, ctx, spec.trunc.pd_degree)
        residual = cocycle_residual(assemble_epsilon(table, ctx), ctx)
        return {"command": "cocycle", "report": residual_report(residual)}
    if command == "closed-form":
        from .closedform import h_table, verify_commutative
        m_max = opts.get("m_max", spec.trunc.t_order - 1)
        ht = h_table(spec.seeds, ctx, m_max)
        report = verify_commutative(ht, ctx, spec.trunc.pd_degree)
        return {"command": "closed-form", "verify": report, "h_tilde": ht.to_json()}
    if command == "h0":
        from .cohomology import h0_solve
        table = generate_Amn(spec.seeds, ctx, spec.trunc.pd_degree)
        sol = h0_solve(table, ctx)
        return {"command": "h0", "solution": sol.to_json()}
    if command == "sen":
        from .sen import sen_operator_matrix
        rep = sen_operator_matrix(spec.seeds, ctx, spec.prec, opts.get("n_phi_max", 24))
        return {"command": "sen", "report": rep.to_json()}
    if command == "conjecture":
        from .closedform import conjecture_residual
        k_max = opts.get("k_max", 2)
        rep = conjecture_residual(spec.seeds, ctx, k_max)
        flagged = [k for k, r in rep["residuals"].items() if not r["zero"]]
        return {
            "command": "conjecture",
            "report": rep,
            "potential_counterexample": bool(flagged),
            "flagged_k": flagged,
        }
    raise ValidationError(f"unknown command {command!r}")


# The one context of each (field, trunc) in a sweep process, cleared when
# run_sweep returns.  Sharing is safe: a context caches only exact values.
_sweep_ctx = cache(CosimpCtx)


def _run_worker(payload):
    """Sweep worker: parse and run one instance."""
    idx, command, raw = payload
    instance_id = raw.get("id", idx)
    try:
        spec = load_problem(raw)
        report = _dispatch(command, spec, _sweep_ctx(spec.field, spec.trunc))
        return {"id": instance_id, "ok": True, "report": report}
    except EngineError as exc:
        return {"id": instance_id, "ok": False, "error": {"type": type(exc).__name__, "message": str(exc)}}


def _fork(share: list) -> tuple[int, TextIO]:
    """Run share in a forked child; its pid, and a pipe that carries its results
    as one JSON list (exit 0) or the non-engine error that stopped it (exit 1)."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, os.fdopen(read)
    code = 1
    try:  # the child leaves only by os._exit
        try:
            text, code = json.dumps([_run_worker(p) for p in share]), 0
        except Exception as exc:
            text = f"{type(exc).__name__}: {exc}"
        with os.fdopen(write, "w") as pipe:
            pipe.write(text)
    finally:
        os._exit(code)


def run_sweep(raw: dict, jobs: int) -> dict:
    if jobs < 1:
        raise ValidationError(f"--jobs = {jobs} is below the floor 1")
    command = raw.get("command")
    if command not in COMMANDS or command in ("sweep", "validate"):
        raise ValidationError(f"sweep needs a concrete engine command, got {command!r}")
    base = raw.get("base", {})
    instances = raw.get("instances")
    if not isinstance(instances, list) or not instances:
        raise ValidationError("sweep needs a nonempty 'instances' list")
    if not isinstance(base, dict) or not all(isinstance(inst, dict) for inst in instances):
        raise ValidationError("sweep 'base' and every instance must be JSON objects")
    payloads = [(idx, command, {**base, **inst}) for idx, inst in enumerate(instances)]
    workers = min(jobs, os.cpu_count() or 1, len(payloads)) if hasattr(os, "fork") else 1
    # after the warm-up instance, share k is payloads[1 + k :: workers]; share 0 runs here
    results, children = [None] * len(payloads), {}
    try:
        results[0] = _run_worker(payloads[0])
        for k in range(1, workers):
            pid, pipe = _fork(payloads[1 + k :: workers])
            children[pid] = (k, pipe)
        results[1::workers] = [_run_worker(p) for p in payloads[1::workers]]
        for pid, (k, pipe) in list(children.items()):
            with pipe:
                text, code = pipe.read(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code:
                raise ComputationError(f"sweep worker {k} failed: {text or f'exit status {code}'}")
            results[1 + k :: workers] = json.loads(text)
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        _sweep_ctx.cache_clear()
    flagged = []
    for res in results:
        if not res["ok"]:
            flagged.append({"id": res["id"], "reason": "error"})
            continue
        rep = res["report"]
        if rep.get("potential_counterexample"):
            flagged.append({"id": res["id"], "reason": "nonzero conjecture residual"})
        if rep.get("report", {}).get("verdict") == "NONZERO_RESIDUAL":
            flagged.append({"id": res["id"], "reason": "nonzero cocycle residual"})
    return {
        "command": "sweep",
        "engine_command": command,
        "n_instances": len(results),
        "flagged": flagged,
        "results": sorted(results, key=lambda r: str(r["id"])),
    }


def run(command: str, spec_path: str, out_path: str | None = None, jobs: int = 1, **overrides) -> int:
    """File-level entry point; returns the process exit code.  jobs is read
    by sweep, the overrides trunc_t, trunc_x and prec by the other commands."""
    try:
        with open(spec_path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON, or an integer above the digit limit
        _emit({"error": {"type": "BadSpecFile", "message": str(exc)}}, out_path)
        return 2
    try:
        if not isinstance(raw, dict):
            raise ValidationError(f"spec must be a JSON object, got {type(raw).__name__}")
        if command == "validate":
            report = validate_spec(raw, overrides)
        elif command == "sweep":
            report = run_sweep(raw, jobs)
        else:
            spec = load_problem(raw, overrides)
            report = _dispatch(command, spec, CosimpCtx(spec.field, spec.trunc))
    except ValidationError as exc:
        return _fail(exc, out_path, 2)
    except ComputationError as exc:
        return _fail(exc, out_path, 3)
    _emit(report, out_path)
    return 0


def _fail(exc: EngineError, out_path: str | None, code: int) -> int:
    _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, out_path)
    return code


def _emit(report: dict, out_path: str | None):
    text = json.dumps(report, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _argument_error(message: str):
    raise ValidationError(message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="prismstrat",
        description="exact stratification calculus for de Rham crystals over O_K",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--spec", required=True, help="problem spec JSON")
        sp.add_argument("--out", default=None, help="report path (default stdout)")
        if name == "sweep":
            sp.add_argument("--jobs", type=int, default=1, help="sweep parallelism")
        else:
            sp.add_argument("--trunc-t", type=int, default=None, help="override t-order")
            sp.add_argument("--trunc-x", type=int, default=None, help="override pd degree")
            sp.add_argument("--prec", type=int, default=None, help="override p-adic precision")
    for p in (parser, *sub.choices.values()):  # a bad command line raises, not prints usage
        p.error = _argument_error
    try:
        args = vars(parser.parse_args(argv))
    except ValidationError as exc:
        return _fail(exc, None, 2)
    return run(args.pop("command"), args.pop("spec"), args.pop("out"), **args)


if __name__ == "__main__":
    sys.exit(main())
