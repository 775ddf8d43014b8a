"""CLI: dispatch, validation, exit codes, determinism, sweeps."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prismstrat import cli
from prismstrat.cli import main, run
from prismstrat.cosimplicial import CosimpCtx

BASE_SPEC = {
    "p": 3,
    "E_coeffs": ["-3", "0", "1"],
    "rank": 1,
    "seeds": [[["0"]], [["0"]], [["0"]]],
    "trunc": {"t": 3, "x": 4},
    "padic_prec": 8,
}


SPECS = Path(__file__).resolve().parents[1] / "specs"
SINGLE_SPEC_COMMANDS = ("gen", "cocycle", "closed-form", "h0", "sen", "conjecture", "validate")


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_cocycle_zero_seeds(tmp_path):
    spec = write_spec(tmp_path, BASE_SPEC)
    out = str(tmp_path / "out.json")
    assert run("cocycle", spec, out) == 0
    report = json.loads(open(out).read())
    assert report["report"]["verdict"] == "ZERO_RESIDUAL"


def test_conjecture_low_k(tmp_path):
    data = dict(BASE_SPEC)
    data["seeds"] = [[["1/2"]], [["2/3"]], [["-5/4"]]]
    data["options"] = {"k_max": 2}
    spec = write_spec(tmp_path, data)
    out = str(tmp_path / "out.json")
    assert run("conjecture", spec, out) == 0
    report = json.loads(open(out).read())
    assert report["potential_counterexample"] is False
    for k in range(3):
        assert report["report"]["residuals"][str(k)]["zero"]


def test_h0_identity_crystal(tmp_path):
    spec = write_spec(tmp_path, BASE_SPEC)
    out = str(tmp_path / "out.json")
    assert run("h0", spec, out) == 0
    report = json.loads(open(out).read())
    assert report["solution"]["dim"] == 1


def test_validate_reports_not_eisenstein(tmp_path):
    data = dict(BASE_SPEC)
    data["E_coeffs"] = ["-1", "0", "1"]
    spec = write_spec(tmp_path, data)
    out = str(tmp_path / "out.json")
    assert run("validate", spec, out) == 0
    report = json.loads(open(out).read())
    parse = [d for d in report["diagnostics"] if d["check"] == "parse"][0]
    assert parse["ok"] is False
    assert parse["error"] == "NotEisenstein"


def test_validate_reports_noncommuting(tmp_path):
    data = dict(BASE_SPEC)
    data["rank"] = 2
    data["seeds"] = [
        [["1", "1"], ["0", "1"]],
        [["0", "1"], ["1", "0"]],
        [["0", "0"], ["0", "0"]],
    ]
    spec = write_spec(tmp_path, data)
    out = str(tmp_path / "out.json")
    assert run("validate", spec, out) == 0
    report = json.loads(open(out).read())
    comm = [d for d in report["diagnostics"] if d["check"] == "commuting_seeds"][0]
    assert comm["ok"] is False
    assert comm["error"] == "NonCommutingSeeds"


def test_bad_seed_shape_exits_2(tmp_path):
    data = dict(BASE_SPEC)
    data["seeds"] = [[["0", "1"]], [["0"]], [["0"]]]
    spec = write_spec(tmp_path, data)
    out = str(tmp_path / "out.json")
    assert run("gen", spec, out) == 2
    report = json.loads(open(out).read())
    assert report["error"]["type"] == "SeedShapeMismatch"


@pytest.mark.parametrize(
    "field, value",
    [
        ("rank", "a"),
        ("trunc", {"t": "z", "x": 4}),
        ("padic_prec", "q"),
        ("seeds", [[["1/0"]], [["0"]], [["0"]]]),
        ("p", "3"),
        ("E_coeffs", ["-3", "x", "1"]),
        ("options", {"n_max": "z"}),
        ("options", [1]),
        ("options", {"n_probe": cli.INT_OPTIONS["n_probe"][1] + 1}),
        ("trunc", {"t": cli.MAX_T + 1, "x": 4}),
        ("trunc", {"t": 3, "x": cli.MAX_D + 1}),
        ("trunc", {"t": cli.MAX_T, "x": cli.MAX_D}),
        ("rank", cli.MAX_RANK + 1),
        ("E_coeffs", ["-3"] + ["0"] * cli.MAX_E + ["1"]),
        ("padic_prec", cli.MAX_PREC + 1),
        ("E_coeffs", ["-3" + "0" * cli.MAX_DIGITS, "0", "1"]),
        ("seeds", [[["1/" + "7" * (cli.MAX_DIGITS + 1)]], [["0"]], [["0"]]]),
        ("seeds", [[["1e9000000"]], [["0"]], [["0"]]]),
        ("seeds", [[[["1", "-1e-9000000"]]], [["0"]], [["0"]]]),
        ("E_coeffs", ["-3", "1e9000000", "1"]),
        ("E_coeffs", ["-3", "0." + "1" * 3_000_000, "1"]),
        *(("options", {name: floor - 1}) for name, (floor, _) in cli.INT_OPTIONS.items()),
    ],
    ids=[
        "rank", "trunc_t", "padic_prec", "seed_1_over_0", "p_string", "E_coeff",
        "options_n_max", "options_list", "n_probe_limit", "trunc_t_limit", "trunc_x_limit",
        "t_x_rank_limit", "rank_limit", "E_degree_limit", "padic_prec_limit",
        "E_coeff_digits_limit", "seed_digits_limit", "seed_exponent", "seed_coord_exponent",
        "E_coeff_exponent", "E_coeff_long_decimal",
        *(f"{name}_floor" for name in cli.INT_OPTIONS),
    ],
)
def test_malformed_number_exits_2(tmp_path, field, value):
    # each run is bounded: "1e9000000" or a 3-million-digit decimal used to
    # take seconds in Fraction before the digit limit could refuse it
    data = dict(BASE_SPEC)
    data[field] = value
    spec = write_spec(tmp_path, data)
    out = str(tmp_path / "out.json")
    started = time.monotonic()
    assert run("gen", spec, out) == 2
    assert time.monotonic() - started < 1
    error = json.loads(open(out).read())["error"]
    assert error["type"] == "ValidationError"
    assert field in error["message"]
    started = time.monotonic()
    assert run("validate", spec, out) == 0
    assert time.monotonic() - started < 1
    parse = json.loads(open(out).read())["diagnostics"][0]
    assert parse == {"check": "parse", "ok": False, "error": "ValidationError", "message": error["message"]}


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("gen", "options", {"n_probe": 100_000_000}),
        ("gen", "trunc", {"t": 3, "x": 100_000}),
        ("gen", "E_coeffs", ["-3"] + ["0"] * 199 + ["1"]),
        ("sen", "padic_prec", 10**6),
    ],
    ids=["n_probe", "trunc_x", "E_degree", "padic_prec"],
)
def test_huge_size_exits_2_quickly(tmp_path, command, field, value):
    # all ran unbounded without the limits: a probe product of 10^8 factors,
    # a table and alpha powers 10^5 pd degrees deep, field arithmetic with
    # E = u^200 - 3, and a lambda1 product to precision p^(10^6)
    data = {**BASE_SPEC, "seeds": [[["1/2"]], [["2/3"]], [["0"]]], field: value}
    spec = write_spec(tmp_path, data)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "prismstrat.cli", command, "--spec", spec],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "limit" in json.loads(proc.stdout)["error"]["message"]


def test_prec_option_above_limit_exits_2(tmp_path):
    out = str(tmp_path / "out.json")
    assert main(["sen", "--spec", str(SPECS / "sen_ramified.json"), "--out", out, "--prec", "1000000"]) == 2
    assert "padic_prec" in json.loads(open(out).read())["error"]["message"]


@pytest.mark.parametrize("command", ["gen", "h0", "sen"])
def test_oversized_input_number_exits_2(tmp_path, command):
    # E_0 = -3 (10^4000 + 1) has 4001 digits: it used to pass validation and
    # fail as a report rational too long to print (NumberTooLarge, exit 3)
    data = json.loads((SPECS / "sen_ramified.json").read_text())
    data["E_coeffs"][0] = str(-3 * (10**4000 + 1))
    spec = write_spec(tmp_path, data)
    out = str(tmp_path / "out.json")
    assert run(command, spec, out) == 2
    error = json.loads(open(out).read())["error"]
    assert error["type"] == "ValidationError" and "E_coeffs" in error["message"]


def test_inputs_at_the_digit_limit_run(tmp_path):
    big = "9" * cli.MAX_DIGITS
    data = {**BASE_SPEC, "E_coeffs": ["-3", "1"], "seeds": [[[f"-{big}/{big[:-1]}8"]], [["0"]], [["0"]]]}
    out = str(tmp_path / "out.json")
    assert run("cocycle", write_spec(tmp_path, data), out) == 0
    assert json.loads(open(out).read())["report"]["verdict"] == "ZERO_RESIDUAL"


def test_oversized_json_integer_exits_2(tmp_path):
    # json refuses an integer literal above Python's string conversion limit
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(BASE_SPEC).replace('"padic_prec": 8', '"padic_prec": 1' + "0" * 5000))
    out = str(tmp_path / "out.json")
    assert run("sen", str(spec), out) == 2
    assert json.loads(open(out).read())["error"]["type"] == "BadSpecFile"


def test_sen_with_huge_rational_weight_finishes(tmp_path):
    # trial division over the divisors of the charpoly's coefficients ran
    # for minutes on this 60-bit weight
    weight = "1000000000000000003/1000000000000000009"
    data = {**BASE_SPEC, "E_coeffs": ["-3", "1"], "seeds": [[[weight]], [["0"]], [["0"]]]}
    spec = write_spec(tmp_path, data)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "prismstrat.cli", "sen", "--spec", spec],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["weights_rational"] == ["-" + weight]


def test_sweep_survives_bad_instance(tmp_path):
    sweep = {
        "command": "cocycle",
        "base": dict(BASE_SPEC),
        "instances": [
            {"id": "bad", "seeds": [[["1/0"]], [["0"]], [["0"]]]},
            {"id": "good"},
        ],
    }
    spec = write_spec(tmp_path, sweep)
    out = str(tmp_path / "out.json")
    assert run("sweep", spec, out, jobs=1) == 0
    report = json.loads(open(out).read())
    assert report["flagged"] == [{"id": "bad", "reason": "error"}]
    bad, good = report["results"]
    assert bad["error"]["type"] == "ValidationError"
    assert good["ok"] and good["report"]["report"]["verdict"] == "ZERO_RESIDUAL"


def test_product_not_settled_exits_3(tmp_path):
    data = dict(BASE_SPEC)
    data["padic_prec"] = 500
    data["options"] = {"n_phi_max": 2}
    spec = write_spec(tmp_path, data)
    out = str(tmp_path / "out.json")
    assert run("sen", spec, out) == 3
    report = json.loads(open(out).read())
    assert report["error"]["type"] == "ProductNotSettled"


def test_reports_are_deterministic(tmp_path):
    data = dict(BASE_SPEC)
    data["seeds"] = [[["1/2"]], [["2/3"]], [["-5/4"]]]
    spec = write_spec(tmp_path, data)
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert run("closed-form", spec, out1) == 0
    assert run("closed-form", spec, out2) == 0
    assert open(out1).read() == open(out2).read()


def test_cli_trunc_override(tmp_path):
    spec = write_spec(tmp_path, BASE_SPEC)
    out = str(tmp_path / "out.json")
    assert main(["gen", "--spec", spec, "--out", out, "--trunc-t", "2"]) == 0
    report = json.loads(open(out).read())
    assert report["table"]["t_order"] == 2


@pytest.mark.parametrize(
    "flag, value, field",
    [("--trunc-t", "99", "trunc.t"), ("--trunc-x", "99", "trunc.x"), ("--prec", "0", "padic_prec")],
)
def test_validate_applies_overrides(tmp_path, flag, value, field):
    # gen refuses the override; validate must report the same failure
    spec = write_spec(tmp_path, BASE_SPEC)
    out = str(tmp_path / "out.json")
    assert main(["gen", "--spec", spec, "--out", out, flag, value]) == 2
    error = json.loads(open(out).read())["error"]
    assert field in error["message"]
    assert main(["validate", "--spec", spec, "--out", out, flag, value]) == 0
    report = json.loads(open(out).read())
    assert not report["ok"]
    assert report["diagnostics"][0] == {"check": "parse", "ok": False, "error": "ValidationError", "message": error["message"]}


@pytest.mark.parametrize(
    "command, argv",
    [("sweep", ["--trunc-t", "9"]), ("sweep", ["--trunc-x", "9"]), ("sweep", ["--prec", "0"])]
    + [(command, ["--jobs", "2"]) for command in SINGLE_SPEC_COMMANDS],
)
def test_flags_exist_only_on_the_commands_that_read_them(tmp_path, capsys, command, argv):
    spec = write_spec(tmp_path, BASE_SPEC)
    assert main([command, "--spec", spec, *argv]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ValidationError"
    assert "unrecognized arguments" in error["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--spec", "s.json", "--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
        (["sweep", "--spec", "s.json", "--bogus"], "unrecognized arguments: --bogus"),
        (["gen"], "the following arguments are required: --spec"),
    ],
    ids=["bad_jobs", "unknown_flag", "missing_spec"],
)
def test_argument_errors_print_error_object(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": {"type": "ValidationError", "message": message}}
    assert captured.err == ""


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_floor_exits_2(tmp_path, jobs):
    spec = write_spec(tmp_path, {"command": "cocycle", "base": BASE_SPEC, "instances": [{"id": "a"}]})
    out = str(tmp_path / "out.json")
    assert main(["sweep", "--spec", spec, "--out", out, "--jobs", jobs]) == 2
    assert json.loads(Path(out).read_text())["error"] == {
        "type": "ValidationError", "message": f"--jobs = {jobs} is below the floor 1"
    }


def test_sweep_parallel_matches_serial(tmp_path):
    sweep = {
        "command": "cocycle",
        "base": dict(BASE_SPEC),
        "instances": [
            {"id": "zero"},
            {"id": "generic", "seeds": [[["-1"]], [["5/7"]], [["0"]]],
             "E_coeffs": ["-3", "1"]},
            {"id": "other", "seeds": [[["1/2"]], [["1"]], [["2"]]]},
        ],
    }
    spec = write_spec(tmp_path, sweep)
    out1 = str(tmp_path / "serial.json")
    out2 = str(tmp_path / "par.json")
    assert run("sweep", spec, out1, jobs=1) == 0
    assert run("sweep", spec, out2, jobs=2) == 0
    assert open(out1).read() == open(out2).read()
    report = json.loads(open(out1).read())
    assert report["n_instances"] == 3
    assert report["flagged"] == []


# Rank-2 seed sets that share A_{0,1} and commute with it; the instances mix
# two fields and two truncations, so a sweep builds four contexts.
_A01 = [["1/2", "1"], ["0", "2/3"]]
_SEEDS_1 = [_A01, [["1", "3"], ["0", "3/2"]], [["-2", "0"], ["0", "-2"]], [["1/3", "1/3"], ["0", "7/18"]]]
_SEEDS_2 = [_A01, [["0", "1"], ["0", "1/6"]], [["1", "-2"], ["0", "2/3"]], [["0", "0"], ["0", "0"]]]
SHARING_SWEEP_INSTANCES = [
    {"id": "a", "seeds": _SEEDS_1},
    {"id": "b", "seeds": _SEEDS_2},
    {"id": "c", "seeds": _SEEDS_1, "E_coeffs": ["-3", "1"]},
    {"id": "d", "seeds": _SEEDS_2, "trunc": {"t": 4, "x": 3}},
    {"id": "e", "seeds": _SEEDS_1, "E_coeffs": ["-3", "1"], "trunc": {"t": 4, "x": 3}},
    {"id": "f", "seeds": _SEEDS_1},
]


def _sharing_sweep(command):
    base = {**BASE_SPEC, "rank": 2, "options": {"k_max": 2}}
    return {"command": command, "base": base, "instances": SHARING_SWEEP_INSTANCES}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", ["conjecture", "cocycle"])
def test_sweep_reports_match_fresh_contexts(tmp_path, command, jobs):
    """Every instance of a sweep reports what it reports on a context of its
    own, although the sweep gives instances of one (field, trunc) one context."""
    sweep = _sharing_sweep(command)
    out = str(tmp_path / "out.json")
    assert run("sweep", write_spec(tmp_path, sweep), out, jobs=jobs) == 0
    results = json.loads(open(out).read())["results"]
    assert [r["id"] for r in results] == [inst["id"] for inst in sweep["instances"]]
    for res, inst in zip(results, sweep["instances"]):
        spec = cli.load_problem({**sweep["base"], **inst})
        fresh = cli._dispatch(command, spec, CosimpCtx(spec.field, spec.trunc))
        assert res["ok"] and res["report"] == json.loads(json.dumps(fresh)), inst["id"]


def test_serial_sweep_builds_one_context_per_field_and_trunc(tmp_path, monkeypatch):
    built = []
    init = CosimpCtx.__init__

    def counting_init(self, field, trunc):
        built.append((field.E_coeffs, trunc))
        init(self, field, trunc)

    monkeypatch.setattr(CosimpCtx, "__init__", counting_init)
    spec = write_spec(tmp_path, _sharing_sweep("conjecture"))
    assert run("sweep", spec, str(tmp_path / "out.json"), jobs=1) == 0
    assert len(built) == len(set(built)) == 4
    assert run("sweep", spec, str(tmp_path / "out.json"), jobs=1) == 0
    assert built[4:] == built[:4]


def test_sweep_without_instances_exits_2(tmp_path):
    spec = write_spec(tmp_path, {"command": "cocycle", "base": BASE_SPEC})
    assert run("sweep", spec, str(tmp_path / "o.json")) == 2


@pytest.mark.parametrize(
    "command, data",
    [
        ("gen", [1, 2]),
        ("validate", [1, 2]),
        ("sweep", [1, 2]),
        ("sweep", {"command": "cocycle", "base": BASE_SPEC, "instances": [1]}),
        ("sweep", {"command": "cocycle", "base": [1], "instances": [{"id": "a"}]}),
        ("gen", {**BASE_SPEC, "trunc": "x"}),
    ],
    ids=["gen_list", "validate_list", "sweep_list", "sweep_instance", "sweep_base", "trunc"],
)
def test_non_object_spec_exits_2(tmp_path, command, data):
    spec = write_spec(tmp_path, data)
    out = str(tmp_path / "out.json")
    jobs = ["--jobs", "1"] if command == "sweep" else []
    assert main([command, "--spec", spec, "--out", out, *jobs]) == 2
    assert json.loads(open(out).read())["error"]["type"] == "ValidationError"


def _fake_fork(shares):
    """A stand-in for cli._fork that runs each share in this process and
    records the payload indices of every share it is given."""

    def fork(share):
        shares.append([idx for idx, _, _ in share])
        read, write = os.pipe()
        with os.fdopen(write, "w") as pipe:
            pipe.write(json.dumps([cli._run_worker(p) for p in share]))
        return -len(shares), os.fdopen(read)

    return fork


@pytest.mark.parametrize(
    "jobs, cpus, n_instances, expected",
    [(64, 8, 3, 3), (64, 2, 5, 2), (3, 8, 5, 3), (4, None, 5, None), (2, 8, 1, None)],
)
def test_sweep_caps_workers(tmp_path, monkeypatch, jobs, cpus, n_instances, expected):
    """A sweep uses min(jobs, cpu_count, instances) workers and forks all but
    one of them, none when that is 1; worker k > 0 gets the strided share
    payloads[1 + k :: workers]."""
    shares = []
    monkeypatch.setattr(cli, "_fork", _fake_fork(shares))
    monkeypatch.setattr(cli.os, "waitpid", lambda pid, options: (pid, 0))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    sweep = {
        "command": "cocycle",
        "base": dict(BASE_SPEC),
        "instances": [{"id": str(i)} for i in range(n_instances)],
    }
    spec = write_spec(tmp_path, sweep)
    assert run("sweep", spec, str(tmp_path / "out.json"), jobs=jobs) == 0
    workers = expected or 1
    assert shares == [list(range(1 + k, n_instances, workers)) for k in range(1, workers)]


def test_sweep_without_fork_runs_serially(tmp_path, monkeypatch):
    shares = []
    monkeypatch.setattr(cli, "_fork", _fake_fork(shares))
    monkeypatch.delattr(cli.os, "fork")
    spec = write_spec(tmp_path, _sharing_sweep("conjecture"))
    out1, out2 = str(tmp_path / "serial.json"), str(tmp_path / "par.json")
    assert run("sweep", spec, out1, jobs=1) == 0
    assert run("sweep", spec, out2, jobs=2) == 0
    assert shares == []
    assert Path(out1).read_text() == Path(out2).read_text()


def _mixed_sweep(command="cocycle"):
    """Ten instances whose ids sort against their order; five have a
    malformed seed, so that every share of a sweep with 2 or 3 workers holds
    an error."""
    bad = {"seeds": [[["1/0"]], [["0"]], [["0"]]]}
    instances = [{"id": f"i{9 - idx}"} for idx in range(10)]
    for idx in (2, 3, 4, 5, 6):
        instances[idx].update(bad)
    return {"command": command, "base": dict(BASE_SPEC), "instances": instances}


@pytest.mark.parametrize("command", ["gen", "cocycle", "closed-form", "h0", "sen", "conjecture"])
def test_sweep_output_does_not_depend_on_jobs(tmp_path, monkeypatch, command):
    # forked shares return their reports through JSON; the bytes must not change
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    spec = write_spec(tmp_path, _mixed_sweep(command))
    outputs = []
    for jobs in (1, 2, 3):
        out = tmp_path / f"out{jobs}.json"
        assert run("sweep", spec, str(out), jobs=jobs) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    flagged = json.loads(outputs[0])["flagged"]
    # in payload order, not in id order
    assert flagged == [{"id": f"i{9 - idx}", "reason": "error"} for idx in (2, 3, 4, 5, 6)]


def _failing_worker(monkeypatch, bad_id, failure):
    """Make cli._run_worker fail on the instance bad_id, and return the list
    the pids of forked children are recorded in."""
    run_worker, fork, pids = cli._run_worker, cli._fork, []

    def worker(payload):
        if payload[2].get("id") == bad_id:
            failure()
        return run_worker(payload)

    def spy(share):
        pid, pipe = fork(share)
        pids.append(pid)
        return pid, pipe

    monkeypatch.setattr(cli, "_run_worker", worker)
    monkeypatch.setattr(cli, "_fork", spy)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    return pids


def _boom():
    raise RuntimeError("boom")


def _assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize(
    "failure, message",
    [(_boom, "sweep worker 1 failed: RuntimeError: boom"), (lambda: os._exit(7), "sweep worker 1 failed: exit status 7")],
    ids=["raises", "dies"],
)
def test_failing_child_exits_3(tmp_path, monkeypatch, failure, message):
    # at --jobs 2, instance 2 ("i7") belongs to the forked child's share
    pids = _failing_worker(monkeypatch, "i7", failure)
    spec = write_spec(tmp_path, _mixed_sweep())
    out = str(tmp_path / "out.json")
    assert run("sweep", spec, out, jobs=2) == 3
    assert json.loads(Path(out).read_text()) == {"error": {"type": "ComputationError", "message": message}}
    _assert_reaped(pids)


def test_failing_parent_share_reaps_children(tmp_path, monkeypatch):
    # at --jobs 2, instance 1 ("i8") belongs to the share this process runs
    pids = _failing_worker(monkeypatch, "i8", _boom)
    spec = write_spec(tmp_path, _mixed_sweep())
    with pytest.raises(RuntimeError, match="boom"):
        run("sweep", spec, str(tmp_path / "out.json"), jobs=2)
    _assert_reaped(pids)


def test_sweep_does_not_import_concurrent_futures(tmp_path):
    spec = write_spec(tmp_path, _sharing_sweep("conjecture"))
    code = (
        "import sys; from prismstrat.cli import main; "
        f"main(['sweep', '--spec', {spec!r}, '--out', {str(tmp_path / 'out.json')!r}, '--jobs', '2']); "
        "print('concurrent.futures' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _mutated(spec: dict, path: tuple, value):
    """A copy of spec with the field, seed row or option at path set to value."""
    out = json.loads(json.dumps(spec))
    node = out
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    return out


_SCALAR = st.one_of(st.integers(-2, 8), st.sampled_from(["1/0", "x", "1/2", "-3", ""]), st.none())
_KEY = st.sampled_from(["t", "x", "n_max"])
_VALUE = st.one_of(
    st.integers(-2, 8),
    st.lists(_SCALAR, max_size=3),
    st.recursive(
        _SCALAR,
        lambda v: st.lists(v, max_size=3) | st.dictionaries(_KEY, v, max_size=2),
        max_leaves=5,
    ),
)
_PATHS = [
    ("p",), ("E_coeffs",), ("rank",), ("seeds",), ("trunc",), ("trunc", "t"), ("trunc", "x"),
    ("padic_prec",), ("options",), ("seeds", 0, 0), ("seeds", 0, -1), ("seeds", 2, 0),
    *(("options", name) for name in cli.INT_OPTIONS),
]


@settings(max_examples=40, deadline=5000, derandomize=True)
@given(name=st.sampled_from(["cocycle_e1", "commuting_e3"]), path=st.sampled_from(_PATHS), value=_VALUE)
@example(name="commuting_e3", path=("seeds", 0, -1), value=["3"])
@example(name="commuting_e3", path=("seeds", 0, -1), value=["1", "2", 3])
@example(name="cocycle_e1", path=("trunc", "x"), value=0)
def test_mutated_spec_keeps_cli_contract(tmp_path_factory, name, path, value):
    # every single-spec command exits 0, 2 or 3 with a JSON report, and an
    # "error" object on failure; the explicit examples are ragged seed rows
    # and pd degree 0
    tmp = tmp_path_factory.mktemp("contract")
    spec = write_spec(tmp, _mutated(json.loads((SPECS / f"{name}.json").read_text()), path, value))
    out = tmp / "out.json"
    for command in SINGLE_SPEC_COMMANDS:
        code = main([command, "--spec", spec, "--out", str(out)])
        assert code in (0, 2, 3), command
        report = json.loads(out.read_text())
        assert (code != 0) == isinstance(report.get("error"), dict), command


@settings(max_examples=30, deadline=10000, derandomize=True)
@given(
    where=st.sampled_from([("base",), ("instances", 0), ("instances", 3)]),
    path=st.sampled_from(_PATHS),
    value=_VALUE,
)
@example(where=("base",), path=("options", "k_max"), value=-1)
@example(where=("base",), path=("options", "n_probe"), value=-3)
@example(where=("instances", 0), path=("options",), value={"n_max": -2})
@example(where=("instances", 3), path=("options",), value={"m_max": -1, "n_phi_max": 0})
def test_mutated_sweep_keeps_cli_contract(tmp_path_factory, where, path, value):
    # a sweep with a mutated base, instance or base option exits 0, 2 or 3
    # with a JSON report, an "error" object on failure, and a {"type",
    # "message"} error on every failed instance
    tmp = tmp_path_factory.mktemp("sweep_contract")
    sweep = _mutated(json.loads((SPECS / "sweep_conjecture.json").read_text()), (*where, *path), value)
    out = tmp / "out.json"
    code = main(["sweep", "--spec", write_spec(tmp, sweep), "--out", str(out), "--jobs", "1"])
    assert code in (0, 2, 3)
    report = json.loads(out.read_text())
    assert (code != 0) == isinstance(report.get("error"), dict)
    for res in report.get("results", []):
        assert res["ok"] or set(res["error"]) == {"type", "message"}, res


@pytest.mark.parametrize("row", [["3"], ["3", "4", 5]], ids=["short", "long"])
def test_ragged_seed_rows_exit_2(tmp_path, row):
    zero = [["0", "0"], ["0", "0"]]
    data = {**BASE_SPEC, "rank": 2, "seeds": [[["1", "2"], row], zero, zero]}
    spec = write_spec(tmp_path, data)
    out = str(tmp_path / "out.json")
    for command in ("gen", "h0"):
        assert run(command, spec, out) == 2
        assert json.loads(open(out).read())["error"]["type"] == "ShapeMismatch"
    assert run("validate", spec, out) == 0
    parse = json.loads(open(out).read())["diagnostics"][0]
    assert (parse["check"], parse["ok"], parse["error"]) == ("parse", False, "ShapeMismatch")


def test_pd_degree_zero(tmp_path):
    # closed-form needs N^1 even at pd degree 0; h0 has no X^[1] condition there
    data = json.loads((SPECS / "cocycle_e1.json").read_text())
    spec = write_spec(tmp_path, {**data, "trunc": {"t": 3, "x": 0}})
    out = str(tmp_path / "out.json")
    assert run("closed-form", spec, out) == 0
    assert run("h0", spec, out) == 2
    error = json.loads(open(out).read())["error"]
    assert error["type"] == "ShapeMismatch" and "pd degree" in error["message"]
