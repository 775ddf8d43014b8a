"""CLI: dispatch, validation, exit codes, determinism, sweeps."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prismstrat import cli
from prismstrat.cli import main, run
from prismstrat.cosimplicial import CosimpCtx
from prismstrat.field import KElem, PadicApprox, field_init
from prismstrat.series import SimplexRingElem

from oracles import agrees_mod

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
ENGINE_COMMANDS = SINGLE_SPEC_COMMANDS[:-1]  # all but validate


# k_max, the one option, and the former floors of the retired options, which
# are unknown keys whatever their value
OPTION_FLOORS = {"k_max": 0, "n_probe": 0, "threshold": 0, "n_phi_max": 1}


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


def test_conjecture_checks_shapes_before_commuting_seeds(tmp_path):
    # k_max = 2 needs T > 2: that check fails before any commutator product
    data = {**BASE_SPEC, "rank": 2, "trunc": {"t": 2, "x": 4}}
    data["seeds"] = [[["1", "1"], ["0", "1"]], [["0", "1"], ["1", "0"]]]
    spec = write_spec(tmp_path, data)
    out = str(tmp_path / "out.json")
    assert run("conjecture", spec, out) == 2
    error = json.loads(open(out).read())["error"]
    assert error["type"] == "ShapeMismatch" and "need t_order > k_max" in error["message"]


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
        ("options", {"n_probe": "z"}),
        ("options", [1]),
        ("options", {"n_probe": 257}),
        ("trunc", {"t": cli.MAX_T + 1, "x": 4}),
        ("trunc", {"t": 3, "x": cli.MAX_D + 1}),
        ("trunc", {"t": cli.MAX_T, "x": cli.MAX_D}),
        ("rank", cli.MAX_RANK + 1),
        ("E_coeffs", ["-3"] + ["0"] * cli.MAX_E + ["1"]),
        ("padic_prec", cli.MAX_PREC + 1),
        ("padic_prec", 0),
        ("E_coeffs", ["-3" + "0" * cli.MAX_DIGITS, "0", "1"]),
        ("seeds", [[["1/" + "7" * (cli.MAX_DIGITS + 1)]], [["0"]], [["0"]]]),
        ("seeds", [[["1e9000000"]], [["0"]], [["0"]]]),
        ("seeds", [[[["1", "-1e-9000000"]]], [["0"]], [["0"]]]),
        ("E_coeffs", ["-3", "1e9000000", "1"]),
        ("E_coeffs", ["-3", "0." + "1" * 3_000_000, "1"]),
        *(("options", {name: floor - 1}) for name, floor in OPTION_FLOORS.items()),
        ("p", 3.0),
        ("rank", True),
        ("trunc", {"t": 3.9, "x": 4}),
        ("trunc", {"t": 3, "x": 4.0}),
        ("padic_prec", 8.0),
        ("options", {"n_max": 2.0}),
        ("options", {"threshold": 2.0}),
        ("options", {"k_max": True}),
        ("E_coeffs", "301"),
        ("E_coeffs", ["-3", 0.0, "1"]),
        ("seeds", ["5", "7", "1"]),
        ("seeds", [["5"], [["0"]], [["0"]]]),
        ("seeds", [[[True]], [["0"]], [["0"]]]),
        ("seeds", [[[["1", 0.5]]], [["0"]], [["0"]]]),
        ("options", {"k_max": "z"}),
        ("options", {"k_max": BASE_SPEC["trunc"]["t"]}),
        ("options", {"k_max": 2.0}),
    ],
    ids=[
        "rank", "trunc_t", "padic_prec", "seed_1_over_0", "p_string", "E_coeff",
        "options_n_max", "options_n_probe", "options_list", "n_probe_limit", "trunc_t_limit", "trunc_x_limit",
        "t_x_rank_limit", "rank_limit", "E_degree_limit", "padic_prec_limit", "padic_prec_floor",
        "E_coeff_digits_limit", "seed_digits_limit", "seed_exponent", "seed_coord_exponent",
        "E_coeff_exponent", "E_coeff_long_decimal",
        *(f"{name}_floor" for name in OPTION_FLOORS),
        "p_float", "rank_bool", "trunc_t_float", "trunc_x_float", "padic_prec_float",
        "n_max_float", "threshold_float", "k_max_bool", "E_coeffs_string", "E_coeff_float", "seeds_strings",
        "seed_row_string", "seed_entry_bool", "seed_coord_float", "options_k_max", "k_max_limit", "k_max_float",
    ],
)
def test_malformed_number_exits_2(tmp_path, field, value):
    # each run is bounded: "1e9000000" or a 3-million-digit decimal used to
    # take seconds in Fraction before the digit limit could refuse it.
    # n_max, n_probe, threshold and n_phi_max are no longer options: their
    # cases are refused as unknown keys, before any value is read.  The k_max
    # cases are refused by their value before gen refuses k_max as an option
    # it does not read, so validate, which runs no command, reports the same
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
        ("conjecture", "options", {"k_max": 100_000_000}),
        ("gen", "trunc", {"t": 3, "x": 100_000}),
        ("gen", "E_coeffs", ["-3"] + ["0"] * 199 + ["1"]),
        ("sen", "padic_prec", 10**6),
    ],
    ids=["k_max", "trunc_x", "E_degree", "padic_prec"],
)
def test_huge_size_exits_2_quickly(tmp_path, command, field, value):
    # without the limits: residuals to t-order 10^8, a table and alpha powers
    # 10^5 pd degrees deep, field arithmetic with E = u^200 - 3, and a
    # lambda1 product to precision p^(10^6)
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
    data = {**json.loads((SPECS / "sen_ramified.json").read_text()), "padic_prec": 1_000_000}
    out = str(tmp_path / "out.json")
    assert main(["sen", "--spec", write_spec(tmp_path, data), "--out", out]) == 2
    assert json.loads(open(out).read())["error"] == {
        "type": "ValidationError", "message": "padic_prec = 1000000 is above the limit 1024"
    }


@pytest.mark.parametrize(
    "path, key",
    [
        (("options", "kmax"), "kmax"), (("padic_precison",), "padic_precison"), (("trunc", "y"), "y"),
        *((("options", name), name) for name in ("n_probe", "threshold", "n_phi_max")),
    ],
    ids=["options_kmax", "padic_precison", "trunc_y", "retired_n_probe", "retired_threshold", "retired_n_phi_max"],
)
def test_unknown_key_exits_2(tmp_path, path, key):
    # a misspelled key was ignored: "kmax": 0 ran conjecture with k_max = 2.
    # The retired probe options and lambda1 cap are unknown keys too: gen and
    # sen run the probe at 64 and 40, and lambda1 stops on a bound on its work
    spec = write_spec(tmp_path, _mutated(json.loads((SPECS / "cocycle_e1.json").read_text()), path, 0))
    out, where = tmp_path / "out.json", "the spec" if len(path) == 1 else path[0]
    for command in SINGLE_SPEC_COMMANDS:
        code = main([command, "--spec", spec, "--out", str(out)])
        report = json.loads(out.read_text())
        if command == "validate":
            error = report["diagnostics"][0]
            assert (code, error["error"]) == (0, "ValidationError")
        else:
            error = report["error"]
            assert (code, error["type"]) == (2, "ValidationError")
        assert error["message"] == f"unknown key {key!r} in {where}"


def test_sweep_instance_with_unknown_key_fails_alone(tmp_path):
    # "id" names an instance; any other unknown key fails that instance only
    sweep = json.loads((SPECS / "sweep_conjecture.json").read_text())
    sweep["instances"][1]["options"] = {"kmax": 0}
    out = tmp_path / "out.json"
    assert main(["sweep", "--spec", write_spec(tmp_path, sweep), "--out", str(out)]) == 0
    results = {r["id"]: r for r in json.loads(out.read_text())["results"]}
    assert results.pop("b")["error"] == {"type": "ValidationError", "message": "unknown key 'kmax' in options"}
    assert all(r["ok"] for r in results.values()) and len(results) == 3


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
    # p = 1009 just below padic_prec 1024: factor 2 would build u0^(1009^2)
    data = {**BASE_SPEC, "p": 1009, "E_coeffs": ["-1009", "1"], "padic_prec": 1024}
    spec = write_spec(tmp_path, data)
    out = str(tmp_path / "out.json")
    assert run("sen", spec, out) == 3
    report = json.loads(open(out).read())
    assert report["error"]["type"] == "ProductNotSettled"


def _sen_diag_spec(e: int, t: int) -> dict:
    """Rank 2, A_{0,1} = diag(1, 1/2) and A_{m,1} = c_m I + d_m A_{0,1} with
    c_m, d_m of height at most 9, E = x^e - 3; the seeds for t_order t
    start with those for any smaller one."""
    rng, diag = random.Random(0), (Fraction(1), Fraction(1, 2))

    def rational():
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))

    seeds = []
    for m in range(t):
        c, d = (0, 1) if m == 0 else (rational(), rational())
        seeds.append([[str(c + d * diag[i]) if i == j else "0" for j in range(2)] for i in range(2)])
    e_coeffs = ["-3"] + ["0"] * (e - 1) + ["1"]
    return {"p": 3, "E_coeffs": e_coeffs, "rank": 2, "seeds": seeds, "trunc": {"t": t, "x": 4}, "padic_prec": 10}


@pytest.mark.parametrize("e", [1, 3])
def test_sen_runs_past_t_order_9(tmp_path, e):
    # while p^n <= T - 1 the t^(p^n) term of u0^(p^n) pins the gap of factor
    # n; comparing those gaps made T = 10 and 16 exit 3 (ProductNotSettled)
    reports = {}
    for t in (9, 10, 16):
        out = str(tmp_path / f"sen_{t}.json")
        assert run("sen", write_spec(tmp_path, _sen_diag_spec(e, t), f"spec_{t}.json"), out) == 0
        reports[t] = json.loads(open(out).read())["report"]
        assert reports[t]["leibniz_ok"] and reports[t]["fiber_normalization_ok"]
    field = field_init(3, _sen_diag_spec(e, 1)["E_coeffs"])

    def coeffs(t):
        return [PadicApprox.approx(KElem.from_json(field, c["value"]), Fraction(c["prec"]))
                for c in reports[t]["lambda1"]["coeffs"]]

    for a, b in zip(coeffs(16), coeffs(9)):  # the first 9 t-orders
        assert agrees_mod(a, b, min(a.prec, b.prec))


def test_sen_reads_the_probe_options_like_gen(tmp_path):
    # both run the probe at its n_probe and threshold defaults, and print
    # them; sen_ramified's A_{0,1} never reaches a zero product, so all 65
    # valuations are printed
    reports = {}
    for command in ("gen", "sen"):
        out = str(tmp_path / f"{command}.json")
        assert run(command, str(SPECS / "sen_ramified.json"), out) == 0
        reports[command] = json.loads(open(out).read())
    probe = reports["sen"]["report"]["near_HT"]
    assert (probe["n_probe"], probe["threshold"], len(probe["min_valuations"])) == (64, 40, 65)
    assert probe == reports["gen"]["near_HT"] == reports["sen"]["report"]["nearly_dR"]["probe"]


def test_reports_are_deterministic(tmp_path):
    data = dict(BASE_SPEC)
    data["seeds"] = [[["1/2"]], [["2/3"]], [["-5/4"]]]
    spec = write_spec(tmp_path, data)
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert run("closed-form", spec, out1) == 0
    assert run("closed-form", spec, out2) == 0
    assert open(out1).read() == open(out2).read()


def test_truncation_scan_sweep_matches_single_runs(tmp_path):
    # a sweep whose instances set trunc is the truncation scan: each instance
    # reports what a single run on a spec file with that trunc reports
    scan = json.loads((SPECS / "cocycle_scan.json").read_text())
    for command in ("cocycle", "gen"):
        out = tmp_path / "sweep.json"
        sweep = write_spec(tmp_path, {**scan, "command": command}, "sweep.json")
        assert main(["sweep", "--spec", sweep, "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert [r["id"] for r in results] == [inst["id"] for inst in scan["instances"]]
        for res, inst in zip(results, scan["instances"]):
            spec = write_spec(tmp_path, {**scan["base"], "trunc": inst["trunc"]}, f"{inst['id']}.json")
            assert main([command, "--spec", spec, "--out", str(out)]) == 0
            assert res["ok"] and res["report"] == json.loads(out.read_text()), (command, inst["id"])
            if command == "gen":
                assert res["report"]["table"]["t_order"] == inst["trunc"]["t"]


@pytest.mark.parametrize("flag, value, field", [("--trunc-t", "99", "trunc.t"), ("--trunc-x", "99", "trunc.x")])
def test_validate_applies_overrides(tmp_path, capsys, flag, value, field):
    # the truncation that --trunc-t and --trunc-x used to override is now set
    # in the spec file alone: gen refuses it there, validate reports the same
    # failure, and both refuse the retired flag
    key = field.split(".")[1]
    spec = write_spec(tmp_path, {**BASE_SPEC, "trunc": {**BASE_SPEC["trunc"], key: int(value)}})
    out = str(tmp_path / "out.json")
    assert run("gen", spec, out) == 2
    error = json.loads(open(out).read())["error"]
    assert field in error["message"]
    assert run("validate", spec, out) == 0
    report = json.loads(open(out).read())
    assert not report["ok"]
    assert report["diagnostics"][0] == {"check": "parse", "ok": False, "error": "ValidationError", "message": error["message"]}
    spec = write_spec(tmp_path, BASE_SPEC)
    for command in ("gen", "validate"):
        assert main([command, "--spec", spec, "--out", out, flag, value]) == 2
        assert "unrecognized arguments" in json.loads(capsys.readouterr().out)["error"]["message"]


RETIRED_FLAGS = (["--trunc-t", "9"], ["--trunc-x", "9"], ["--prec", "0"])


@pytest.mark.parametrize(
    "command, argv",
    [("sweep", argv) for argv in RETIRED_FLAGS]
    + [(command, ["--jobs", "2"]) for command in SINGLE_SPEC_COMMANDS]
    + [(command, argv) for command in SINGLE_SPEC_COMMANDS for argv in RETIRED_FLAGS],
)
def test_flags_exist_only_on_the_commands_that_read_them(tmp_path, capsys, command, argv):
    # --jobs is read by sweep alone; the spec file holds every other setting,
    # so the retired overrides --trunc-t, --trunc-x and --prec exist nowhere
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


@pytest.mark.parametrize("command", ["gen", "validate"])
@pytest.mark.parametrize("out", ["missing/x.json", "."], ids=["missing_dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, command, out):
    # the report cannot be written: a BadOutFile error object on stdout
    argv = [command, "--spec", str(SPECS / "cocycle_e1.json"), "--out", str(tmp_path / out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["type"] == "BadOutFile"
    assert str(tmp_path) in error["message"]
    assert captured.err == ""
    assert list(tmp_path.iterdir()) == []


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
    # k_max is an option of conjecture alone
    base = {**BASE_SPEC, "rank": 2, **({"options": {"k_max": 2}} if command == "conjecture" else {})}
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


SHARE_0_FAILED = {"error": {"type": "ComputationError", "message": "sweep worker 0 failed: RuntimeError: boom"}}


def test_failing_parent_share_reaps_children(tmp_path, monkeypatch):
    # at --jobs 2, instance 1 ("i8") belongs to the share this process runs;
    # it fails as a forked share does
    pids = _failing_worker(monkeypatch, "i8", _boom)
    spec = write_spec(tmp_path, _mixed_sweep())
    out = tmp_path / "out.json"
    assert main(["sweep", "--spec", spec, "--out", str(out), "--jobs", "2"]) == 3
    assert json.loads(out.read_text()) == SHARE_0_FAILED
    _assert_reaped(pids)


@pytest.mark.parametrize("bad_id", ["i9", "i8"], ids=["warm_up", "share"])
def test_failing_serial_sweep_exits_3(tmp_path, monkeypatch, bad_id):
    # at --jobs 1 every instance, the warm-up one ("i9") too, runs in this process
    pids = _failing_worker(monkeypatch, bad_id, _boom)
    spec = write_spec(tmp_path, _mixed_sweep())
    out = tmp_path / "out.json"
    assert main(["sweep", "--spec", spec, "--out", str(out), "--jobs", "1"]) == 3
    assert json.loads(out.read_text()) == SHARE_0_FAILED
    assert pids == []


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


_SCALAR = st.one_of(
    st.integers(-2, 8), st.sampled_from(["1/0", "x", "1/2", "-3", ""]), st.none(), st.booleans(), st.floats()
)
_KEY = st.sampled_from(["t", "x", "k_max"])
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
    ("options", "k_max"),
]
_INT_PATHS = {("p",), ("rank",), ("trunc", "t"), ("trunc", "x"), ("padic_prec",), ("options", "k_max")}
_LIST_PATHS = {("E_coeffs",), ("seeds",), ("seeds", 0, 0), ("seeds", 0, -1), ("seeds", 2, 0)}


def _ill_typed(path: tuple, value) -> bool:
    """Whether the spec refuses value at path by its JSON type alone: an
    integer field that is not an int (a bool is not one), or a list field
    (E_coeffs, seeds, a seed row) that is not a list."""
    if path in _INT_PATHS:
        return isinstance(value, bool) or not isinstance(value, int)
    return path in _LIST_PATHS and not isinstance(value, list)


_BASES = {name: json.loads((SPECS / f"{name}.json").read_text()) for name in ("cocycle_e1", "commuting_e3")}
# T = 4 with A_(0,1) .. A_(5,1): the first two seeds repeated at the end
_SEEDS_E3 = _BASES["commuting_e3"]["seeds"]
_BASES["commuting_e3_six_seeds"] = {**_BASES["commuting_e3"], "seeds": _SEEDS_E3 + _SEEDS_E3[:2]}


@settings(max_examples=40, deadline=5000, derandomize=True)
@given(name=st.sampled_from(["cocycle_e1", "commuting_e3"]), path=st.sampled_from(_PATHS), value=_VALUE)
@example(name="commuting_e3", path=("seeds", 0, -1), value=["3"])
@example(name="commuting_e3", path=("seeds", 0, -1), value=["1", "2", 3])
@example(name="cocycle_e1", path=("trunc", "x"), value=0)
@example(name="cocycle_e1", path=("p",), value=3.0)
@example(name="cocycle_e1", path=("E_coeffs",), value="301")
@example(name="commuting_e3_six_seeds", path=("options", "k_max"), value=4)
def test_mutated_spec_keeps_cli_contract(tmp_path_factory, name, path, value):
    # every single-spec command exits 0, 2 or 3 with a JSON report, and an
    # "error" object on failure; a value of the wrong JSON type exits 2
    # (validate: a failed parse check).  The explicit examples are ragged
    # seed rows, pd degree 0, a float p, a string E_coeffs, and k_max = T
    # with seeds beyond T
    tmp = tmp_path_factory.mktemp("contract")
    spec = write_spec(tmp, _mutated(_BASES[name], path, value))
    out = tmp / "out.json"
    for command in SINGLE_SPEC_COMMANDS:
        code = main([command, "--spec", spec, "--out", str(out)])
        assert code in (0, 2, 3), command
        report = json.loads(out.read_text())
        assert (code != 0) == isinstance(report.get("error"), dict), command
        if _ill_typed(path, value):
            parse_ok = report["diagnostics"][0]["ok"] if command == "validate" else code != 2
            assert not parse_ok, command


@settings(max_examples=30, deadline=10000, derandomize=True)
@given(
    where=st.sampled_from([("base",), ("instances", 0), ("instances", 3)]),
    path=st.sampled_from(_PATHS),
    value=_VALUE,
)
@example(where=("base",), path=("options", "k_max"), value=-1)
@example(where=("base",), path=("options", "n_probe"), value=64)
@example(where=("instances", 0), path=("options",), value={"k_max": cli.MAX_T})
@example(where=("instances", 3), path=("options",), value={"k_max": -1, "n_phi_max": 24})
@example(where=("base",), path=("p",), value=3.0)
@example(where=("instances", 0), path=("rank",), value=True)
def test_mutated_sweep_keeps_cli_contract(tmp_path_factory, where, path, value):
    # a sweep with a mutated base, instance or base option exits 0, 2 or 3
    # with a JSON report, an "error" object on failure, and a {"type",
    # "message"} error on every failed instance; an instance that reads a
    # value of the wrong JSON type fails with a ValidationError
    tmp = tmp_path_factory.mktemp("sweep_contract")
    sweep = _mutated(json.loads((SPECS / "sweep_conjecture.json").read_text()), (*where, *path), value)
    out = tmp / "out.json"
    code = main(["sweep", "--spec", write_spec(tmp, sweep), "--out", str(out), "--jobs", "1"])
    assert code in (0, 2, 3)
    report = json.loads(out.read_text())
    assert (code != 0) == isinstance(report.get("error"), dict)
    for res in report.get("results", []):
        assert res["ok"] or set(res["error"]) == {"type", "message"}, res
    if _ill_typed(path, value):
        assert code == 0
        results = {res["id"]: res for res in report["results"]}
        for i, inst in enumerate(sweep["instances"]):
            if where == ("instances", i) or (where == ("base",) and path[0] not in inst):
                assert results[inst["id"]]["error"]["type"] == "ValidationError", inst["id"]


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


def test_h0_checks_seeds_before_pd_degree(tmp_path):
    # too few seeds and pd degree 0: the seed count is checked first
    data = {**BASE_SPEC, "seeds": [[["0"]], [["0"]]], "trunc": {"t": 3, "x": 0}}
    out = str(tmp_path / "out.json")
    assert run("h0", write_spec(tmp_path, data), out) == 2
    error = json.loads(open(out).read())["error"]
    assert error == {"type": "SeedShapeMismatch", "message": "need seeds A_(m,1) for all m < 3, got 2"}


def test_short_seeds_give_one_error_for_every_command(tmp_path):
    # T - 1 seeds: the loader's one SeedShapeMismatch for every engine
    # command (conjecture at the default k_max and at k_max = T - 1), alone
    # and as a sweep instance, and validate's seeds_cover_t_order reports it
    base = json.loads((SPECS / "cocycle_e1.json").read_text())
    t_order = len(base["seeds"]) + 1
    short = {"trunc": {**base["trunc"], "t": t_order}}
    message = f"need seeds A_(m,1) for all m < {t_order}, got {t_order - 1}"
    expected = {"type": "SeedShapeMismatch", "message": message}
    out = tmp_path / "out.json"
    runs = [(command, short) for command in ENGINE_COMMANDS]
    runs.append(("conjecture", {**short, "options": {"k_max": t_order - 1}}))
    for command, changes in runs:
        assert main([command, "--spec", write_spec(tmp_path, {**base, **changes}), "--out", str(out)]) == 2
        assert json.loads(out.read_text()) == {"error": expected}, command
        sweep = {"command": command, "base": base, "instances": [{"id": "short", **changes}]}
        assert main(["sweep", "--spec", write_spec(tmp_path, sweep), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"] == [{"id": "short", "ok": False, "error": expected}], command
    assert main(["validate", "--spec", write_spec(tmp_path, {**base, **short}), "--out", str(out)]) == 0
    cover = json.loads(out.read_text())["diagnostics"][1]
    assert cover == {"check": "seeds_cover_t_order", "ok": False, "error": "SeedShapeMismatch", "message": message}


def test_closed_form_with_m_max_at_t_order_exits_2(tmp_path):
    # theta_{1,s} is known for s < T only: closed-form builds its h-table to
    # T - 1 from trunc alone, so seeds beyond A_(T-1,1) change nothing, and
    # the retired m_max is refused as an unknown key
    out = str(tmp_path / "out.json")
    reports = []
    for name in ("commuting_e3", "commuting_e3_six_seeds"):
        assert run("closed-form", write_spec(tmp_path, _BASES[name]), out) == 0
        reports.append(open(out).read())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["verify"]["m_max"] == 3
    spec = write_spec(tmp_path, {**_BASES["commuting_e3_six_seeds"], "options": {"m_max": 4}})
    assert run("closed-form", spec, out) == 2
    error = json.loads(open(out).read())["error"]
    assert error == {"type": "ValidationError", "message": "unknown key 'm_max' in options"}


@pytest.mark.parametrize("option", ["k_max"])
@pytest.mark.parametrize("value", [4, 5])
def test_t_order_options_at_or_above_t_are_refused(tmp_path, option, value):
    # the series stop below t^T: validate reports the refusal as its failed
    # parse check, and every command exits 2 before any engine work
    spec = write_spec(tmp_path, {**_BASES["commuting_e3_six_seeds"], "options": {option: value}})
    out = str(tmp_path / "out.json")
    message = f"options.{option} = {value} is above the limit 3"
    assert run("validate", spec, out) == 0
    report = json.loads(open(out).read())
    assert report["ok"] is False
    assert report["diagnostics"][0] == {"check": "parse", "ok": False, "error": "ValidationError", "message": message}
    for command in ("conjecture", "closed-form"):
        assert run(command, spec, out) == 2
        assert json.loads(open(out).read())["error"] == {"type": "ValidationError", "message": message}
    data = {**_BASES["commuting_e3_six_seeds"], "options": {option: 3}}
    assert run("validate", write_spec(tmp_path, data), out) == 0
    assert json.loads(open(out).read())["ok"] is True


@pytest.mark.parametrize("option, value, command", [("n_max", 64, "gen"), ("m_max", 15, "closed-form")])
def test_retired_size_options_are_refused(tmp_path, option, value, command):
    # gen and closed-form take their sizes from trunc alone, which T * D * l
    # bounds: n_max and m_max are unknown keys for both, for validate and for
    # a sweep instance, refused before any engine work.  n_max = 64 on a
    # rank-8, e = 8 spec at T = 16, D = 1 once ran 15 s and printed 163 MB
    message = f"unknown key {option!r} in options"
    zero = [["0"] * 8] * 8
    data = {**BASE_SPEC, "E_coeffs": ["-3"] + ["0"] * 7 + ["1"], "rank": 8, "seeds": [zero] * 16}
    spec = write_spec(tmp_path, {**data, "trunc": {"t": 16, "x": 1}, "options": {option: value}})
    out = tmp_path / "out.json"
    for name in ("gen", "closed-form"):
        started = time.monotonic()
        assert run(name, spec, str(out)) == 2
        assert time.monotonic() - started < 1
        assert json.loads(out.read_text())["error"] == {"type": "ValidationError", "message": message}
    assert run("validate", spec, str(out)) == 0
    parse = {"check": "parse", "ok": False, "error": "ValidationError", "message": message}
    assert json.loads(out.read_text()) == {"ok": False, "diagnostics": [parse]}
    sweep = json.loads((SPECS / "sweep_conjecture.json").read_text())
    sweep["command"] = command
    del sweep["base"]["options"]  # k_max, read by conjecture alone
    sweep["instances"][1]["options"] = {option: 2}
    assert main(["sweep", "--spec", write_spec(tmp_path, sweep, "sweep.json"), "--out", str(out)]) == 0
    results = {r["id"]: r for r in json.loads(out.read_text())["results"]}
    assert results.pop("b")["error"] == {"type": "ValidationError", "message": message}
    assert all(r["ok"] for r in results.values()) and len(results) == 3


def test_k_max_is_refused_by_the_commands_that_do_not_read_it(tmp_path):
    # k_max used to be ignored by every command but conjecture; validate,
    # which runs no command, still reports the spec ok
    data = {**_BASES["commuting_e3"], "options": {"k_max": 2}}
    spec, out = write_spec(tmp_path, data), tmp_path / "out.json"
    for command in ENGINE_COMMANDS:
        code = run(command, spec, str(out))
        if command == "conjecture":
            assert code == 0
            continue
        message = f"options.k_max is read by conjecture only, not by {command}"
        assert code == 2 and json.loads(out.read_text())["error"] == {"type": "ValidationError", "message": message}
    assert run("validate", spec, str(out)) == 0
    assert json.loads(out.read_text())["ok"] is True
    sweep = json.loads((SPECS / "sweep_conjecture.json").read_text())  # k_max = 4 in its base
    for command in ("conjecture", "cocycle"):
        assert run("sweep", write_spec(tmp_path, {**sweep, "command": command}, "sweep.json"), str(out)) == 0
        errors = [r["error"]["message"] for r in json.loads(out.read_text())["results"] if not r["ok"]]
        message = f"options.k_max is read by conjecture only, not by {command}"
        assert errors == ([] if command == "conjecture" else [message] * 4)


def _prime_spec(p: int, t: int) -> dict:
    """Rank 1, E = x - p, seeds 1/2, 1, 0, ...: lambda1 builds u0^p exactly."""
    seeds = [[["1/2"]], [["1"]]] + [[["0"]]] * (t - 2)
    return {"p": p, "E_coeffs": [str(-p), "1"], "rank": 1, "seeds": seeds, "trunc": {"t": t, "x": 1}, "padic_prec": 10}


def test_sen_refuses_a_large_prime_quickly(tmp_path):
    # lambda1 builds u0^p exactly: sen took 5.9 s at p = 10007 and T = 16,
    # and at p = 1000000007 it had not finished after 25 s; h0 runs there
    spec = write_spec(tmp_path, _prime_spec(1000000007, 2))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "prismstrat.cli", "sen", "--spec", spec],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert time.monotonic() - started < 1
    assert proc.returncode == 2, proc.stderr
    message = f"p = 1000000007 is above the limit {cli.MAX_SEN_P} of sen"
    assert json.loads(proc.stdout) == {"error": {"type": "ValidationError", "message": message}}
    out = tmp_path / "out.json"
    assert run("h0", spec, str(out)) == 0
    big = {"id": "big", "p": 1000000007, "E_coeffs": ["-1000000007", "1"]}
    sweep = {"command": "sen", "base": _prime_spec(3, 2), "instances": [big, {"id": "small"}]}
    assert run("sweep", write_spec(tmp_path, sweep, "sweep.json"), str(out)) == 0
    results = {r["id"]: r for r in json.loads(out.read_text())["results"]}
    assert results["big"]["error"] == {"type": "ValidationError", "message": message} and results["small"]["ok"]


def test_sen_runs_at_the_largest_admitted_prime(tmp_path):
    largest = next(p for p in range(cli.MAX_SEN_P, 1, -1) if all(p % d for d in range(2, int(p**0.5) + 1)))
    out = tmp_path / "out.json"
    assert run("sen", write_spec(tmp_path, _prime_spec(largest, 2)), str(out)) == 0
    assert json.loads(out.read_text())["report"]["leibniz_ok"]


@pytest.mark.parametrize(
    "p, e_coeffs, t, error, seconds",
    [
        (1009, ["-1009", "1"], 2, "ProductNotSettled", 2),
        (1009, ["-1009", "1"], 16, "ProductNotSettled", 2),
        (1009, ["-1009"] + ["0"] * 7 + ["1"], 16, "ProductNotSettled", 2),
        (3, ["3"] * 8 + ["1"], 8, "NumberTooLarge", 10),
    ],
    ids=["x-1009_T2", "x-1009_T16", "x^8-1009_T16", "3+3x+...+x^8_T8"],
)
def test_lambda1_runaways_exit_3_quickly(tmp_path, p, e_coeffs, t, error, seconds):
    # at padic_prec 1024 lambda1 would build u0^(1009^2) (killed after 90 s)
    # or print a 78,000-bit rational (31 s): it now stops before the factor
    spec = write_spec(tmp_path, {**_prime_spec(p, t), "E_coeffs": e_coeffs, "padic_prec": 1024})
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "prismstrat.cli", "sen", "--spec", spec],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert time.monotonic() - started < seconds
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == error


def test_pd_degree_zero(tmp_path):
    # closed-form needs N^1 even at pd degree 0; h0 has no X^[1] condition there
    data = json.loads((SPECS / "cocycle_e1.json").read_text())
    spec = write_spec(tmp_path, {**data, "trunc": {"t": 3, "x": 0}})
    out = str(tmp_path / "out.json")
    assert run("closed-form", spec, out) == 0
    assert run("h0", spec, out) == 2
    error = json.loads(open(out).read())["error"]
    assert error["type"] == "ShapeMismatch" and "pd degree" in error["message"]


_ENGINE_RUNS = [
    (path.name, command)
    for path in sorted(SPECS.glob("*.json"))
    for command in (("sweep",) if "instances" in json.loads(path.read_text()) else ENGINE_COMMANDS)
]


@pytest.mark.parametrize("name, command", _ENGINE_RUNS)
def test_no_engine_path_inverts_a_series(tmp_path, monkeypatch, name, command):
    # series inversion is a test reference only: with it raising, every
    # command on specs/ still exits 0 with the same report bytes
    def refuse(self):
        raise AssertionError("an engine path inverted a series")

    spec, out = str(SPECS / name), tmp_path / "out.json"
    extra = {"jobs": 1} if command == "sweep" else {}
    assert run(command, spec, str(out), **extra) == 0
    expected = out.read_bytes()
    monkeypatch.setattr(SimplexRingElem, "invert", refuse)
    assert run(command, spec, str(out), **extra) == 0
    assert out.read_bytes() == expected
