"""scripts/compare_reports.py: same trees compare equal, a planted change is reported."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_reports.py"
TINY = {
    "tiny_e2": {"E_coeffs": ["-3", "0", "1"], "rank": 1, "seeds": [[["1/2"]], [["2/3"]]], "trunc": {"t": 2, "x": 2}},
    "tiny_e1": {"E_coeffs": ["-3", "1"], "rank": 1, "seeds": [[["-1"]], [["5/7"]]], "trunc": {"t": 2, "x": 3}},
}


def _compare(tmp_path, parent):
    specs = []
    for name, spec in TINY.items():
        specs.append(tmp_path / f"{name}.json")
        specs[-1].write_text(json.dumps({"p": 3, "padic_prec": 8, **spec}))
    argv = [sys.executable, str(SCRIPT), "--parent", str(parent), "--commands", "gen,closed-form", *map(str, specs)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def test_compare_reports_finds_only_the_planted_change(tmp_path):
    parent = tmp_path / "parent"
    shutil.copytree(ROOT / "src", parent, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    same = _compare(tmp_path, parent)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "DIFFER" not in same.stdout and "0 of 4 runs differ" in same.stdout
    timed = [line.split() for line in same.stdout.splitlines() if line.startswith("TIME ")]
    assert [(name, command) for _, name, command, _, _ in timed] == [
        ("tiny_e2.json", "gen"), ("tiny_e2.json", "closed-form"), ("tiny_e1.json", "gen"), ("tiny_e1.json", "closed-form")
    ]

    closedform = parent / "prismstrat" / "closedform.py"
    source = closedform.read_text()
    assert 'out[f"{m},{j}"]' in source
    closedform.write_text(source.replace('out[f"{m},{j}"]', 'out[f"{m};{j}"]'))
    planted = _compare(tmp_path, parent)
    assert planted.returncode == 1, planted.stdout + planted.stderr
    differ = sorted(line.split(":")[0] for line in planted.stdout.splitlines() if line.startswith("DIFFER"))
    assert differ == ["DIFFER tiny_e1.json closed-form", "DIFFER tiny_e2.json closed-form"]
    assert "2 of 4 runs differ" in planted.stdout


def test_compare_warms_each_tree_once_before_timing(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []

    def run_cli(tree, command, spec_path, pycache):
        calls.append((tree, command, spec_path.name))
        return 0, b"{}", 0.25

    monkeypatch.setattr(script, "run_cli", run_cli)
    parent, tree = Path("parent"), Path("tree")
    runs = [(Path("a.json"), "gen"), (Path("a.json"), "h0"), (Path("b.json"), "gen")]
    assert script.compare(parent, tree, runs, Path("pycache")) == 0
    warm_up = [(parent, "gen", "a.json"), (tree, "gen", "a.json")]
    timed = [(t, command, path.name) for path, command in runs for t in (parent, tree)]
    assert calls == warm_up + timed
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("TIME ")]
    assert lines == [f"TIME {p.name} {command} 0.2500 0.2500" for p, command in runs]
