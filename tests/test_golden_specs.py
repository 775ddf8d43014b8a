"""Golden reports: every CLI command on the committed specs/ is byte-stable.

The SHA-256 of each report is pinned in golden_specs.json; an engine change
that moves any report byte fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from prismstrat.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden_specs.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_matches_golden_hash(case, tmp_path):
    spec, command = case.split(":")
    out = tmp_path / "report.json"
    extra = {"jobs": 1} if command == "sweep" else {}
    assert run(command, str(ROOT / "specs" / f"{spec}.json"), str(out), **extra) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[case]
