"""Every function and method in src/ is called from src/: code that only
the tests reach belongs in the tests."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prismstrat"


def _tracer_names() -> set[str]:
    """The callables the benchmark tracer wraps by name, which must stay."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    listed = [q for names in tracer.SPANNED.values() for q in names]
    listed += [q for names in tracer.COUNTED.values() for q in names]
    return {q.rpartition(".")[2] for q in listed}


def test_every_function_in_src_is_referenced_in_src():
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    exempt = _tracer_names()
    unused = [
        f"{where} {name}"
        for name, where in defined
        if name not in referenced
        and name not in exempt
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unused, unused
