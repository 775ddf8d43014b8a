"""Every function and method in src/ is called from src/: code that only
the tests reach belongs in the tests.  The exceptions are the callables
the benchmark tracer wraps by name, pinned so that no other function that
loses its last caller can hide among them."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prismstrat"
# The traced callables no code in src/ calls: test references that stay
# until the benchmark stops wrapping them.
TRACED_ONLY = {"cd_table", "exp_pow", "face_map", "stage1_rows"}


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
    unreferenced = [
        (name, where)
        for name, where in defined
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    ]
    tracer = _tracer_names()
    assert {name for name, _ in unreferenced if name in tracer} == TRACED_ONLY
    unused = [f"{where} {name}" for name, where in unreferenced if name not in TRACED_ONLY]
    assert not unused, unused


def test_only_field_reads_the_pi_power_table():
    # field.reduce_polys is the one reduction mod E, for KElem and KMat alike
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "field.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("_pow_columns", "_pow_den")
    ]
    assert not readers, readers



def _names(node) -> set[str]:
    """The names and attribute names that node reads or defines."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Attribute, ast.FunctionDef))
    }


def test_field_inverts_without_polynomial_division_or_fractions():
    # KElem.inverse eliminates on integers; Fraction polynomial division
    # serves only the root search of matrix.py
    tree = ast.parse((SRC / "field.py").read_text())
    assert "poly_divmod" not in _names(tree)
    kelem = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "KElem")
    inverse = next(n for n in kelem.body if isinstance(n, ast.FunctionDef) and n.name == "inverse")
    # Fraction itself, or the parser, view and constructors that build Fractions
    assert not _names(inverse) & {"Fraction", "_to_fraction", "coords", "from_coords", "from_rational"}
