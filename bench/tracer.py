"""Spans and counters for the benchmark's traced, in-process run.

The tracer wraps public callables of the nine engine modules from outside:
methods are replaced on their class, and functions are replaced in every
`prismstrat` module namespace that holds them (so `cli`, which imports
`generate_Amn` by name, calls the wrapper too).  Nothing under `src/`
changes, and `uninstall` puts every original back.

Each wrapped call is a span (name, start, end, parent, run id) kept in
memory.  KMat products are too frequent to keep one record each: they are
timed and counted, and their time is subtracted from their parent's self
time, but no record is stored.  Field operations are only counted, since
timing about 10^6 calls would distort the times; their cost shows in the
caller's self time.

Per name the tracer keeps the call count, the self time (duration minus
the child spans it covers) and the total time of outermost calls (a call
nested in a call of the same name is not counted twice).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "field",
    "matrix",
    "series",
    "cosimplicial",
    "stratification",
    "closedform",
    "cohomology",
    "sen",
    "cli",
)

# Spanned callables per module, as "function" or "Class.method".
SPANNED = {
    "field": ("field_init",),
    "matrix": ("KMat.__mul__", "kernel_basis", "rank", "charpoly", "rational_roots"),
    "series": (
        "SimplexRingElem.__mul__",
        "SimplexRingElem.__rmul__",
        "SimplexRingElem.__add__",
        "SimplexRingElem.__pow__",
        "SimplexRingElem.invert",
        "SimplexRingElem.log",
        "SimplexRingElem.exp",
        "SimplexRingElem.exp_pow",
        "SimplexRingElem.embed",
        "SimplexRingElem.map_size",
    ),
    "cosimplicial": (
        "CosimpCtx.__init__",
        "CosimpCtx.alpha_pow",
        "CosimpCtx.alpha_pow_2v",
        "hensel_u0",
        "eval_poly_at_series",
        "cd_table",
        "face_map",
        "theta_report",
    ),
    "stratification": (
        "generate_Amn",
        "assemble_epsilon",
        "cocycle_residual",
        "residual_report",
        "check_near_HT",
        "valuation_profile",
    ),
    "closedform": (
        "verify_commutative",
        "h_table",
        "closedform_series",
        "row_series",
        "ak_series",
        "conjecture_residual",
    ),
    "cohomology": ("h0_solve", "h0_dim_bound", "stage1_rows", "full_condition_rows"),
    "sen": ("lambda1_series", "sen_operator_matrix", "nearly_dR_report"),
    "cli": ("main", "run", "load_problem", "validate_spec", "run_sweep"),
}

# Counted-only callables: "Class.method" -> counter name.
COUNTED = {
    "field": {
        "KElem.__mul__": "field.mul_calls",
        "KElem.__rmul__": "field.mul_calls",
        "KElem.__add__": "field.add_calls",
        "KElem.__sub__": "field.add_calls",
        "KElem.inverse": "field.inverse_calls",
    },
}

# Span names that differ from the callable's own name.
RENAMED = {
    "KMat.__mul__": "mul",
    "SimplexRingElem.__mul__": "mul",
    "SimplexRingElem.__rmul__": "scale",
    "SimplexRingElem.__add__": "add",
    "SimplexRingElem.__pow__": "pow",
    "CosimpCtx.__init__": "ctx_build",
}

# (metric, span name) pairs reported as total time of outermost calls.
TIMED = (
    ("cosimplicial.ctx_build_s", "cosimplicial.ctx_build"),
    ("cosimplicial.alpha_pow_s", "cosimplicial.alpha_pow"),
    ("cosimplicial.face_map0_s", "cosimplicial.face_map0"),
    ("cosimplicial.face_map12_s", "cosimplicial.face_map12"),
    ("cosimplicial.cd_table_s", "cosimplicial.cd_table"),
    ("series.mul_s", "series.mul"),
    ("series.invert_s", "series.invert"),
    ("series.exp_pow_s", "series.exp_pow"),
    ("series.pow_s", "series.pow"),
    ("matrix.mul_s", "matrix.mul"),
    ("matrix.kernel_basis_s", "matrix.kernel_basis"),
    ("matrix.charpoly_s", "matrix.charpoly"),
    ("matrix.rational_roots_s", "matrix.rational_roots"),
    ("stratification.generate_Amn_s", "stratification.generate_Amn"),
    ("stratification.cocycle_residual_s", "stratification.cocycle_residual"),
    ("stratification.check_near_HT_s", "stratification.check_near_HT"),
    ("closedform.verify_commutative_s", "closedform.verify_commutative"),
    ("closedform.h_table_s", "closedform.h_table"),
    ("closedform.ak_series_s", "closedform.ak_series"),
    ("closedform.conjecture_residual_s", "closedform.conjecture_residual"),
    ("cohomology.h0_solve_s", "cohomology.h0_solve"),
    ("sen.lambda1_series_s", "sen.lambda1_series"),
    ("sen.sen_operator_matrix_s", "sen.sen_operator_matrix"),
    ("cli.load_problem_s", "cli.load_problem"),
    ("cli.run_sweep_s", "cli.run_sweep"),
)

# (metric, span name) pairs reported as call counts.
CALLS = (
    ("cosimplicial.alpha_pow_calls", "cosimplicial.alpha_pow"),
    ("series.mul_calls", "series.mul"),
    ("matrix.mul_calls", "matrix.mul"),
)

# Counters that must repeat exactly for the same inputs.
COUNTERS = ("field.mul_calls", "field.add_calls", "field.inverse_calls", "series.mul_pairs", "series.mul_kept")


def _kept_pairs(a, b) -> int:
    """Operand pairs of a ring product that survive both truncations.

    Terms are grouped by (t-exponent, total pd degree); a pair is kept when
    the exponents sum below t_order and the degrees to at most pd_degree.
    """
    trunc = a.trunc
    t_order, pd_degree = trunc.t_order, trunc.pd_degree
    grid = [[0] * (pd_degree + 1) for _ in range(t_order)]
    for m, idx in b.coeffs:
        d = sum(idx)
        if m < t_order and d <= pd_degree:
            grid[m][d] += 1
    # prefix sums: grid[m][d] = number of b terms with m' <= m and d' <= d
    for m in range(t_order):
        row = grid[m]
        for d in range(1, pd_degree + 1):
            row[d] += row[d - 1]
        if m:
            prev = grid[m - 1]
            for d in range(pd_degree + 1):
                row[d] += prev[d]
    kept = 0
    for m, idx in a.coeffs:
        d = sum(idx)
        if m < t_order and d <= pd_degree:
            kept += grid[t_order - 1 - m][pd_degree - d]
    return kept


class Tracer:
    """Installs the wrappers and accumulates spans, times and counters."""

    def __init__(self):
        self.run_id = ""
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [span id, child time] per open span
        self._depth: Counter = Counter()
        self._next_id = 0
        self._origin = time.perf_counter()
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name_of, record=True, count_pairs=False):
        stack, depth, perf = self._stack, self._depth, time.perf_counter

        def wrapper(*args, **kwargs):
            name = name_of(args)
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = -1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                depth[name] -= 1
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if not depth[name]:
                    self.total_s[name] += dur
                if record:
                    self.spans.append((span_id, name, t0, t1, parent, self.run_id))
                if count_pairs and name.endswith(".mul"):
                    a, b = args
                    self.counters["series.mul_pairs"] += len(a.coeffs) * len(b.coeffs)
                    self.counters["series.mul_kept"] += _kept_pairs(a, b)
                    # the counting is tracer work: keep it out of the parent's self time
                    dur = perf() - t0
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _counted(self, fn, counter):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, module: str, qualname: str, target):
        owner_name, _, attr = qualname.rpartition(".")
        short = RENAMED.get(qualname, attr)
        name = f"{module}.{short}"
        if qualname.endswith(".__mul__"):
            # ring x ring (or matrix x matrix) is "mul"; anything else scales
            def name_of(args, _mul=name, _scale=f"{module}.scale", _cls=owner_name):
                return _mul if type(args[1]).__name__ == _cls else _scale

            return self._span(target, name_of, record=module != "matrix", count_pairs=module == "series")
        if qualname == "face_map":
            return self._span(
                target,
                lambda args: "cosimplicial.face_map0" if args[1] == 0 else "cosimplicial.face_map12",
            )
        return self._span(target, lambda args, _n=name: _n)

    # -- install / uninstall -------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"prismstrat.{name}") for name in MODULES}
        loaded = [m for n, m in sys.modules.items() if n == "prismstrat" or n.startswith("prismstrat.")]
        for module, names in SPANNED.items():
            for qualname in names:
                self._patch(mods[module], qualname, loaded, lambda fn, m=module, q=qualname: self._wrap(m, q, fn))
        for module, names in COUNTED.items():
            for qualname, counter in names.items():
                self._patch(mods[module], qualname, loaded, lambda fn, c=counter: self._counted(fn, c))

    def _patch(self, mod, qualname: str, loaded, make):
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(mod, qualname)
        wrapper = make(original)
        for other in loaded:
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, key, original))
                    setattr(other, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for metric, name in TIMED:
            out[metric] = (self.total_s.get(name, 0.0), "s")
        for metric, name in CALLS:
            out[metric] = (self.calls.get(name, 0), "count")
        pairs = self.counters["series.mul_pairs"]
        out["series.mul_pairs"] = (pairs, "count")
        out["series.mul_kept_ratio"] = (self.counters["series.mul_kept"] / pairs if pairs else 0.0, "ratio")
        for counter in ("field.mul_calls", "field.add_calls", "field.inverse_calls"):
            out[counter] = (self.counters[counter], "count")
        for module in MODULES:
            prefix = module + "."
            out[f"{module}.self_s"] = (
                sum(v for k, v in self.self_s.items() if k.startswith(prefix)),
                "s",
            )
        return out

    def deterministic_counts(self) -> dict[str, int]:
        """Counts that depend only on the inputs, for the repeat check."""
        counts = {name: self.calls[name] for name in sorted(self.calls)}
        counts.update({name: self.counters[name] for name in COUNTERS})
        return counts

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, run_id in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": round(t0 - self._origin, 9),
                    "end": round(t1 - self._origin, 9),
                    "parent": parent,
                    "run": run_id,
                }
                fh.write(json.dumps(record) + "\n")
