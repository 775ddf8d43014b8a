"""The benchmark tracer wraps engine callables by name: every name it lists
must exist, and install / uninstall must leave the engine as it was."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_install_round_trips():
    tracer = _load_tracer()
    listed = [(m, q) for m, names in tracer.SPANNED.items() for q in names]
    listed += [(m, q) for m, names in tracer.COUNTED.items() for q in names]
    missing, originals = [], {}
    for module, qualname in listed:
        mod = importlib.import_module(f"prismstrat.{module}")
        owner, _, attr = qualname.rpartition(".")
        namespace = vars(getattr(mod, owner)) if owner else vars(mod)
        if attr not in namespace:
            missing.append(f"{module}.{qualname}")
        else:
            originals[module, qualname] = namespace[attr]
    assert not missing, f"bench/tracer.py wraps names the engine lacks: {missing}"
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    for (module, qualname), original in originals.items():
        owner, _, attr = qualname.rpartition(".")
        mod = importlib.import_module(f"prismstrat.{module}")
        namespace = vars(getattr(mod, owner)) if owner else vars(mod)
        assert namespace[attr] is original, f"{module}.{qualname} not restored"
