"""The benchmark's tracer wraps program functions by name; every name it
lists must still resolve, so a refactor that moves one fails here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = []
    for mod_name, attrs in tracer.LAYERS.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and callable(vars(cls).get(meth))
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"{mod_name}.{attr}")
    assert not missing, missing
