"""The traced benchmark wraps qfactory entry points by name; every name must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_span_resolves():
    missing = []
    for modname, attr, _ in _load_tracer().SPANS:
        obj = importlib.import_module(f"qfactory.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"qfactory.{modname}.{attr}")
    assert missing == []
