"""The traced benchmark wraps qfactory entry points by name; every name must resolve."""

import importlib


def test_every_traced_span_resolves(tracer):
    missing = []
    for modname, attr, _ in tracer.SPANS:
        obj = importlib.import_module(f"qfactory.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"qfactory.{modname}.{attr}")
    assert missing == []
