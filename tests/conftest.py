"""Suite-wide test settings and fixtures.

Hypothesis draws the same examples on every run (derandomize) and keeps no
example database, so runs are comparable. It still writes its caches (the
constants it collects from the source, Unicode tables) under `.hypothesis/`,
which is gitignored.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="session")
def tracer():
    """perfbench/tracer.py, loaded read-only: executed from its file and left
    out of sys.modules, with nothing installed."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module
