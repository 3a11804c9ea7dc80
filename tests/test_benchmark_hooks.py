"""The benchmark's traced run wraps package names; they must all resolve.

`benchmark/tracing.py` reports a per-layer metric as absent when the name it
wraps is gone, so a rename in the package would silently null that metric.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module of the classes they decorate
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_package_hook_resolves(monkeypatch):
    hooks = [h for h in _load_tracing(monkeypatch).HOOKS if h[0].startswith("ektau.")]
    assert hooks
    missing = [(module, attr) for module, attr, _, _ in hooks
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []
