"""The benchmark's traced run wraps package names; they must all resolve.

`benchmark/tracing.py` reports a per-layer metric as absent when the name it
wraps is gone, so a rename in the package would silently null that metric;
a traced solve checks that the wrapped kernel entry points are still the
ones each Newton point calls.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from ektau import solver
from ektau.model import SpaceParams

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


def test_traced_solve_counts_kernel_entry_points(monkeypatch):
    # the per-layer call counts rest on these names: one residual per
    # Newton point, one sensitivity pass per Jacobian
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        grid = solver.disk_grid(1.0, 24, SpaceParams(0.0, 0.5))
        sol = solver.solve_dirichlet(grid, 0.0, 0.8, grid.params)
    assert hooks.absent == set()
    names = [s.name for s in tracer.spans]
    iterations = sol.newton_iterations
    assert iterations >= 2
    assert names.count("graph_geometry.mean_curvature_sensitivities") \
        == iterations
    assert names.count("graph_geometry.mean_curvature_arrays") \
        >= iterations + 1
