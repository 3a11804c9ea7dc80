"""The benchmark's traced run wraps package names; they must all resolve.

`benchmark/tracing.py` reports a per-layer metric as absent when the name it
wraps is gone, so a rename in the package would silently null that metric;
a traced solve checks that the wrapped kernel entry points are still the
ones each Newton point calls, traced measurements of a solved graph that
they are not counted as Newton residuals, and a traced sweep that each of
its rows is one wrapped solve.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from ektau import harness, solver, stability
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
    # Newton point, one sensitivity pass per Newton iteration
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


def test_traced_measurements_record_no_residual(monkeypatch):
    # the spectrum ops and sigma_profile enter the graph kernel at
    # mean_curvature_arrays too, but not through the name the residual
    # count wraps, so graph_geometry.residual_calls counts Newton only
    tracing = _load_tracing(monkeypatch)
    grid = solver.disk_grid(1.0, 24, SpaceParams(0.0, 0.5))
    sol = solver.solve_dirichlet(grid, 0.0, 0.8, grid.params)
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        stability.smallest_eigenvalue(stability.assemble_jacobi(sol))
        stability.angle_jacobi_residual(sol)
        solver.sigma_profile(sol)
    assert hooks.absent == set()
    names = [s.name for s in tracer.spans]
    assert {"stability.assemble_jacobi", "stability.smallest_eigenvalue",
            "stability.angle_jacobi_residual"} <= set(names)
    assert "graph_geometry.mean_curvature_arrays" not in names


def test_traced_sweep_solves_every_row_through_the_module(monkeypatch):
    # run_experiment reaches disk_grid and solve_dirichlet through the
    # solver module; a name bound at import would bypass the wrappers and
    # zero the sweep's Newton iteration and failed-solve counts
    tracing = _load_tracing(monkeypatch)
    cfg = harness.ExperimentConfig(params=SpaceParams(0.0, 0.5),
                                   H_list=[0.5, 0.8, 1.2], grid_sizes=[24])
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        records = harness.run_experiment(cfg)
    assert hooks.absent == set()
    assert [r.status for r in records] == [
        "converged", "converged", "vertical_blowup"]
    spans = tracer.spans
    assert [s.name for s in spans].count("solver.disk_grid") == 1
    assert [s.error for s in spans if s.name == "solver.solve_dirichlet"] \
        == [False, False, True]
    assert [s.name for s in spans if s.parent == -1] \
        == ["harness.run_experiment"]
