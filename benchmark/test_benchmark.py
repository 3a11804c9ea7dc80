"""Tests of the benchmark's own logic: spans, summaries and the gate.

    python3 -m pytest -q benchmark/test_benchmark.py

None of these call into ektau, so they run in well under a second.
"""

import sys
import types

import pytest

import checks
from run import OpResult, fail_rate, iq_mean, relative_times, summarize
from tracing import Hooks, Span, Tracer, layer_metrics, self_times, span_layers


def fake_clock(*times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # outer [0,10] holds a [1,3] and b [4,7]; b holds c [5,6]
    tracer = Tracer(clock=fake_clock(0, 1, 3, 4, 5, 6, 7, 10))
    outer = tracer.begin("solver.solve_dirichlet")
    a = tracer.begin("graph_geometry.mean_curvature_arrays")
    tracer.end(a)
    b = tracer.begin("graph_geometry.mean_curvature_sensitivities")
    c = tracer.begin("model.metric_components")
    tracer.end(c)
    tracer.end(b)
    tracer.end(outer)
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 2]
    assert self_times(tracer.spans) == [5.0, 2.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("solver.x", 0.0, 10.0, -1, 0),
             Span("model.a", 1.0, 4.0, 0, 0),
             Span("model.b", 3.0, 6.0, 0, 0),
             Span("model.c", 9.0, 12.0, 0, 0)]     # clipped to the parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_splu_is_charged_to_the_enclosing_layer():
    spans = [Span("solver.solve_dirichlet", 0.0, 4.0, -1, 0),
             Span("splu", 1.0, 2.0, 0, 0, value=100),
             Span("stability.smallest_eigenvalue", 5.0, 9.0, -1, 1, value=7),
             Span("splu", 6.0, 8.0, 2, 1, value=50),
             Span("splu", 9.5, 10.0, -1, 1)]
    assert span_layers(spans) == ["solver", "solver", "stability", "stability",
                                  "bench"]
    m = layer_metrics(spans, op_seconds=[5.0, 6.0])
    assert m["solver.lu_calls"][0] == 1
    assert m["solver.lu_fill"][0] == 100
    assert m["solver.lu_s"][0] == pytest.approx(1.0)
    assert m["solver.newton_self_s"][0] == pytest.approx(3.0)
    assert m["stability.lu_s"][0] == pytest.approx(2.0)
    assert m["stability.eigensolve_s"][0] == pytest.approx(2.0)
    assert m["stability.eig_iterations"][0] == 7
    # op 0: 5 s, 4 s in spans; op 1: 6 s, 4.5 s in spans incl. a bare splu
    assert m["bench.self_s"][0] == pytest.approx(1.0 + 1.5 + 0.5)
    layer_total = sum(v for k, (v, _) in m.items()
                      if k.endswith(".self_s") or k == "model.s")
    assert layer_total == pytest.approx(11.0)


def test_missing_hook_is_absent_and_originals_are_restored(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def build(n):
        return n * 2
    mod.build = build
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    hooks_table = (("fake_layer", "build", "solver.disk_grid", None),
                   ("fake_layer", "gone", "solver.solve_dirichlet", None),
                   ("no_such_module", "f", "model.base_distance", None))
    tracer = Tracer()
    with Hooks(tracer, hooks_table) as hooks:
        assert mod.build is not build
        tracer.op = 0
        assert mod.build(3) == 6
    assert mod.build is build
    assert hooks.absent == {"solver.solve_dirichlet", "model.base_distance"}
    m = layer_metrics(tracer.spans, [tracer.spans[0].duration],
                      frozenset(hooks.absent))
    assert m["solver.lattice_builds"][0] == 1
    assert m["solver.newton_self_s"][0] is None
    assert m["solver.lu_calls"][0] is None
    assert m["model.calls"][0] == 0            # other model hooks remain


def test_wrapper_marks_errors_and_reraises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("singular")
    with pytest.raises(RuntimeError):
        tracer.wrap("splu", boom)()
    assert tracer.spans[0].error


def test_iq_mean_drops_the_outer_quarters():
    assert iq_mean([9.0, 1.0, 2.0, 3.0]) == 2.5
    assert iq_mean([100.0, 2.0, 3.0, 4.0, 0.0]) == 3.0
    assert iq_mean([1.0, 2.0, 3.0]) == 2.0


def test_slot_means_windowed_relative_times_and_fail_rate():
    def op(slot, seconds, ref, breaches=()):
        return OpResult("solve", slot, 0, seconds, list(breaches),
                        ref_seconds=ref, slot=slot)
    # the reference kernel reads 4 s once, in a burst: the window's median
    # ignores it, so every op is divided by 1 s
    results = [op("a", 1.0, 1.0), op("b", 3.0, 1.0),
               op("a", 2.0, 4.0, ["bad"]), op("b", 6.0, 1.0), op("a", 5.0, 1.0)]
    assert relative_times(results) == [1.0, 3.0, 2.0, 6.0, 5.0]
    assert fail_rate(results) == pytest.approx(0.2)
    s = summarize(results, "solve")
    # under four values per slot nothing is trimmed: slot a 8/3, slot b 4.5
    assert s["wall_s"] == s["wall_rel"] == pytest.approx(8 / 3 + 4.5)
    assert s["op_s.p50"] == s["op_rel.p50"] == 3.0
    assert s["kinds"]["solve"] == (3.0, 3.0, 5)


def solve_out(height):
    return {"height": height, "residual_max": 1e-12}


def test_checker_fails_a_height_perturbed_by_1e6_relative():
    ref = {"height": 0.5}
    assert checks.check("solve", solve_out(0.5 * (1 + 1e-9)), ref) == []
    assert checks.check("solve", solve_out(0.5 * (1 + 1e-6)), ref)
    assert checks.check("solve", {"height": 0.5, "residual_max": 1e-9}, None)


def sweep_out(records=b"[]", status="converged"):
    row = {"H": 0.9, "HR": 0.9, "status": status, "height": 0.6,
           "lambda_min": 2.0, "hemisphere_height": 1.2, "residual_max": 1e-12}
    return {"rows": [row], "files": {"records.json": records, "sweep.dat": b"x"}}


def test_checker_fails_sweep_bytes_that_differ_between_repeats():
    first = sweep_out()
    assert checks.check("sweep", sweep_out(), None, first) == []
    breaches = checks.check("sweep", sweep_out(records=b"[ ]"), None, first)
    assert breaches == ["records.json differs from the previous repeat"]


def test_checker_requires_sweep_statuses_by_band_and_reference():
    assert checks.check("sweep", sweep_out(status="vertical_blowup"), None)
    ref = {"rows": [dict(sweep_out()["rows"][0], height=0.6 * (1 + 1e-6))]}
    assert checks.check("sweep", sweep_out(), ref)
    blowup = sweep_out(status="vertical_blowup")
    blowup["rows"][0].update(H=1.2, HR=1.2, height=None, lambda_min=None)
    assert checks.check("sweep", blowup, None) == []
    converged_high = sweep_out()
    converged_high["rows"][0].update(H=1.2, HR=1.2)
    assert checks.check("sweep", converged_high, None)


def test_cylinder_oracle():
    cyl = {"H": 1.0, "kappa": -1.0, "closed": True,
           "lambda_min_spectral": -3.0 + 1e-9}
    assert checks.check("cylinder", cyl, None) == []
    assert checks.check("cylinder", dict(cyl, lambda_min_spectral=-2.99), None)
    assert checks.check("cylinder", dict(cyl, closed=False), None)
