"""Spans around the calls that cross an ektau module boundary.

The traced run replaces module-level names (``ektau.solver.solve_dirichlet``,
``scipy.sparse.linalg.splu``, the ``ektau.model`` functions, ...) with
wrappers that record one span per call: name, start, end, parent span and
op id, plus a few counts read from the returned value.  Spans stay in
memory and are written out when the run ends.  Nothing in ``src/`` is
edited: the wrappers live here and every original name is put back by
``Hooks.restore``.

Layers are the package modules.  A span named ``<layer>.<function>``
belongs to that layer; an ``splu`` span is charged to the layer of its
innermost enclosing span.  A layer's self time is its spans' durations
minus the part of each interval that child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

BENCH_LAYER = "bench"          # time inside an op that no span covers
SPLU = "splu"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                # index into Tracer.spans, -1 at top level
    op: int
    error: bool = False
    value: int | None = None   # count read from the result (iterations, fill, ...)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; spans nest by call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, error: bool = False) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.error = error
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(result) is stored on the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, error=True)
                raise
            self.end(index)
            if count is not None:
                self.spans[index].value = int(count(result))
            return result
        return traced

    def records(self):
        """Spans as plain dicts, for writing out at the end of a run."""
        return [{"id": i, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "error": s.error,
                 "value": s.value} for i, s in enumerate(self.spans)]


# -- hooks ------------------------------------------------------------------

def _lu_fill(lu) -> int:
    return lu.L.nnz + lu.U.nnz


# (module, attribute, span name, count read from the result)
HOOKS = (
    ("ektau.solver", "disk_grid", "solver.disk_grid", None),
    ("ektau.solver", "solve_dirichlet", "solver.solve_dirichlet",
     lambda sol: sol.newton_iterations),
    ("ektau.solver", "mean_curvature_arrays",
     "graph_geometry.mean_curvature_arrays", None),
    ("ektau.solver", "mean_curvature_sensitivities",
     "graph_geometry.mean_curvature_sensitivities", None),
    ("scipy.sparse.linalg", "splu", SPLU, _lu_fill),
    ("ektau.stability", "assemble_jacobi", "stability.assemble_jacobi", None),
    ("ektau.stability", "smallest_eigenvalue", "stability.smallest_eigenvalue",
     lambda rep: rep.iterations),
    ("ektau.stability", "angle_jacobi_residual",
     "stability.angle_jacobi_residual", None),
    ("ektau.stability", "cylinder_stability", "stability.cylinder_stability",
     None),
    ("ektau.rotational", "hemisphere_height", "rotational.hemisphere_height",
     None),
    ("ektau.rotational", "shoot_rotational_graph",
     "rotational.shoot_rotational_graph", lambda prof: len(prof.samples)),
    ("ektau.rotational", "cmc_cylinder_curve", "rotational.cmc_cylinder_curve",
     None),
    ("ektau.harness", "run_experiment", "harness.run_experiment", None),
) + tuple(
    ("ektau.model", name, "model." + name, None)
    for name in ("metric_components", "christoffel_components",
                 "conformal_factor", "conformal_factor_jet", "base_distance",
                 "sphere_exists", "scalar_curvature",
                 "critical_mean_curvature"))


class Hooks:
    """Installs the wrappers of HOOKS and puts the originals back.

    A hook whose module or attribute no longer exists is skipped and named
    in ``absent``; the metrics that need it are then reported as absent.
    """

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self.absent: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span_name, count in self.hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(span_name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.add(span_name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.tracer.wrap(span_name, original, count))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        leftover = [attr for module, attr, original in self._saved
                    if getattr(module, attr) is not original]
        self._saved.clear()
        if leftover:
            raise RuntimeError("could not restore %s" % leftover)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


# -- aggregation ------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def span_layers(spans: list[Span]) -> list[str]:
    """Layer of each span; splu inherits the layer of its enclosing span."""
    layers: list[str] = []
    for s in spans:
        if s.name != SPLU:
            layers.append(s.name.split(".", 1)[0])
        elif s.parent >= 0:
            layers.append(layers[s.parent])      # parents precede children
        else:
            layers.append(BENCH_LAYER)
    return layers


def _metric_table():
    """(metric, unit, hooks it needs, reducer over (span, self time, layer)).

    A needed name ending in ".*" is met when any hook with that prefix is
    present; every other needed name must be present itself.
    """
    def self_of(name):
        return lambda S: sum(t for s, t, _ in S if s.name == name)

    def calls(name):
        return lambda S: sum(1 for s, _, _ in S if s.name == name)

    def values(name):
        return lambda S: sum(s.value or 0 for s, _, _ in S if s.name == name)

    def failures(name):
        return lambda S: sum(1 for s, _, _ in S if s.name == name and s.error)

    def layer_self(layer):
        return lambda S: sum(t for _, t, lay in S if lay == layer)

    def lu(layer, reduce):
        return lambda S: reduce([s for s, _, lay in S
                                 if s.name == SPLU and lay == layer])

    res = "graph_geometry.mean_curvature_arrays"
    sens = "graph_geometry.mean_curvature_sensitivities"
    solve = "solver.solve_dirichlet"
    grid = "solver.disk_grid"
    eig = "stability.smallest_eigenvalue"
    asm = "stability.assemble_jacobi"
    ang = "stability.angle_jacobi_residual"
    hemi = "rotational.hemisphere_height"
    shoot = "rotational.shoot_rotational_graph"
    run = "harness.run_experiment"

    def residuals_per_iteration(S):
        iterations = calls(sens)(S)
        return calls(res)(S) / iterations if iterations else 0.0

    lu_s = lambda spans: sum(s.duration for s in spans)
    lu_fill = lambda spans: sum(s.value or 0 for s in spans)
    lu_failures = lambda spans: sum(1 for s in spans if s.error)
    return [
        ("solver.lattice_build_s", "s", (grid,), self_of(grid)),
        ("solver.lattice_builds", "count", (grid,), calls(grid)),
        ("solver.lu_s", "s", (SPLU, solve), lu("solver", lu_s)),
        ("solver.lu_calls", "count", (SPLU, solve), lu("solver", len)),
        ("solver.lu_fill", "count", (SPLU, solve), lu("solver", lu_fill)),
        ("solver.lu_failures", "count", (SPLU, solve),
         lu("solver", lu_failures)),
        ("solver.newton_self_s", "s", (solve,), self_of(solve)),
        ("solver.newton_iterations", "count", (solve,), values(solve)),
        ("solver.failed_solves", "count", (solve,), failures(solve)),
        ("solver.residuals_per_iteration", "ratio", (res, sens),
         residuals_per_iteration),
        ("solver.self_s", "s", (grid, solve), layer_self("solver")),
        ("graph_geometry.residual_s", "s", (res,), self_of(res)),
        ("graph_geometry.residual_calls", "count", (res,), calls(res)),
        ("graph_geometry.sensitivities_s", "s", (sens,), self_of(sens)),
        ("graph_geometry.sensitivities_calls", "count", (sens,), calls(sens)),
        ("graph_geometry.self_s", "s", ("graph_geometry.*",),
         layer_self("graph_geometry")),
        ("stability.eigensolve_s", "s", (eig,), self_of(eig)),
        ("stability.eig_iterations", "count", (eig,), values(eig)),
        ("stability.lu_s", "s", (SPLU, eig), lu("stability", lu_s)),
        ("stability.lu_calls", "count", (SPLU, eig), lu("stability", len)),
        ("stability.jacobi_assembly_s", "s", (asm,), self_of(asm)),
        ("stability.angle_residual_s", "s", (ang,), self_of(ang)),
        ("stability.self_s", "s", ("stability.*",), layer_self("stability")),
        ("rotational.hemisphere_s", "s", (hemi,),
         lambda S: sum(s.duration for s, _, _ in S if s.name == hemi)),
        ("rotational.shoots", "count", (shoot,), calls(shoot)),
        ("rotational.profile_samples", "count", (shoot,), values(shoot)),
        ("rotational.self_s", "s", ("rotational.*",), layer_self("rotational")),
        ("model.s", "s", ("model.*",), layer_self("model")),
        ("model.calls", "count", ("model.*",),
         lambda S: sum(1 for _, _, lay in S if lay == "model")),
        ("harness.self_s", "s", (run,), self_of(run)),
    ]


METRICS = _metric_table()
HOOK_NAMES = tuple(h[2] for h in HOOKS)


def _is_absent(needs, absent) -> bool:
    for need in needs:
        if need.endswith(".*"):
            prefix = need[:-1]
            if all(n in absent for n in HOOK_NAMES if n.startswith(prefix)):
                return True
        elif need in absent:
            return True
    return False


def layer_metrics(spans: list[Span], op_seconds, absent=frozenset()):
    """Per-layer metrics {name: (value or None, unit)} from one traced pass.

    op_seconds[k] is the measured duration of traced op k.  The part of an
    op that no span covers, and any splu called outside every span, is
    charged to ``bench.self_s``, so the self times of all layers add up to
    the traced wall time.  A metric whose hooks are absent has value None.
    """
    selfs = self_times(spans)
    layers = span_layers(spans)
    summary = list(zip(spans, selfs, layers))
    out = {}
    for name, unit, needs, reduce in METRICS:
        out[name] = (None if _is_absent(needs, absent) else reduce(summary), unit)
    covered = sum(s.duration for s in spans if s.parent < 0)
    out[BENCH_LAYER + ".self_s"] = (
        sum(op_seconds) - covered
        + sum(t for _, t, lay in summary if lay == BENCH_LAYER), "s")
    return out
