"""Seeded workloads: the cases each one draws and the ops that call ektau.

Every op calls the library through module attributes (``ektau.solver.X``
rather than a name bound at import), so that the traced run's wrappers see
the call.  An op's ``run`` is the timed part; ``outputs`` turns its result
into the plain values the correctness gate checks and is not timed.

The seed draws the case list from fixed bands; the library only ever sees
the generated cases.  Draws are stratified (one value per sub-band, spaces
permuted over the strata) so that different seeds give comparable amounts
of work.

``ReferenceKernel`` is a fixed computation that uses no ektau code; the
timed run runs it once before every op so that each op time can be given
as a multiple of the machine's speed at that moment.
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ektau.harness
import ektau.rotational
import ektau.solver
import ektau.stability
from ektau.model import SpaceParams

SPACES = {"nil": (0.0, 0.5), "psl": (-1.0, 0.5), "h2r": (-1.0, 0.0),
          "flat": (0.0, 0.0)}
SPACE_NAMES = tuple(SPACES)

SOLVE_N = 96
STABILITY_N = 96
SWEEP_N = 48
SWEEP_RADIUS = 1.0
# H*R bands of the graph cases as (lo, hi, strata): the converging band of
# the cold solves.  The eigensolver needs about 15 iterations below
# H*R = 0.6 and about 27 above 0.75, so the stability graphs take one case
# below and three above that jump: a median over four graphs straddling it
# would flip between the two regimes from seed to seed.
SOLVE_HR = ((0.5, 0.92, 4),)
STABILITY_HR = ((0.5, 0.58, 1), (0.76, 0.92, 3))
# Sweep rows: three converging and one non-existence H per config.  The
# blow-up row costs about the same anywhere in [1.15, 1.35] at n=48 but up
# to twice as much at other H or n, so that band keeps the work per seed even.
SWEEP_CONVERGING = (0.5, 0.95, 3)
SWEEP_NONEXISTENCE = (1.15, 1.35, 1)


def params(space: str) -> SpaceParams:
    kappa, tau = SPACES[space]
    return SpaceParams(kappa, tau)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, *stream]))


def _strata(rng, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw from each of k equal sub-bands of [lo, hi)."""
    width = (hi - lo) / k
    return [lo + (i + float(rng.random())) * width for i in range(k)]


@dataclass(frozen=True)
class Op:
    kind: str                        # solve | spectrum | cylinder | sweep
    key: str                         # names the case in the references
    run: Callable[[], Any]
    outputs: Callable[[Any], dict]
    slot: str = ""                   # the op's place in every pass; key if ""


# -- graph solves -------------------------------------------------------------

@dataclass(frozen=True)
class GraphCase:
    space: str
    H: float
    radius: float
    center: tuple[float, float]
    n: int


def graph_cases(seed: int, stream: tuple[int, ...], n: int,
                bands=SOLVE_HR, order=None) -> list[GraphCase]:
    """One case per space, H*R stratified over bands, distinct centers.

    ``order[j]`` is the space of the j-th stratum, drawn when not given.
    Flat cases use radius 0.5, the others radius 1.  Each center is drawn
    in a disk of radius R/10 so that no two cases share a lattice.
    """
    rng = _rng(seed, *stream)
    drawn = rng.permutation(len(SPACE_NAMES))
    order = drawn if order is None else order
    hr = [h for lo, hi, k in bands for h in _strata(rng, lo, hi, k)]
    cases = []
    for j, s in enumerate(order):
        space = SPACE_NAMES[s]
        R = 0.5 if space == "flat" else 1.0
        rho = 0.1 * R * math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        cases.append(GraphCase(space, hr[j] / R, R,
                               (rho * math.cos(phi), rho * math.sin(phi)), n))
    return cases


def solve_case(case: GraphCase):
    """One cold lattice build and solve, what ``ektau solve`` does."""
    p = params(case.space)
    grid = ektau.solver.disk_grid(case.radius, case.n, p, center=case.center)
    sol = ektau.solver.solve_dirichlet(grid, 0.0, case.H, p)
    return sol, ektau.solver.graph_height(sol)


def _solve_outputs(result) -> dict:
    sol, height = result
    return {"height": height, "residual_max": sol.residual_max}


def solve_op(key: str, case: GraphCase) -> Op:
    return Op("solve", key, lambda: solve_case(case), _solve_outputs,
              case.space)


# -- workloads ---------------------------------------------------------------

class Workload:
    """A seeded op list; ``ops(k)`` is the k-th pass over it."""

    name = ""
    primary = ""           # op kind whose median latency is op_s.p50
    min_passes = 1
    reference_passes = 1   # passes whose outputs references.json holds

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Case generation and set-up solves (timed into setup_s)."""

    def warmup(self) -> Op:
        raise NotImplementedError

    def ops(self, k: int) -> list[Op]:
        raise NotImplementedError


class SolveWorkload(Workload):
    """Cold solves at n=96: every op draws a new case, so no grid repeats.

    The spaces rotate over the H*R strata from pass to pass (a Latin
    square), so every four passes pair each space with each stratum once.
    """

    name = primary = "solve"
    reference_passes = 14

    def setup(self) -> None:
        self._order = _rng(self.seed, 0).permutation(len(SPACE_NAMES))

    def warmup(self) -> Op:
        return solve_op("warmup", graph_cases(self.seed, (1,), SOLVE_N)[0])

    def ops(self, k: int) -> list[Op]:
        order = np.roll(self._order, k)
        return [solve_op("p%dc%d" % (k, j), case) for j, case in enumerate(
            graph_cases(self.seed, (0, k), SOLVE_N, order=order))]


class SweepWorkload(Workload):
    """run_experiment on a Nil and a PSL config with every check switched on.

    Each config has three H from the converging band and one from the
    non-existence band.  Passes 2j and 2j+1 run config set j, so the
    reports of each config are compared byte for byte between repeats,
    and a run spreads over several draws of H rather than one.  Two passes
    are the minimum.
    """

    name = primary = "sweep"
    min_passes = 2
    reference_passes = 14

    def setup(self) -> None:
        self._sets: dict[int, list[tuple[str, list[float]]]] = {}
        self._runs = 0

    def configs(self, j: int) -> list[tuple[str, list[float]]]:
        if j not in self._sets:
            rng = _rng(self.seed, 2, j)
            self._sets[j] = []
            for space in ("nil", "psl"):
                H = _strata(rng, *SWEEP_CONVERGING) + _strata(
                    rng, *SWEEP_NONEXISTENCE)
                self._sets[j].append((space, [round(h, 4) for h in H]))
        return self._sets[j]

    def _op(self, key: str, space: str, H_list: list[float]) -> Op:
        def run():
            self._runs += 1
            out = self.workdir / ("%s-%d" % (space, self._runs))
            cfg = ektau.harness.ExperimentConfig(
                params=params(space), H_list=H_list, grid_sizes=[SWEEP_N],
                domain_radius=SWEEP_RADIUS, output_dir=str(out),
                check_stability=True, check_conjecture=True,
                check_rosenberg=True)
            return out, ektau.harness.run_experiment(cfg)
        return Op("sweep", key, run, _sweep_outputs, space)

    def warmup(self) -> Op:
        return self._op("warmup", *self.configs(0)[1])

    def ops(self, k: int) -> list[Op]:
        j = k // 2
        return [self._op("s%d%s" % (j, space), space, H)
                for space, H in self.configs(j)]


def _sweep_outputs(result) -> dict:
    """Rows, report bytes and bytes written; removes the output directory."""
    out, records = result
    files = {name: (out / name).read_bytes()
             for name in ("records.json", "sweep.dat")}
    written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    shutil.rmtree(out)
    rows = [{"H": r.H, "HR": r.H * SWEEP_RADIUS, "status": r.status,
             "height": r.height, "lambda_min": r.lambda_min,
             "hemisphere_height": r.hemisphere_height,
             "residual_max": r.residual_max} for r in records]
    return {"rows": rows, "files": files, "bytes_written": written}


class StabilityWorkload(Workload):
    """Spectral checks of 4 graphs solved in set-up, and 3 cylinders."""

    name = "stability"
    primary = "spectrum"

    def setup(self) -> None:
        self.graphs = [solve_case(case) for case in graph_cases(
            self.seed, (3,), STABILITY_N, STABILITY_HR)]
        rng = _rng(self.seed, 4)
        negative, zero = ("psl", "h2r"), ("nil", "flat")
        # an open base curve needs kappa < 0 and 4H^2 + kappa <= 0
        self.cylinders = [
            (negative[rng.integers(2)], float(rng.uniform(0.2, 0.45))),
            (negative[rng.integers(2)], float(rng.uniform(0.6, 1.5))),
            (zero[rng.integers(2)], float(rng.uniform(0.2, 1.5))),
        ]

    def _spectrum(self, j: int) -> Op:
        sol, height = self.graphs[j]

        def run():
            op = ektau.stability.assemble_jacobi(sol)
            rep = ektau.stability.smallest_eigenvalue(op)
            return rep, ektau.stability.angle_jacobi_residual(sol)

        def outputs(result):
            rep, angle = result
            return {"height": height, "residual_max": sol.residual_max,
                    "lambda_min": rep.lambda_min,
                    "eigvec_residual": rep.eigvec_residual,
                    "angle_residual": angle}
        return Op("spectrum", "g%d" % j, run, outputs)

    def _cylinder(self, j: int) -> Op:
        space, H = self.cylinders[j]
        p = params(space)

        def outputs(cs):
            return {"H": H, "kappa": p.kappa, "closed": cs.closed,
                    "lambda_min_spectral": cs.lambda_min_spectral}
        return Op("cylinder", "cyl%d" % j,
                  lambda: ektau.stability.cylinder_stability(H, p), outputs)

    def warmup(self) -> Op:
        return self._spectrum(0)

    def ops(self, k: int) -> list[Op]:
        return ([self._spectrum(j) for j in range(len(self.graphs))]
                + [self._cylinder(j) for j in range(len(self.cylinders))])


WORKLOADS = {w.name: w for w in (SolveWorkload, SweepWorkload,
                                 StabilityWorkload)}


def reference_outputs(workload: Workload) -> dict:
    """Outputs of every op in the reference passes, keyed by op key."""
    refs = {}
    for k in range(workload.reference_passes):
        for op in workload.ops(k):
            if op.key in refs:
                continue
            out = op.outputs(op.run())
            out.pop("files", None)
            out.pop("bytes_written", None)
            refs[op.key] = out
    return refs


class ReferenceKernel:
    """A fixed mix of the kinds of work ektau does, with no ektau code.

    One call factorizes and solves a 9216-unknown sparse Laplacian with
    SuperLU (about the fill of one n=96 Newton Jacobian), evaluates numpy
    expressions on 40,000-element arrays, fills freshly allocated 8 MB
    arrays and runs a scalar Python loop; it takes some 42 ms on a 2-vCPU
    Xeon.  Its time tracks the shared machine's speed, which the ektau ops
    follow too.
    """

    def __init__(self, m: int = 96):
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        eye = sp.identity(m)
        self.matrix = (sp.kron(eye, t) + sp.kron(t, eye)
                       + 0.1 * sp.identity(m * m)).tocsc()
        self.rhs = np.ones(m * m)
        self.x = np.linspace(0.1, 1.0, 40000)

    def __call__(self) -> float:
        """Seconds one run of the kernel took."""
        t0 = time.perf_counter()
        spla.splu(self.matrix).solve(self.rhs)
        x = self.x
        for _ in range(25):
            np.sqrt(1.0 + x * x) * np.exp(-x) / (1.0 + x ** 3)
        for _ in range(4):
            np.empty(1_000_000).fill(1.0)
        s = 0.0
        for i in range(25000):
            s += math.sin(i * 1e-3) * math.sqrt(i + 1.0)
        return time.perf_counter() - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
