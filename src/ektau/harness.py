"""Experiment runner and command line interface.

Sweeps solve the Dirichlet problem over (H, grid) combinations, measure
heights, compare them against the rotational hemisphere height and the
curvature-based radius bound, optionally attach stability data, and write
deterministic JSON records plus a columnar plot file.  Identical
configurations produce byte-identical outputs: records carry no timestamps
and rows are emitted in a fixed order.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import graph_geometry as gg
from . import model, rotational, solver, stability
from .errors import (ConfigInvalid, EktauError, IoFailure, IterationLimit,
                     OutOfDomain)
from .model import Point3, SpaceParams

PLOT_HEADER = "H n height hemi_height bound lambda_min status"

# row status of an error: the solve failures, then the checks after a solve
FAILURES = {**solver.FAILURES, IterationLimit: "stability_failed"}


def rosenberg_bound(H: float, params: SpaceParams) -> float | None:
    """Radius bound 2*pi/sqrt(3c) with c = 3H^2 + S, when c is positive.

    S is the constant scalar curvature of the space; stable H-surfaces have
    intrinsic radius at most the returned value, which therefore also caps
    the height of an H-graph over its boundary section.  Returns None when
    3H^2 + S <= 0.
    """
    if not (math.isfinite(H) and H > 0):
        raise ConfigInvalid("rosenberg bound needs a finite H > 0, got %r" % H)
    c = 3.0 * H * H + model.scalar_curvature(params)
    if c <= 0:
        return None
    return 2.0 * math.pi / math.sqrt(3.0 * c)


@dataclass
class ExperimentConfig:
    params: SpaceParams
    H_list: list[float]
    grid_sizes: list[int]
    domain_radius: float = 1.0
    domain_center: tuple[float, float] = (0.0, 0.0)
    boundary_value: float = 0.0
    output_dir: str | None = None
    check_rosenberg: bool = True
    check_conjecture: bool = True
    check_sigma_profile: bool = False
    check_stability: bool = False

    def __post_init__(self):
        for H in self.H_list or ():
            if isinstance(H, bool) or not isinstance(H, numbers.Real):
                raise ConfigInvalid("H_list entries must be real numbers, "
                                    "got %r" % (H,))
        if not self.H_list or not all(
                math.isfinite(H) and H > 0 for H in self.H_list):
            raise ConfigInvalid("H_list must be nonempty, finite and positive")
        if not self.grid_sizes or not all(
                isinstance(n, (int, np.integer)) and n >= 16
                for n in self.grid_sizes):
            raise ConfigInvalid("grid sizes must be integers >= 16, got %r"
                                % (self.grid_sizes,))
        if not (math.isfinite(self.domain_radius) and self.domain_radius > 0):
            raise ConfigInvalid("domain_radius must be finite and positive")
        if len(self.domain_center) != 2 or not all(
                map(math.isfinite, self.domain_center)):
            raise ConfigInvalid("domain_center must be two finite numbers")
        if not math.isfinite(self.boundary_value):
            raise ConfigInvalid("boundary_value must be finite")
        for name in ("check_rosenberg", "check_conjecture",
                     "check_sigma_profile", "check_stability"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigInvalid("%s must be true or false, got %r"
                                    % (name, getattr(self, name)))
        # both checks measure the distance to the boundary, kappa <= 0 only
        if self.params.kappa > 0 and (self.check_stability
                                      or self.check_sigma_profile):
            raise ConfigInvalid("check_stability and check_sigma_profile "
                                "need kappa <= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        params = SpaceParams.from_dict(d.pop("params"))
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigInvalid("unknown config keys: %s" % sorted(unknown))
        if "domain_center" in d:
            d["domain_center"] = tuple(d["domain_center"])
        return cls(params=params, **d)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except OSError as exc:
            raise IoFailure("cannot read config %s: %s" % (path, exc))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid("bad config %s: %s" % (path, exc))


@dataclass
class ReportRecord:
    kappa: float
    tau: float
    H: float
    n: int
    status: str     # "converged" or a value of FAILURES
    height: float | None = None
    hemisphere_height: float | None = None
    rosenberg_bound: float | None = None
    lambda_min: float | None = None
    residual_max: float | None = None
    angle_residual: float | None = None
    min_abs_nu: float | None = None
    max_sigma_interior: float | None = None
    height_over_hemisphere: float | None = None
    sigma_far_from_boundary: float | None = None
    solution_file: str | None = None
    message: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _measure(rec: ReportRecord, sol: solver.GraphSolution,
             cfg: ExperimentConfig) -> None:
    """Fill the row of a converged solve."""
    rec.height = solver.graph_height(sol)
    rec.residual_max = sol.residual_max
    rec.min_abs_nu = sol.min_abs_nu
    rec.max_sigma_interior = sol.max_sigma_interior
    if rec.hemisphere_height:
        rec.height_over_hemisphere = rec.height / rec.hemisphere_height
    if cfg.check_sigma_profile:
        far = [s for dist, s in solver.sigma_profile(sol) if dist > 0.2]
        rec.sigma_far_from_boundary = max(far) if far else None
    if cfg.check_stability:
        op = stability.assemble_jacobi(sol)
        rec.lambda_min = stability.smallest_eigenvalue(op).lambda_min
        rec.angle_residual = stability.angle_jacobi_residual(sol)


def _fmt(value) -> str:
    if value is None:
        return "nan"
    return "%.12g" % value


def run_experiment(cfg: ExperimentConfig) -> list[ReportRecord]:
    """Solve the configured sweep and (optionally) persist its records.

    Rows are ordered by (n, H).  Each grid is swept by
    `solver.continuation_in_H`, one independent cold solve per row.  An
    error in FAILURES never aborts the sweep: the row takes its status
    from that table.  An output directory that cannot be created fails
    with `IoFailure` before the first solve.
    """
    if cfg.output_dir is not None:
        out = Path(cfg.output_dir)
        soldir = out / "solutions"
        try:
            soldir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoFailure("cannot create %s: %s" % (soldir, exc))
    params = cfg.params
    H_values = sorted(set(cfg.H_list))
    # rotational spheres are implemented for kappa <= 0 only
    hemi = {H: rotational.hemisphere_height(H, params)
            if cfg.check_conjecture and params.kappa <= 0
            and model.sphere_exists(H, params) else None for H in H_values}
    bound = {H: rosenberg_bound(H, params) if cfg.check_rosenberg else None
             for H in H_values}

    pairs = []
    for n in sorted(set(cfg.grid_sizes)):
        try:
            grid = solver.disk_grid(cfg.domain_radius, n, params,
                                    center=cfg.domain_center)
        except OutOfDomain as exc:
            steps = [solver.ContinuationStep(H, None, FAILURES[OutOfDomain],
                                             str(exc)) for H in H_values]
        else:
            steps = solver.continuation_in_H(grid, cfg.boundary_value,
                                             H_values, params)
        for step in steps:
            rec = ReportRecord(kappa=params.kappa, tau=params.tau, H=step.H,
                               n=n, status=step.failure or "converged",
                               hemisphere_height=hemi[step.H],
                               rosenberg_bound=bound[step.H],
                               message=step.message)
            sol = step.solution
            if sol is not None:
                try:
                    _measure(rec, sol, cfg)
                except tuple(FAILURES) as exc:
                    rec.status, rec.message = FAILURES[type(exc)], str(exc)
                    sol = None
            pairs.append((rec, sol))

    if cfg.output_dir is not None:
        for rec, sol in pairs:
            if sol is not None:
                name = "sol_H%s_n%d.json" % (_fmt(rec.H), rec.n)
                sol.save(soldir / name)
                rec.solution_file = str(Path("solutions") / name)
        solver._atomic_write(out / "records.json",
                             json.dumps([rec.to_dict() for rec, _ in pairs],
                                        sort_keys=True, indent=1))
        lines = [PLOT_HEADER]
        for rec, _ in pairs:
            lines.append(" ".join([
                _fmt(rec.H), "%d" % rec.n, _fmt(rec.height),
                _fmt(rec.hemisphere_height), _fmt(rec.rosenberg_bound),
                _fmt(rec.lambda_min), rec.status]))
        solver._atomic_write(out / "sweep.dat", "\n".join(lines) + "\n")
    return [rec for rec, _ in pairs]


# ----------------------------------------------------------------------
# invariant check battery (CLI `check`)


def _check_battery(fast: bool = True):
    """Deterministic self-checks; yields (name, ok, detail)."""
    rng = np.random.RandomState(20240817)
    nil = SpaceParams(0.0, 0.5)
    psl = SpaceParams(-1.0, 0.5)
    flat = SpaceParams(0.0, 0.0)

    worst = 0.0
    for params in (nil, psl):
        for _ in range(100):
            x, y = rng.uniform(-0.8, 0.8, 2)
            F = model.frame_matrix(x, y, params)
            g = model.metric_components(x, y, params)
            worst = max(worst, float(np.abs(F.T @ g @ F - np.eye(3)).max()))
    yield "frame orthonormality", worst < 1e-12, "max |Gram - I| = %.2e" % worst

    worst = 0.0
    for params in (nil, psl):
        for _ in range(100):
            x, y = rng.uniform(-0.8, 0.8, 2)
            gam = model.christoffel_components(x, y, params)
            worst = max(worst, model._killing_residual_at(x, y, params, gam))
    yield "Killing identity", worst < 1e-8, "max residual = %.2e" % worst

    worst = 0.0
    for params in (nil, psl):
        for _ in range(200):
            x, y = rng.uniform(-0.8, 0.8, 2)
            jet = gg.Jet2(x, y, float(rng.randn()), 0, 0, 0, 0, 0)
            worst = max(worst, abs(gg.shape_data(jet, params).H))
    yield "sections are minimal", worst < 1e-10, "max |H| = %.2e" % worst

    worst = 0.0
    for params in (nil, psl, flat):
        for _ in range(60):
            x, y = rng.uniform(-0.8, 0.8, 2)
            jet = gg.Jet2(x, y, *(float(v) for v in rng.randn(6)))
            sd = gg.shape_data(jet, params)
            rep = model.curvature_report(Point3(x, y, 0.0), params)
            ric = float(sd.normal.components @ rep.ricci @ sd.normal.components)
            worst = max(worst, abs(sd.sigma_sq + ric - gg.jacobi_potential(jet, params)))
    yield "stability potential vs curvature contraction", worst < 1e-6, \
        "max gap = %.2e" % worst

    gam = model.christoffel(Point3(0.3, 0.2, 0.0), flat)
    ok = float(np.abs(gam).max()) == 0.0 and model.scalar_curvature(flat) == 0.0
    yield "flat reduction", ok, "Christoffels and curvature vanish"

    cs = stability.cylinder_stability(1.0, nil)
    yield "cylinder criterion sample", (not cs.stable) and cs.margin == -4.0, \
        "margin = %g" % cs.margin

    bounds = [rosenberg_bound(H, nil) for H in (0.5, 1.0, 2.0)]
    ok = all(b is not None for b in bounds) and bounds[0] > bounds[1] > bounds[2]
    yield "radius bound decreasing in H", ok, \
        "bounds = %s" % ", ".join("%.4f" % b for b in bounds)

    if not fast:
        h = rotational.hemisphere_height(1.0, flat)
        yield "flat hemisphere height", abs(h - 1.0) < 1e-4, "h = %.6f" % h
        g = solver.disk_grid(0.5, 48, flat)
        sol = solver.solve_dirichlet(g, 0.0, 1.0, flat)
        cap = 1.0 - math.sqrt(0.75)
        err = abs(solver.graph_height(sol) - cap) / cap
        yield "Euclidean cap solve", err < 0.02, "relative error %.2e" % err


# ----------------------------------------------------------------------
# CLI


def _add_space_args(p: argparse.ArgumentParser):
    p.add_argument("--kappa", type=float, required=True, help="base curvature")
    p.add_argument("--tau", type=float, required=True, help="bundle curvature")
    p.add_argument("--json", action="store_true", help="machine readable output")


def _space(args) -> SpaceParams:
    return SpaceParams(kappa=args.kappa, tau=args.tau)


def cli_dispatch(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="ektau",
        description="CMC graphs, rotational spheres and stability in "
                    "E(kappa,tau) spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="curvature report of the space")
    _add_space_args(p)

    p = sub.add_parser("solve", help="one Dirichlet solve")
    _add_space_args(p)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--boundary", type=float, default=0.0)
    p.add_argument("--out", type=str, default=None,
                   help="write the solution record to this file")

    p = sub.add_parser("sphere", help="hemisphere height of the rotational H-sphere")
    _add_space_args(p)
    p.add_argument("--H", type=float, required=True)

    p = sub.add_parser("cylinder", help="stability of the CMC cylinder")
    _add_space_args(p)
    p.add_argument("--H", type=float, required=True)

    p = sub.add_parser("sweep", help="run a configured experiment")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--out", type=str, default=None,
                   help="override the output directory")

    p = sub.add_parser("check", help="run the invariant self-check battery")
    p.add_argument("--full", action="store_true", help="include solver checks")

    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return _run_command(args)
    except (EktauError, ValueError) as exc:     # ValueError: rejected input
        print("error: %s" % exc, file=sys.stderr)
        return 1


def _run_command(args) -> int:
    if args.command == "curvature":
        params = _space(args)
        rep = model.curvature_report(Point3(0.0, 0.0, 0.0), params)
        if args.json:
            print(json.dumps({
                "kappa": params.kappa, "tau": params.tau,
                "scalar": rep.scalar,
                "ricci_frame": [float(v) for v in rep.ricci_diag_frame],
                "killing_residual": rep.killing_residual,
            }, sort_keys=True))
        else:
            print("scalar curvature: %.12g" % rep.scalar)
            print("Ricci on frame:   %s" % " ".join(
                "%.12g" % v for v in rep.ricci_diag_frame))
            print("Killing residual: %.3e" % rep.killing_residual)
        return 0

    if args.command == "sphere":
        params = _space(args)
        h = rotational.hemisphere_height(args.H, params)
        if args.json:
            print(json.dumps({"H": args.H, "hemisphere_height": h}))
        else:
            print("%.10g" % h)
        return 0

    if args.command == "cylinder":
        params = _space(args)
        cs = stability.cylinder_stability(args.H, params)
        if args.json:
            print(json.dumps(dataclasses.asdict(cs), sort_keys=True))
        else:
            print("%s, margin %.10g (spectral lambda_min %.6g)"
                  % ("stable" if cs.stable else "unstable",
                     cs.margin, cs.lambda_min_spectral))
        return 0

    if args.command == "solve":
        params = _space(args)
        grid = solver.disk_grid(args.radius, args.n, params)
        sol = solver.solve_dirichlet(grid, args.boundary, args.H, params)
        height = solver.graph_height(sol)
        if args.out:
            sol.save(args.out)
        if args.json:
            print(json.dumps({
                "H": args.H, "n": args.n, "radius": args.radius,
                "height": height, "residual_max": sol.residual_max,
                "min_abs_nu": sol.min_abs_nu,
                "max_sigma_interior": sol.max_sigma_interior,
            }, sort_keys=True))
        else:
            print("height %.10g (residual %.2e, min |nu| %.4f)"
                  % (height, sol.residual_max, sol.min_abs_nu))
        return 0

    if args.command == "sweep":
        cfg = ExperimentConfig.from_json(args.config)
        if args.out is not None:
            cfg.output_dir = args.out
        records = run_experiment(cfg)
        converged = sum(1 for r in records if r.status == "converged")
        print("%d rows, %d converged%s" % (
            len(records), converged,
            ", written to %s" % cfg.output_dir if cfg.output_dir else ""))
        return 0

    if args.command == "check":
        failures = 0
        for name, ok, detail in _check_battery(fast=not args.full):
            print("[%s] %s: %s" % ("PASS" if ok else "FAIL", name, detail))
            failures += 0 if ok else 1
        return 0 if failures == 0 else 1

    return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
