"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import hashlib
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from ektau.graph_geometry import jacobi_potential_from, mean_curvature_arrays
from ektau.harness import (FAILURES, ExperimentConfig, cli_dispatch,
                           run_experiment)
from ektau.model import (Point3, SpaceParams, ambient_components,
                         christoffel_components, _killing_residual_at)
from ektau.rotational import hemisphere_height
from ektau.solver import disk_grid, graph_height, solve_dirichlet
from ektau.stability import (angle_jacobi_residual, assemble_jacobi,
                             cylinder_stability, smallest_eigenvalue)
from fd_curvature import curvature_report_fd

NIL = SpaceParams(0.0, 0.5)
PSL = SpaceParams(-1.0, 0.5)
FLAT = SpaceParams(0.0, 0.0)

# Fischer-Colbrie slack constant, calibrated once on the Euclidean cap:
# |lambda_min(n=32) - lambda_min(n=64)| / h(32)^2 = 373, rounded up.
CAP_CALIBRATION_C = 400.0

CAP_ORACLE = 1.0 - math.sqrt(1.0 - 0.25)


def report(num: int, ok: bool, detail: str, t0: float, budget: float):
    dt = time.time() - t0
    line = "[criterion %02d] %s - %s (%.1fs, budget %.0fs)" % (
        num, "PASS" if ok else "FAIL", detail, dt, budget)
    print(line)
    assert ok, line
    assert dt < budget, "criterion %d exceeded its runtime budget" % num


@pytest.fixture(scope="module")
def cap_solutions():
    return {n: solve_dirichlet(disk_grid(0.5, n, FLAT), 0.0, 1.0, FLAT)
            for n in (32, 64, 128)}


@pytest.fixture(scope="module")
def nil_solutions():
    return {n: solve_dirichlet(disk_grid(1.0, n, NIL), 0.0, 0.8, NIL)
            for n in (32, 64, 128)}


def sweep_config(params, H_list, outdir):
    return ExperimentConfig(params=params, H_list=H_list, grid_sizes=[64],
                            domain_radius=1.0, output_dir=str(outdir),
                            check_rosenberg=True, check_conjecture=True)


def run_sweeps(base):
    """The Nil and PSL sweeps of criteria 9 and 12, written under base."""
    nil_cfg = sweep_config(NIL, [0.5, 0.6, 0.75, 0.9, 0.95, 1.0, 1.5],
                           base / "nil")
    psl_cfg = sweep_config(PSL, [0.6, 0.75, 0.9, 0.92, 0.95, 1.2], base / "psl")
    t0 = time.time()
    records = {"nil": run_experiment(nil_cfg), "psl": run_experiment(psl_cfg)}
    return {"records": records, "configs": {"nil": nil_cfg, "psl": psl_cfg},
            "base": base, "runtime": time.time() - t0}


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    return run_sweeps(tmp_path_factory.mktemp("sweeps"))


# SHA-256 of every file the sweeps write: records.json, sweep.dat and the
# solutions, with the numpy and scipy versions that made them.  Rebuild with
#     PYTHONPATH=src python tests/test_acceptance.py
DIGESTS = Path(__file__).with_name("acceptance_digests.json")


def output_digests(base):
    return {p.relative_to(base).as_posix(): hashlib.sha256(p.read_bytes())
            .hexdigest() for p in sorted(base.rglob("*")) if p.is_file()}


def library_versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def test_criterion_01_euclidean_hemisphere_cli(capsys):
    t0 = time.time()
    errs = []
    for H in (0.5, 1.0, 2.0):
        rc = cli_dispatch(["sphere", "--kappa", "0", "--tau", "0",
                           "--H", str(H)])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        errs.append(abs(float(out) - 1.0 / H))
    with capsys.disabled():
        report(1, max(errs) < 1e-4,
               "sphere heights vs 1/H, max err %.2e" % max(errs), t0, 1.0)


def test_criterion_02_sections_minimal():
    t0 = time.time()
    rng = np.random.RandomState(101)
    worst = 0.0
    for params in (NIL, PSL):
        lim = 0.8 if params.kappa == 0 else 0.45 * params.domain_radius
        # a section's height f (the last column) leaves H unchanged
        x, y, _ = np.array([np.r_[rng.uniform(-lim, lim, 2), rng.randn()]
                            for _ in range(200)]).T
        d = mean_curvature_arrays(ambient_components(x, y, params),
                                  *np.zeros((5, 200)))
        worst = max(worst, float(np.abs(d["H"]).max()))
    report(2, worst < 1e-10, "max |H| over sections %.2e" % worst, t0, 1.0)


def test_criterion_03_potential_identity():
    t0 = time.time()
    rng = np.random.RandomState(102)
    worst = 0.0
    for params in (NIL, PSL):
        lim = 0.8 if params.kappa == 0 else 0.45 * params.domain_radius
        # columns x, y, f, fx, fy, fxx, fxy, fyy
        x, y, _, *jet = np.array([np.r_[rng.uniform(-lim, lim, 2), rng.randn(6)]
                                  for _ in range(500)]).T
        d = mean_curvature_arrays(ambient_components(x, y, params), *jet)
        q = jacobi_potential_from(d["nu"], d["sigma_sq"], params)
        for i, normal in enumerate(np.transpose(d["normal"])):
            # Ricci from finite differences of the exact Christoffels
            ricci = curvature_report_fd(Point3(x[i], y[i], 0.0), params,
                                        christoffel_components).ricci
            worst = max(worst, float(abs(d["sigma_sq"][i] + normal @ ricci @ normal
                                         - q[i])))
    report(3, worst < 1e-6, "max |(sigma^2+Ric) - closed form| %.2e" % worst,
           t0, 5.0)


def test_criterion_04_killing_identity():
    t0 = time.time()
    rng = np.random.RandomState(103)
    worst = 0.0
    for params in (NIL, PSL):
        lim = 0.8 if params.kappa == 0 else 0.45 * params.domain_radius
        for _ in range(100):
            x, y = rng.uniform(-lim, lim, 2)
            gam = christoffel_components(x, y, params)
            worst = max(worst, _killing_residual_at(x, y, params, gam))
    report(4, worst < 1e-8, "max Killing residual %.2e" % worst, t0, 1.0)


def test_criterion_05_euclidean_cap(cap_solutions):
    t0 = time.time()
    h = {n: graph_height(s) for n, s in cap_solutions.items()}
    rel64 = abs(h[64] - CAP_ORACLE) / CAP_ORACLE
    rel128 = abs(h[128] - CAP_ORACLE) / CAP_ORACLE
    rho = math.sqrt((63.0 / 31.0) * (127.0 / 63.0))
    order = math.log(abs((h[32] - h[64]) / (h[64] - h[128]))) / math.log(rho)
    ok = rel64 < 0.02 and rel128 < 0.005 and 1.7 <= order <= 2.3
    report(5, ok, "cap err n64 %.2e n128 %.2e, order %.2f"
           % (rel64, rel128, order), t0, 60.0)


def test_criterion_06_angle_function_is_jacobi(cap_solutions, nil_solutions):
    t0 = time.time()
    ratios = []
    for sols, margin in ((cap_solutions, 0.15), (nil_solutions, 0.3)):
        res = {n: angle_jacobi_residual(sols[n], margin=margin)
               for n in (32, 64, 128)}
        ratios += [res[32] / res[64], res[64] / res[128]]
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    report(6, ok, "residual decay ratios " + ", ".join("%.2f" % r for r in ratios),
           t0, 120.0)


def test_criterion_07_graph_stability(cap_solutions, nil_solutions):
    t0 = time.time()
    psl_sol = solve_dirichlet(disk_grid(1.0, 48, PSL), 0.0, 0.8, PSL)
    checks = []
    for sol in list(cap_solutions.values()) + list(nil_solutions.values()) \
            + [psl_sol]:
        lam = smallest_eigenvalue(assemble_jacobi(sol)).lambda_min
        h = sol.grid.hx
        checks.append(lam >= -CAP_CALIBRATION_C * h * h)
    report(7, all(checks),
           "lambda_min >= -C h^2 for %d converged solutions (C=%g)"
           % (len(checks), CAP_CALIBRATION_C), t0, 120.0)


def test_criterion_08_cylinder_criterion():
    t0 = time.time()
    ok = True
    spectral_checked = 0
    for H in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0):
        for kappa in (0.0, -1.0, -4.0, -9.0):
            cs = cylinder_stability(H, SpaceParams(kappa, 0.5))
            ok &= cs.stable == (4 * H * H + kappa <= 0)
            if abs(4 * H * H + kappa) > 0.1:
                ok &= cs.spectral_stable == cs.stable
                spectral_checked += 1
    report(8, ok, "sign flips at 4H^2+kappa=0; %d spectral agreements"
           % spectral_checked, t0, 60.0)


def test_criterion_09_radius_bound_respected(sweeps):
    t0 = time.time() - sweeps["runtime"]
    rows = [r for recs in sweeps["records"].values() for r in recs]
    checked = 0
    ok = True
    for r in rows:
        if r.status != "converged" or r.rosenberg_bound is None:
            continue
        checked += 1
        ok &= r.height <= r.rosenberg_bound + 1e-3
    ok &= checked >= 6
    report(9, ok, "height <= 2pi/sqrt(3c)+1e-3 on %d converged rows" % checked,
           t0, 300.0)


def test_criterion_10_hemisphere_decay():
    t0 = time.time()
    hs = [hemisphere_height(H, NIL) for H in (0.6, 1.0, 2.0, 5.0, 10.0)]
    ok = all(a > b for a, b in zip(hs, hs[1:]))
    report(10, ok, "heights " + ", ".join("%.4f" % h for h in hs), t0, 10.0)


def test_criterion_11_nonexistence_probe():
    t0 = time.time()
    grid = disk_grid(1.0, 48, FLAT)
    status = {}
    for H in np.linspace(0.0, 1.2, 25):
        try:
            solve_dirichlet(grid, 0.0, H, FLAT)
        except tuple(FAILURES) as exc:
            status[H] = FAILURES[type(exc)]
        else:
            status[H] = "converged"
    low = [s for H, s in status.items() if H <= 0.95 + 1e-9]
    high = [s for H, s in status.items() if H > 1.0 + 1e-9]
    ok = all(s == "converged" for s in low) and len(high) >= 3 \
        and all(s == "vertical_blowup" for s in high)
    report(11, ok, "%d/%d solves below 0.95, %d blowups above 1"
           % (low.count("converged"), len(low), len(high)), t0, 120.0)


def test_criterion_12_conjecture_report(sweeps, tmp_path):
    t0 = time.time()
    ratios = []
    for recs in sweeps["records"].values():
        for r in recs:
            if r.status == "converged" and r.height_over_hemisphere is not None:
                ratios.append(r.height_over_hemisphere)
    ok = bool(ratios) and max(ratios) <= 1.05

    # determinism: identical configs reproduce the reports byte for byte
    for tag in ("nil", "psl"):
        cfg = sweeps["configs"][tag]
        rerun = ExperimentConfig(
            params=cfg.params, H_list=cfg.H_list, grid_sizes=cfg.grid_sizes,
            domain_radius=cfg.domain_radius,
            output_dir=str(tmp_path / ("rerun_" + tag)),
            check_rosenberg=True, check_conjecture=True)
        run_experiment(rerun)
        first = Path(cfg.output_dir)
        second = Path(rerun.output_dir)
        for name in ("records.json", "sweep.dat"):
            ok &= (first / name).read_bytes() == (second / name).read_bytes()
    report(12, ok, "max height/hemisphere %.4f over %d rows; reports "
           "byte-identical on rerun" % (max(ratios), len(ratios)), t0, 300.0)


def test_sweep_output_bytes_match_the_committed_digests(sweeps):
    # another numpy or scipy may round differently: bytes are compared only
    # against the versions that made the digests
    committed = json.loads(DIGESTS.read_text())
    if committed["versions"] != library_versions():
        pytest.skip("digests made with numpy %(numpy)s and scipy %(scipy)s"
                    % committed["versions"] + "; this is numpy %(numpy)s and "
                    "scipy %(scipy)s" % library_versions())
    assert output_digests(sweeps["base"]) == committed["files"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_sweeps(Path(tmp))
        DIGESTS.write_text(json.dumps(
            {"versions": library_versions(),
             "files": output_digests(Path(tmp))}, indent=1, sort_keys=True)
            + "\n")
