"""Experiment runner, report persistence, CLI."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ektau
from ektau.errors import ConfigInvalid, IoFailure
from ektau.harness import (ExperimentConfig, cli_dispatch, rosenberg_bound,
                           run_experiment)
from ektau.model import SpaceParams
from ektau.solver import GraphSolution, graph_height

NIL = SpaceParams(0.0, 0.5)
PSL = SpaceParams(-1.0, 0.5)


def test_io_failure_exported():
    from ektau import EktauError, IoFailure
    assert issubclass(IoFailure, EktauError)


class TestRosenbergBound:
    def test_arithmetic(self):
        # c = 3 H^2 + S = 3 gives 2 pi / 3
        params = NIL  # S = -1/2
        H = math.sqrt((3.0 + 0.5) / 3.0)
        assert rosenberg_bound(H, params) == pytest.approx(2 * math.pi / 3.0)

    def test_none_when_hypothesis_fails(self):
        # PSL: S = -2.5, need 3 H^2 > 2.5
        assert rosenberg_bound(0.5, PSL) is None
        assert rosenberg_bound(1.0, PSL) is not None

    def test_nil_value_via_curvature_oracle(self):
        # S(Nil, tau=1/2) = -1/2: c = 2.5 at H = 1
        assert rosenberg_bound(1.0, NIL) == pytest.approx(
            2 * math.pi / math.sqrt(7.5), rel=1e-9)

    @pytest.mark.parametrize("H", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_H(self, H):
        with pytest.raises(ConfigInvalid, match="finite"):
            rosenberg_bound(H, NIL)

    def test_decreasing_in_c(self):
        bounds = [rosenberg_bound(H, NIL) for H in (0.5, 0.8, 1.2, 2.0)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(params=NIL, H_list=[], grid_sizes=[24])
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(params=NIL, H_list=[0.5], grid_sizes=[8])
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(params=NIL, H_list=[-0.5], grid_sizes=[24])

    @pytest.mark.parametrize("sizes", [[24.7], [24.0], ["24"], [24, 32.5]])
    def test_non_integral_grid_size_rejected(self, sizes):
        # records.json would record the float while the lattice, the
        # solution file name and sweep.dat use its integer part
        with pytest.raises(ConfigInvalid, match="grid sizes"):
            ExperimentConfig(params=NIL, H_list=[0.5], grid_sizes=sizes)

    @pytest.mark.parametrize("check", ["check_stability",
                                       "check_sigma_profile"])
    def test_boundary_distance_checks_rejected_for_positive_kappa(self,
                                                                  check):
        # both checks need the distance to the boundary, which the model
        # has for kappa <= 0 only: a sweep would abort at its first row
        sphere = SpaceParams(1.0, 0.2)
        with pytest.raises(ConfigInvalid, match="kappa <= 0"):
            ExperimentConfig(params=sphere, H_list=[0.3, 0.6],
                             grid_sizes=[24], **{check: True})
        ExperimentConfig(params=sphere, H_list=[0.3, 0.6], grid_sizes=[24])

    def test_from_dict_rejects_unknown_keys(self):
        # workers: the removed thread-pool option; domain_shape: the removed
        # shape option (disks only)
        for key in ("bogus", "workers", "domain_shape"):
            with pytest.raises(ConfigInvalid, match="unknown config keys"):
                ExperimentConfig.from_dict({
                    "params": {"kappa": 0.0, "tau": 0.5},
                    "H_list": [0.5], "grid_sizes": [24], key: 1})

    @pytest.mark.parametrize("key", ["jet_fd_step", "continuation_steps",
                                     "damping", "auto_continue"])
    def test_removed_solver_keys_rejected(self, key):
        # the solver settings are fixed, so "solver" itself is unknown
        with pytest.raises(ConfigInvalid, match="unknown config keys"):
            ExperimentConfig.from_dict({
                "params": {"kappa": 0.0, "tau": 0.5},
                "H_list": [0.5], "grid_sizes": [24], "solver": {key: 1}})

    @pytest.mark.parametrize("check", ["check_rosenberg", "check_conjecture",
                                       "check_sigma_profile",
                                       "check_stability"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_non_boolean_check_flags_rejected(self, check, value):
        # "false" is truthy and 0 falsy: neither may switch a check
        with pytest.raises(ConfigInvalid, match=check + " must be true or "
                           "false"):
            ExperimentConfig.from_dict({
                "params": {"kappa": 0.0, "tau": 0.5},
                "H_list": [0.5], "grid_sizes": [24], check: value})

    @pytest.mark.parametrize("H", [math.nan, math.inf])
    def test_non_finite_H_list_rejected(self, H):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(params=NIL, H_list=[0.5, H], grid_sizes=[24])

    @pytest.mark.parametrize("H", [True, "0.8", None])
    def test_non_numeric_H_list_entry_rejected(self, H):
        # True would run as H = 1 and be recorded as "H": true
        with pytest.raises(ConfigInvalid, match=r"H_list entries must be "
                           r"real numbers, got %s" % re.escape(repr(H))):
            ExperimentConfig(params=NIL, H_list=[0.5, H], grid_sizes=[24])
        with pytest.raises(ConfigInvalid, match="H_list entries"):
            ExperimentConfig.from_dict({
                "params": {"kappa": 0.0, "tau": 0.5},
                "H_list": [0.5, H], "grid_sizes": [24]})

    @pytest.mark.parametrize("field, value", [
        ("domain_radius", math.nan), ("domain_radius", math.inf),
        ("domain_center", (math.nan, 0.0)), ("domain_center", (0.0, math.inf)),
        ("domain_center", (0.0,)),
        ("boundary_value", math.nan), ("boundary_value", -math.inf)])
    def test_non_finite_domain_rejected(self, field, value):
        with pytest.raises(ConfigInvalid, match=field):
            ExperimentConfig(params=NIL, H_list=[0.5], grid_sizes=[24],
                             **{field: value})

    def test_from_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "params": {"kappa": 0.0, "tau": 0.5},
            "H_list": [0.5], "grid_sizes": [24],
            "domain_center": [0.1, -0.2]}))
        cfg = ExperimentConfig.from_json(p)
        assert cfg.domain_center == (0.1, -0.2)


def small_config(tmp_path, name, **kw):
    base = dict(params=NIL, H_list=[0.5, 0.8], grid_sizes=[24],
                domain_radius=1.0, output_dir=str(tmp_path / name),
                check_stability=False)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_records_and_files(self, tmp_path):
        cfg = small_config(tmp_path, "run")
        records = run_experiment(cfg)
        assert len(records) == 2
        assert all(r.status == "converged" for r in records)
        out = Path(cfg.output_dir)
        assert (out / "records.json").exists()
        lines = (out / "sweep.dat").read_text().splitlines()
        assert lines[0] == "H n height hemi_height bound lambda_min status"
        assert len(lines) == 3

    def test_determinism_byte_identical(self, tmp_path):
        cfg1 = small_config(tmp_path, "a")
        cfg2 = small_config(tmp_path, "b")
        run_experiment(cfg1)
        run_experiment(cfg2)
        a = (Path(cfg1.output_dir) / "records.json").read_bytes()
        b = (Path(cfg2.output_dir) / "records.json").read_bytes()
        assert a == b
        a = (Path(cfg1.output_dir) / "sweep.dat").read_bytes()
        b = (Path(cfg2.output_dir) / "sweep.dat").read_bytes()
        assert a == b

    def test_no_row_is_warm_started(self, tmp_path, monkeypatch):
        from ektau import solver
        real = solver.solve_dirichlet
        warm = {}

        def spy(grid, bv, H, *args, init_values=None, **kwargs):
            warm[H] = init_values is not None
            return real(grid, bv, H, *args, init_values=init_values, **kwargs)

        monkeypatch.setattr(solver, "solve_dirichlet", spy)
        cfg = small_config(tmp_path, "starts", H_list=[0.5, 0.8, 1.0, 1.2])
        records = run_experiment(cfg)
        assert warm == {0.5: False, 0.8: False, 1.0: False, 1.2: False}
        assert [r.status for r in records] == [
            "converged", "converged", "vertical_blowup", "vertical_blowup"]

    def test_rerun_byte_identical_across_start_paths(self, tmp_path):
        # cap-started rows and zero-started blow-up rows in one sweep
        outputs = []
        for name in ("a", "b"):
            cfg = small_config(tmp_path, name, H_list=[0.5, 0.8, 1.2])
            run_experiment(cfg)
            out = Path(cfg.output_dir)
            outputs.append([(out / f).read_bytes()
                            for f in ("records.json", "sweep.dat")])
        assert outputs[0] == outputs[1]

    def test_rows_without_a_cap_fail_in_one_run(self, tmp_path):
        # H R > 1 from the first row: both rows are cold zero starts, and
        # each message is the one Newton run's own
        sweep_files = []
        for name in ("a", "b"):
            cfg = small_config(tmp_path, name, H_list=[1.1, 1.3],
                               grid_sizes=[48])
            records = run_experiment(cfg)
            assert [r.status for r in records] == ["vertical_blowup"] * 2
            out = Path(cfg.output_dir)
            saved = json.loads((out / "records.json").read_text())
            assert [r["message"] for r in saved] == [
                "graph turned vertical during iteration: min|nu| < 0.001 "
                "at H=%g" % H for H in (1.1, 1.3)]
            sweep_files.append((out / "sweep.dat").read_bytes())
        assert sweep_files[0] == sweep_files[1]

    def test_height_column_roundtrip(self, tmp_path):
        cfg = small_config(tmp_path, "rt")
        records = run_experiment(cfg)
        out = Path(cfg.output_dir)
        for rec in records:
            assert rec.solution_file is not None
            sol = GraphSolution.load(out / rec.solution_file)
            assert graph_height(sol) == rec.height

    def test_failures_recorded_not_raised(self, tmp_path):
        cfg = small_config(tmp_path, "fail", H_list=[0.5, 2.0])
        records = run_experiment(cfg)
        by_H = {r.H: r for r in records}
        assert by_H[0.5].status == "converged"
        assert by_H[2.0].status == "vertical_blowup"
        assert by_H[2.0].height is None

    def test_stability_failure_recorded_not_raised(self, tmp_path,
                                                   monkeypatch):
        from ektau import stability
        from ektau.errors import IterationLimit
        real = stability.smallest_eigenvalue
        calls = []

        def fail_first(op, *args, **kwargs):
            calls.append(op)
            if len(calls) == 1:
                raise IterationLimit("guard iteration did not converge")
            return real(op, *args, **kwargs)

        monkeypatch.setattr(stability, "smallest_eigenvalue", fail_first)
        cfg = small_config(tmp_path, "stab", check_stability=True)
        records = run_experiment(cfg)
        assert [r.H for r in records] == [0.5, 0.8]
        failed, ok = records
        assert failed.status == "stability_failed"
        assert failed.message == "guard iteration did not converge"
        assert failed.lambda_min is None
        assert ok.status == "converged" and ok.lambda_min > 0
        lines = (Path(cfg.output_dir) / "sweep.dat").read_text().splitlines()
        assert lines[1].endswith(" stability_failed")

    def test_numerical_errors_recorded_as_statuses(self, tmp_path,
                                                   monkeypatch):
        from ektau import solver
        from ektau.errors import DegenerateMetric, OutOfDomain
        real = solver.solve_dirichlet
        raised = {0.3: DegenerateMetric("first fundamental form degenerate"),
                  0.5: OutOfDomain("point outside the model disk")}

        def raise_by_H(grid, bv, H, *args, **kwargs):
            if H in raised:
                raise raised[H]
            return real(grid, bv, H, *args, **kwargs)

        monkeypatch.setattr(solver, "solve_dirichlet", raise_by_H)
        cfg = small_config(tmp_path, "errs", H_list=[0.3, 0.5, 0.6])
        records = run_experiment(cfg)
        assert [r.status for r in records] == [
            "degenerate_metric", "out_of_domain", "converged"]
        assert [r.message for r in records[:2]] == [str(e) for e in raised.values()]
        assert all(r.height is None for r in records[:2])
        assert records[2].height > 0
        lines = (Path(cfg.output_dir) / "sweep.dat").read_text().splitlines()
        assert [ln.split()[-1] for ln in lines[1:]] == [r.status for r in records]

    def test_grid_outside_model_disk_gives_out_of_domain_rows(self, tmp_path):
        # PSL's model disk has radius 2: no grid of radius 2.5 is built
        outputs = []
        for name in ("a", "b"):
            cfg = small_config(tmp_path, name, params=PSL, domain_radius=2.5,
                               H_list=[0.3, 0.6], grid_sizes=[24, 32])
            records = run_experiment(cfg)
            assert [(r.n, r.H, r.status) for r in records] == [
                (n, H, "out_of_domain") for n in (24, 32) for H in (0.3, 0.6)]
            assert all(r.message == "grid interior leaves the model domain"
                       and r.height is None for r in records)
            out = Path(cfg.output_dir)
            assert not any((out / "solutions").iterdir())
            outputs.append([(out / f).read_bytes()
                            for f in ("records.json", "sweep.dat")])
        assert outputs[0] == outputs[1]

    def test_sigma_profile_check(self, tmp_path):
        off = run_experiment(small_config(tmp_path, "off"))
        assert all(r.sigma_far_from_boundary is None for r in off)
        on = run_experiment(small_config(tmp_path, "on", H_list=[0.5, 0.8, 2.0],
                                         check_sigma_profile=True))
        converged = [r for r in on if r.status == "converged"]
        assert len(converged) == 2
        for r in converged:
            # the far-field maximum is one of the interior |sigma| values
            assert 0 < r.sigma_far_from_boundary \
                <= r.max_sigma_interior * (1 + 1e-12)
        assert [r.sigma_far_from_boundary for r in on
                if r.status != "converged"] == [None]

    def test_bad_output_dir_fails_before_any_solve(self, tmp_path,
                                                   monkeypatch):
        from ektau import solver
        calls = []
        monkeypatch.setattr(solver, "solve_dirichlet",
                            lambda *args, **kwargs: calls.append(args))
        (tmp_path / "afile").write_text("")
        cfg = small_config(tmp_path, "afile/out")
        with pytest.raises(IoFailure, match="cannot create .*afile"):
            run_experiment(cfg)
        assert calls == []

    def test_conjecture_ratio_below_one(self, tmp_path):
        cfg = small_config(tmp_path, "conj")
        for r in run_experiment(cfg):
            assert r.height_over_hemisphere is not None
            assert r.height_over_hemisphere < 1.0


class TestCli:
    def test_sphere_flat(self, capsys):
        assert cli_dispatch(["sphere", "--kappa", "0", "--tau", "0",
                             "--H", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.0, abs=1e-4)

    def test_cylinder_json(self, capsys):
        rc = cli_dispatch(["cylinder", "--kappa", "0", "--tau", "0.5",
                           "--H", "1", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stable"] is False
        assert data["margin"] == -4.0

    def test_curvature_flat(self, capsys):
        rc = cli_dispatch(["curvature", "--kappa", "0", "--tau", "0", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scalar"] == 0.0

    def test_curvature_psl_exact(self, capsys):
        # S = 2 kappa - 2 tau^2 and Ric on the frame, in closed form
        rc = cli_dispatch(["curvature", "--kappa", "-1", "--tau", "0.5", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scalar"] == -2.5
        assert data["ricci_frame"] == [-1.5, -1.5, 0.5]

    def test_solve_json(self, capsys):
        rc = cli_dispatch(["solve", "--kappa", "0", "--tau", "0.5",
                           "--H", "0.5", "--radius", "0.8", "--n", "24",
                           "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["height"] > 0
        assert data["residual_max"] < 1e-9

    def test_sweep_command(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "params": {"kappa": 0.0, "tau": 0.5},
            "H_list": [0.5], "grid_sizes": [24],
            "output_dir": str(tmp_path / "out")}))
        assert cli_dispatch(["sweep", "--config", str(cfgfile)]) == 0
        assert (tmp_path / "out" / "sweep.dat").exists()

    def test_bad_flags_nonzero(self, capsys):
        assert cli_dispatch(["sphere", "--kappa", "0"]) != 0
        capsys.readouterr()

    def test_error_reported_nonzero(self, capsys):
        # no sphere below the critical mean curvature
        rc = cli_dispatch(["sphere", "--kappa", "-1", "--tau", "0.5",
                           "--H", "0.49"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unwritable_solve_output_reported(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        rc = cli_dispatch(["solve", "--kappa", "0", "--tau", "0.5", "--H",
                           "0.8", "--n", "24", "--out", str(path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot write %s" % path)

    def test_non_finite_H_rejected_cleanly(self, capsys):
        rc = cli_dispatch(["cylinder", "--kappa", "0", "--tau", "0.5",
                           "--H", "nan"])
        assert rc == 1
        assert "error: cylinder stability needs a finite H > 0" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        ("solve", "error: H must be finite and >= 0"),
        ("sphere", "error: hemisphere height needs a finite H > 0")])
    def test_non_finite_H_rejected_at_entry(self, capsys, command, message):
        rc = cli_dispatch([command, "--kappa", "0", "--tau", "0.5",
                           "--H", "nan"])
        assert rc == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        ("--radius", "error: disk grid needs a finite positive radius"),
        ("--boundary", "error: boundary value must be finite")])
    def test_non_finite_solve_data_rejected(self, capsys, flag, message):
        rc = cli_dispatch(["solve", "--kappa", "0", "--tau", "0.5",
                           "--H", "0.5", "--n", "24", flag, "nan"])
        assert rc == 1
        assert message in capsys.readouterr().err

    def test_sphere_has_no_step_flag(self, capsys):
        assert cli_dispatch(["sphere", "--kappa", "0", "--tau", "0",
                             "--H", "1", "--step", "0.001"]) == 2
        assert "unrecognized arguments: --step" in capsys.readouterr().err

    def test_python_m_ektau(self, tmp_path):
        src = str(Path(ektau.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "ektau", "sphere", "--kappa", "0",
             "--tau", "0", "--H", "1"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert float(proc.stdout) == pytest.approx(1.0, abs=1e-4)

    def test_check_battery(self, capsys):
        assert cli_dispatch(["check"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_check_battery_full(self, capsys):
        assert cli_dispatch(["check", "--full"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] flat hemisphere height" in out
        assert "[PASS] Euclidean cap solve" in out
        assert "[FAIL]" not in out
