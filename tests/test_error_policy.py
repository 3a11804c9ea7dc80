"""Error policy: rejected input raises ConfigInvalid, and only EktauError
leaves a public entry point."""

import ast
import builtins
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ektau
from ektau import errors, rotational, stability
from ektau.errors import ConfigInvalid, EktauError, NonPositiveH
from ektau.harness import ExperimentConfig, rosenberg_bound
from ektau.model import SpaceParams, sphere_exists
from ektau.solver import (DomainGrid, GraphSolution, disk_grid, rectangle_grid,
                          solve_dirichlet)

SRC = Path(ektau.__file__).parent
NIL = SpaceParams(0.0, 0.5)
FLAT = SpaceParams(0.0, 0.0)


def _raised_builtins(path):
    """(line, name) of each `raise` of a builtin exception class in path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and isinstance(
                    getattr(builtins, exc.id, None), type) and issubclass(
                    getattr(builtins, exc.id), BaseException):
                found.append((node.lineno, exc.id))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_builtin_exception_raised(path):
    assert _raised_builtins(path) == []


def _file_writes(path):
    """(line, name) of each file write in path outside `errors.atomic_write`:
    a `write_text` or `write_bytes`, or an `open` whose mode is not a
    literal read mode."""
    tree = ast.parse(path.read_text())
    writer = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
              and n.name == "atomic_write" and path.name == "errors.py"]
    inside = {id(n) for w in writer for n in ast.walk(w)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif name == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                        and not set(m.value) & set("wax+")) for m in modes):
                found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_files_are_written_only_by_atomic_write(path):
    assert _file_writes(path) == []


def test_file_write_check_finds_writes(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("open(p)\nopen(p, 'rb')\nopen(p, 'w')\n"
                    "open(p, mode='a')\nopen(p, m)\nPath(p).write_text(t)\n")
    assert _file_writes(path) == [(3, "open"), (4, "open"), (5, "open"),
                                  (6, "write_text")]


def test_every_error_is_an_exported_ektau_error():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if c.__module__ == errors.__name__]
    assert len(classes) > 1
    for c in classes:
        assert issubclass(c, EktauError)
        assert getattr(ektau, c.__name__) is c
    assert issubclass(ConfigInvalid, ValueError)
    assert issubclass(NonPositiveH, ConfigInvalid)


# -- bad input rejected at the entry point -----------------------------------

def _record(shape="disk", **grid):
    g = (disk_grid(1.0, 16, NIL) if shape == "disk"
         else rectangle_grid((0.5, 0.5), 16, NIL))
    rec = GraphSolution(g, np.zeros((16, 16)), H_target=0.5,
                        boundary_value=0.0, residual_max=0.0, min_abs_nu=1.0,
                        max_sigma_interior=0.0).to_record()
    rec["grid"].update(grid)
    return rec


def _from_record(shape="disk", **grid):
    return GraphSolution.from_record(_record(shape, **grid))


def _record_with(**fields):
    rec = _record()
    rec.update(fields)
    return GraphSolution.from_record(rec)


def _solve(boundary_value=0.0, H=0.5, params=NIL):
    return solve_dirichlet(disk_grid(1.0, 16, NIL), boundary_value, H, params)


def _grid(center=(0.0, 0.0), n=16, params=NIL, radius=1.0):
    return DomainGrid("disk", center, n, params, radius=radius)


def _non_square_operator():
    return stability.DiscreteOperator(sp.eye(3, 2).tocsr(), np.ones(3), 0.0)


# id: (call, error, message) of bad input that is rejected at the entry
# point instead of escaping as a raw builtin error or running
REJECTED = {
    "record_center_of_one": (lambda: _from_record(center=[0.0]),
                             ConfigInvalid, "grid center"),
    "record_extents_of_one": (lambda: _from_record("rectangle", extents=[0.5]),
                              ConfigInvalid, "extents"),
    "record_n_infinite": (lambda: _from_record(n=math.inf),
                          ConfigInvalid, "nodes per side"),
    "record_n_fractional": (lambda: _from_record(n=16.7),
                            ConfigInvalid, "nodes per side"),
    "record_iterations_infinite": (
        lambda: _record_with(newton_iterations=math.inf),
        ConfigInvalid, "newton_iterations must be an int >= 0, got inf"),
    "record_iterations_negative": (
        lambda: _record_with(newton_iterations=-3),
        ConfigInvalid, "newton_iterations must be an int >= 0, got -3"),
    "record_iterations_fractional": (
        lambda: _record_with(newton_iterations=2.5),
        ConfigInvalid, "newton_iterations must be an int >= 0, got 2.5"),
    "record_H_nan": (lambda: _record_with(H_target=math.nan),
                     ConfigInvalid, r"H must be finite and >= 0 .*got nan"),
    "record_H_negative": (lambda: _record_with(H_target=-0.5),
                          ConfigInvalid, r"H must be finite and >= 0 .*got -0.5"),
    "record_boundary_infinite": (
        lambda: _record_with(boundary_value=math.inf),
        ConfigInvalid, "boundary value must be finite, got inf"),
    "solve_H_string": (lambda: _solve(H="0.5"),
                       ConfigInvalid, "H must be finite and >= 0"),
    "solve_boundary_string": (lambda: _solve(boundary_value="0"),
                              ConfigInvalid, "boundary value must be finite"),
    "solve_boundary_bool": (lambda: _solve(boundary_value=True),
                            ConfigInvalid, "boundary value must be finite"),
    "solve_params_none": (lambda: _solve(params=None),
                          ConfigInvalid, "different space parameters"),
    "grid_center_string": (lambda: _grid(center="ab"),
                           ConfigInvalid, "grid center"),
    "grid_n_string": (lambda: _grid(n="16"), ConfigInvalid, "nodes per side"),
    "grid_n_fractional": (lambda: _grid(n=16.5),
                          ConfigInvalid, "nodes per side"),
    "grid_params_none": (lambda: _grid(params=None),
                         ConfigInvalid, "params must be a SpaceParams"),
    "grid_radius_string": (lambda: _grid(radius="1"),
                           ConfigInvalid, "finite positive radius"),
    "space_kappa_string": (lambda: SpaceParams("a", 1),
                           ConfigInvalid, "kappa and tau must be finite"),
    "space_tau_squared_overflows": (lambda: SpaceParams(0.0, 1e200),
                                    ConfigInvalid, r"4\*tau\^2 overflows "
                                    r"\(got kappa=0, tau=1e\+200\)"),
    "hemisphere_H_string": (lambda: rotational.hemisphere_height("1", NIL),
                            NonPositiveH, "hemisphere height needs a finite "
                            "H > 0, got '1'"),
    "cylinder_curve_H_string": (
        lambda: rotational.cmc_cylinder_curve("1", NIL),
        NonPositiveH, "cylinder curve needs a finite H > 0"),
    "cylinder_stability_H_string": (
        lambda: stability.cylinder_stability("1", NIL),
        NonPositiveH, "cylinder stability needs a finite H > 0"),
    "sphere_exists_H_string": (lambda: sphere_exists("1", NIL),
                               NonPositiveH, "sphere existence needs"),
    # normalized H below 2^-511 (H^2 not a normal float), and heights past
    # the float range; an H as large as 1e154 or 1e300 is answered
    "hemisphere_H_beyond_closed_form": (
        lambda: rotational.hemisphere_height(1e-160, NIL),
        ConfigInvalid, r"hemisphere height needs H >= 2\^-511 "
        r"max\(tau, sqrt\(-kappa\)\), got 1e-160"),
    "hemisphere_H_overflowing_closed_form": (
        lambda: rotational.hemisphere_height(1e-310, FLAT),
        ConfigInvalid, "hemisphere height at H = 1e-310: the result .* "
        "leaves the float range"),
    "profile_H_overflowing_closed_form": (
        lambda: rotational.shoot_rotational_graph(1e-310, FLAT),
        ConfigInvalid, "hemisphere height at H = 1e-310: the result"),
    "hemisphere_H_underflowing_closed_form": (
        lambda: rotational.hemisphere_height(1e-100, SpaceParams(0.0, 1e60)),
        ConfigInvalid, r"hemisphere height needs H >= 2\^-511 .*got 1e-100"),
    "profile_H_underflowing_closed_form": (
        lambda: rotational.shoot_rotational_graph(1e-100,
                                                  SpaceParams(0.0, 1e60)),
        ConfigInvalid, r"hemisphere height needs H >= 2\^-511 .*got 1e-100"),
    # the cylinder shares the spheres' floor; its eigenvalue -(4H^2 + kappa)
    # must stay a normal float (Nil at H = 1e150 is answered)
    "cylinder_stability_H_tiny": (
        lambda: stability.cylinder_stability(1e-200, NIL),
        ConfigInvalid, r"cylinder stability needs H >= 2\^-511 "
        r"max\(tau, sqrt\(-kappa\)\), got 1e-200"),
    "cylinder_stability_H_huge": (
        lambda: stability.cylinder_stability(1e200, NIL),
        ConfigInvalid, r"cylinder stability at H = 1e\+200"),
    "cylinder_stability_H_past_the_eigensolver": (
        lambda: stability.cylinder_stability(1e155, NIL),
        ConfigInvalid, r"cylinder stability at H = 1e\+155: the margin .* "
        "leaves the float range"),
    "rosenberg_H_string": (lambda: rosenberg_bound("1", NIL),
                           NonPositiveH, "rosenberg bound needs"),
    "rosenberg_H_beyond_floats": (lambda: rosenberg_bound(10 ** 400, NIL),
                                  NonPositiveH, "rosenberg bound needs"),
    "rosenberg_bound_overflowing": (
        lambda: rosenberg_bound(5e-324, FLAT),
        ConfigInvalid, "rosenberg bound at H = 5e-324: the result .* leaves "
        "the float range"),
    "eigen_operator_not_square": (
        lambda: stability.smallest_eigenvalue(_non_square_operator()),
        ConfigInvalid, "must be square"),
    "angle_residual_margin_past_every_node": (
        lambda: stability.angle_jacobi_residual(_solve(), margin=10.0),
        ConfigInvalid, "no interior nodes beyond the requested margin"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input_raises_config_invalid(case):
    call, error, message = REJECTED[case]
    with pytest.raises(error, match=message):
        call()


def test_cylinder_stability_rejects_kappa_through_the_curve():
    # the base curve's own check is the only kappa check
    with pytest.raises(errors.UnsupportedSign, match="cylinder curves"):
        stability.cylinder_stability(1.0, SpaceParams(1.0, 0.0))


# -- only EktauError escapes, over JSON-like values -------------------------

# integers stop at 64, so no drawn lattice has more than 64 nodes per side;
# below, they are unbounded, which reaches past the float range
_SCALARS = (st.none() | st.booleans() | st.integers(max_value=64)
            | st.floats() | st.text(max_size=4))
JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                    max_leaves=6)
DELETE = object()       # a drawn value that removes the key

_CONFIG = {"params": {"kappa": 0.0, "tau": 0.5}, "H_list": [0.5, 0.8],
           "grid_sizes": [24], "domain_radius": 1.0,
           "domain_center": [0.1, -0.2], "boundary_value": 0.0}
_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _only_ektau_errors(call):
    try:
        call()
    except EktauError:
        pass


def _replaced(base, key, value):
    """A copy of base with key set to value, or removed for DELETE."""
    d = json.loads(json.dumps(base))
    if value is DELETE:
        d.pop(key, None)
    else:
        d[key] = value
    return d


@_SETTINGS
@given(key=st.sampled_from(sorted(_CONFIG) + ["params.kappa", "params.tau",
                                               "output_dir", "check_stability",
                                               "unknown"]),
       value=JSON | st.just(DELETE))
def test_from_dict_lets_only_ektau_errors_out(key, value):
    if key.startswith("params."):
        d = _replaced(_CONFIG, "params", _replaced(_CONFIG["params"],
                                                   key[7:], value))
    else:
        d = _replaced(_CONFIG, key, value)
    _only_ektau_errors(lambda: ExperimentConfig.from_dict(d))


@_SETTINGS
@given(value=JSON)
def test_from_dict_and_from_json_take_any_json_value(tmp_path, value):
    _only_ektau_errors(lambda: ExperimentConfig.from_dict(value))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(value))
    _only_ektau_errors(lambda: ExperimentConfig.from_json(path))


@pytest.fixture(scope="module")
def solved_record():
    return solve_dirichlet(disk_grid(0.6, 16, NIL), 0.1, 0.6, NIL).to_record()


_RECORD_KEYS = ["params", "grid", "H_target", "boundary_value", "residual_max",
                "min_abs_nu", "max_sigma_interior", "newton_iterations",
                "orientation", "values", "grid.shape", "grid.center",
                "grid.n", "grid.radius", "grid.extents", "params.kappa",
                "params.tau"]


@_SETTINGS
@given(key=st.sampled_from(_RECORD_KEYS), value=JSON | st.just(DELETE))
def test_from_record_lets_only_ektau_errors_out(solved_record, key, value):
    if "." in key:
        outer, inner = key.split(".")
        rec = _replaced(solved_record, outer,
                        _replaced(solved_record[outer], inner, value))
    else:
        rec = _replaced(solved_record, key, value)
    _only_ektau_errors(lambda: GraphSolution.from_record(rec))


@_SETTINGS
@given(kappa=JSON, tau=JSON)
def test_space_params_lets_only_ektau_errors_out(kappa, tau):
    _only_ektau_errors(lambda: SpaceParams(kappa, tau))
