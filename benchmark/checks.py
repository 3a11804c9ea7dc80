"""Correctness gate: reference outputs and seed-independent oracles.

Every check takes the plain outputs of one op and returns a list of
breaches (empty when the op is correct).  Tolerances come from the
package's own accuracy contract, not from observed drift:

* graph heights to 1e-8 relative, against Newton's 1e-10 residual stop;
* ``lambda_min`` to 1e-8 absolute, the tolerance of the ``eigsh`` test;
* hemisphere heights to 1e-7 relative, inside the 1e-6 halved-step
  confirmation of ``hemisphere_height``;
* sweep row statuses exactly.

References exist for the default seed only; the oracles hold for any seed.
"""

from __future__ import annotations

import math

HEIGHT_RTOL = 1e-8
LAMBDA_ATOL = 1e-8
HEMISPHERE_RTOL = 1e-7
RESIDUAL_MAX = 1e-10            # SolverConfig.tol_residual default
EIGVEC_RTOL = 1e-10             # smallest_eigenvalue's stopping rule
CYLINDER_ATOL = 1e-6
CONVERGING_BAND = 0.95          # sweep rows with H*R at or below converge
NONEXISTENCE_BAND = 1.15        # sweep rows with H*R at or above fail


def _rel(name, got, want, rtol):
    if got is None or not math.isfinite(got) or abs(got - want) > rtol * abs(want):
        return ["%s %r differs from reference %r by more than %g relative"
                % (name, got, want, rtol)]
    return []


def _abs(name, got, want, atol):
    if got is None or not math.isfinite(got) or abs(got - want) > atol:
        return ["%s %r differs from %r by more than %g"
                % (name, got, want, atol)]
    return []


def _residual(out):
    r = out["residual_max"]
    if not (r <= RESIDUAL_MAX):
        return ["residual_max %r above %g" % (r, RESIDUAL_MAX)]
    return []


def check_solve(out: dict, ref: dict | None) -> list[str]:
    """A converging-band solve: small residual, positive height."""
    breaches = _residual(out)
    if not (out["height"] > 0 and math.isfinite(out["height"])):
        breaches.append("height %r is not positive" % out["height"])
    if ref is not None:
        breaches += _rel("height", out["height"], ref["height"], HEIGHT_RTOL)
    return breaches


def check_spectrum(out: dict, ref: dict | None) -> list[str]:
    """Spectral check of a set-up graph, and that graph's own solve."""
    breaches = check_solve(out, ref)
    lam, resid = out["lambda_min"], out["eigvec_residual"]
    if not (resid <= EIGVEC_RTOL * max(1.0, abs(lam))):
        breaches.append("eigenvector residual %r above %g relative"
                        % (resid, EIGVEC_RTOL))
    if not math.isfinite(out["angle_residual"]):
        breaches.append("angle residual is not finite")
    if ref is not None:
        breaches += _abs("lambda_min", lam, ref["lambda_min"], LAMBDA_ATOL)
    return breaches


def check_cylinder(out: dict, ref: dict | None) -> list[str]:
    """lambda_min of the tube operator is the closed-form -(4H^2 + kappa)."""
    c = 4.0 * out["H"] ** 2 + out["kappa"]
    breaches = _abs("lambda_min_spectral", out["lambda_min_spectral"], -c,
                    CYLINDER_ATOL)
    if out["closed"] != (c > 0):
        breaches.append("closed=%r but 4H^2 + kappa = %g" % (out["closed"], c))
    if ref is not None:
        breaches += _abs("lambda_min_spectral", out["lambda_min_spectral"],
                         ref["lambda_min_spectral"], LAMBDA_ATOL)
    return breaches


def check_sweep(out: dict, ref: dict | None, previous: dict | None) -> list[str]:
    """Row statuses by band, byte-identical reports between repeats."""
    breaches = []
    for row in out["rows"]:
        tag = "row H=%g" % row["H"]
        if row["HR"] <= CONVERGING_BAND:
            if row["status"] != "converged":
                breaches.append("%s in the converging band: %s"
                                % (tag, row["status"]))
            else:
                breaches += [tag + ": " + b for b in _residual(row)]
        elif row["HR"] >= NONEXISTENCE_BAND and row["status"] == "converged":
            breaches.append("%s in the non-existence band converged" % tag)
    if previous is not None:
        for name, data in out["files"].items():
            if previous["files"].get(name) != data:
                breaches.append("%s differs from the previous repeat" % name)
    if ref is not None:
        if len(ref["rows"]) != len(out["rows"]):
            return breaches + ["row count %d, reference %d"
                               % (len(out["rows"]), len(ref["rows"]))]
        for row, want in zip(out["rows"], ref["rows"]):
            tag = "row H=%g: " % row["H"]
            if row["status"] != want["status"]:
                breaches.append(tag + "status %s, reference %s"
                                % (row["status"], want["status"]))
                continue
            for key, check, tol in (("height", _rel, HEIGHT_RTOL),
                                    ("lambda_min", _abs, LAMBDA_ATOL),
                                    ("hemisphere_height", _rel, HEMISPHERE_RTOL)):
                if want[key] is None:
                    if row[key] is not None:
                        breaches.append(tag + "%s %r, reference None"
                                        % (key, row[key]))
                else:
                    breaches += [tag + b for b in
                                 check(key, row[key], want[key], tol)]
    return breaches


def check(kind: str, out: dict, ref: dict | None,
          previous: dict | None = None) -> list[str]:
    if kind == "sweep":
        return check_sweep(out, ref, previous)
    return {"solve": check_solve, "spectrum": check_spectrum,
            "cylinder": check_cylinder}[kind](out, ref)
