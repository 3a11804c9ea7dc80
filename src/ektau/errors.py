"""Exception taxonomy shared across the package, its scalar input rules and
its one file writer."""

import contextlib
import numbers
import os
import sys
from pathlib import Path


class EktauError(Exception):
    """Base class for all package errors."""


class ConfigInvalid(EktauError, ValueError):
    """Rejected input (an argument, config or record); also a ValueError."""


class OutOfDomain(EktauError):
    """A point lies outside the model domain of the space."""


class UnsupportedSign(EktauError):
    """Operation not defined for this sign of the base curvature."""


class NonPositiveH(ConfigInvalid):
    """Rejected input: a mean curvature that is not a finite H > 0."""


class DegenerateMetric(EktauError):
    """Induced first fundamental form is numerically degenerate."""


class NonConvergence(EktauError):
    """Newton iteration exhausted without meeting the residual tolerance."""


class VerticalBlowup(EktauError):
    """The iterate ceased to be a graph: min |nu| fell below the threshold."""


class NoSphere(EktauError):
    """No rotational sphere exists for these (H, kappa, tau)."""


class IterationLimit(EktauError):
    """Eigenvalue iteration exceeded its iteration cap."""


class IoFailure(EktauError):
    """Could not read or write a harness artifact."""


def atomic_write(path, text: str) -> None:
    """Write text to a sibling temporary file and rename it onto path; on
    failure the temporary file is removed and path is left as it was."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise IoFailure("cannot write %s: %s" % (path, exc.strerror or exc))


def finite_real(x) -> bool:
    """Whether x is a real number a finite float can hold (a bool is not)."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def finite_pair(v) -> bool:
    """Whether v is a list, tuple or 1-d array of two finite real numbers."""
    return ((isinstance(v, (list, tuple)) or getattr(v, "ndim", 0) == 1)
            and len(v) == 2 and all(map(finite_real, v)))


def check_H(H, what: str) -> None:
    """Raise NonPositiveH unless H is a finite real number > 0."""
    if not (finite_real(H) and H > 0):
        raise NonPositiveH("%s needs a finite H > 0, got %r" % (what, H))
