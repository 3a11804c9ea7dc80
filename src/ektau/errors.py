"""Exception taxonomy shared across the package."""


class EktauError(Exception):
    """Base class for all package errors."""


class OutOfDomain(EktauError):
    """A point lies outside the model domain of the space."""


class UnsupportedSign(EktauError):
    """Operation not defined for this sign of the base curvature."""


class NonPositiveH(EktauError):
    """Operation requires a positive mean curvature value."""


class DegenerateMetric(EktauError):
    """Induced first fundamental form is numerically degenerate."""


class NonConvergence(EktauError):
    """Newton iteration exhausted without meeting the residual tolerance."""


class VerticalBlowup(EktauError):
    """The iterate ceased to be a graph: min |nu| fell below the threshold."""


class NotConverged(EktauError):
    """Operation requires a converged solution."""


class NoSphere(EktauError):
    """No rotational sphere exists for these (H, kappa, tau)."""


class IterationLimit(EktauError):
    """Eigenvalue iteration exceeded its iteration cap."""


class ConfigInvalid(EktauError):
    """Experiment configuration failed validation."""


class IoFailure(EktauError):
    """Could not read or write a harness artifact."""
