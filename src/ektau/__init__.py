"""Numerical geometry of the E(kappa, tau) spaces.

Ambient metric machinery, constant-mean-curvature vertical graphs solved as
Dirichlet problems, rotational spheres in closed form from the flux first
integral, discrete stability operators, and an experiment harness probing
height bounds.
"""

from .errors import (ConfigInvalid, DegenerateMetric, EktauError, IoFailure,
                     IterationLimit, NoSphere, NonConvergence, NonPositiveH,
                     OutOfDomain, UnsupportedSign, VerticalBlowup)
from .harness import ExperimentConfig, ReportRecord, rosenberg_bound, run_experiment
from .model import (CurvatureReport, MetricAtPoint, Point3, SpaceParams,
                    TangentVector, christoffel, conformal_factor,
                    critical_mean_curvature, curvature_report, metric_at,
                    orthonormal_frame, scalar_curvature, sphere_exists)
from .rotational import (PlanarCircle, ProfileCurve, cmc_cylinder_curve,
                         hemisphere_height, shoot_rotational_graph)
from .solver import (DomainGrid, GraphSolution, disk_grid, graph_height,
                     rectangle_grid, sigma_profile, solve_dirichlet)
from .stability import (CylinderStability, DiscreteOperator, SpectrumReport,
                        angle_jacobi_residual, assemble_jacobi,
                        cylinder_stability, smallest_eigenvalue)

__version__ = "0.1.0"
