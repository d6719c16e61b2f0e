"""Exact geometry of multivariate Bernoulli classes with fixed margins:
ray densities, attainable association bounds, fitting and projection solvers,
and deterministic sampling, all over rational arithmetic."""

from .bounds import (
    BivariateSummary,
    PairBounds,
    bivariate_extreme_densities,
    bivariate_summary,
    pair_bounds,
)
from .cone import (
    DimensionCapError,
    MomentMap,
    RayMatrix,
    extreme_rays,
    margin_rays,
    moment_map,
)
from .frechet import (
    Cdf,
    CorrelationSpec,
    Density,
    FrechetClass,
    PairMoments,
    ThetaVector,
    cdf_from_density,
    cdf_from_theta,
    density_from_cdf,
    exact_sqrt,
    margins_of,
    mu2_from_rho,
    pair_list,
    pair_moments_of,
    rho_from_mu2,
    theta_from_density,
)
from .sampling import GENERATOR_ID, SampleBatch, empirical_moments, sample
from .simplex import LpResult, solve_lp, verify_farkas
from .solvers import (
    FitResult,
    ProjectionResult,
    fit_density_direct,
    fit_lambda,
    higher_moment_objective,
    minimize_higher_moments,
    nearest_feasible_correlation,
)
from .tensor import kron_apply, parse_rational

__version__ = "0.1.0"

__all__ = [
    "BivariateSummary",
    "Cdf",
    "CorrelationSpec",
    "Density",
    "DimensionCapError",
    "FitResult",
    "FrechetClass",
    "GENERATOR_ID",
    "LpResult",
    "MomentMap",
    "PairBounds",
    "PairMoments",
    "ProjectionResult",
    "RayMatrix",
    "SampleBatch",
    "ThetaVector",
    "bivariate_extreme_densities",
    "bivariate_summary",
    "cdf_from_density",
    "cdf_from_theta",
    "density_from_cdf",
    "empirical_moments",
    "exact_sqrt",
    "extreme_rays",
    "fit_density_direct",
    "fit_lambda",
    "higher_moment_objective",
    "kron_apply",
    "margin_rays",
    "margins_of",
    "minimize_higher_moments",
    "moment_map",
    "mu2_from_rho",
    "nearest_feasible_correlation",
    "pair_bounds",
    "pair_list",
    "pair_moments_of",
    "parse_rational",
    "rho_from_mu2",
    "sample",
    "solve_lp",
    "theta_from_density",
    "verify_farkas",
]
