"""Toolkit for parametric second-order elliptic eigenvalue problems.

Exact falling-factorial combinatorics, parametric coefficient fields with
certified constants, P1 finite elements on the unit square, preconditioned
eigensolvers, Gauss-Legendre and randomly shifted lattice-rule quadrature
studies, and Gevrey-order classification of parameter-to-eigenvalue maps.
"""

from .combinatorics import (
    Multiindex,
    binomial_ff_sum,
    factorial_ratio,
    ff_convolution_bound,
    ff_double_convolution_bound,
    ff_half,
    identity_checks,
    square_domination_check,
    vandermonde_slice,
)
from .coefficients import (
    CHI1,
    BoundConstants,
    Bounds,
    CoefficientModel,
    bound_constants,
    derivative_bound,
    load_custom_model,
    model_by_name,
    resolve_model,
    zeta,
)
from .derivcheck import classify_decay, fd_derivative, legendre_coeffs
from .eigensolver import (
    EigenPair,
    EigenSolveError,
    GapReport,
    estimate_gap,
    second_eigenpair,
    smallest_eigenpair,
)
from .fem import Assembler, Mesh, SparseSystem, build_mesh
from .harness import (
    ConfigError,
    RateFit,
    RunConfig,
    emit_csv,
    emit_svg,
    fit_rate,
    parse_config,
)
from .qmc import (
    ErrorRecord,
    LatticeRule,
    PODWeights,
    bernoulli_zeta_factor,
    cbc_construct,
    lattice_points,
    make_lattice_rule,
    mc_estimate,
    mc_study,
    qmc_estimate,
    rmse_study,
    truncation_study,
)
from .quad1d import GaussRule, axis_eigenvalue_map, gauss_legendre, gl_study

__version__ = "0.1.0"
