"""Numerical library for the Riesz-fractional operator family.

Pointwise fractional gradients, divergences, Riesz potentials, and fractional
Laplacians evaluated from their defining singular integrals, the closed-form
identities they must reproduce (half-space gradients, the optimal
one-dimensional Hardy constant, Gauss-Green fluxes, the chain-rule
counterexample), and executable verification suites binding the two.
"""

from .constants import (
    GammaPoleError,
    ball_volume,
    gamma,
    hardy_constants,
    mu,
    nu,
    sphere_area,
)
from .closed_forms import (
    f_alpha_closed,
    gamma_radial_integral,
    half_space_gradient,
    interval_identities,
    riesz_hyperplane,
    weight_w,
)
from .fields import (
    CubeIndicator,
    FAlpha,
    Gaussian,
    HalfSpace,
    HalfSpaceIndicator,
    IntervalIndicator,
    MagicCube,
    ScalarField,
    SignedMeasure,
    SingularPointError,
    SmoothBump,
    UnsupportedFieldError,
    VectorField,
    d_alpha_measure,
    eval,
    field_from_json,
)
from .operators import (
    default_test_family,
    frac_divergence,
    frac_gradient,
    frac_laplacian,
    gagliardo_seminorm,
    nl_gradient,
    riesz_potential,
    riesz_potential_hyperplane,
    spectral_gradient_1d,
    variation_lower_bound,
)
from .quadrature import (
    OffsetIntegrand,
    QuadResult,
    QuadSpec,
    integrate_1d,
)
from .suites import SuiteReport, reports_to_csv, run_all

__version__ = "0.1.0"
