"""Superintegrable Hamiltonians on flat and constant-curvature spaces.

Construction of an infinite family of Hamiltonians H = h(J-, J+, J3) sharing
2N-3 universal integrals, numerical certification of their conservation,
involution and functional independence, and symplectic dynamics with drift
and orbit-closure diagnostics.
"""

__version__ = "0.1.0"

from .brackets import (
    BracketResidualTable,
    Certificate,
    IndependenceCertificate,
    certify,
    gradient_tensor,
    independence_rank,
    involution_table,
    max_bracket_residual,
    poisson_bracket,
    sample_for_spec,
    sample_regular_points,
)
from .catalog import (
    EMFields,
    SystemDescriptor,
    build,
    em_fields,
    extra_integral,
    make_electromagnetic,
    make_evans,
    make_garnier,
    make_kepler_coulomb,
    make_nonlinear_oscillator,
    make_sw,
    make_variable_mass,
    poly_profile,
)
from .config import ExperimentConfig, SimulationSettings, VerificationSettings, load_config
from .core import (
    ConservedQuantity,
    Guard,
    HamiltonianSpec,
    PhasePoint,
    SL2Realization,
    energy_quantity,
)
from .dynamics import (
    ClosureReport,
    IntegratorConfig,
    Trajectory,
    detect_closure,
    integrate,
)
from .errors import (
    ChartBoundary,
    ConfigError,
    DimensionMismatch,
    DomainError,
    InsufficientData,
    NonConvergence,
    RangeError,
    SamplingError,
    SingularApproach,
    SuperintError,
)
from .geometry import (
    BELTRAMI,
    EUCLIDEAN,
    POINCARE,
    ambient_to_chart,
    centrifugal_ambient,
    chart_to_ambient,
    conjugate_momenta,
    free_lagrangian,
    geodesic_distance,
    metric_form,
    poincare_to_beltrami,
)
from .integrals import (
    IntegralSet,
    kc_extra_integral,
    left_integral,
    right_integral,
    sw_extra_integral,
    universal_set,
)
