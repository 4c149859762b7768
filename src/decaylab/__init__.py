"""decaylab: desk-scale numerical verification of dispersive decay estimates.

The library solves free phase-space transport exactly along characteristics,
evolves Schrodinger/Airy/even-order equations with unit-modulus Fourier
multipliers, derives the operators that commute with each evolution, builds
dyadic annulus norms, and measures every decay rate and inequality these
structures satisfy. See the experiment catalog in ``decaylab.experiments``
for the runnable checks.
"""

from .fields import (
    AnalyticField,
    BumpLambda,
    CubeIndicator,
    Gaussian,
    GridSpec,
    OracleUnavailable,
    SampledField,
    SupportOverflowError,
    l2_norm,
    linf_norm,
    product_gaussian_phase,
    sample,
    spectral_derivative,
)
from .transport import (
    DispersionMap,
    TransportSolution,
    conserved_functional,
    counterexample_profile,
    identity_map,
    ks_vlasov_check,
    mixed_map,
    relativistic_map,
    square_map,
    sup_velocity_average,
)
from .propagators import Evolution, airy, even_order, schrodinger
from .operators import (
    CommutingOperator,
    apply_operator,
    boost_norms,
    commutation_residual,
    derive_commuting_operator,
    monomial_boost,
    schrodinger_boost,
)
from .norms import (
    DyadicPartition,
    build_dyadic_partition,
    hs_norm,
    lp_norm,
    translated_xnorm_inf,
    x_norm,
)
from .harness import DecayFit, InequalityReport, fit_decay
from .experiments import ExperimentConfig, Report, default_config, list_catalog, run

__version__ = "0.1.0"
