"""Weighted radial harmonic analysis and smoothness certification.

Hankel/Dunkl transforms on reflection-weighted spaces, the spectral
multiplier calculus (generalized translations, fractional Laplacian powers,
fractional differences, smoothing projections), fractional smoothness
functionals (moduli, K-functional surrogates, realizations, best
approximation), and a harness that certifies the classical inequalities
relating them as bounded-ratio experiments.
"""

from .special import (
    BesselEvaluator,
    bessel_norm,
    jm_multiplier,
    binom_frac,
    binom_tail_bound,
)
from .quad import (
    RadialGrid,
    RadialFunction,
    DEFAULT_RMAX,
    DEFAULT_N,
    b_lambda,
    make_grid,
    default_grid,
    lp_norm,
    save_radial_csv,
    load_radial_csv,
)
from .transforms import (
    Spectrum,
    spectrum_from_values,
    hankel,
    inverse_hankel,
    bandlimit_project,
    spectral_tail_l2,
    save_spectrum_csv,
    load_spectrum_csv,
    DunklKernel1D,
    dunkl_kernel_1d,
    SymmetricGrid,
    LineFunction,
    dunkl_transform_1d,
    dunkl_inverse_1d,
)
from .operators import (
    eta,
    translate_T,
    frac_laplacian,
    frac_difference,
    SeriesDifference,
    frac_difference_series,
    vallee_poussin,
)
from .smoothness import (
    ModulusResult,
    BestApprox,
    RealizationResult,
    modulus,
    diff_norm,
    best_approx,
    realization,
    realization_candidate_min,
    k_functional_upper,
    inverse_bound,
    marchaud_bound,
)
from .harness import (
    ConfigError,
    ScaleGrid,
    ExperimentConfig,
    HarnessConfig,
    ReportRow,
    SmoothnessReport,
    EXPERIMENTS,
    PROFILES,
    make_profile,
    default_config,
    load_config,
    parse_config,
    run_config,
    run_all,
)

__version__ = "0.1.0"
