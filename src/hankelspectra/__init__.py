"""High-precision laboratory for signed Hankel matrices of coefficient streams.

The package builds symmetric Hankel matrices from Taylor coefficient
streams, computes their determinants and full real eigenvalue spectra at
adaptive arbitrary precision, derives logarithmic spectra and empirical
step distributions, and runs deterministic trend checks over sweeps in the
matrix size.
"""

__version__ = "0.1.0"

from .coeffs import (
    CoeffStream,
    FunctionSpec,
    analytic_spec,
    builtin_spec,
    generate,
    load_analytic_config,
    parse_func_token,
    theta,
    zeta_em,
)
from .dist import (
    StepDistribution,
    TailSums,
    distribution_csv,
    evaluate,
    from_log_spectrum,
    mean,
    step_distribution,
    sup_distance,
    tail_sums,
)
from .hankel import (
    DetRelationReport,
    SignedHankel,
    det_relation_check,
    hankel_core,
    raw_toeplitz,
    sign_prefactor,
    signed_hankel,
)
from .harness import (
    CONTRADICTED,
    INCONCLUSIVE,
    SUPPORTED,
    UNAVAILABLE,
    TrendReport,
    check_distribution_coincidence,
    check_distribution_convergence,
    check_eigenvalue_product_rate,
    check_mean_trend,
    check_spectrum_divergence,
    check_tail_divergence,
    estimate_constant_factor,
    estimate_growth_rate,
    load_reference_constants,
    write_report,
)
from .mpnum import (
    EigenResult,
    RealMatrix,
    adaptive_solve,
    det_lu,
    frobenius_norm,
    from_decimal,
    real_matrix,
    sym_eigenvalues,
    to_decimal,
    trace,
)
from .spectra import (
    LogSpectrum,
    PairingStats,
    SpectrumRecord,
    SplitSpectrum,
    SweepResult,
    compute_spectrum,
    log_spectrum,
    pairing_stats,
    spectra_csv,
    split,
    sweep,
)
