"""Spectrally robust covariance shrinkage for quadratic-form mean-shift
detection when the dimension is comparable to the sample size."""

__version__ = "0.1.0"

from .detector import (
    Standardizer,
    criterion_batch,
    gamma_tilde_all,
    sigma_tilde2_batch,
    srht_many,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DegenerateStatisticError,
    DimensionError,
    DomainError,
    HdshrinkError,
    NumericError,
    ParseError,
    RegimeError,
)
from .evaluate import RocCurve, auc, power_at_fpr, render, roc
from .linalg import eigh, sample_covariance
from .mpkernel import (
    DensityOracle,
    LwCurve,
    identity_mp_oracle,
    kernel_matrix,
    lw_curve,
    semicircle_kernel,
)
from .rss import RssExperimentConfig, RssSeries, detrend, load_rss, rss_experiment
from .shrinkers import (
    PriorSpec,
    ShrinkageCurve,
    hbar_values,
    hotelling_shrinker,
    identity_shrinker,
    lappw_select_b,
    lw_comparator,
    proposed_shrinker,
    ridge_shrinker,
    tyler_estimator,
)
from .simulate import (
    ExperimentConfig,
    TrialOutput,
    calibrate_gamma,
    make_covariance,
    run_trials,
)
