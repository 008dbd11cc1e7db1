"""Reconstruction of partially observed functional data.

Fits local-linear mean and covariance estimates to irregular, noisy curve
measurements, performs eigen-analysis of the covariance restricted to the
observed subdomain, and reconstructs the missing segments with
truncated-expansion estimators, their aligned variants, conditional
expectation methods and a ridge comparator. Includes an iterative completion
algorithm for band-limited covariance masks and a Monte-Carlo benchmark
harness.
"""

__version__ = "0.1.0"

from .core import (
    Curve,
    DomainGrid,
    FunctionalDataset,
    build_dataset,
    classify_complete,
    dataset_summary,
    load_dataset,
    write_dataset_csv,
)
from .eigensystem import EigenSystem, Subdomain, eigen_on_subdomain, extrapolate_basis
from .errors import (
    DataError,
    DegenerateCovarianceError,
    FdreconError,
    IllConditionedError,
    InsufficientLocalDataError,
    NotEstimableError,
    ParseError,
    StudyError,
    UsageError,
)
from .iterative import IterationPlan, check_error_accumulation, choose_next_interval, iterative_reconstruct
from .reconstruct import (
    ReconstructedCurve,
    ReconstructionModel,
    curve_subdomain,
    error_variance,
    fit_reconstruction_model,
    reconstruct_ano,
    reconstruct_ayes,
    reconstruct_kraus,
    reconstruct_pace,
    reconstruct_with_method,
    select_kraus_ridge_gcv,
    select_truncation_gcv,
)
from .scores import ScoreVector, ce_scores, integral_scores, pace_scores
from .simulation import DgpConfig, StudyReport, TargetSet, generate_dgp, run_study
from .smoothing import (
    Bandwidths,
    CovarianceEstimate,
    MeanEstimate,
    NoiseVariance,
    epanechnikov,
    estimate_noise_variance,
    llk_covariance,
    llk_curve,
    llk_mean,
)

__all__ = [name for name in dir() if not name.startswith("_")]
