"""Kryging: Krylov-subspace kriging for large point-referenced spatial
datasets.

Approximate profile-likelihood estimation and prediction for a latent
stationary Gaussian field on a regular lattice, observed through a sparse
convex mapping with Gaussian noise. Heavy linear algebra runs through FFT
operations on the block-circulant embedding of the lattice covariance;
the latent estimate comes from generalized Golub-Kahan bidiagonalization;
prediction uncertainty from a parametric bootstrap.
"""

from .data import Dataset, InputError, load_fit_artifact, read_dataset, save_fit_artifact
from .estimation import FitResult, PredictionSet, bootstrap_uq, fit, predict
from .gengk import GenGKFactorization, KrygingSolution, gengk_factorize, solve
from .grid import GridSpec, MaternSpec, ThetaParams, first_column, first_column_drho
from .likelihood import ModelData, ObjectiveState, evaluate_objective
from .mapping import LocationError, SparseMap, build_map
from .simulate import simulate_dataset
from .toeplitz import BttbOperator, EmbeddingError, dlogdet_drho

__version__ = "0.1.0"

__all__ = [
    "BttbOperator",
    "Dataset",
    "EmbeddingError",
    "FitResult",
    "GenGKFactorization",
    "GridSpec",
    "InputError",
    "KrygingSolution",
    "LocationError",
    "MaternSpec",
    "ModelData",
    "ObjectiveState",
    "PredictionSet",
    "SparseMap",
    "ThetaParams",
    "bootstrap_uq",
    "build_map",
    "dlogdet_drho",
    "evaluate_objective",
    "first_column",
    "first_column_drho",
    "fit",
    "gengk_factorize",
    "load_fit_artifact",
    "predict",
    "read_dataset",
    "save_fit_artifact",
    "simulate_dataset",
    "solve",
]
