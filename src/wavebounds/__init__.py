"""Daubechies wavelet spectra, weighted Lp norms, and closed-form bound verification."""

from .bernstein import (
    GaussianTestFunction,
    bernstein_rhs,
    bound_params,
    pyramid_coefficient,
    verify_sweep,
    wavelet_coefficient,
)
from .bound_formulas import (
    BoundParams,
    BoundSet,
    RatioInterval,
    bound_A,
    bound_B,
    bound_D,
    bound_E,
    bound_F,
    bound_G,
    compute_bound_set,
    ratio_bounds,
)
from .daub_filters import (
    FilterConstructionError,
    FilterSpec,
    construct_filter,
    eval_H,
    eval_P,
    magnitude_squared_H,
    magnitude_squared_H_integral,
)
from .norms import (
    DEFAULT_OMEGA_MAX,
    NormRequest,
    best_constant_Ckp,
    default_decay,
    quadrature_lp_norm,
    weighted_lp_norm,
)
from .quadrature import QuadResult, adaptive_quadrature
from .reporting import VerificationRow, exit_code, rows_to_csv_bytes, rows_to_json_bytes, summarize
from .special_math import cm_constant, sinc_alternating_sum
from .spectral_eval import (
    DecayFit,
    estimate_decay,
    scaling_hat,
    wavelet_hat,
    wavelet_hat_abs2,
)

__version__ = "0.1.0"

__all__ = [
    "BoundParams",
    "BoundSet",
    "DecayFit",
    "DEFAULT_OMEGA_MAX",
    "FilterConstructionError",
    "FilterSpec",
    "GaussianTestFunction",
    "NormRequest",
    "QuadResult",
    "RatioInterval",
    "VerificationRow",
    "adaptive_quadrature",
    "bernstein_rhs",
    "best_constant_Ckp",
    "bound_params",
    "bound_A",
    "bound_B",
    "bound_D",
    "bound_E",
    "bound_F",
    "bound_G",
    "cm_constant",
    "compute_bound_set",
    "construct_filter",
    "default_decay",
    "estimate_decay",
    "eval_H",
    "eval_P",
    "exit_code",
    "magnitude_squared_H",
    "magnitude_squared_H_integral",
    "pyramid_coefficient",
    "quadrature_lp_norm",
    "ratio_bounds",
    "rows_to_csv_bytes",
    "rows_to_json_bytes",
    "scaling_hat",
    "sinc_alternating_sum",
    "summarize",
    "verify_sweep",
    "wavelet_coefficient",
    "wavelet_hat",
    "wavelet_hat_abs2",
    "weighted_lp_norm",
]
