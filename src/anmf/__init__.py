"""NMF-family single-channel source separation toolkit."""

from .adversarial import WeightModel, adversarial_sets, compute_beta
from .core import (
    Basis,
    SparsityParams,
    cone_distance,
    init_exemplar,
    init_random,
    normalize_columns,
    solve_nnls,
    update_latents,
)
from .features import StftConfig, apply_gain, apply_mask, istft, stft
from .metrics import (
    Choice,
    LogUniform,
    SearchSpace,
    TuneResult,
    Uniform,
    cv_split,
    psnr,
    random_search,
    si_sdr,
    weighted_score,
)
from .separation import SeparationResult, fit_sources, separate, wiener_filter, wiener_mask
from .training import (
    TrainSpec,
    TrainState,
    grad_parts,
    train_smu,
    update_basis,
)

__version__ = "0.1.0"
