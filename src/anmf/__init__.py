"""NMF-family single-channel source separation toolkit."""

from .adversarial import (
    OmegaWeights,
    WeightModel,
    assemble_adversarial,
    compute_beta,
    default_omega,
)
from .core import (
    Basis,
    DimensionMismatch,
    SparsityParams,
    cone_distance,
    init_exemplar,
    init_random,
    normalize_columns,
    solve_nnls,
    update_latents,
)
from .features import Spectrogram, StftConfig, apply_mask, istft, stft
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
from .separation import SeparationResult, project_denoise, separate, wiener_filter, wiener_mask
from .training import (
    TrainSpec,
    TrainState,
    grad_parts,
    objective,
    train_semisupervised,
    train_smu,
    update_basis,
)

__version__ = "0.1.0"
