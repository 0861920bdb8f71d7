"""Fisher-Rao and companion classification losses under uniform label noise.

Closed-form simplex geometry (Fisher-Rao / Hellinger distances), six
classification losses with analytic score gradients, the uniform label-noise
model, Table-style robustness bounds A(K, eta) / B(K, eta), a small
from-scratch MLP + SGD harness, and an experiment runner with CSV output.
"""

from types import ModuleType as _ModuleType

# The imports below are the package's API: __all__ is every public name they bind.
from .bounds import BoundResult, bound_A, bound_B, bounds
from .data import (
    DataFormatError,
    LabeledDataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_mnist,
    save_csv,
)
from .losses import (
    CE,
    CLAMP_EPS,
    FR,
    HELLINGER,
    KINDS,
    MAE,
    MSE,
    LossSpec,
    fr_critical_value,
    fr_sum_bounds,
    h_prime_abs,
    loss_gradient_scores,
    loss_sum_over_classes,
    loss_value,
    loss_values,
    q_logarithm,
    qce,
    score_gradients,
)
from .mlp import (
    MlpConfig,
    MlpModel,
    TrainingDiverged,
    TrainRecord,
    batch_grad,
    evaluate,
    forward,
    init_model,
    load_model,
    save_model,
    train,
)
from .noise import NoiseSpec, alpha_to_eta, corrupt_labels, eta_to_alpha
from .rng import derive_seed, make_rng
from .simplex import (
    as_distribution,
    as_scores,
    fisher_rao_distance,
    fisher_rao_from_hellinger,
    hellinger_distance,
    one_hot,
    sample_simplex,
    softmax,
    sphere_embed,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
