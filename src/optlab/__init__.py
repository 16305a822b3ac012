"""Composable first-order optimizer components over a minimal tensor model.

Each enhancement of the full preset — unit-wise gradient clipping,
centralization, positive-negative momentum with a second-moment max, norm-
pulling stable weight decay, the three-phase schedule, and lookahead — is an
independent, toggleable transform. `Optimizer.adamw` and `Optimizer.ranger21`
are the two shipped presets; the `bench` CLI compares them deterministically
on desk-scale problems.
"""

from .engine import (
    Optimizer,
    OptimizerState,
    Ranger21Config,
    StepDiag,
    TensorDiag,
    Toggles,
    default_config,
    lookahead_sync,
    scheduled_eta,
)
from .moments import (
    DecayConfig,
    MomentConfig,
    MomentState,
    adam_update,
    combined_decay,
    pnm_update,
)
from .schedule import ScheduleSpec, lr_factor
from .tensor import NonFiniteError, ParamTensor
from .transforms import (
    ClipConfig,
    gradient_centralize,
    unit_scale_factors,
)

__version__ = "0.1.0"

__all__ = [
    "ClipConfig",
    "DecayConfig",
    "MomentConfig",
    "MomentState",
    "NonFiniteError",
    "Optimizer",
    "OptimizerState",
    "ParamTensor",
    "Ranger21Config",
    "ScheduleSpec",
    "StepDiag",
    "TensorDiag",
    "Toggles",
    "adam_update",
    "combined_decay",
    "default_config",
    "gradient_centralize",
    "lookahead_sync",
    "lr_factor",
    "pnm_update",
    "scheduled_eta",
    "unit_scale_factors",
]
