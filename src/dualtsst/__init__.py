"""Dual-branch temporal-spectral-spatial EEG decoder.

A self-contained numpy stack: a minimal reverse-mode tensor library,
Morlet time-frequency preprocessing, segment-reassemble augmentation, the
dual-branch CNN + transformer model, the training recipe, and evaluation
statistics.  See the CLI (``dualtsst --help``) for the end-to-end pipeline.
"""

from .dataio import SplitPlan, TrialSet, load_dataset, preset, synth
from .model import DualTsstModel, ModelConfig
from .tensor import Tensor, backward, no_grad
from .train import TrainConfig, train_loop

__version__ = "0.1.0"

__all__ = [
    "DualTsstModel",
    "ModelConfig",
    "SplitPlan",
    "Tensor",
    "TrainConfig",
    "TrialSet",
    "backward",
    "load_dataset",
    "no_grad",
    "preset",
    "synth",
    "train_loop",
    "__version__",
]
