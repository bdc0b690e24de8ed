"""Scale-invariant normalized online learning toolkit."""

from .core import (
    Loss,
    SparseExample,
    get_loss,
    predict,
)
from .learners import Learner, LearnerConfig, RunReport, run_stream

__version__ = "0.1.0"

__all__ = [
    "Learner",
    "LearnerConfig",
    "Loss",
    "RunReport",
    "SparseExample",
    "get_loss",
    "predict",
    "run_stream",
]
