"""Fairness-aware pruning of small fully connected classifiers.

The pipeline trains a dense network while recording, per hidden unit
and epoch, whether the accuracy-loss and fairness-loss gradients pull
its pre-activation in opposite directions.  Units accumulating the most
such conflicts are pruned first; the surviving ticket is rewound to
early-epoch weights and retrained, with a refinement loop that keeps
the fairest accurate candidate.
"""

from ._version import __version__

# ``model`` loads before ``config``, as it did while ``config`` imported
# it: the order in which modules load shapes the heap, and the peak RSS
# of a one-seed 512-512 ``experiment`` moves by up to 1.5 MB with it.
from .model import (
    NetworkParams,
    apply_mask,
    init_network,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from .config import AppConfig, config_from_dict, load_config
from .data import Dataset, DatasetSpec, Split, SyntheticSpec, gen_synthetic, load_csv, make_dataset
from .errors import (
    BallotError,
    ConfigurationError,
    DataError,
    InfeasibleMaskError,
    NumericalFailure,
    PersistenceError,
    UsageError,
)
from .masks import (
    ConflictLedger,
    Mask,
    build_ballot_mask,
    build_magnitude_mask,
    build_random_mask,
    identity_mask,
    load_mask,
    save_mask,
)
from .metrics import (
    EvalReport,
    bias_delta,
    cwv,
    evaluate,
    mcd,
    update_class_weights,
)
from .pipeline import (
    METHODS,
    PruneResult,
    RunArtifacts,
    TrainConfig,
    lr_at,
    refine,
    run_baseline,
    train_dense,
)
from .reporting import load_report, run_experiment, write_report

__all__ = [name for name in dir() if not name.startswith("_")]
