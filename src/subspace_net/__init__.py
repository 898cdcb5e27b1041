"""Multi-task censored regression through low-rank subspace layers.

The model predicts a vector of nonnegative targets as ``ReLU(U V x)`` where
``U`` spans a shared low-rank task subspace and ``V`` sketches the input into
it. A layer is trained in a single pass over the data (per-sample sketch of
``V`` followed by parallel refinement of the rows of ``U``), and layers are
stacked greedily with skip-connection input concatenation to form a deep
network. Planted-data generators, uncensored baselines, recovery metrics,
and an experiment CLI round out the package.
"""

from .baselines import LinearModel, fit_ridge, predict_baseline
from .data import (
    Dataset,
    PlantedTruth,
    gen_deep,
    gen_heteroscedastic,
    gen_single_layer,
    load_csv,
    save_csv,
    split,
)
from .layer import (
    SubspaceLayer,
    TraceLog,
    TrainConfig,
    predict_batch,
    predict_linear_batch,
    train_layer,
)
from .metrics import (
    aligned_subspace_difference,
    anmse,
    mutual_coherence,
    subspace_difference,
    weight_correlations,
)
from .network import (
    CalibrationReport,
    SubspaceNetwork,
    calibrate_sigma,
    expand,
    forward_batch,
    load_model,
    save_model,
)

__version__ = "0.1.0"
