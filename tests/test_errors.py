"""The typed error of each input check that no other test reaches.

Each row is a call with one bad argument and the error it must raise; the
rest of the call is valid, so the row reaches exactly the check it names.
"""

import numpy as np
import pytest

from subspace_net.baselines import LinearModel
from subspace_net.data import Dataset, gen_deep, gen_heteroscedastic, gen_single_layer
from subspace_net.errors import DimensionError, InvalidArgumentError
from subspace_net.layer import SubspaceLayer, TrainConfig, predict_batch, train_layer
from subspace_net.metrics import anmse, mutual_coherence, weight_correlations
from subspace_net.network import SubspaceNetwork, expand, forward_batch


def _data():
    return gen_single_layer(20, 4, 3, 2, 1.0, seed=0)[0]


def _layer(t=3, d=4, r=2, sigma=None):
    return SubspaceLayer(U=np.ones((t, r)), V=np.ones((r, d)),
                         sigma=np.ones(t) if sigma is None else sigma)


CASES = {
    "linear_model_1d_w": (lambda: LinearModel(W=np.ones(3), intercept=np.ones(1)),
                          DimensionError),
    "linear_model_nan": (lambda: LinearModel(W=[[np.nan]], intercept=[0.0]),
                         InvalidArgumentError),
    "dataset_1d_x": (lambda: Dataset(X=np.ones(3), Y=np.ones((3, 1))),
                     DimensionError),
    "dataset_feature_names": (
        lambda: Dataset(X=np.ones((2, 2)), Y=np.ones((2, 1)), feature_names=["a"]),
        DimensionError),
    "dataset_target_names": (
        lambda: Dataset(X=np.ones((2, 2)), Y=np.ones((2, 1)), target_names=["a", "b"]),
        DimensionError),
    "gen_deep_no_rows": (lambda: gen_deep(0, 4, 3, 2, 1.0, 1, seed=0),
                         InvalidArgumentError),
    "gen_deep_negative_sigma": (lambda: gen_deep(10, 4, 3, 2, -1.0, 1, seed=0),
                                InvalidArgumentError),
    "gen_deep_depth_float": (lambda: gen_deep(10, 4, 3, 2, 1.0, 2.5, seed=0),
                             InvalidArgumentError),
    "gen_single_n_float": (lambda: gen_single_layer(10.0, 4, 3, 2, 1.0, seed=0),
                           InvalidArgumentError),
    "gen_single_r_float": (lambda: gen_single_layer(10, 4, 3, 2.0, 1.0, seed=0),
                           InvalidArgumentError),
    "gen_single_r_bool": (lambda: gen_single_layer(10, 4, 3, True, 1.0, seed=0),
                          InvalidArgumentError),
    "gen_hetero_zero_sigma": (
        lambda: gen_heteroscedastic(10, 4, 3, 2, [1.0, 0.0], seed=0),
        InvalidArgumentError),
    "layer_1d_u": (lambda: SubspaceLayer(U=np.ones(3), V=np.ones((2, 4)),
                                         sigma=np.ones(3)),
                   DimensionError),
    "layer_rank_mismatch": (lambda: SubspaceLayer(U=np.ones((3, 2)), V=np.ones((1, 4)),
                                                  sigma=np.ones(3)),
                            DimensionError),
    "layer_sigma_shape": (lambda: _layer(sigma=np.ones(2)), DimensionError),
    "train_sigma_shape": (
        lambda: train_layer(_data(), TrainConfig(rank=2), sigma=np.ones(2)),
        DimensionError),
    "train_probe_shape": (
        lambda: train_layer(_data(), TrainConfig(rank=2), probe=np.ones((3, 1))),
        DimensionError),
    "predict_batch_width": (lambda: predict_batch(_layer(), np.ones((1, 5))),
                            DimensionError),
    "forward_batch_width": (
        lambda: forward_batch(SubspaceNetwork(layers=[_layer()]), np.ones((1, 5))),
        DimensionError),
    "anmse_1d": (lambda: anmse(np.ones(3), np.ones(3)), DimensionError),
    "anmse_mismatch": (lambda: anmse(np.ones((3, 2)), np.ones((3, 1))), DimensionError),
    "coherence_rows": (lambda: mutual_coherence(np.ones((3, 2)), np.ones((4, 2))),
                       DimensionError),
    "weight_corr_shape": (
        lambda: weight_correlations(np.ones((2, 3)), np.ones((2, 4))),
        DimensionError),
    "train_rank_float": (lambda: train_layer(_data(), TrainConfig(rank=2.0)),
                         InvalidArgumentError),
    "v_inner_steps_float": (lambda: TrainConfig(rank=2, v_inner_steps=2.5),
                            InvalidArgumentError),
    "v_inner_steps_bool": (lambda: TrainConfig(rank=2, v_inner_steps=True),
                           InvalidArgumentError),
    "expand_depth_float": (lambda: expand(_data(), 2.5, TrainConfig(rank=2)),
                           InvalidArgumentError),
    "expand_depth_str": (lambda: expand(_data(), "2", TrainConfig(rank=2)),
                         InvalidArgumentError),
}


@pytest.mark.parametrize("name", CASES)
def test_bad_input_raises_its_typed_error(name):
    call, error = CASES[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
