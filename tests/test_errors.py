"""The typed error of each input check that no other test reaches.

Each row is a call with one bad argument and the error it must raise; the
rest of the call is valid, so the row reaches exactly the check it names.
A row also pins the message where a later check would raise the same error.
"""

import numpy as np
import pytest

from subspace_net.baselines import LinearModel, fit_ridge, predict_baseline
from subspace_net.data import Dataset, gen_deep, gen_heteroscedastic, gen_single_layer, split
from subspace_net.errors import DimensionError, InvalidArgumentError
from subspace_net.layer import SubspaceLayer, TrainConfig, predict_batch, train_layer
from subspace_net.metrics import anmse, mutual_coherence, weight_correlations
from subspace_net.network import SubspaceNetwork, calibrate_sigma, expand, forward_batch


def _data():
    return gen_single_layer(20, 4, 3, 2, 1.0, seed=0)[0]


def _layer(t=3, d=4, r=2, sigma=None, lam=0.0):
    return SubspaceLayer(U=np.ones((t, r)), V=np.ones((r, d)),
                         sigma=np.ones(t) if sigma is None else sigma, lam=lam)


CASES = {
    "linear_model_1d_w": (lambda: LinearModel(W=np.ones(3), intercept=np.ones(1)),
                          DimensionError),
    "linear_model_nan": (lambda: LinearModel(W=[[np.nan]], intercept=[0.0]),
                         InvalidArgumentError),
    "dataset_1d_x": (lambda: Dataset(X=np.ones(3), Y=np.ones((3, 1))),
                     DimensionError),
    # a matrix holds integers or floats: numpy would read True as 1, "1" as
    # 1, drop an imaginary part, and raise a bare ValueError on a ragged list
    "dataset_str_x": (lambda: Dataset(X=[["a"]], Y=[[1.0]]), InvalidArgumentError),
    "dataset_ragged_x": (lambda: Dataset(X=[[1.0], [1.0, 2.0]], Y=[[1.0], [2.0]]),
                         DimensionError),
    "anmse_bool_and_str": (lambda: anmse([[True], [False]], [["1"], ["0"]]),
                           InvalidArgumentError),
    "anmse_complex": (lambda: anmse(np.ones((2, 1)), np.full((2, 1), 1 + 1j)),
                      InvalidArgumentError),
    "gen_deep_no_rows": (lambda: gen_deep(0, 4, 3, 2, 1.0, 1, seed=0),
                         InvalidArgumentError),
    "gen_deep_negative_sigma": (lambda: gen_deep(10, 4, 3, 2, -1.0, 1, seed=0),
                                InvalidArgumentError),
    # numpy reads a numeric string as its number and True as 1
    "gen_deep_sigma_str": (lambda: gen_deep(10, 4, 3, 2, "1", 1, seed=0),
                           InvalidArgumentError),
    "gen_deep_sigma_bool": (lambda: gen_deep(10, 4, 3, 2, True, 1, seed=0),
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
    "gen_hetero_sigma_str": (lambda: gen_heteroscedastic(10, 4, 3, 2, ["a"], seed=0),
                             InvalidArgumentError),
    "gen_hetero_sigma_bool": (
        lambda: gen_heteroscedastic(10, 4, 3, 2, [True, 2.0], seed=0),
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
    # one noise-scale rule for the layer, training and expansion; numpy
    # would read True as 1 and "2" as 2
    "layer_sigma_bool": (lambda: _layer(sigma=[True] * 3), InvalidArgumentError),
    "train_sigma_bool": (lambda: train_layer(_data(), TrainConfig(rank=2), sigma=True),
                         InvalidArgumentError),
    "train_sigma_bool_entry": (
        lambda: train_layer(_data(), TrainConfig(rank=2), sigma=[True, 2.0, 2.0]),
        InvalidArgumentError),
    "layer_sigma_bool_entry": (lambda: _layer(sigma=[np.True_, 2.0, 2.0]),
                               InvalidArgumentError),
    "train_sigma_numeric_str": (
        lambda: train_layer(_data(), TrainConfig(rank=2), sigma="2"),
        InvalidArgumentError),
    "train_sigma_str": (
        lambda: train_layer(_data(), TrainConfig(rank=2), sigma="scaled"),
        InvalidArgumentError),
    "expand_sigma_bool": (lambda: expand(_data(), 2, TrainConfig(rank=2), sigma=True),
                          InvalidArgumentError),
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
    # a flag must be a bool, since "no" is truthy
    "expand_calibrate_str": (
        lambda: expand(_data(), 2, TrainConfig(rank=2), calibrate="no"),
        InvalidArgumentError),
    "predict_baseline_censor_str": (
        lambda: predict_baseline(LinearModel(W=np.ones((3, 4)), intercept=np.zeros(3)),
                                 np.ones((1, 4)), censor="no"),
        InvalidArgumentError),
    # every scalar argument takes the config schema's rule: a finite real,
    # numpy's included, and a bool is not a number
    "train_config_eta_str": (lambda: TrainConfig(eta="1"), InvalidArgumentError),
    "train_config_eta_bool": (lambda: TrainConfig(eta=True), InvalidArgumentError),
    "train_config_eta_float32_nan": (lambda: TrainConfig(eta=np.float32("nan")),
                                     InvalidArgumentError),
    "train_config_lam_bool": (lambda: TrainConfig(lam=True), InvalidArgumentError),
    "train_config_step_offset_bool": (lambda: TrainConfig(step_offset=True),
                                      InvalidArgumentError),
    "train_config_step_decay_str": (lambda: TrainConfig(step_decay="no"),
                                    InvalidArgumentError),
    "layer_lam_bool": (lambda: _layer(lam=True), InvalidArgumentError),
    "split_fraction_str": (lambda: split(_data(), "0.5", seed=0), InvalidArgumentError),
    "fit_ridge_str": (lambda: fit_ridge(_data(), "1"), InvalidArgumentError),
    "fit_ridge_bool": (lambda: fit_ridge(_data(), True), InvalidArgumentError),
    "fit_ridge_inf": (lambda: fit_ridge(_data(), np.inf), InvalidArgumentError),
    # a NaN weight gives NaN coefficients, which LinearModel rejects too
    "fit_ridge_nan": (lambda: fit_ridge(_data(), np.nan), InvalidArgumentError,
                      "^ridge_lambda must be finite, got nan$"),
    # targets of one task fewer, and one more, than the layer predicts
    "calibrate_sigma_fewer_tasks": (
        lambda: calibrate_sigma(_layer(), Dataset(X=np.ones((2, 4)), Y=np.ones((2, 2)))),
        DimensionError),
    "calibrate_sigma_more_tasks": (
        lambda: calibrate_sigma(_layer(), Dataset(X=np.ones((2, 4)), Y=np.ones((2, 4)))),
        DimensionError),
}


@pytest.mark.parametrize("name", CASES)
def test_bad_input_raises_its_typed_error(name):
    call, error, *message = CASES[name]
    with pytest.raises(error, match=message[0] if message else None) as info:
        call()
    assert type(info.value) is error
