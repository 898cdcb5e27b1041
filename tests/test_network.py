"""Tests for network wiring, calibration, expansion, and the model file."""

import numpy as np
import pytest
from test_configs import shipped

from subspace_net.data import Dataset, gen_heteroscedastic, gen_single_layer
from subspace_net.errors import (
    ChecksumError,
    DimensionError,
    EmptyInputError,
    InvalidArgumentError,
    ModelFormatError,
    ModelVersionError,
)
from subspace_net.experiments import _train_policy
from subspace_net.layer import SubspaceLayer, TrainConfig, predict_batch, train_layer
from subspace_net.network import (
    SIGMA_MAX,
    SubspaceNetwork,
    _grow,
    calibrate_sigma,
    expand,
    forward_batch,
    load_model,
    save_model,
)


def make_layer(rng, t, d_in, r=2, sigma=1.0):
    return SubspaceLayer(U=rng.standard_normal((t, r)),
                         V=rng.standard_normal((r, d_in)),
                         sigma=np.full(t, sigma), lam=0.0)


def grow(data, depth, cfg, calibrate=False, sigma=None, start=((), None)):
    """The unguarded expansion: `_grow` steps from the ``(layers, state)``
    of ``start`` until the network is ``depth`` layers deep. Returns the
    network and the traces of the layers grown here."""
    (layers, state), traces = start, []
    while len(layers) < depth:
        layers, trace, state = _grow(data, layers, state, cfg, calibrate, sigma)
        traces.append(trace)
    return SubspaceNetwork(layers=layers), traces


def make_net(rng, depth=2, t=3, d=4):
    layers = [make_layer(rng, t, d)]
    for _ in range(depth - 1):
        layers.append(make_layer(rng, t, t + d))
    return SubspaceNetwork(layers=layers)


# defect -> (d_in, t_out, r) of a one-layer file
EMPTY_DIMENSIONS = {"zero_rank": (4, 3, 0), "zero_tasks": (4, 0, 2),
                    "zero_inputs": (0, 3, 2)}


def write_naive_model(path, t=3, d=4):
    """Write a two-layer model file with a valid checksum in the shape that
    the retired ``naive`` wiring saved: skip-mode byte 1, and a layer 1 that
    reads the T predictions only."""
    import struct
    import zlib
    rng = np.random.default_rng(26)
    body = struct.pack("<IBIII", 1, 1, d, t, 2)
    for layer in (make_layer(rng, t, d), make_layer(rng, t, t)):
        body += struct.pack("<IIId", layer.d_in, layer.t_out, layer.r, layer.lam)
        body += b"".join(m.astype("<f8").tobytes() for m in (layer.sigma, layer.U, layer.V))
    path.write_bytes(b"SSNW" + body + struct.pack("<I", zlib.crc32(body)))


def write_invalid_model(path, defect):
    """Write a model file with a valid checksum whose content cannot form a
    network: no layers, a non-finite basis, a non-finite regularization
    weight, layers of different widths, or a layer with rank 0, no tasks or
    no inputs."""
    import struct
    import zlib
    rng = np.random.default_rng(25)
    if defect in EMPTY_DIMENSIONS:
        d_in, t_out, r = EMPTY_DIMENSIONS[defect]
        body = (struct.pack("<IBIII", 1, 0, d_in, t_out, 1)
                + struct.pack("<IIId", d_in, t_out, r, 0.0)
                + np.ones(t_out + t_out * r + r * d_in, dtype="<f8").tobytes())
        path.write_bytes(b"SSNW" + body + struct.pack("<I", zlib.crc32(body)))
        return
    if defect == "zero_depth":
        save_model(make_net(rng, depth=1), path)
        header = bytearray(path.read_bytes()[4:21])  # version .. depth
        header[13:17] = struct.pack("<I", 0)
        path.write_bytes(b"SSNW" + bytes(header)
                         + struct.pack("<I", zlib.crc32(bytes(header))))
        return
    net = make_net(rng, depth=2)
    if defect == "non_finite_u":
        net.layers[1].U[0, 0] = np.nan
    elif defect == "nan_lam":
        net.layers[1].lam = np.nan
    else:
        net.layers[1] = make_layer(rng, 5, net.layers[1].d_in)
    save_model(net, path)


class TestForward:
    def test_single_layer_equals_predict(self):
        rng = np.random.default_rng(0)
        net = make_net(rng, depth=1)
        x = rng.standard_normal((1, 4))
        np.testing.assert_allclose(forward_batch(net, x),
                                   predict_batch(net.layers[0], x), atol=1e-15)

    def test_skip_wiring_passes_features_through(self):
        # layer 1 zeros on the prediction block and selecting two raw features
        # reproduces a pure function of x, independent of layer 0
        rng = np.random.default_rng(1)
        layer0 = make_layer(rng, t=2, d_in=3)
        select = np.zeros((2, 5))  # inputs are [h(2); x(3)]
        select[0, 2] = 1.0  # picks x[0]
        select[1, 4] = 1.0  # picks x[2]
        layer1 = SubspaceLayer(U=np.eye(2), V=select, sigma=np.ones(2), lam=0.0)
        net = SubspaceNetwork(layers=[layer0, layer1], skip_mode="concat")
        x = rng.standard_normal(3)
        out = forward_batch(net, x[None])[0]
        np.testing.assert_allclose(out, np.maximum([x[0], x[2]], 0.0), atol=1e-14)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(2)
        net = make_net(rng, depth=3)
        for _ in range(20):
            assert np.all(forward_batch(net, rng.standard_normal((1, 4))) >= 0)

    def test_upto_bounds(self):
        # the depth-k network is the first k layers: no layer is no network,
        # and a prefix past the depth is the whole network
        rng = np.random.default_rng(3)
        net = make_net(rng, depth=2)
        with pytest.raises(EmptyInputError):
            SubspaceNetwork(net.layers[:0])
        x = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(
            forward_batch(SubspaceNetwork(net.layers[:3]), x), forward_batch(net, x))

    def test_forward_pure(self):
        rng = np.random.default_rng(4)
        net = make_net(rng, depth=2)
        x = rng.standard_normal((1, 4))
        np.testing.assert_array_equal(forward_batch(net, x), forward_batch(net, x))


class TestNetworkInvariants:
    def test_dimension_chain_checked(self):
        rng = np.random.default_rng(6)
        bad = [make_layer(rng, t=3, d_in=4), make_layer(rng, t=3, d_in=5)]
        with pytest.raises(Exception):
            SubspaceNetwork(layers=bad, skip_mode="concat")

    def test_empty_network_rejected(self):
        with pytest.raises(EmptyInputError):
            SubspaceNetwork(layers=[], skip_mode="concat")


class TestCalibrateSigma:
    def test_residual_formula_positive_targets(self):
        rng = np.random.default_rng(7)
        data, _ = gen_single_layer(50, 6, 4, 2, 1.0, seed=0)
        layer = make_layer(rng, t=4, d_in=6)
        report = calibrate_sigma(layer, data)
        preds = data.X @ layer.V.T @ layer.U.T
        expected = []
        for t in range(4):
            positive = data.Y[:, t] > 0
            # every task mixes positive and censored targets
            assert 0 < positive.sum() < data.n
            expected.append(np.sqrt(np.mean((data.Y[positive, t] - preds[positive, t]) ** 2)))
        np.testing.assert_allclose(report.sigma, np.clip(expected, 1e-2, 1e2),
                                   rtol=1e-12)
        np.testing.assert_array_equal(report.n_used, (data.Y > 0).sum(axis=0))
        assert not report.fallback.any()

    def test_perfect_fit_clamps_to_floor(self):
        rng = np.random.default_rng(8)
        layer = make_layer(rng, t=3, d_in=5)
        x = rng.standard_normal((30, 5))
        y_lin = x @ layer.V.T @ layer.U.T
        y = np.abs(y_lin) + 1.0  # keep targets positive
        # rebuild a layer that maps exactly onto y: use y = preds by construction
        data = Dataset(X=x, Y=np.maximum(y_lin, 0.0))
        report = calibrate_sigma(layer, data)
        # uncensored rows match predictions exactly, so raw sigma ~ 0 -> floor
        assert np.all(report.sigma >= 1e-2)
        assert report.clamped_low.any()

    def test_uncensored_mode_ignores_censored_rows(self):
        layer = SubspaceLayer(U=np.array([[1.0], [1.0]]), V=np.array([[1.0]]),
                              sigma=np.ones(2), lam=0.0)
        x = np.array([[-5.0], [1.0], [2.0]])
        # task 0: the censored row has a huge residual; task 1 is censored
        # everywhere, so it falls back to every sample
        y = np.array([[0.0, 0.0], [1.5, 0.0], [2.5, 0.0]])
        data = Dataset(X=x, Y=y)
        rep = calibrate_sigma(layer, data)
        np.testing.assert_allclose(rep.sigma[0], 0.5, rtol=1e-12)
        assert rep.n_used[0] == 2
        np.testing.assert_array_equal(rep.fallback, [False, True])
        assert rep.n_used[1] == 3
        np.testing.assert_allclose(rep.sigma[1], np.sqrt(10.0), rtol=1e-12)

    def test_ceiling_clamps_only_the_task_above_it(self):
        layer = SubspaceLayer(U=np.array([[1.0], [1.0]]), V=np.array([[1.0]]),
                              sigma=np.ones(2), lam=0.0)
        # task 0 misses by 0.5 everywhere; task 1 by hundreds
        data = Dataset(X=np.array([[1.0], [2.0]]), Y=np.array([[1.5, 500.0], [2.5, 600.0]]))
        rep = calibrate_sigma(layer, data)
        np.testing.assert_allclose(rep.sigma[0], 0.5, rtol=1e-12)
        assert rep.sigma[1] == SIGMA_MAX
        np.testing.assert_array_equal(rep.clamped_high, [False, True])
        assert not rep.clamped_low.any()

    def test_heteroscedastic_rank_agreement(self):
        data, truth = gen_heteroscedastic(3000, 30, 12, 3, [0.5, 3.0], seed=3)
        cfg = TrainConfig(rank=3, seed=0, v_inner_steps=8)
        sigma0 = 0.1 * float(np.sqrt(np.mean(data.Y ** 2)))
        layer, _ = train_layer(data, cfg, sigma=sigma0)
        report = calibrate_sigma(layer, data)
        agree = total = 0
        for s in range(12):
            for t in range(s + 1, 12):
                if truth.sigma[s] == truth.sigma[t]:
                    continue
                total += 1
                if (report.sigma[s] - report.sigma[t]) * (truth.sigma[s] - truth.sigma[t]) > 0:
                    agree += 1
        assert agree / total >= 0.9

    def test_empty_data_rejected(self):
        rng = np.random.default_rng(9)
        layer = make_layer(rng, t=2, d_in=3)
        with pytest.raises(Exception):
            calibrate_sigma(layer, Dataset(X=np.ones((0, 3)), Y=np.ones((0, 2))))


class TestExpand:
    def test_depth_one_equals_train_layer(self):
        data, _ = gen_single_layer(40, 6, 4, 2, 1.0, seed=10)
        cfg = TrainConfig(rank=2, seed=11)
        net, traces = expand(data, 1, cfg)
        layer, trace = train_layer(data, cfg, sigma=None)
        np.testing.assert_array_equal(net.layers[0].U, layer.U)
        np.testing.assert_array_equal(net.layers[0].V, layer.V)
        np.testing.assert_array_equal(traces[0].costs, trace.costs)
        # layer 0 of a deeper, calibrated expansion is the same layer
        deep, deep_traces = grow(data, 2, cfg, calibrate=True)
        for name in ("U", "V", "sigma"):
            np.testing.assert_array_equal(getattr(deep.layers[0], name),
                                          getattr(layer, name))
        assert deep.layers[0].lam == layer.lam
        np.testing.assert_array_equal(deep_traces[0].costs, trace.costs)

    def test_one_pass_per_layer(self):
        data, _ = gen_single_layer(35, 6, 4, 2, 1.0, seed=12)
        net, traces = grow(data, 3, TrainConfig(rank=2, seed=13))
        assert len(traces) == 3
        for trace in traces:
            assert len(trace) == data.n

    def test_frozen_layers_untouched_by_expansion(self):
        data, _ = gen_single_layer(30, 6, 4, 2, 1.0, seed=14)
        cfg = TrainConfig(rank=2, seed=15)
        net2, _ = grow(data, 2, cfg)
        net4, _ = grow(data, 4, cfg)
        for k in range(2):
            np.testing.assert_array_equal(net2.layers[k].U, net4.layers[k].U)
            np.testing.assert_array_equal(net2.layers[k].V, net4.layers[k].V)

    def test_dimension_chain(self):
        data, _ = gen_single_layer(30, 6, 4, 2, 1.0, seed=16)
        net, _ = grow(data, 3, TrainConfig(rank=2, seed=17))
        assert net.layers[0].d_in == 6
        assert net.layers[1].d_in == 10
        assert net.layers[2].d_in == 10

    def test_calibrated_sigma_installed_into_next_layer(self):
        data, _ = gen_single_layer(60, 6, 4, 2, 1.0, seed=18)
        cfg = TrainConfig(rank=2, seed=19)
        net, _ = grow(data, 2, cfg, calibrate=True)
        base, _ = grow(data, 2, cfg, calibrate=False)
        assert not np.allclose(net.layers[1].sigma, base.layers[1].sigma)
        np.testing.assert_array_equal(base.layers[1].sigma, np.ones(4))

    def test_calibrated_layer_holds_the_estimate_of_its_predecessor(self):
        data, _ = gen_heteroscedastic(80, 6, 4, 2, [0.5, 3.0], seed=25)
        cfg = TrainConfig(rank=2, seed=26)
        net, _ = grow(data, 2, cfg, calibrate=True)
        np.testing.assert_array_equal(net.layers[1].sigma,
                                      calibrate_sigma(net.layers[0], data).sigma)

    def test_depth_one_calibrates_nothing(self):
        data, _ = gen_single_layer(40, 6, 4, 2, 1.0, seed=27)
        cfg = TrainConfig(rank=2, seed=28)
        (calibrated, traces), (base, base_traces) = (
            expand(data, 1, cfg, calibrate=calibrate) for calibrate in (True, False))
        for name in ("U", "V", "sigma"):
            np.testing.assert_array_equal(getattr(calibrated.layers[0], name),
                                          getattr(base.layers[0], name))
        np.testing.assert_array_equal(traces[0].costs, base_traces[0].costs)

    def test_calibrated_expansion_stays_on_the_noise_scale(self):
        # calibrated layers must neither starve the noisy tasks (a deep net
        # scoring worse than each task's mean) nor feed that underfit back
        # into ever larger noise estimates
        from subspace_net.metrics import anmse
        data, truth = gen_heteroscedastic(600, 20, 8, 3, sigma_set=[0.5, 3.0], seed=1)
        cfg, sigma = _train_policy(shipped("calibration_study").train, 3, 1, data.Y, truth)
        net, _ = grow(data, 5, cfg, calibrate=True, sigma=sigma)
        assert net.depth == 5
        for layer in net.layers[1:]:
            assert layer.sigma.max() <= 3.0 * truth.sigma.max()
        for k in range(1, net.depth + 1):
            assert anmse(data.Y, forward_batch(SubspaceNetwork(net.layers[:k]), data.X)) < 1.0

    @pytest.mark.parametrize("calibrate", [False, True])
    def test_step_by_step_equals_expand(self, calibrate):
        # expand's layers are the steps from layer 0, and it stops only
        # before a step that raises the training mean squared error
        data, _ = gen_heteroscedastic(80, 6, 4, 2, [0.5, 3.0], seed=25)
        cfg, sigma = TrainConfig(rank=2, seed=26), [1.0, 2.0, 0.5, 1.5]
        net, traces = expand(data, 4, cfg, calibrate=calibrate, sigma=sigma)
        layers, state = [], None
        for k in range(4):
            grown, trace, grown_state = _grow(data, layers, state, cfg, calibrate, sigma)
            if k == net.depth:
                mse = [np.mean((data.Y - s[1]) ** 2) for s in (state, grown_state)]
                assert mse[1] > mse[0]
                break
            for name in ("U", "V", "sigma"):
                np.testing.assert_array_equal(getattr(grown[k], name),
                                              getattr(net.layers[k], name))
            assert grown[k].lam == net.layers[k].lam
            np.testing.assert_array_equal(trace.costs, traces[k].costs)
            layers, state = grown, grown_state
        assert len(traces) == net.depth

    def test_bad_depth(self):
        data, _ = gen_single_layer(10, 4, 3, 2, 1.0, seed=20)
        with pytest.raises(InvalidArgumentError):
            expand(data, 0, TrainConfig(rank=2, seed=0))

    def test_guard_makes_training_fit_monotone(self):
        # with the greedy guard, every accepted layer improves the training
        # mean squared error, so training ANMSE never increases with depth
        from subspace_net.metrics import anmse
        data, _ = gen_single_layer(250, 10, 5, 2, 1.0, seed=21)
        cfg = TrainConfig(rank=2, seed=22, v_inner_steps=2)
        net, _ = expand(data, 6, cfg)
        curve = [anmse(data.Y, forward_batch(SubspaceNetwork(net.layers[:k]), data.X))
                 for k in range(1, net.depth + 1)]
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_guard_can_stop_early(self):
        data, _ = gen_single_layer(150, 8, 4, 2, 0.5, seed=23)
        cfg = TrainConfig(rank=2, seed=24)
        net, traces = expand(data, 8, cfg)
        assert 1 <= net.depth <= 8
        assert len(traces) == net.depth


class TestModelFile:
    def test_round_trip_bit_identical_forward(self, tmp_path):
        rng = np.random.default_rng(21)
        net = make_net(rng, depth=3, t=3, d=4)
        path = tmp_path / "model.ssnw"
        save_model(net, path)
        back = load_model(path)
        assert back.skip_mode == net.skip_mode
        assert back.depth == net.depth
        xs = rng.standard_normal((100, 4))
        np.testing.assert_array_equal(forward_batch(back, xs), forward_batch(net, xs))

    def test_truncated_file_fails_checksum(self, tmp_path):
        rng = np.random.default_rng(22)
        net = make_net(rng, depth=1)
        path = tmp_path / "model.ssnw"
        save_model(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        rng = np.random.default_rng(23)
        net = make_net(rng, depth=2)
        path = tmp_path / "model.ssnw"
        save_model(net, path)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ssnw"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        import struct
        import zlib
        rng = np.random.default_rng(24)
        net = make_net(rng, depth=1)
        path = tmp_path / "model.ssnw"
        save_model(net, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)  # bump the version field
        body = bytes(blob[4:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body))  # keep checksum valid
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_naive_skip_mode_byte_rejected(self, tmp_path):
        # byte 1 named the retired predictions-only wiring; a file that
        # carries it, well formed otherwise, describes no network
        path = tmp_path / "model.ssnw"
        write_naive_model(path)
        with pytest.raises(ModelFormatError, match=r"^unknown skip mode byte 1$"):
            load_model(path)
        with pytest.raises(InvalidArgumentError):
            SubspaceNetwork(layers=[make_layer(np.random.default_rng(0), 3, 4)],
                            skip_mode="naive")

    @pytest.mark.parametrize("defect, cause", [
        ("zero_depth", EmptyInputError),
        ("non_finite_u", InvalidArgumentError),
        ("nan_lam", InvalidArgumentError),
        ("widths_disagree", DimensionError),
        ("zero_rank", DimensionError),
        ("zero_tasks", DimensionError),
        ("zero_inputs", DimensionError),
    ])
    def test_invalid_structure_is_a_format_error(self, tmp_path, defect, cause):
        # every file below carries a valid checksum; only its structure is bad
        path = tmp_path / "model.ssnw"
        write_invalid_model(path, defect)
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert isinstance(info.value.__cause__, cause)

    def test_empty_network_cannot_exist(self):
        with pytest.raises(EmptyInputError):
            SubspaceNetwork(layers=[], skip_mode="concat")
