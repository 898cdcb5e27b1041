"""Deep subspace network: greedy layer-wise expansion, skip-connection
wiring, per-task noise calibration, forward evaluation, and a binary model
file format.

Layer 0 consumes the raw features. Every later layer consumes
``[previous prediction; raw features]`` (length T + D), which lets a new
layer reproduce its predecessor through the feature block alone, so
stacking cannot lose information.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, _atomic_write, _sub_seed
from .errors import (
    _COUNT,
    ChecksumError,
    DimensionError,
    EmptyInputError,
    InvalidArgumentError,
    ModelFormatError,
    ModelVersionError,
    SubspaceNetError,
    TruncatedModelError,
    _boolean,
    check_argument,
    check_matrix,
)
from .layer import (
    SubspaceLayer,
    TraceLog,
    TrainConfig,
    _noise_scales,
    predict_batch,
    predict_linear_batch,
    train_layer,
)

# the skip wiring each model-file mode byte names; byte 0 is the only one
SKIP_MODES = ("concat",)

MODEL_MAGIC = b"SSNW"
MODEL_VERSION = 1

SIGMA_MIN = 1e-2
SIGMA_MAX = 1e2

# root-mean-square entry scale of the prediction block in a stacked layer's
# standardized inputs (the raw-feature block has scale 1)
PRED_SCALE = 0.1


@dataclass
class SubspaceNetwork:
    """Ordered stack of trained layers. ``skip_mode`` names the one skip
    wiring, ``concat``."""

    layers: list[SubspaceLayer]
    skip_mode: str = "concat"

    def __post_init__(self):
        if not self.layers:
            raise EmptyInputError("a network needs at least one layer")
        if self.skip_mode not in SKIP_MODES:
            raise InvalidArgumentError(
                f"skip_mode must be one of {SKIP_MODES}, got {self.skip_mode!r}")
        t = self.layers[0].t_out
        for k, layer in enumerate(self.layers):
            if layer.t_out != t:
                raise DimensionError(
                    f"layer {k} outputs {layer.t_out} tasks, expected {t}")
            if k > 0 and layer.d_in != t + self.input_dim:
                raise DimensionError(
                    f"layer {k} consumes {layer.d_in} inputs, expected "
                    f"{t + self.input_dim} (predictions and features)")

    @property
    def input_dim(self) -> int:
        return self.layers[0].d_in

    @property
    def task_dim(self) -> int:
        return self.layers[0].t_out

    @property
    def depth(self) -> int:
        return len(self.layers)


@dataclass
class CalibrationReport:
    """Per-task noise estimates from one layer's pre-activation residuals.

    ``clamped_low`` / ``clamped_high`` flag tasks whose raw estimate fell
    outside ``[SIGMA_MIN, SIGMA_MAX]``. Tasks without a single positive
    target fall back to the all-samples residual and are flagged in
    ``fallback``; ``n_used`` counts the samples behind each estimate.
    """

    sigma: np.ndarray
    clamped_low: np.ndarray
    clamped_high: np.ndarray
    fallback: np.ndarray
    n_used: np.ndarray


def forward_batch(net: SubspaceNetwork, x_mat) -> np.ndarray:
    """Evaluate the network on a batch of row vectors (N x D). The depth-k
    prediction is that of the first k layers, ``SubspaceNetwork(net.layers[:k])``."""
    x_mat = check_matrix("inputs", x_mat, net.input_dim)
    h = predict_batch(net.layers[0], x_mat)
    for layer in net.layers[1:]:
        h = predict_batch(layer, np.concatenate([h, x_mat], axis=1))
    return h


def calibrate_sigma(layer: SubspaceLayer, data: Dataset) -> CalibrationReport:
    """Estimate per-task noise scales from pre-activation residuals.

    For each task, ``sigma_t^2`` is the mean squared residual between the
    targets and the layer's linear (pre-ReLU) predictions over the samples
    with a positive target, clamped to ``[SIGMA_MIN, SIGMA_MAX]``. Leaving
    out the censored samples avoids inflating the estimate on heavily
    censored tasks, where zero targets sit far from a strongly negative
    predictor. A task with no positive target falls back to every sample.
    """
    if data.t != layer.t_out:
        raise DimensionError(
            f"targets have {data.t} tasks, but the layer predicts {layer.t_out}")
    used = data.Y > 0
    fallback = ~used.any(axis=0)
    used[:, fallback] = True
    n_used = used.sum(axis=0)
    resid2 = (data.Y - predict_linear_batch(layer, data.X)) ** 2
    raw = np.sqrt(np.where(used, resid2, 0.0).sum(axis=0) / n_used)
    return CalibrationReport(
        sigma=np.clip(raw, SIGMA_MIN, SIGMA_MAX),
        clamped_low=raw < SIGMA_MIN,
        clamped_high=raw > SIGMA_MAX,
        fallback=fallback,
        n_used=n_used,
    )


def _rms(m: np.ndarray) -> float:
    """Root-mean-square entry, or 1 for an all-zero block."""
    return float(np.sqrt(np.mean(m ** 2))) or 1.0


def _grow(data: Dataset, layers: list[SubspaceLayer], state, cfg: TrainConfig,
          calibrate: bool, sigma) -> tuple[list[SubspaceLayer], TraceLog, tuple]:
    """Train layer ``k = len(layers)`` on top of ``layers`` with the noise
    scales ``sigma`` (default 1). Return ``layers`` with it appended, its
    trace, and the ``state`` the next step reads: the raw inputs it read and
    its training prediction (None at layer 0). Layer k seeds from
    ``cfg.seed`` and k, layer 0 from ``cfg.seed`` itself.

    With ``calibrate`` on, layer k >= 1 instead weights the tasks by the
    noise scales ``s_t`` that `calibrate_sigma` estimates from layer k-1's
    pre-activation residuals. Calibration only redistributes weight among
    the tasks in the shared sketch: the layer trains at the uniform scale
    ``s0`` whose curvature ``1/s0^2`` is the mean over tasks of
    ``1/sigma^2``, on targets whitened per task by
    ``c_t = s_ref / s_t`` with ``s_ref`` chosen so that ``mean_t c_t^2 = 1``.
    Task t then enters the sketch with relative weight ``c_t^2``, its own
    basis row keeps the step dynamics of an uncalibrated layer, and the
    mean task weight is unchanged. The layer records ``s_t`` as its
    ``sigma``: its likelihood is the calibrated one up to a common factor on
    every noise scale, and its trace costs are those of the whitened one.

    Stacked-layer inputs are standardized for conditioning: the skip block
    to unit root-mean-square entry scale and the prediction block to
    ``PRED_SCALE`` (a small value stops the optimizer from leaning on the
    lossy ReLU'd predictions before it has exploited the raw features).
    Every layer trains on its inputs divided per column by ``cols`` (all
    ones at layer 0) and its targets whitened per task by ``rows`` (all ones
    without calibration), and is stored as ``U / rows`` and ``V / cols``, so
    stored layers operate on the raw inputs and predict the raw targets.
    """
    sigma_k = noise = _noise_scales(sigma, data.t)
    inputs, targets, cols, rows = data.X, data.Y, np.ones(data.d), np.ones(data.t)
    if layers:
        inputs, h = state
        if calibrate:
            # calibration only reweights tasks: whiten the targets so the weights
            # c_t^2 average one, and train at the mean uncalibrated weight
            noise = calibrate_sigma(layers[-1], Dataset(X=inputs, Y=data.Y)).sigma
            rows = 1.0 / (noise * np.sqrt(np.mean(noise ** -2.0)))
            targets = data.Y * rows
            sigma_k = 1.0 / np.sqrt(np.mean(sigma_k ** -2.0))
        inputs = np.concatenate([h, data.X], axis=1)
        cols = np.repeat([_rms(h) / PRED_SCALE, _rms(data.X)], [data.t, data.d])
    cfg_k = replace(cfg, seed=_sub_seed(cfg.seed, len(layers)) if layers else cfg.seed)
    try:
        trained, trace = train_layer(Dataset(X=inputs / cols, Y=targets), cfg_k, sigma=sigma_k)
    except SubspaceNetError as exc:
        exc.args = (f"layer {len(layers)}: {exc.args[0] if exc.args else ''}",)
        raise
    layer = SubspaceLayer(U=trained.U / rows[:, None], V=trained.V / cols,
                          sigma=noise, lam=trained.lam)
    return [*layers, layer], trace, (inputs, predict_batch(layer, inputs))


def expand(data: Dataset, depth: int, cfg: TrainConfig, calibrate: bool = False,
           sigma=None) -> tuple[SubspaceNetwork, list[TraceLog]]:
    """Grow a network up to ``depth`` layers by greedy one-pass training.

    Layer 0 trains on the raw features; each later layer trains on
    ``[previous prediction; raw features]`` against the original targets,
    and is frozen once trained; each layer is one `_grow` step.

    A freshly trained layer is accepted only if it does not increase the
    training mean squared error of the network's predictions (the
    greedy-boosting guard); the first rejected layer ends the expansion, so
    the returned network may be shallower than ``depth`` and appending
    layers never degrades the training fit.

    With ``depth=1`` the result wraps exactly the output of `train_layer`
    on the same arguments, and layer 0 of any expansion equals it.
    """
    check_argument("depth", depth, _COUNT)
    check_argument("calibrate", calibrate, _boolean)

    layers: list[SubspaceLayer] = []
    traces: list[TraceLog] = []
    state = None
    for _ in range(depth):
        grown, trace, next_state = _grow(data, layers, state, cfg, calibrate, sigma)
        if layers and (
                np.mean((data.Y - next_state[1]) ** 2) > np.mean((data.Y - state[1]) ** 2)):
            break
        layers, state = grown, next_state
        traces.append(trace)
    return SubspaceNetwork(layers=layers), traces


def _pack_matrix(m: np.ndarray) -> bytes:
    return np.ascontiguousarray(m, dtype="<f8").tobytes()


def save_model(net: SubspaceNetwork, path):
    """Write a network to ``path`` in the versioned binary format.

    Layout (little-endian): magic ``SSNW``; u32 version; u8 skip mode
    (0, ``concat``, the only value: `load_model` rejects any other byte);
    u32 input dim, task dim, depth; then per layer u32 d_in, t_out, r,
    f64 lam, the sigma vector, and the row-major f64 U and V matrices;
    finally the CRC32 (u32) of everything after the magic. The file is
    written atomically via a temp file and rename.
    """
    body = bytearray()
    body += struct.pack("<I", MODEL_VERSION)
    body += struct.pack("<B", SKIP_MODES.index(net.skip_mode))
    body += struct.pack("<III", net.input_dim, net.task_dim, net.depth)
    for layer in net.layers:
        body += struct.pack("<III", layer.d_in, layer.t_out, layer.r)
        body += struct.pack("<d", layer.lam)
        body += _pack_matrix(layer.sigma)
        body += _pack_matrix(layer.U)
        body += _pack_matrix(layer.V)
    _atomic_write(path, MODEL_MAGIC + bytes(body)
                  + struct.pack("<I", zlib.crc32(bytes(body))))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedModelError(
                f"model file ends at byte {len(self.buf)}, needed {self.pos + n}")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        raw = self.take(8 * rows * cols)
        return np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()


def load_model(path) -> SubspaceNetwork:
    """Read a network written by `save_model`, verifying magic, version,
    and checksum before constructing anything."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MODEL_MAGIC) + 8:
        raise TruncatedModelError(f"model file is only {len(blob)} bytes")
    if blob[:4] != MODEL_MAGIC:
        raise ModelFormatError(f"bad magic bytes {blob[:4]!r}")
    body, stored = blob[4:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) != stored:
        raise ChecksumError("model file checksum mismatch")
    rd = _Reader(body)
    version = rd.u32()
    if version != MODEL_VERSION:
        raise ModelVersionError(
            f"unsupported model format version {version} (expected {MODEL_VERSION})")
    mode_byte = rd.take(1)[0]
    if mode_byte >= len(SKIP_MODES):
        raise ModelFormatError(f"unknown skip mode byte {mode_byte}")
    input_dim, task_dim, depth = rd.u32(), rd.u32(), rd.u32()
    layers = []
    for _ in range(depth):
        d_in, t_out, r = rd.u32(), rd.u32(), rd.u32()
        lam = rd.f64()
        sigma = rd.matrix(1, t_out)[0]
        u = rd.matrix(t_out, r)
        v = rd.matrix(r, d_in)
        layers.append((u, v, sigma, lam))
    if rd.pos != len(body):
        raise ModelFormatError(f"{len(body) - rd.pos} unexpected trailing bytes")
    # a well-formed file can still describe no network: no layers, a
    # non-finite factor, or layers whose widths do not chain
    try:
        net = SubspaceNetwork(
            layers=[SubspaceLayer(U=u, V=v, sigma=sigma, lam=lam)
                    for u, v, sigma, lam in layers],
            skip_mode=SKIP_MODES[mode_byte])
    except (EmptyInputError, InvalidArgumentError, DimensionError) as exc:
        raise ModelFormatError(f"invalid model structure: {exc}") from exc
    if net.input_dim != input_dim or net.task_dim != task_dim:
        raise ModelFormatError("header dimensions disagree with layer shapes")
    return net
