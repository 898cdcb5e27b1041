"""Experiment configuration: JSON schema, validation, and loading.

A config file is a single JSON object. Unknown keys are rejected at every
level; every violation is reported with its JSON path. The schema (version
1) is:

    {
      "schema_version": 1,
      "experiment": "single_layer_recovery" | "deep_recovery" |
                    "depth_sweep" | "calibration_study",
      "output_dir": str,                       # a path (see below)
      "seeds": [int, ...],                     # >= 1 entry, each >= 0,
                                               # none repeated
      "data": {
        "kind": "planted" | "planted_deep" | "planted_hetero" | "csv",
        # planted kinds:
        "n": int, "d": int, "t": int, "r": int,
        "sigma": float,                        # planted noise scale
        "sigma_set": [float, ...],             # planted_hetero only
        "depth": int,                          # planted_deep only
        # csv kind, each a path:
        "features_path": str, "targets_path": str
      },
      "train": {
        "eta": float, "mu": float,             # per-unit-target-scale steps
        "lambda": float, "rank": int,
        "v_inner_steps": int,
        "step_decay": bool, "step_offset": float,
        "scale_steps": bool,   # scale eta/mu/init by the target RMS
        "sigma": "scaled" | "planted" | float, # likelihood noise policy
                                               # ("planted": not for csv)
        "sigma_scale": float                   # alpha for the scaled policy
      },
      "depth": int,                            # depth K; >= 2 for calibration_study
      "calibrate": bool,
      "fractions": [float, ...],               # train splits (split recipes
                                               # only; recovery recipes use
                                               # the full dataset); distinct
      "ranks": [int, ...],                     # optional rank sweep; distinct
      "include_baselines": bool,
      "save_models": bool,
      "save_traces": bool
    }

Only "experiment", "output_dir" and "seeds" are required. Each key's
default and validation rule live on its field of `DataConfig`,
`TrainSection` or `ExperimentConfig`, which are the schema the validator
and the loader read. A list key must be a nonempty list, and then each
entry is checked by the field's ``each`` rule and reported as ``key[i]``.
A path is a nonempty string without NUL that `os.fsencode` and UTF-8 encode.
For hyperparameter sweeps beyond ranks and fractions (for example the
regularization grid 1e-4, 1e-3, 1e-2, 1e-1), run one config per value.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .errors import ConfigError

SCHEMA_VERSION = 1

EXPERIMENTS = ("single_layer_recovery", "deep_recovery", "depth_sweep",
               "calibration_study")
DATA_KINDS = ("planted", "planted_deep", "planted_hetero", "csv")
SIGMA_POLICIES = ("scaled", "planted")


def _real(val) -> bool:
    """A finite JSON number: ``json`` parses ``NaN`` and ``Infinity`` too."""
    return not isinstance(val, bool) and (
        isinstance(val, int) or (isinstance(val, float) and math.isfinite(val)))


def _number(*, integer=False, minimum=None, exclusive_min=None):
    def check(val):
        if isinstance(val, float) and not math.isfinite(val):
            return f"must be finite, got {val}"
        if not _real(val):
            return f"must be a number, got {type(val).__name__}"
        if integer and not isinstance(val, int):
            return "must be an integer"
        if minimum is not None and val < minimum:
            return f"must be >= {minimum}, got {val}"
        if exclusive_min is not None and val <= exclusive_min:
            return f"must be > {exclusive_min}, got {val}"
        return None
    return check


def _one_of(options, message):
    return lambda val: None if val in options else message


def _path(val):
    if not (isinstance(val, str) and val):
        return "required nonempty string"
    try:  # a path must open, and UTF-8 results.csv names the csv paths
        os.fsencode(val)
        val.encode("utf-8")
    except UnicodeEncodeError:
        return f"must encode as a file name and as UTF-8, got {val!r}"
    return f"must not contain a NUL character, got {val!r}" if "\0" in val else None


def _nonempty_list(val):
    return None if isinstance(val, list) and val else "must be a nonempty list"


def _boolean(val):
    return None if isinstance(val, bool) else "must be a boolean"


def _sigma_policy(val):
    if (isinstance(val, str) and val in SIGMA_POLICIES) or (_real(val) and val > 0):
        return None
    return f"must be a positive number or one of {SIGMA_POLICIES}"


def _fraction(val):
    if _real(val) and 0.0 < val < 1.0:
        return None
    return f"must lie strictly in (0, 1), got {val}"


def _setting(default, check, *, key=None, each=None):
    """A config field: its default, its validation rule ``check`` (value ->
    message or None), its JSON key when that differs from the field name,
    and for lists an optional rule ``each`` for every entry. A field without
    a default is required."""
    meta = {"check": check, "key": key, "each": each}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


_COUNT = _number(integer=True, minimum=1)
_SEED = _number(integer=True, minimum=0)
_NONNEGATIVE = _number(minimum=0.0)
_POSITIVE = _number(exclusive_min=0.0)


@dataclass
class DataConfig:
    kind: str = _setting(
        "planted", _one_of(DATA_KINDS, f"must be one of {DATA_KINDS}"))
    n: int = _setting(2000, _COUNT)
    d: int = _setting(50, _COUNT)
    t: int = _setting(20, _COUNT)
    r: int = _setting(5, _COUNT)
    sigma: float = _setting(3.0, _NONNEGATIVE)
    sigma_set: list = _setting([0.5, 3.0], _nonempty_list, each=_POSITIVE)
    depth: int = _setting(3, _COUNT)
    features_path: str | None = _setting(None, _path)
    targets_path: str | None = _setting(None, _path)


@dataclass
class TrainSection:
    eta: float = _setting(2e-4, _POSITIVE)
    mu: float = _setting(2e-3, _POSITIVE)
    lam: float = _setting(1e-3, _NONNEGATIVE, key="lambda")
    rank: int = _setting(5, _COUNT)
    v_inner_steps: int = _setting(8, _COUNT)
    step_decay: bool = _setting(True, _boolean)
    step_offset: float = _setting(500.0, _POSITIVE)
    scale_steps: bool = _setting(False, _boolean)
    sigma: object = _setting("scaled", _sigma_policy)
    sigma_scale: float = _setting(0.1, _POSITIVE)


@dataclass
class ExperimentConfig:
    experiment: str = _setting(
        MISSING, _one_of(EXPERIMENTS, f"must be one of {EXPERIMENTS}"))
    output_dir: str = _setting(MISSING, _path)
    seeds: list = _setting(MISSING, _nonempty_list, each=_SEED)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainSection = field(default_factory=TrainSection)
    depth: int = _setting(3, _COUNT)
    calibrate: bool = _setting(False, _boolean)
    fractions: list | None = _setting(None, _nonempty_list, each=_fraction)
    ranks: list | None = _setting(None, _nonempty_list, each=_COUNT)
    include_baselines: bool = _setting(False, _boolean)
    save_models: bool = _setting(True, _boolean)
    save_traces: bool = _setting(True, _boolean)


def _err(path, msg):
    return f"{path}: {msg}"


def _key(f) -> str:
    return f.metadata.get("key") or f.name


def _section(f):
    """The dataclass of a nested section field, or None."""
    return f.default_factory if is_dataclass(f.default_factory) else None


def _validate(problems, cls, obj, path, extra_keys=()):
    """Check ``obj`` against the fields of ``cls``, reporting under ``path``.
    Absent keys take their defaults; null stands for an absent key only
    where the default itself is null."""
    known = {_key(f): f for f in fields(cls)}
    for key in obj:
        if key not in known and key not in extra_keys:
            problems.append(_err(f"{path}.{key}", "unknown key"))
    for key, f in known.items():
        loc = f"{path}.{key}"
        required = f.default is MISSING and f.default_factory is MISSING
        val = obj.get(key)
        if (key not in obj and not required) or (val is None and f.default is None):
            continue
        if _section(f) is not None:
            if isinstance(val, dict):
                _validate(problems, _section(f), val, key)
            else:
                problems.append(_err(loc, "must be an object"))
            continue
        message = f.metadata["check"](val)
        if message:
            problems.append(_err(loc, message))
        elif f.metadata["each"]:
            for i, item in enumerate(val):
                message = f.metadata["each"](item)
                if message:
                    problems.append(_err(f"{loc}[{i}]", message))


def validate_config_dict(obj) -> list[str]:
    """Check a parsed JSON object against the schema; return all problems."""
    if not isinstance(obj, dict):
        return ["$: config must be a JSON object"]
    problems: list[str] = []
    _validate(problems, ExperimentConfig, obj, "$",
              extra_keys=("schema_version",))
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        problems.append(_err("$.schema_version",
                             f"unsupported version {version!r} (expected {SCHEMA_VERSION})"))
    data = obj.get("data")
    if isinstance(data, dict) and data.get("kind") == "csv":
        for key in ("features_path", "targets_path"):
            if data.get(key) is None:
                problems.append(_err(f"data.{key}", "required string for csv data"))
        train = obj.get("train")
        if isinstance(train, dict) and train.get("sigma") == "planted":
            problems.append(_err("train.sigma", "'planted' requires planted data, not csv"))
    depth = obj.get("depth")
    if obj.get("experiment") == "calibration_study" and depth == 1 and not _COUNT(depth):
        problems.append(_err("$.depth", "must be >= 2 for calibration_study, got 1"))
    for key in ("seeds", "fractions", "ranks"):
        val = obj.get(key)
        # repr tells 1 from 1.0 and True, and takes unhashable entries
        if isinstance(val, list) and len(set(map(repr, val))) < len(val):
            problems.append(_err(f"$.{key}", f"must not repeat an entry, got {val}"))
    return problems


def _build(cls, obj):
    """Construct ``cls`` from a validated JSON object."""
    values = {}
    for f in fields(cls):
        val = obj.get(_key(f))
        if val is not None:
            values[f.name] = _build(_section(f), val) if _section(f) else val
    return cls(**values)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; raise ConfigError listing every
    problem (with line/column for JSON syntax errors)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from exc
    problems = validate_config_dict(obj)
    if problems:
        raise ConfigError("\n".join(f"{path}: {p}" for p in problems))
    return _build(ExperimentConfig, obj)
