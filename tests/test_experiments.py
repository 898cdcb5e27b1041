"""The recipes' one training policy: `experiments._train_policy` turns a
config's train section and the training targets into the step sizes, init
scale and likelihood noise scale of a cell. The section and `TrainConfig`
take the settings they share with one default and one rule."""

from dataclasses import fields

import numpy as np
import pytest

from subspace_net.config import TrainSection, validate_config_dict
from subspace_net.data import PlantedTruth
from subspace_net.errors import InvalidArgumentError
from subspace_net.experiments import _train_policy
from subspace_net.layer import TrainConfig, TrainSettings

TRUTH = PlantedTruth(sigma=np.array([0.5, 3.0]))

# (scale_steps, sigma policy, target RMS) -> (eta, mu, init_scale, sigma)
# for eta 0.5, mu 0.125 and sigma_scale 0.5. Every target equals the RMS,
# so each expected number is exact. The init floor holds at RMS 2, and RMS
# 46 is four times the reference spread, so its init scale is 2.
POLICY = {
    "fixed_scaled": (False, "scaled", 46.0, (0.5, 0.125, 1.0, 23.0)),
    "fixed_planted": (False, "planted", 2.0, (0.5, 0.125, 1.0, TRUTH.sigma)),
    "fixed_number": (False, 2.5, 46.0, (0.5, 0.125, 1.0, 2.5)),
    "scaled_above_reference": (True, "scaled", 46.0, (23.0, 5.75, 2.0, 23.0)),
    "scaled_below_reference": (True, "scaled", 2.0, (1.0, 0.25, 1.0, 1.0)),
    "scaled_planted": (True, "planted", 46.0, (23.0, 5.75, 2.0, TRUTH.sigma)),
    "scaled_number": (True, 2.5, 2.0, (1.0, 0.25, 1.0, 2.5)),
}


@pytest.mark.parametrize("name", POLICY)
def test_train_policy(name):
    scale_steps, policy, rms, (eta, mu, init_scale, sigma) = POLICY[name]
    section = TrainSection(eta=0.5, mu=0.125, lam=0.25, v_inner_steps=3,
                           step_decay=False, step_offset=64.0,
                           scale_steps=scale_steps, sigma=policy, sigma_scale=0.5)
    tc, got = _train_policy(section, 2, 7, np.full((8, 2), rms), TRUTH)
    assert tc == TrainConfig(eta=eta, mu=mu, lam=0.25, rank=2, v_inner_steps=3,
                             seed=7, init_scale=init_scale, step_decay=False,
                             step_offset=64.0)
    assert got is sigma if policy == "planted" else got == sigma


SHARED = fields(TrainSettings)
# one value per shared setting that its rule rejects
BAD = {"eta": 0.0, "mu": -1.0, "lam": -1, "rank": 0, "v_inner_steps": 2.5,
       "step_decay": "no", "step_offset": True}


def test_shared_settings_have_one_default():
    config, section = TrainConfig(), TrainSection()
    assert [getattr(config, f.name) for f in SHARED] == \
        [getattr(section, f.name) for f in SHARED]


@pytest.mark.parametrize("setting", SHARED, ids=lambda f: f.name)
def test_shared_settings_have_one_rule(setting):
    bad = BAD[setting.name]
    with pytest.raises(InvalidArgumentError) as info:
        TrainConfig(**{setting.name: bad})
    name, message = str(info.value).split(" ", 1)
    key = setting.metadata["key"] or name
    assert name == setting.name
    assert validate_config_dict({"experiment": "single_layer_recovery", "output_dir": "out",
                                 "seeds": [0], "train": {key: bad}}) == \
        [f"train.{key}: {message}"]
