"""The one field-check rule shared by the six config dataclasses.

Every numeric and switch field refuses a bool (an int, for a switch), a
value of the wrong kind and a value below its bound with a ConfigError that
names it, and takes a numpy integer back as a plain int that JSON can write.
"""

import json
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from mmvseg.data import PhantomSpec
from mmvseg.decoder import DecoderConfig
from mmvseg.encoder import EncoderConfig
from mmvseg.errors import ConfigError, check_fields
from mmvseg.fusion import AttentionConfig
from mmvseg.model import ModelConfig
from mmvseg.training import TrainConfig

# (config class, field, kind, a value below the field's bound or None, a valid
# value); for a tuple field the kind is its entry count, and the values are
# entries
FIELDS = [
    (PhantomSpec, "shape", 3, None, 32),
    (PhantomSpec, "modalities", int, 0, 2),
    (PhantomSpec, "n_classes", int, 1, 3),
    (PhantomSpec, "objects_per_class", int, 0, 2),
    (PhantomSpec, "noise_sigma", float, -0.1, 0),
    (PhantomSpec, "seed", int, -1, 7),
    (TrainConfig, "lr", float, 0.0, 1),
    (TrainConfig, "weight_decay", float, -1e-5, 0),
    (TrainConfig, "eps", float, 0.0, 1),
    (TrainConfig, "steps", int, 0, 3),
    (TrainConfig, "batch_size", int, 0, 2),
    (TrainConfig, "seed", int, -1, 7),
    (TrainConfig, "dice_weight", float, -1.0, 1),
    (TrainConfig, "ce_weight", float, -1.0, 0),
    (TrainConfig, "smooth", float, -1.0, 0),
    (TrainConfig, "checkpoint_every", int, -1, 2),
    (TrainConfig, "val_every", int, -1, 2),
    (TrainConfig, "log_wall_time", bool, None, True),
    (ModelConfig, "modalities", int, 0, 4),
    (ModelConfig, "n_classes", int, 1, 3),
    (ModelConfig, "input_shape", 3, None, 128),
    (ModelConfig, "summary_tokens", int, 0, 2),
    (ModelConfig, "spatial_layers", int, -1, 0),
    (ModelConfig, "use_spatial_attention", bool, None, False),
    (ModelConfig, "use_cross_attention", bool, None, False),
    (ModelConfig, "use_gated_skips", bool, None, False),
    (ModelConfig, "seed", int, -1, 7),
    (EncoderConfig, "stage_channels", 5, 0, 8),
    (EncoderConfig, "blocks_per_stage", int, -1, 0),
    (EncoderConfig, "mlp_ratio", int, 0, 2),
    (AttentionConfig, "heads", int, 0, 4),
    (AttentionConfig, "dim", int, 0, 64),
    (AttentionConfig, "window", 3, 0, 1),
    (AttentionConfig, "qkv_dim", int, 0, 64),
    (AttentionConfig, "ffn_ratio", int, 0, 2),
    (DecoderConfig, "level_channels", 4, 0, 8),
]


def bad_values(kind, below, good):
    if kind is bool:
        return [1, 0.0, np.int64(1), "no", None]
    wrong = [True, "2", None] + ([] if below is None else [below])
    if kind is float:
        return wrong + [float("nan"), float("inf")]
    wrong += [good + 0.5, float(good)]  # a float is not an integer, integral or not
    if kind is int:
        return wrong
    return [[v] + [good] * (kind - 1) for v in wrong] + [[good] * (kind - 1), good]


CASES = [(cls, field, value) for cls, field, kind, below, good in FIELDS
         for value in bad_values(kind, below, good)]


@pytest.mark.parametrize("cls,field,value", CASES,
                         ids=[f"{c.__name__}.{f}={v!r}" for c, f, v in CASES])
def test_bad_value_is_a_config_error_naming_the_field(cls, field, value):
    with pytest.raises(ConfigError, match=field):
        cls(**{field: value})


NUMERIC = [(cls, field, kind, good) for cls, field, kind, _, good in FIELDS if kind is not bool]


@pytest.mark.parametrize("cls,field,kind,good", NUMERIC,
                         ids=[f"{c.__name__}.{f}" for c, f, _, _ in NUMERIC])
def test_numpy_integer_comes_back_as_an_int(cls, field, kind, good):
    scalar = kind in (int, float)
    cfg = cls(**{field: np.int64(good) if scalar else (np.int32(good),) * kind})
    stored = getattr(cfg, field)
    assert stored == (good if scalar else (good,) * kind)
    assert all(type(v) is int for v in ([stored] if scalar else stored))
    fields = cfg.to_dict() if hasattr(cfg, "to_dict") else json.loads(json.dumps(asdict(cfg)))
    assert fields[field] == (good if scalar else [good] * kind)


@pytest.mark.parametrize("row,value,message", [
    (("n", int, 1), 0, "n must be positive, got 0"),
    (("n", int, 2), 1, "n must be >= 2, got 1"),
    (("n", int, None), 2.5, "n must be an integer, got 2.5"),
    (("x", float, 0), -0.5, "x must be >= 0, got -0.5"),
    (("x", float, None), "1", "x must be a number, got '1'"),
    (("x", float, None), float("inf"), "x must be finite, got inf"),
    (("on", bool, None), 1, "on must be true or false, got 1"),
    (("t", 2, 1), (1, 2, 3), "t needs 2 entries, got (1, 2, 3)"),
    (("t", 2, 1), (1, 0), "t entry must be positive, got 0"),
    (("t", 2, None), (1, 2.0), "t entry must be an integer, got 2.0"),
])
def test_messages_are_uniform(row, value, message):
    with pytest.raises(ConfigError) as caught:
        check_fields(SimpleNamespace(**{row[0]: value}), [row])
    assert str(caught.value) == message


def test_floats_and_ints_keep_their_json_bytes():
    obj = SimpleNamespace(lr=1, eps=1e-8, n=np.int64(3), t=[np.int16(2), 4])
    check_fields(obj, [("lr", float, None), ("eps", float, None), ("n", int, 0), ("t", 2, 1)])
    assert json.dumps(vars(obj)) == '{"lr": 1, "eps": 1e-08, "n": 3, "t": [2, 4]}'
