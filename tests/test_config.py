import dataclasses

import pytest

from vpsep import (MODEL_SPECS, MODELS, DatasetManifest, ExperimentConfig, ModelSpec,
                   evaluate_ideal)
from vpsep.errors import ConfigError, VpsepError


def test_model_menu():
    assert set(MODELS) == {"DNN1", "DNN2", "DNN3", "WVPNN", "CVPNN"}
    assert MODEL_SPECS["DNN1"] == ModelSpec(kind="real", width=512, transform="none",
                                            context=1)
    assert MODEL_SPECS["DNN2"].width == 1536
    assert MODEL_SPECS["DNN3"] == ModelSpec(kind="real", width=1536, transform="window",
                                            context=3)
    assert MODEL_SPECS["WVPNN"] == ModelSpec(kind="vp", width=512, transform="window",
                                             context=3)
    assert MODEL_SPECS["CVPNN"] == ModelSpec(kind="vp", width=512, transform="color",
                                             context=1)


def test_defaults_fill_from_model():
    cfg = ExperimentConfig()
    assert cfg.model == "CVPNN"
    assert cfg.hidden_width == 512
    assert cfg.hidden_layers == 3
    assert cfg.spec.transform == "color"
    assert cfg.spec.kind == "vp"
    assert cfg.spec.context == 1
    assert cfg.arch == "512x3"

    cfg = ExperimentConfig(model="DNN3")
    assert cfg.hidden_width == 1536
    assert cfg.spec.transform == "window"
    assert cfg.spec.kind == "real"
    assert cfg.spec.context == 3


def test_explicit_width_overrides_default():
    cfg = ExperimentConfig(model="WVPNN", hidden_width=64, hidden_layers=2)
    assert cfg.arch == "64x2"
    assert cfg.spec.transform == "window"


def test_network_sizes():
    f = 513
    assert ExperimentConfig(model="DNN1").network_sizes(f) == [f, 512, 512, 512, 2 * f]
    assert ExperimentConfig(model="DNN2").network_sizes(f) == [f] + [1536] * 3 + [2 * f]
    assert ExperimentConfig(model="DNN3").network_sizes(f) == [3 * f] + [1536] * 3 + [2 * f]
    # vector nets see context through the 3 vector components, not 3F rows
    assert ExperimentConfig(model="WVPNN").network_sizes(f) == [f, 512, 512, 512, 2 * f]
    assert ExperimentConfig(model="CVPNN").network_sizes(f) == [f, 512, 512, 512, 2 * f]


def test_rejects_unknown_model_and_transform():
    with pytest.raises(ConfigError):
        ExperimentConfig(model="VPNN9")
    # the transform is the model's own and cannot be chosen or changed
    with pytest.raises(TypeError):
        ExperimentConfig(model="CVPNN", transform="window")
    with pytest.raises(TypeError, match="transform"):
        ExperimentConfig(transform="color")
    cfg = ExperimentConfig(model="DNN1")
    with pytest.raises(AttributeError):
        cfg.transform = "color"
    assert cfg.spec.transform == MODEL_SPECS["DNN1"].transform


def test_config_fields_cannot_be_reassigned():
    # fields are validated once, in __post_init__, so none may change afterwards
    cfg = ExperimentConfig(model="DNN1")
    for field in dataclasses.fields(cfg):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field.name, "NOPE")
    assert cfg == ExperimentConfig(model="DNN1")


def test_bounds_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(hidden_width=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(hidden_layers=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(epochs=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(batch_frames=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(lr=0.0)
    with pytest.raises(ConfigError, match="lr must be positive and finite, got True"):
        ExperimentConfig(lr=True)
    with pytest.raises(ConfigError):
        ExperimentConfig(color_n=0.5)
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        ExperimentConfig(seed=-1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, True])
@pytest.mark.parametrize("field", ["hidden_width", "hidden_layers", "batch_frames",
                                   "epochs", "seed", "filter_len", "workers"])
def test_rejects_non_integer_counts(field, value):
    # filter_len and workers are evaluation's counts, keywords of evaluate and
    # evaluate_ideal only; they are checked before the split is looked at
    if field in ("filter_len", "workers"):
        with pytest.raises(VpsepError, match=f"{field} must be an integer"):
            evaluate_ideal(DatasetManifest("absent", ()), **{field: value})
    else:
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            ExperimentConfig(**{field: value})


@pytest.mark.parametrize("key, value", [("filter_len", 512), ("workers", 2)])
def test_evaluation_settings_are_not_config_keys(key, value):
    # evaluation scores at BSS Eval's 512 taps on all usable CPUs, unconfigured
    assert key not in {f.name for f in dataclasses.fields(ExperimentConfig)}
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
        ExperimentConfig(model="DNN1", **{key: value})


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_rejects_non_finite_lr(lr):
    with pytest.raises(ConfigError, match="lr must be positive and finite"):
        ExperimentConfig(lr=lr)
