import pytest

from vpsep import MODEL_SPECS, MODELS, ExperimentConfig, make_config, read_config_file
from vpsep.errors import ConfigError


def test_model_menu():
    assert set(MODELS) == {"DNN1", "DNN2", "DNN3", "WVPNN", "CVPNN"}
    assert MODEL_SPECS["DNN1"] == {
        "kind": "real", "width": 512, "transform": "none", "context": 1
    }
    assert MODEL_SPECS["DNN2"]["width"] == 1536
    assert MODEL_SPECS["DNN3"] == {
        "kind": "real", "width": 1536, "transform": "window", "context": 3
    }
    assert MODEL_SPECS["WVPNN"] == {
        "kind": "vp", "width": 512, "transform": "window", "context": 3
    }
    assert MODEL_SPECS["CVPNN"] == {
        "kind": "vp", "width": 512, "transform": "color", "context": 1
    }


def test_defaults_fill_from_model():
    cfg = ExperimentConfig()
    assert cfg.model == "CVPNN"
    assert cfg.hidden_width == 512
    assert cfg.hidden_layers == 3
    assert cfg.transform == "color"
    assert cfg.kind == "vp"
    assert cfg.context == 1
    assert cfg.arch == "512x3"

    cfg = ExperimentConfig(model="DNN3")
    assert cfg.hidden_width == 1536
    assert cfg.transform == "window"
    assert cfg.kind == "real"
    assert cfg.context == 3


def test_explicit_width_overrides_default():
    cfg = ExperimentConfig(model="WVPNN", hidden_width=64, hidden_layers=2)
    assert cfg.arch == "64x2"
    assert cfg.transform == "window"


def test_network_sizes():
    f = 513
    assert ExperimentConfig(model="DNN1").network_sizes(f) == [f, 512, 512, 512, 2 * f]
    assert ExperimentConfig(model="DNN2").network_sizes(f) == [f] + [1536] * 3 + [2 * f]
    assert ExperimentConfig(model="DNN3").network_sizes(f) == [3 * f] + [1536] * 3 + [2 * f]
    # vector nets see context through the 3 vector components, not 3F rows
    assert ExperimentConfig(model="WVPNN").network_sizes(f) == [f, 512, 512, 512, 2 * f]
    assert ExperimentConfig(model="CVPNN").network_sizes(f) == [f, 512, 512, 512, 2 * f]


def test_rejects_unknown_model_and_transform(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(model="VPNN9")
    # the transform is the model's own and cannot be chosen or changed
    with pytest.raises(TypeError):
        ExperimentConfig(model="CVPNN", transform="window")
    with pytest.raises(ConfigError, match="transform"):
        make_config(transform="color")
    cfg = ExperimentConfig(model="DNN1")
    with pytest.raises(AttributeError):
        cfg.transform = "color"
    assert cfg.transform == MODEL_SPECS["DNN1"]["transform"]
    path = tmp_path / "run.cfg"
    path.write_text("model = CVPNN\ntransform = color\n")
    with pytest.raises(ConfigError, match="unknown key 'transform'"):
        read_config_file(path)


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
    with pytest.raises(ConfigError):
        ExperimentConfig(color_n=0.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(filter_len=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(workers=0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_rejects_non_finite_lr(lr, tmp_path):
    with pytest.raises(ConfigError, match="lr must be positive and finite"):
        ExperimentConfig(lr=lr)
    path = tmp_path / "run.cfg"
    path.write_text(f"lr = {lr}\n")
    with pytest.raises(ConfigError, match="lr must be positive and finite"):
        make_config(path)


def test_read_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# training setup\n"
        "model = WVPNN\n"
        "epochs = 25   # short run\n"
        "lr = 5e-4\n"
        "\n"
        "batch_frames=64\n"
    )
    values = read_config_file(path)
    assert values == {
        "model": "WVPNN", "epochs": 25, "lr": 5e-4, "batch_frames": 64
    }


def test_read_config_file_errors(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("modle = CVPNN\n")
    with pytest.raises(ConfigError, match="a.cfg:1"):
        read_config_file(bad_key)

    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("model = CVPNN\njust some words\n")
    with pytest.raises(ConfigError, match="b.cfg:2"):
        read_config_file(bad_line)

    bad_value = tmp_path / "c.cfg"
    bad_value.write_text("epochs = soon\n")
    with pytest.raises(ConfigError, match="integer"):
        read_config_file(bad_value)


def test_make_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("model = WVPNN\nepochs = 25\nseed = 7\n")
    cfg = make_config(path, epochs=3, lr=None)
    assert cfg.model == "WVPNN"
    assert cfg.epochs == 3  # flag beats file
    assert cfg.seed == 7  # file beats default
    assert cfg.lr == 1e-3  # None override is ignored


def test_make_config_rejects_unknown_override():
    with pytest.raises(ConfigError):
        make_config(momentum=0.9)
