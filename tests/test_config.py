"""Configuration defaults, the canonical INI form, and strict parsing."""

import pytest

from deferbench import config
from deferbench.data import SynthSpec
from deferbench.errors import ConfigError
from deferbench.nnet import SgdConfig


def test_default_grids_and_methods():
    cfg = config.RunConfig()
    assert cfg.methods == (
        "softmax", "ensemble", "swag", "mc_dropout", "bnn", "one_stage", "two_stage"
    )
    assert len(cfg.sweep.alpha_grid) == 10
    assert len(cfg.sweep.beta_grid) == 10
    assert cfg.sweep.alpha_grid[0] == 1.0
    assert all(b > a for a, b in zip(cfg.sweep.alpha_grid[1:], cfg.sweep.alpha_grid))
    assert all(b < a for a, b in zip(cfg.sweep.beta_grid, cfg.sweep.beta_grid[1:]))
    assert cfg.n_seeds == 5
    assert cfg.corruption.levels == 5
    assert cfg.uq.threshold_steps == 200


def test_emit_is_sorted_key_value_text():
    text = config.emit_config(config.RunConfig())
    lines = text.splitlines()
    sections = [l for l in lines if l.startswith("[")]
    assert sections == sorted(sections)
    assert sections[0] == "[bnn]"
    body = [l for l in lines if l and not l.startswith("[")]
    assert all(" = " in l for l in body)
    assert "kl_weight = auto" in body
    assert "spatial_shape = 16,16,1" in body


def test_emit_parse_roundtrip_preserves_config():
    cfg = config.RunConfig(
        seed=7,
        n_seeds=2,
        methods=("softmax", "bnn"),
        data=SynthSpec(n_samples=500, positive_fraction=0.1, spatial_shape=(8, 8, 1)),
        hidden_dims=(16, 8),
        sgd=SgdConfig(learning_rate=0.02, momentum=0.8, weight_decay=0.001,
                      batch_size=64, epochs=4),
        uq=config.UqSettings(n_members=3, n_samples=4, dropout_rate=0.1, threshold_steps=11),
        sweep=config.SweepSettings(alpha_grid=(1.0, 0.9), beta_grid=(0.7,),
                                   head_hidden_dims=(4,)),
        corruption=config.CorruptionSettings(levels=2),
    )
    text = config.emit_config(cfg)
    assert config.parse_config(text) == cfg
    # emitting the parsed form reproduces the text byte for byte
    assert config.emit_config(config.parse_config(text)) == text


def test_parse_overrides_only_named_keys():
    cfg = config.parse_config("[run]\nseed = 3\n\n[sgd]\nepochs = 2\n")
    default = config.RunConfig()
    assert cfg.seed == 3
    assert cfg.sgd.epochs == 2
    assert cfg.sgd.learning_rate == default.sgd.learning_rate
    assert cfg.methods == default.methods


def test_parse_rejects_unknown_names():
    with pytest.raises(ConfigError, match=r"unknown section \[training\]"):
        config.parse_config("[training]\nepochs = 2\n")
    with pytest.raises(ConfigError, match="unknown key 'lr'"):
        config.parse_config("[sgd]\nlr = 0.1\n")
    with pytest.raises(ConfigError, match="bad configuration syntax"):
        config.parse_config("no section header\n")


def test_parse_cell_types_are_checked():
    with pytest.raises(ConfigError, match=r"\[run\] seed"):
        config.parse_config("[run]\nseed = three\n")
    with pytest.raises(ConfigError, match=r"\[sgd\] learning_rate"):
        config.parse_config("[sgd]\nlearning_rate = fast\n")


def test_parse_spatial_shape_forms():
    flat = config.parse_config("[data]\nspatial_shape = none\nn_features = 6\n")
    assert flat.data.spatial_shape is None
    assert flat.data.n_features == 6
    image = config.parse_config("[data]\nspatial_shape = 8,8,1\n")
    assert image.data.spatial_shape == (8, 8, 1)
    with pytest.raises(ConfigError, match="H,W,C"):
        config.parse_config("[data]\nspatial_shape = 8,8\n")


def test_parse_kl_weight_auto_and_numeric():
    assert config.parse_config("[bnn]\nkl_weight = auto\n").bnn.kl_weight is None
    assert config.parse_config("[bnn]\nkl_weight = 0.25\n").bnn.kl_weight == 0.25


def test_parse_methods_list():
    cfg = config.parse_config("[run]\nmethods = softmax, two_stage\n")
    assert cfg.methods == ("softmax", "two_stage")
    with pytest.raises(ConfigError, match="unknown methods"):
        config.parse_config("[run]\nmethods = softmax, oracle\n")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_seeds=0),
        dict(jobs=0),
        dict(methods=()),
        dict(methods=("softmax", "softmax")),
        dict(hidden_dims=()),
        dict(seed=-1),
    ],
)
def test_run_config_validation(kwargs):
    with pytest.raises(ConfigError):
        config.RunConfig(**kwargs)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: config.UqSettings(n_members=1),
        lambda: config.UqSettings(n_samples=1),
        lambda: config.UqSettings(dropout_rate=1.0),
        lambda: config.UqSettings(threshold_steps=1),
        lambda: config.SweepSettings(alpha_grid=(1.5,)),
        lambda: config.SweepSettings(alpha_grid=()),
        lambda: config.SweepSettings(beta_grid=(-0.1,)),
        lambda: config.CorruptionSettings(levels=-1),
        lambda: config.CorruptionSettings(levels=6),
    ],
)
def test_settings_validation(factory):
    with pytest.raises(ConfigError):
        factory()


def test_load_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nn_seeds = 2\n")
    cfg = config.load_config(path)
    assert cfg.n_seeds == 2
    assert cfg.seed == 0
