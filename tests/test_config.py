"""Configuration defaults, the canonical INI form, and strict parsing."""

import dataclasses
import hashlib

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


# the config.ini echo of a default run; a change to the INI layout that keeps
# every byte keeps this hash
DEFAULT_INI_SHA256 = "bc579b9008f30cdd47ee0712d7b1f53092aad38b804b29aa20fcc238d20ada8e"


def test_default_config_text_is_frozen():
    text = config.emit_config(config.RunConfig())
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_INI_SHA256


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


# one valid, non-default text per INI key
NON_DEFAULT = {
    ("run", "seed"): "7",
    ("run", "n_seeds"): "2",
    ("run", "jobs"): "3",
    ("run", "methods"): "bnn,softmax",
    ("data", "n_samples"): "500",
    ("data", "positive_fraction"): "0.1",
    ("data", "overlap_scale"): "0.5",
    ("data", "spatial_shape"): "12,12,2",
    ("data", "signal_gap"): "0.1",
    ("data", "amplitude_jitter"): "0.03",
    ("data", "background_amp"): "0.01",
    ("data", "pixel_noise"): "0.05",
    ("net", "hidden_dims"): "16,8",
    ("sgd", "learning_rate"): "0.02",
    ("sgd", "momentum"): "0.8",
    ("sgd", "weight_decay"): "0.001",
    ("sgd", "batch_size"): "64",
    ("sgd", "epochs"): "4",
    ("uq", "n_members"): "3",
    ("uq", "n_samples"): "4",
    ("uq", "dropout_rate"): "0.1",
    ("uq", "threshold_steps"): "11",
    ("bnn", "prior_stddev"): "0.5",
    ("bnn", "kl_weight"): "0.25",
    ("bnn", "init_log_stddev"): "-4.0",
    ("swag", "burn_in_frac"): "0.5",
    ("swag", "max_rank"): "5",
    ("sweep", "alpha_grid"): "1.0,0.9",
    ("sweep", "beta_grid"): "0.7",
    ("sweep", "head_hidden_dims"): "4,2",
    ("corruption", "noise_sigmas"): "0.1,0.2,0.3,0.4,0.5,0.6",
    ("corruption", "blur_sigmas"): "0.25,0.5,0.75,1.0,1.25",
    ("corruption", "levels"): "3",
}
LAYOUT_KEYS = [(s, k) for s, keys in config._LAYOUT.items() for k in keys]
FLOAT_KEYS = [
    (s, k) for s, keys in config._LAYOUT.items()
    for k, (_, parse, _) in keys.items() if parse in (config._parse_float, config._parse_floats)
]


def leaf_fields(obj, prefix="") -> dict:
    """Dotted path -> value for every non-dataclass field, recursively."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out.update(leaf_fields(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = value
    return out


def test_every_leaf_field_has_exactly_one_key():
    assert sorted(NON_DEFAULT) == sorted(LAYOUT_KEYS)
    paths = [path for keys in config._LAYOUT.values() for path, _, _ in keys.values()]
    assert len(paths) == len(set(paths))
    unreached = set(leaf_fields(config.RunConfig())) - set(paths)
    assert unreached == {"data.seed", "sgd.seed"}


@pytest.mark.parametrize("section, key", LAYOUT_KEYS)
def test_each_key_sets_only_its_own_field_and_roundtrips(section, key):
    path = config._LAYOUT[section][key][0]
    assert path.rpartition(".")[2] == key
    text = f"[{section}]\n{key} = {NON_DEFAULT[section, key]}\n"
    cfg = config.parse_config(text)
    before, after = leaf_fields(config.RunConfig()), leaf_fields(cfg)
    assert [p for p in before if before[p] != after[p]] == [path]
    emitted = config.emit_config(cfg)
    assert f"{key} = {NON_DEFAULT[section, key]}\n" in emitted
    assert config.parse_config(emitted) == cfg
    assert config.emit_config(config.parse_config(emitted)) == emitted


@pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_non_finite_numbers_are_rejected_with_their_name(section, key, word):
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: expected a finite number"):
        config.parse_config(f"[{section}]\n{key} = {word}\n")
    if "," in NON_DEFAULT[section, key]:  # one bad entry spoils a list
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
            config.parse_config(f"[{section}]\n{key} = {NON_DEFAULT[section, key]},{word}\n")


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
    image = config.parse_config("[data]\nspatial_shape = 8,8,1\n\n[corruption]\nlevels = 2\n")
    assert image.data.spatial_shape == (8, 8, 1)
    with pytest.raises(ConfigError, match="H,W,C"):
        config.parse_config("[data]\nspatial_shape = 8,8\n")
    # every dataset is images; no word stands for "no shape"
    with pytest.raises(ConfigError, match=r"\[data\] spatial_shape: expected an integer"):
        config.parse_config("[data]\nspatial_shape = none\n\n[corruption]\nlevels = 0\n")


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
        lambda: config.CorruptionSettings(noise_sigmas=(0.2, 0.1), levels=2),
        lambda: config.CorruptionSettings(blur_sigmas=(0.5, 0.5), levels=2),
        lambda: config.CorruptionSettings(noise_sigmas=(0.0, 0.1), levels=0),
        lambda: config.CorruptionSettings(blur_sigmas=(0.5, float("nan")), levels=1),
    ],
)
def test_settings_validation(factory):
    with pytest.raises(ConfigError):
        factory()


def test_blur_conditions_must_fit_the_generated_data():
    small = SynthSpec(spatial_shape=(8, 8, 1))
    with pytest.raises(ConfigError, match="blur sigma 2.5 needs radius 8"):
        config.RunConfig(data=small)  # level 5 blurs with sigma 2.5
    assert config.RunConfig(data=small, corruption=config.CorruptionSettings(levels=4))
    # with no corruption levels any image shape will do
    tiny = SynthSpec(spatial_shape=(4, 4, 1))
    assert config.RunConfig(data=tiny, corruption=config.CorruptionSettings(levels=0))


def test_load_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nn_seeds = 2\n")
    cfg = config.load_config(path)
    assert cfg.n_seeds == 2
    assert cfg.seed == 0
