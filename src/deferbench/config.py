"""Run configuration: defaults, INI parsing, and a canonical text form.

The canonical emitter sorts sections and keys so that emitting, parsing, and
re-emitting is byte-stable; every experiment directory gets this echo of the
configuration it actually ran with.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

from deferbench.data import BLUR_SIGMAS, NOISE_SIGMAS, SynthSpec
from deferbench.errors import ConfigError
from deferbench.nnet import SgdConfig
from deferbench.uq import BnnConfig, SwagCollectConfig

METHODS = ("softmax", "ensemble", "swag", "mc_dropout", "bnn", "one_stage", "two_stage")

ALPHA_GRID = (1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55)
BETA_GRID = (2.0, 1.5, 1.2, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2)


@dataclass(frozen=True)
class UqSettings:
    """Committee sizes, stochastic-pass counts, and the threshold grid length."""

    n_members: int = 10
    n_samples: int = 10
    dropout_rate: float = 0.2
    threshold_steps: int = 200

    def __post_init__(self):
        if self.n_members < 2:
            raise ConfigError("n_members must be at least 2")
        if self.n_samples < 2:
            raise ConfigError("n_samples must be at least 2")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.threshold_steps < 2:
            raise ConfigError("threshold_steps must be at least 2")


@dataclass(frozen=True)
class SweepSettings:
    """Cost grids for learned deferral and the deferral head shape."""

    alpha_grid: tuple = ALPHA_GRID
    beta_grid: tuple = BETA_GRID
    head_hidden_dims: tuple = (32,)

    def __post_init__(self):
        if not self.alpha_grid or not all(0.0 < a <= 1.0 for a in self.alpha_grid):
            raise ConfigError("alpha_grid values must lie in (0, 1]")
        if not self.beta_grid or not all(b >= 0.0 for b in self.beta_grid):
            raise ConfigError("beta_grid values must be non-negative")
        if not self.head_hidden_dims or not all(h >= 1 for h in self.head_hidden_dims):
            raise ConfigError("head_hidden_dims must be positive")


@dataclass(frozen=True)
class CorruptionSettings:
    noise_sigmas: tuple = NOISE_SIGMAS
    blur_sigmas: tuple = BLUR_SIGMAS
    levels: int = 5

    def __post_init__(self):
        if self.levels < 0:
            raise ConfigError("levels must be non-negative")
        if self.levels > len(self.noise_sigmas) or self.levels > len(self.blur_sigmas):
            raise ConfigError("levels exceeds the corruption magnitude tables")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    n_seeds: int = 5
    jobs: int = 1
    methods: tuple = METHODS
    data: SynthSpec = field(default_factory=SynthSpec)
    hidden_dims: tuple = (64, 64)
    sgd: SgdConfig = field(default_factory=lambda: SgdConfig(
        learning_rate=0.01, momentum=0.9, weight_decay=5e-4, batch_size=128, epochs=30
    ))
    uq: UqSettings = field(default_factory=UqSettings)
    bnn: BnnConfig = field(default_factory=BnnConfig)
    swag: SwagCollectConfig = field(default_factory=SwagCollectConfig)
    sweep: SweepSettings = field(default_factory=SweepSettings)
    corruption: CorruptionSettings = field(default_factory=CorruptionSettings)

    def __post_init__(self):
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ConfigError("seed must fit an unsigned 64-bit integer")
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be positive")
        if self.jobs < 1:
            raise ConfigError("jobs must be positive")
        if not self.methods:
            raise ConfigError("at least one method is required")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods: {', '.join(unknown)}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("methods must be unique")
        if not self.hidden_dims or not all(h >= 1 for h in self.hidden_dims):
            raise ConfigError("hidden_dims must be positive")


# ---------------------------------------------------------------------------
# Canonical text form and parsing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        raise ConfigError("boolean settings are not used")
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if value is None:
        return "none"
    return str(value)


def _section_items(cfg: RunConfig) -> dict:
    d = cfg.data
    return {
        "run": {
            "seed": cfg.seed,
            "n_seeds": cfg.n_seeds,
            "jobs": cfg.jobs,
            "methods": cfg.methods,
        },
        "data": {
            "n_samples": d.n_samples,
            "positive_fraction": d.positive_fraction,
            "overlap_scale": d.overlap_scale,
            "spatial_shape": d.spatial_shape,
            "n_features": d.n_features,
            "class_separation": d.class_separation,
            "family_spread": d.family_spread,
            "signal_gap": d.signal_gap,
            "amplitude_jitter": d.amplitude_jitter,
            "background_amp": d.background_amp,
            "pixel_noise": d.pixel_noise,
        },
        "net": {"hidden_dims": cfg.hidden_dims},
        "sgd": {
            "learning_rate": cfg.sgd.learning_rate,
            "momentum": cfg.sgd.momentum,
            "weight_decay": cfg.sgd.weight_decay,
            "batch_size": cfg.sgd.batch_size,
            "epochs": cfg.sgd.epochs,
        },
        "uq": {
            "n_members": cfg.uq.n_members,
            "n_samples": cfg.uq.n_samples,
            "dropout_rate": cfg.uq.dropout_rate,
            "threshold_steps": cfg.uq.threshold_steps,
        },
        "bnn": {
            "prior_stddev": cfg.bnn.prior_stddev,
            "kl_weight": "auto" if cfg.bnn.kl_weight is None else cfg.bnn.kl_weight,
            "init_log_stddev": cfg.bnn.init_log_stddev,
        },
        "swag": {
            "burn_in_frac": cfg.swag.burn_in_frac,
            "max_rank": cfg.swag.max_rank,
        },
        "sweep": {
            "alpha_grid": cfg.sweep.alpha_grid,
            "beta_grid": cfg.sweep.beta_grid,
            "head_hidden_dims": cfg.sweep.head_hidden_dims,
        },
        "corruption": {
            "noise_sigmas": cfg.corruption.noise_sigmas,
            "blur_sigmas": cfg.corruption.blur_sigmas,
            "levels": cfg.corruption.levels,
        },
    }


def emit_config(cfg: RunConfig) -> str:
    """Byte-stable INI text: sorted sections, sorted keys, 'key = value'."""
    sections = _section_items(cfg)
    out = io.StringIO()
    for name in sorted(sections):
        out.write(f"[{name}]\n")
        for key in sorted(sections[name]):
            out.write(f"{key} = {_fmt(sections[name][key])}\n")
        out.write("\n")
    return out.getvalue()


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from exc


def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from exc


def _parse_tuple(raw: str, cast, where: str) -> tuple:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{where}: expected a comma-separated list, got {raw!r}")
    return tuple(cast(p, where) for p in parts)


def _parse_str_tuple(raw: str) -> tuple:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


def parse_config(text: str, defaults: RunConfig | None = None) -> RunConfig:
    """Override fields of the default configuration from INI text.

    Unknown sections or keys are rejected so typos cannot silently fall back
    to defaults.
    """
    cfg = defaults if defaults is not None else RunConfig()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad configuration syntax: {exc}") from exc

    known = _section_items(cfg)
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(section, key, default):
        if parser.has_option(section, key):
            return parser.get(section, key).strip()
        return default

    def geti(section, key, default):
        raw = get(section, key, None)
        return default if raw is None else _parse_int(raw, f"[{section}] {key}")

    def getf(section, key, default):
        raw = get(section, key, None)
        return default if raw is None else _parse_float(raw, f"[{section}] {key}")

    def getft(section, key, default):
        raw = get(section, key, None)
        return default if raw is None else _parse_tuple(raw, _parse_float, f"[{section}] {key}")

    def getit(section, key, default):
        raw = get(section, key, None)
        return default if raw is None else _parse_tuple(raw, _parse_int, f"[{section}] {key}")

    d = cfg.data
    raw_shape = get("data", "spatial_shape", None)
    if raw_shape is None:
        spatial = d.spatial_shape
    elif raw_shape.lower() == "none":
        spatial = None
    else:
        spatial = _parse_tuple(raw_shape, _parse_int, "[data] spatial_shape")
        if len(spatial) != 3:
            raise ConfigError(f"[data] spatial_shape needs H,W,C, got {raw_shape!r}")

    data = SynthSpec(
        n_samples=geti("data", "n_samples", d.n_samples),
        positive_fraction=getf("data", "positive_fraction", d.positive_fraction),
        seed=d.seed,
        overlap_scale=getf("data", "overlap_scale", d.overlap_scale),
        spatial_shape=spatial,
        n_features=geti("data", "n_features", d.n_features),
        class_separation=getf("data", "class_separation", d.class_separation),
        family_spread=getf("data", "family_spread", d.family_spread),
        signal_gap=getf("data", "signal_gap", d.signal_gap),
        amplitude_jitter=getf("data", "amplitude_jitter", d.amplitude_jitter),
        background_amp=getf("data", "background_amp", d.background_amp),
        pixel_noise=getf("data", "pixel_noise", d.pixel_noise),
    )

    raw_kl = get("bnn", "kl_weight", None)
    if raw_kl is None:
        kl_weight = cfg.bnn.kl_weight
    elif raw_kl.lower() == "auto":
        kl_weight = None
    else:
        kl_weight = _parse_float(raw_kl, "[bnn] kl_weight")

    raw_methods = get("run", "methods", None)
    methods = cfg.methods if raw_methods is None else _parse_str_tuple(raw_methods)

    return RunConfig(
        seed=geti("run", "seed", cfg.seed),
        n_seeds=geti("run", "n_seeds", cfg.n_seeds),
        jobs=geti("run", "jobs", cfg.jobs),
        methods=methods,
        data=data,
        hidden_dims=getit("net", "hidden_dims", cfg.hidden_dims),
        sgd=SgdConfig(
            learning_rate=getf("sgd", "learning_rate", cfg.sgd.learning_rate),
            momentum=getf("sgd", "momentum", cfg.sgd.momentum),
            weight_decay=getf("sgd", "weight_decay", cfg.sgd.weight_decay),
            batch_size=geti("sgd", "batch_size", cfg.sgd.batch_size),
            epochs=geti("sgd", "epochs", cfg.sgd.epochs),
        ),
        uq=UqSettings(
            n_members=geti("uq", "n_members", cfg.uq.n_members),
            n_samples=geti("uq", "n_samples", cfg.uq.n_samples),
            dropout_rate=getf("uq", "dropout_rate", cfg.uq.dropout_rate),
            threshold_steps=geti("uq", "threshold_steps", cfg.uq.threshold_steps),
        ),
        bnn=BnnConfig(
            prior_stddev=getf("bnn", "prior_stddev", cfg.bnn.prior_stddev),
            kl_weight=kl_weight,
            init_log_stddev=getf("bnn", "init_log_stddev", cfg.bnn.init_log_stddev),
        ),
        swag=SwagCollectConfig(
            burn_in_frac=getf("swag", "burn_in_frac", cfg.swag.burn_in_frac),
            max_rank=geti("swag", "max_rank", cfg.swag.max_rank),
        ),
        sweep=SweepSettings(
            alpha_grid=getft("sweep", "alpha_grid", cfg.sweep.alpha_grid),
            beta_grid=getft("sweep", "beta_grid", cfg.sweep.beta_grid),
            head_hidden_dims=getit("sweep", "head_hidden_dims", cfg.sweep.head_hidden_dims),
        ),
        corruption=CorruptionSettings(
            noise_sigmas=getft("corruption", "noise_sigmas", cfg.corruption.noise_sigmas),
            blur_sigmas=getft("corruption", "blur_sigmas", cfg.corruption.blur_sigmas),
            levels=geti("corruption", "levels", cfg.corruption.levels),
        ),
    )


def load_config(path, defaults: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_config(text, defaults=defaults)
