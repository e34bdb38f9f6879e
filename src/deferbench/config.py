"""Run configuration: defaults, INI parsing, and a canonical text form.

``_LAYOUT`` maps every INI key to a ``RunConfig`` attribute, its parser and
its word for None; emitting, name checks and parsing all read it, so a new
setting is one dataclass field plus one row. The emitter sorts sections and
keys, so emitting, parsing and re-emitting is byte-stable; every experiment
directory gets this echo of the configuration it actually ran with. Bad
settings (non-finite numbers, unordered corruption tables, blur conditions the
images cannot hold) are a ``ConfigError`` at load, before a run writes a file.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter

from deferbench.data import BLUR_SIGMAS, NOISE_SIGMAS, SynthSpec, blur_radius, check_magnitudes
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
        check_magnitudes("noise_sigmas", self.noise_sigmas)
        check_magnitudes("blur_sigmas", self.blur_sigmas)

    def check_images(self, spatial_shape, source: str) -> None:
        """Every planned blur condition must be buildable on images of this
        (H, W, C) shape: the largest kernel must be narrower than both sides."""
        if not self.levels:
            return
        try:
            blur_radius(self.blur_sigmas[self.levels - 1], *spatial_shape[:2])
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from None


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
        self.corruption.check_images(self.data.spatial_shape, "[data] spatial_shape")


# ---------------------------------------------------------------------------
# Canonical text form and parsing
# ---------------------------------------------------------------------------


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from exc


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _list_of(cast):
    def parse(raw: str, where: str) -> tuple:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"{where}: expected a comma-separated list, got {raw!r}")
        return tuple(cast(p, where) for p in parts)

    return parse


_parse_ints = _list_of(_parse_int)
_parse_floats = _list_of(_parse_float)


def _parse_shape(raw: str, where: str) -> tuple:
    shape = _parse_ints(raw, where)
    if len(shape) != 3:
        raise ConfigError(f"{where} needs H,W,C, got {raw!r}")
    return shape


def _parse_names(raw: str, where: str) -> tuple:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


# section -> key -> (dotted RunConfig attribute, parser, word that stands for None)
_LAYOUT = {
    "run": {
        "seed": ("seed", _parse_int, None),
        "n_seeds": ("n_seeds", _parse_int, None),
        "jobs": ("jobs", _parse_int, None),
        "methods": ("methods", _parse_names, None),
    },
    "data": {
        "n_samples": ("data.n_samples", _parse_int, None),
        "positive_fraction": ("data.positive_fraction", _parse_float, None),
        "overlap_scale": ("data.overlap_scale", _parse_float, None),
        "spatial_shape": ("data.spatial_shape", _parse_shape, None),
        "signal_gap": ("data.signal_gap", _parse_float, None),
        "amplitude_jitter": ("data.amplitude_jitter", _parse_float, None),
        "background_amp": ("data.background_amp", _parse_float, None),
        "pixel_noise": ("data.pixel_noise", _parse_float, None),
    },
    "net": {"hidden_dims": ("hidden_dims", _parse_ints, None)},
    "sgd": {
        "learning_rate": ("sgd.learning_rate", _parse_float, None),
        "momentum": ("sgd.momentum", _parse_float, None),
        "weight_decay": ("sgd.weight_decay", _parse_float, None),
        "batch_size": ("sgd.batch_size", _parse_int, None),
        "epochs": ("sgd.epochs", _parse_int, None),
    },
    "uq": {
        "n_members": ("uq.n_members", _parse_int, None),
        "n_samples": ("uq.n_samples", _parse_int, None),
        "dropout_rate": ("uq.dropout_rate", _parse_float, None),
        "threshold_steps": ("uq.threshold_steps", _parse_int, None),
    },
    "bnn": {
        "prior_stddev": ("bnn.prior_stddev", _parse_float, None),
        "kl_weight": ("bnn.kl_weight", _parse_float, "auto"),
        "init_log_stddev": ("bnn.init_log_stddev", _parse_float, None),
    },
    "swag": {
        "burn_in_frac": ("swag.burn_in_frac", _parse_float, None),
        "max_rank": ("swag.max_rank", _parse_int, None),
    },
    "sweep": {
        "alpha_grid": ("sweep.alpha_grid", _parse_floats, None),
        "beta_grid": ("sweep.beta_grid", _parse_floats, None),
        "head_hidden_dims": ("sweep.head_hidden_dims", _parse_ints, None),
    },
    "corruption": {
        "noise_sigmas": ("corruption.noise_sigmas", _parse_floats, None),
        "blur_sigmas": ("corruption.blur_sigmas", _parse_floats, None),
        "levels": ("corruption.levels", _parse_int, None),
    },
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        raise ConfigError("boolean settings are not used")
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def emit_config(cfg: RunConfig) -> str:
    """Byte-stable INI text: sorted sections, sorted keys, 'key = value'."""
    out = io.StringIO()
    for section in sorted(_LAYOUT):
        out.write(f"[{section}]\n")
        for key, (path, _, none_word) in sorted(_LAYOUT[section].items()):
            value = attrgetter(path)(cfg)
            out.write(f"{key} = {none_word if value is None else _fmt(value)}\n")
        out.write("\n")
    return out.getvalue()


def parse_config(text: str) -> RunConfig:
    """Override fields of the default configuration from INI text.

    Unknown sections or keys are rejected, before any value is parsed, so
    typos cannot silently fall back to defaults.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad configuration syntax: {exc}") from exc

    for section in parser.sections():
        if section not in _LAYOUT:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _LAYOUT[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    # owning attribute ("" for RunConfig itself) -> {field name: parsed value}
    changes = {}
    for section in parser.sections():
        for key, raw in parser[section].items():
            path, parse, none_word = _LAYOUT[section][key]
            raw, where = raw.strip(), f"[{section}] {key}"
            value = None if none_word and raw.lower() == none_word else parse(raw, where)
            owner, _, name = path.rpartition(".")
            changes.setdefault(owner, {})[name] = value

    cfg = RunConfig()
    nested = {owner: replace(getattr(cfg, owner), **fields)
              for owner, fields in changes.items() if owner}
    return replace(cfg, **changes.get("", {}), **nested)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_config(text)
