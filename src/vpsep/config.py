"""Experiment configuration: model menu, defaults, and the key=value
config-file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .transform import check_color_n

# model -> (network kind, default hidden width, input transform, context)
MODEL_SPECS: dict[str, dict] = {
    "DNN1": {"kind": "real", "width": 512, "transform": "none", "context": 1},
    "DNN2": {"kind": "real", "width": 1536, "transform": "none", "context": 1},
    "DNN3": {"kind": "real", "width": 1536, "transform": "window", "context": 3},
    "WVPNN": {"kind": "vp", "width": 512, "transform": "window", "context": 3},
    "CVPNN": {"kind": "vp", "width": 512, "transform": "color", "context": 1},
}

MODELS = tuple(MODEL_SPECS)


@dataclass
class ExperimentConfig:
    model: str = "CVPNN"
    hidden_width: int | None = None
    hidden_layers: int = 3
    color_n: float = 0.0938
    lr: float = 1e-3
    batch_frames: int = 128
    epochs: int = 100
    seed: int = 0
    filter_len: int = 512
    workers: int = 1

    def __post_init__(self):
        if self.model not in MODEL_SPECS:
            raise ConfigError(
                f"unknown model {self.model!r}; choose from {', '.join(MODELS)}"
            )
        if self.hidden_width is None:
            self.hidden_width = MODEL_SPECS[self.model]["width"]
        if self.hidden_width < 1 or self.hidden_layers < 1:
            raise ConfigError("hidden_width and hidden_layers must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs cannot be negative")
        if self.batch_frames < 1:
            raise ConfigError("batch_frames must be >= 1")
        if self.filter_len < 1:
            raise ConfigError("filter_len must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        check_color_n(self.color_n, ConfigError)

    @property
    def kind(self) -> str:
        return MODEL_SPECS[self.model]["kind"]

    @property
    def transform(self) -> str:
        return MODEL_SPECS[self.model]["transform"]

    @property
    def context(self) -> int:
        return MODEL_SPECS[self.model]["context"]

    @property
    def arch(self) -> str:
        return f"{self.hidden_width}x{self.hidden_layers}"

    def network_sizes(self, f_bins: int) -> list[int]:
        """Layer width chain: encoded input -> hidden stack -> stacked
        two-source output (2F)."""
        in_dim = 3 * f_bins if (self.kind == "real" and self.context == 3) else f_bins
        return [in_dim] + [self.hidden_width] * self.hidden_layers + [2 * f_bins]


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    if "int" in ftype:
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"{key} expects an integer, got {raw!r}") from e
    if "float" in ftype:
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"{key} expects a number, got {raw!r}") from e
    return raw


def read_config_file(path) -> dict:
    """Parse a flat ``key = value`` file ('#' starts a comment)."""
    values: dict = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def make_config(file_path=None, **overrides) -> ExperimentConfig:
    """Config file values overlaid with explicit (non-None) overrides."""
    values = read_config_file(file_path) if file_path else {}
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = val
    return ExperimentConfig(**values)
