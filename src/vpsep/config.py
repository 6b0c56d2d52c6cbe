"""Experiment configuration: the model menu and a frozen, validated set of
training settings with their defaults."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, check_int
from .transform import COLOR_N, check_color_n


@dataclass(frozen=True)
class ModelSpec:
    """What a model fixes: network kind, default hidden width, input
    transform and frame context."""

    kind: str
    width: int
    transform: str
    context: int

    def sizes(self, hidden_width: int, hidden_layers: int, f_bins: int) -> list[int]:
        """Layer width chain: encoded input -> hidden stack -> stacked
        two-source output (2F).  Vector nets see context through their 3
        vector components, real nets through context x F input rows."""
        in_dim = self.context * f_bins if self.kind == "real" else f_bins
        return [in_dim] + [hidden_width] * hidden_layers + [2 * f_bins]


MODEL_SPECS: dict[str, ModelSpec] = {
    "DNN1": ModelSpec("real", 512, "none", 1),
    "DNN2": ModelSpec("real", 1536, "none", 1),
    "DNN3": ModelSpec("real", 1536, "window", 3),
    "WVPNN": ModelSpec("vp", 512, "window", 3),
    "CVPNN": ModelSpec("vp", 512, "color", 1),
}

MODELS = tuple(MODEL_SPECS)


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "CVPNN"
    hidden_width: int | None = None
    hidden_layers: int = 3
    color_n: float = COLOR_N
    lr: float = 1e-3
    batch_frames: int = 128
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_SPECS:
            raise ConfigError(
                f"unknown model {self.model!r}; choose from {', '.join(MODELS)}"
            )
        if self.hidden_width is None:
            object.__setattr__(self, "hidden_width", self.spec.width)
        for name, low in (("hidden_width", 1), ("hidden_layers", 1),
                          ("batch_frames", 1), ("epochs", 0), ("seed", 0)):
            check_int(name, getattr(self, name), low, ConfigError)
        if isinstance(self.lr, bool) or not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        check_color_n(self.color_n, ConfigError)

    @property
    def spec(self) -> ModelSpec:
        return MODEL_SPECS[self.model]

    @property
    def arch(self) -> str:
        return f"{self.hidden_width}x{self.hidden_layers}"

    def network_sizes(self, f_bins: int) -> list[int]:
        return self.spec.sizes(self.hidden_width, self.hidden_layers, f_bins)
