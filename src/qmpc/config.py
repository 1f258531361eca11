"""The settings of one compilation run, shared by the planner and the router."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one compilation run; defaults are the recommended settings.

    Every knob is checked once, here, so a bad value fails with a
    ``ConfigError`` before any work starts.  The object is frozen, so a
    checked instance stays valid and one instance can be shared as a default.
    """

    method: str = "qhsp"
    lam: float = 2.0
    delta: float = 0.1
    weight_w: float = 0.5
    alpha1: float = 0.5
    alpha2: float = 0.5
    ext_layer: int = 20
    attempts: int = 10
    seed: int = 0
    swap_only: bool = False
    self_cost: bool = True

    def __post_init__(self):
        if self.method not in ("gsp", "qhsp"):
            raise ConfigError(f"method must be 'gsp' or 'qhsp', got {self.method!r}")
        for name in ("seed", "attempts", "ext_layer"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("lam", "delta", "weight_w", "alpha1", "alpha2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{'lambda' if name == 'lam' else name} must be a real number, got {value!r}")
        for name in ("swap_only", "self_cost"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be True or False, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.attempts < 1:
            raise ConfigError(f"attempts must be at least 1, got {self.attempts}")
        if self.ext_layer < 0:
            raise ConfigError(f"ext_layer must be non-negative, got {self.ext_layer}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ConfigError(f"lambda must be positive and finite, got {self.lam}")
        for name in ("delta", "weight_w", "alpha1", "alpha2"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


DEFAULT_CONFIG = RunConfig()
