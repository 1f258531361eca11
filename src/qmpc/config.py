"""The settings of one compilation run, shared by the planner and the router."""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .errors import ConfigError

# Both routing matrices lie in [0, 1], so |alpha1| + |alpha2| bounds every combined
# distance, and |weight_w| times that bounds a lookahead distance; this bound keeps a
# sum of 2**20 of either finite, which covers a placement's tie-break over up to 2**20
# CNOTs and cost_h's sums for any window up to 2**17 gates.  lambda times a CNOT
# fidelity in [0, 1] is one term of a qubit's fidelity degree, so the same bound keeps
# the degree of a qubit with up to 2**20 neighbours finite.
_ALPHA_SUM_MAX = sys.float_info.max / 2**20


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
        if not 0 < self.lam <= _ALPHA_SUM_MAX:  # NaN fails too
            raise ConfigError(f"lambda must be positive and at most {_ALPHA_SUM_MAX:.4g}, got {self.lam}")
        # an infinite sharing threshold is allowed: every batch then shares at capacity
        if math.isnan(self.delta) or self.delta == -math.inf:
            raise ConfigError(f"delta must be a number or inf, got {self.delta}")
        for name in ("weight_w", "alpha1", "alpha2"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        alphas = abs(self.alpha1) + abs(self.alpha2)
        scaled = abs(self.weight_w) * alphas
        for what, value in (("|alpha1| + |alpha2|", alphas), ("|weight_w| * (|alpha1| + |alpha2|)", scaled)):
            if not value <= _ALPHA_SUM_MAX:
                got = f"weight_w={self.weight_w}, alpha1={self.alpha1}, alpha2={self.alpha2}"
                raise ConfigError(f"{what} must be at most {_ALPHA_SUM_MAX:.4g}, got {got}")


DEFAULT_CONFIG = RunConfig()
