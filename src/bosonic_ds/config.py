"""Tolerance and grid configuration shared by all modules.

Every comparison threshold in the package is a field here with a stated
default, never a literal baked into a comparison site.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, fields

from .errors import ValidationError
from .io import json_number


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds with package-wide defaults."""

    symplectic: float = 1e-10        # max-norm of S sigma S^T - sigma
    uncertainty: float = 1e-9        # floor on min eig of Gamma + i sigma
    gamma_symmetry: float = 1e-8     # asymmetry allowed in a covariance matrix
    density_hermiticity: float = 1e-10
    density_trace: float = 1e-8
    density_psd: float = 1e-8        # floor on density eigenvalues
    leak_budget: float = 1e-6        # top-level population that triggers a flag
    boundary: float = 1e-4           # |chi| allowed at a grid boundary
    kernel_psd: float = 1e-8         # floor on sigma-positivity kernel eigenvalues
    convention_rel: float = 1e-4     # rel agreement of cm_gap vs (2/cos^2)|V|
    convention_abs: float = 1e-8     # absolute floor for the same check
    residual: float = 1e-9           # classifier reconstruction residual
    alpha_swap: float = 1e12         # |alpha| beyond which a map counts as a swap

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            try:
                valid = math.isfinite(json_number(value)) and value > 0
            except ValueError:
                valid = False
            if not valid:
                raise ValidationError(f"tolerance {field.name} must be finite and "
                                      f"positive, got {reprlib.repr(value)}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid in phase space: [-extent, extent] per axis."""

    extent: float = 6.0
    points: int = 97   # odd, so the origin is a node

    def __post_init__(self):
        if self.points < 3 or self.points % 2 == 0:
            raise ValueError("points must be odd and >= 3")
        if self.extent <= 0:
            raise ValueError("extent must be positive")

    @property
    def step(self) -> float:
        return 2.0 * self.extent / (self.points - 1)

    def axis(self):
        import numpy as np

        return np.linspace(-self.extent, self.extent, self.points)


DEFAULT_TOLERANCES = Tolerances()
