"""Physical parameters of the delayed thermoelastic system."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

THETA_BC_CHOICES = ("neumann", "dirichlet")


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of the model.

    alpha: elastic coefficient of the delayed restoring stress.
    beta:  Kelvin-Voigt (strain-rate) damping coefficient; beta = 0 is
           allowed only for the instability demonstration.
    gamma: thermo-mechanical coupling coefficient.
    kappa: heat conduction coefficient.
    tau:   time delay.
    ell:   domain length, Omega = (0, ell).
    theta_bc: boundary condition for the temperature, 'neumann' (zero flux,
           the main setting) or 'dirichlet' (variant).
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    kappa: float = 1.0
    tau: float = 1.0
    ell: float = 1.0
    theta_bc: str = "neumann"

    def __post_init__(self):
        # stored as float: certify turns an OverflowError into its failed
        # float-range record, where a numpy scalar would overflow to inf
        # with a warning
        for name in ("alpha", "beta", "gamma", "kappa", "tau", "ell"):
            val = getattr(self, name)
            if not isinstance(val, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {val!r}")
            object.__setattr__(self, name, float(val))
        for name in ("tau", "ell"):
            val = getattr(self, name)
            if not (val > 0.0 and math.isfinite(val)):
                raise ValueError(f"{name} must be strictly positive, got {val}")
        # the model takes alpha, gamma, kappa strictly positive, but their
        # zero limits are meaningful for decoupling/degenerate-case checks
        for name in ("alpha", "beta", "gamma", "kappa"):
            val = getattr(self, name)
            if not (val >= 0.0 and math.isfinite(val)):
                raise ValueError(f"{name} must be nonnegative, got {val}")
        if self.theta_bc not in THETA_BC_CHOICES:
            raise ValueError(
                f"theta_bc must be one of {THETA_BC_CHOICES}, got {self.theta_bc!r}"
            )

    def poincare_constant(self, sharp: bool = False) -> float:
        """Poincare constant c_p with ||w||^2 <= c_p ||w_x||^2.

        Default is ell^2/2; `sharp` switches to the optimal (ell/pi)^2.
        """
        if sharp:
            return (self.ell / math.pi) ** 2
        return 0.5 * self.ell**2

    def with_beta(self, beta: float) -> "PhysParams":
        return replace(self, beta=beta)
