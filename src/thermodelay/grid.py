"""The grid, the step count and the errors the CLI maps to exit codes.

Imports nothing outside the standard library at load time: the node
arrays and `grad_u` import numpy when they are called, so config loading
and `certify` import neither numpy nor scipy.  The layout conventions are
in discretization's docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Grid", "grad_u", "step_count", "MAX_STEPS", "MAX_RECORDS",
           "DenseSizeError", "NumericalBlowupError"]

MAX_STEPS = 10**7          # longest run step_count accepts
MAX_RECORDS = 10**6        # most records (trajectory rows) it accepts


class DenseSizeError(ValueError):
    """A dense solve was refused because its matrix would exhaust memory."""


class NumericalBlowupError(RuntimeError):
    """A time step or its factorization produced a singular or non-finite
    result."""


@dataclass(frozen=True)
class Grid:
    """Tensor grid for Omega = (0, ell) x (0, 1)."""

    Nx: int
    Nrho: int
    ell: float = 1.0

    def __post_init__(self):
        if self.Nx < 3:
            raise ValueError(f"Nx must be >= 3, got {self.Nx}")
        if self.Nrho < 2:
            raise ValueError(f"Nrho must be >= 2, got {self.Nrho}")
        if self.ell <= 0:
            raise ValueError("ell must be positive")

    @property
    def dx(self) -> float:
        return self.ell / (self.Nx + 1)

    @property
    def drho(self) -> float:
        return 1.0 / self.Nrho

    @property
    def ntheta(self) -> int:
        return self.Nx + 1

    @property
    def nflux(self) -> int:
        return self.Nx + 1

    @property
    def x_nodes(self) -> np.ndarray:
        import numpy as np
        return self.dx * np.arange(1, self.Nx + 1)

    @property
    def x_flux(self) -> np.ndarray:
        import numpy as np
        return self.dx * (np.arange(self.Nx + 1) + 0.5)

    @property
    def rho_nodes(self) -> np.ndarray:
        import numpy as np
        return np.linspace(0.0, 1.0, self.Nrho + 1)

    @property
    def dim(self) -> int:
        return 2 * self.Nx + self.nflux * (self.Nrho + 1) + self.ntheta


def grad_u(u: np.ndarray, dx: float) -> np.ndarray:
    """u_x at the Nx+1 flux points for Dirichlet u (zero boundary values)."""
    import numpy as np
    return np.diff(u, prepend=0.0, append=0.0) / dx


def step_count(t_end: float, dt: float, record_every: int = 1) -> int:
    """Number of steps of length dt to t_end, which must lie on the step grid.

    The run may take at most MAX_STEPS steps and MAX_RECORDS records: the
    initial state, every record_every-th step and the last one.
    """
    ratio = t_end / dt
    if not (math.isfinite(ratio) and math.isclose(ratio, round(ratio), rel_tol=1e-9)):
        raise ValueError(f"t_end = {t_end} is not a multiple of the step "
                         f"tau/Nrho = {dt}")
    nsteps = round(ratio)
    records = 1 + -(-nsteps // record_every)
    if nsteps > MAX_STEPS or records > MAX_RECORDS:
        raise ValueError(f"t_end = {t_end} takes {ratio:.4g} steps of tau/Nrho "
                         f"= {dt} and {records:.4g} records at record_every = "
                         f"{record_every}; the limits are {MAX_STEPS} steps "
                         f"and {MAX_RECORDS} records")
    return nsteps
