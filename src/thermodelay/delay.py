"""The delay field z(x, rho) = u_x(x, t - tau rho), shifted one rho node per step.

The time step is locked to dt = tau / Nrho, so each step moves z by exactly
one rho node: push(u_x) puts the new strain at rho = 0 and drops the rho = 1
column, with no interpolation.  Every push builds a new array, so a z handed
out by as_field() (and stored in a State) is never modified afterwards.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .discretization import Grid, grad_u

__all__ = ["HistoryBuffer", "init_history"]


@dataclass
class HistoryBuffer:
    """The delay field z, shape (Nx+1, Nrho+1), rho ascending."""

    z: np.ndarray

    def push(self, ux: np.ndarray):
        """One step: ux becomes the rho = 0 column, the rest shifts one node."""
        self.z = np.column_stack([ux, self.z[:, :-1]])

    def tail(self) -> np.ndarray:
        """The rho = 1 column, u_x(t - tau)."""
        return self.z[:, -1]

    def as_field(self) -> np.ndarray:
        """z itself, not a copy; later pushes leave it unchanged."""
        return self.z


def init_history(f0, grid: Grid, tau: float, u0=None,
                 tol: float = 1e-8) -> HistoryBuffer:
    """Sample the history datum f0(x, s), s in [-tau, 0], into a HistoryBuffer.

    z[j, i] = f0(x_flux_j, -tau * rho_i).  When u0 is supplied, the rho = 0
    slice is compared against the discrete u_x of u0 and a warning is issued
    on mismatch (the caller's data are kept unchanged).
    """
    xf = grid.x_flux
    rho = grid.rho_nodes
    try:
        z = np.empty((grid.nflux, grid.Nrho + 1))
        for i, r in enumerate(rho):
            z[:, i] = np.asarray(f0(xf, -tau * r), dtype=float)
    except Exception as exc:
        raise ValueError(f"history datum f0 is not sampleable: {exc}") from exc

    if u0 is not None:
        ux0 = grad_u(np.asarray(u0, dtype=float), grid.dx)
        mismatch = np.max(np.abs(z[:, 0] - ux0))
        if mismatch > tol * max(1.0, np.max(np.abs(ux0))):
            warnings.warn(
                f"history datum at s=0 differs from u0_x by {mismatch:.3e}; "
                "keeping the supplied history", stacklevel=2)
    return HistoryBuffer(z)
