"""Delayed strain u_x(., t - tau rho) as an exact ring buffer.

The time step is locked to dt = tau / Nrho, so each step shifts the delay
field z(x, rho) = u_x(x, t - tau rho) by exactly one rho node: the ring keeps
the last Nrho + 1 snapshots of u_x and never interpolates.  as_field() views
the ring as z, rho ascending.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .discretization import Grid, grad_u

__all__ = ["HistoryBuffer", "init_history"]


@dataclass
class HistoryBuffer:
    """Ring of the last `capacity` u_x snapshots (newest first in time).

    With dt locked to tau/Nrho the oldest retained snapshot is exactly
    u_x(t - tau): no interpolation is ever performed.
    """

    capacity: int                 # Nrho + 1 snapshots
    dt_lock: float                # tau / Nrho
    data: np.ndarray              # (capacity, Nx+1)
    head: int = 0                 # index of the newest snapshot
    fill: int = 0

    @classmethod
    def allocate(cls, grid: Grid, tau: float) -> "HistoryBuffer":
        cap = grid.Nrho + 1
        return cls(capacity=cap, dt_lock=tau / grid.Nrho,
                   data=np.zeros((cap, grid.nflux)))

    def push(self, ux: np.ndarray):
        self.head = (self.head - 1) % self.capacity
        self.data[self.head] = ux
        self.fill = min(self.fill + 1, self.capacity)

    def snapshot(self, steps_back: int) -> np.ndarray:
        """u_x recorded `steps_back` pushes ago (0 = newest)."""
        if steps_back >= self.fill:
            raise RuntimeError("history buffer not filled that far back")
        return self.data[(self.head + steps_back) % self.capacity]

    def tail(self) -> np.ndarray:
        """Oldest retained snapshot, u_x(t - tau) at locked dt."""
        if self.fill < self.capacity:
            raise RuntimeError("history buffer not fully initialized")
        return self.snapshot(self.capacity - 1)

    def as_field(self) -> np.ndarray:
        """View the ring as a z field of shape (Nx+1, Nrho+1), rho ascending."""
        idx = (self.head + np.arange(self.capacity)) % self.capacity
        return self.data[idx].T.copy()


def init_history(f0, grid: Grid, tau: float, u0=None, tol: float = 1e-8):
    """Sample the history datum f0(x, s), s in [-tau, 0], onto z and a ring.

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

    buf = HistoryBuffer.allocate(grid, tau)
    # oldest sample pushed first so that tail() is the s = -tau slice
    for i in range(grid.Nrho, -1, -1):
        buf.push(z[:, i])
    return z, buf
