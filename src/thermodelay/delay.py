"""The delay field z(x, rho) = u_x(x, t - tau rho), shifted one rho node per step.

The time step is locked to dt = tau / Nrho, so each step moves z by exactly
one rho node: push(u_x) puts the new strain at rho = 0 and drops the rho = 1
column, with no interpolation.

The strains are kept in an append-only store: a chunk of 2(Nrho+1) rows of
Nx+1 values, newest row first, filled from the back.  z is the transposed
view of the Nrho+1 rows from the newest on, so a push writes one row and
moves the view up by one.  When the chunk is full, a fresh one takes the
newest Nrho rows; that copy comes once per Nrho+1 pushes, so a push costs
O(Nx) amortized.  A row is written only once, so a z handed out by
as_field() (and stored in a State) is never modified afterwards.
"""

from __future__ import annotations

import warnings

import numpy as np

from .grid import Grid, grad_u

__all__ = ["HistoryBuffer", "init_history"]


class HistoryBuffer:
    """The delay field z, shape (Nx+1, Nrho+1), rho ascending.

    z[:, i] is row head + i of the current chunk, so tail() (rho = 1) and
    z[:, -2] are contiguous rows.
    """

    def __init__(self, z: np.ndarray):
        z = np.asarray(z, dtype=float)
        n = z.shape[1]
        self._rows = np.empty((2 * n, z.shape[0]))
        self._rows[n:] = z.T                   # copied: the caller's z is kept
        self._head = n
        self.z = self._rows[n:].T

    def push(self, ux: np.ndarray):
        """One step: ux becomes the rho = 0 column, the rest shifts one node."""
        n = self.z.shape[1]
        head = self._head
        if head == 0:                          # chunk full: carry the newest Nrho rows
            fresh = np.empty_like(self._rows)
            fresh[n + 1:] = self._rows[:n - 1]
            self._rows, head = fresh, n + 1
        head -= 1
        self._rows[head] = ux
        self._head = head
        self.z = self._rows[head:head + n].T

    def tail(self) -> np.ndarray:
        """The rho = 1 column, u_x(t - tau)."""
        return self._rows[self._head + self.z.shape[1] - 1]

    def as_field(self) -> np.ndarray:
        """z itself, not a copy; later pushes leave it unchanged."""
        return self.z


def init_history(f0, grid: Grid, tau: float, u0=None) -> HistoryBuffer:
    """Sample the history datum f0(x, s), s in [-tau, 0], into a HistoryBuffer.

    z[j, i] = f0(x_flux_j, -tau * rho_i).  When u0 is supplied, the rho = 0
    slice is compared against the discrete u_x of u0 and a warning is issued
    on a mismatch above 1e-8 relative (the caller's data are kept unchanged).
    """
    xf = grid.x_flux
    rho = grid.rho_nodes
    try:
        z = np.empty((grid.nflux, grid.Nrho + 1))
        for i, r in enumerate(rho):
            z[:, i] = np.asarray(f0(xf, -tau * r), dtype=float)
    except ArithmeticError as exc:          # a numerical failure, not a bad datum
        raise FloatingPointError(f"history datum f0 overflows: {exc}") from exc
    except Exception as exc:
        raise ValueError(f"history datum f0 is not sampleable: {exc}") from exc

    if u0 is not None:
        ux0 = grad_u(np.asarray(u0, dtype=float), grid.dx)
        mismatch = np.max(np.abs(z[:, 0] - ux0))
        if mismatch > 1e-8 * max(1.0, np.max(np.abs(ux0))):
            warnings.warn(
                f"history datum at s=0 differs from u0_x by {mismatch:.3e}; "
                "keeping the supplied history", stacklevel=2)
    return HistoryBuffer(z)
