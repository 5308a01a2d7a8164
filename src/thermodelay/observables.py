"""Energy, Lyapunov functionals, decay-rate fits and runtime decay checks."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import LyapunovConstants, f_weight
from .discretization import State, strain
from .grid import Grid
from .params import PhysParams

__all__ = ["Trajectory", "energy", "lyapunov_components", "decay_rate_fit",
           "check_decay_inequality", "theta_mass"]


@dataclass
class Trajectory:
    """Time series of observables recorded along a simulation."""

    times: np.ndarray
    E: np.ndarray
    V: np.ndarray
    Vtilde: np.ndarray
    V_terms: np.ndarray          # shape (6, nsamples)
    theta_mass: np.ndarray
    blowup_time: float | None = None

    def __post_init__(self):
        n = len(self.times)
        for arr in (self.E, self.V, self.Vtilde, self.theta_mass):
            if len(arr) != n:
                raise ValueError("misaligned trajectory arrays")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def energy(state: State, grid: Grid, p: PhysParams, xi: float) -> float:
    """Discrete energy: 1/2 (||u_t||^2 + alpha ||u_x||^2 + ||theta||^2)
    plus xi times the history integral of the past strain.  A modal state
    gives the same value up to rounding: every term is a norm.  With W the
    Gram matrix of spectral.dissipativity_test, E = 1/2 ||x||_W^2 + 1/2 xi
    dx drho sum_i ||z(., rho_i)||^2: the history weighs double."""
    if xi <= 0:
        raise ValueError("xi must be positive")
    dx, drho = grid.dx, grid.drho
    ux = strain(state, grid)
    quad = 0.5 * (
        np.dot(state.v, state.v) + p.alpha * np.dot(ux, ux)
        + np.dot(state.theta, state.theta)
    ) * dx
    hist = xi * np.einsum("ij,ij->", state.z, state.z) * dx * drho
    return float(quad + hist)


@functools.lru_cache(maxsize=64)
def _rho_weights(nrho: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid weights on the rho grid times e^{-2 lam rho} and times
    e^{-lam rho} f(rho), read-only."""
    rho = np.linspace(0.0, 1.0, nrho + 1)
    half = 0.5 * np.diff(rho)
    trap = np.zeros(nrho + 1)
    trap[:-1] += half
    trap[1:] += half
    w4 = trap * np.exp(-2.0 * lam * rho)
    w5 = trap * np.exp(-lam * rho) * f_weight(rho, lam)
    w4.flags.writeable = w5.flags.writeable = False
    return w4, w5


def lyapunov_components(state: State, grid: Grid, consts: LyapunovConstants,
                        p: PhysParams) -> dict:
    """The six functional terms and their weighted sums V, Vtilde.

    rho-integrals use the trapezoid rule on the rho grid, with weights
    e^{-2 lam rho} (history norm) and e^{-lam rho} f(rho) (cross term).
    Both weight vectors are computed once per (Nrho, lam), so V4 is one
    dot with the column norms of z and V5 one dot with u_x^T z.  Every term
    is a norm or an inner product, so a modal state gives the same values
    up to rounding.
    """
    dx = grid.dx
    z = state.z
    w4, w5 = _rho_weights(grid.Nrho, consts.lam)
    ux = strain(state, grid)

    V1 = 0.5 * np.dot(state.v, state.v) * dx
    V2 = 0.5 * np.dot(ux, ux) * dx
    V3 = 0.5 * np.dot(state.theta, state.theta) * dx
    # ||z(., rho)||^2 and <z(., rho), u_x> per node, against the weights
    V4 = float(np.dot(w4, np.einsum("ij,ij->j", z, z))) * dx
    V5 = -float(np.dot(w5, ux @ z)) * dx
    V6 = float(np.dot(state.u, state.v) * dx)

    N1, N2, N3, N4, N5, N6 = (consts.N1, consts.N2, consts.N3,
                              consts.N4, consts.N5, consts.N6)
    Vtilde = N1 * V1 + p.alpha * N2 * V2 + N3 * V3 + N4 * V4
    V = Vtilde + N5 * V5 + N6 * V6
    return {"V1": V1, "V2": V2, "V3": V3, "V4": V4, "V5": V5, "V6": V6,
            "V": V, "Vtilde": Vtilde}


def decay_rate_fit(traj: Trajectory, window: tuple[float, float]) -> dict:
    """Least-squares exponential fit of E on [t_lo, t_hi].

    Returns a0 = -slope of log E vs t, the prefactor C and the coefficient
    of determination r2.
    """
    t_lo, t_hi = window
    mask = (traj.times >= t_lo) & (traj.times <= t_hi)
    t = traj.times[mask]
    E = traj.E[mask]
    if len(t) < 3:
        raise ValueError("window contains fewer than 3 samples")
    if not np.all((E > 0) & np.isfinite(E)):
        raise ValueError("window contains nonpositive or non-finite energy "
                         "(degenerate run)")
    logE = np.log(E)
    # times near 1e-300 underflow polyfit's column scaling to a division by 0
    with np.errstate(divide="raise", invalid="raise"):
        try:
            slope, intercept = np.polyfit(t, logE, 1)
        except FloatingPointError as exc:
            raise ValueError(f"degenerate fit window: {exc}") from None
    resid = logE - (slope * t + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.sum((logE - logE.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"a0": -float(slope), "C": float(np.exp(intercept)), "r2": r2}


def check_decay_inequality(traj: Trajectory, n0: float) -> dict:
    """A-posteriori check of V' <= -n0 Vtilde at interior sample points.

    V' is formed by central differences; the tolerance band covers the
    differencing error, estimated from third differences of V.
    """
    t, V, Vt = traj.times, traj.V, traj.Vtilde
    if len(t) < 5:
        raise ValueError("too few samples for the decay-inequality check")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-8):
        raise ValueError("decay check expects uniform sampling")
    h = float(dt[0])

    dV = (V[2:] - V[:-2]) / (2.0 * h)
    excess = dV + n0 * Vt[1:-1]

    third = np.diff(V, 3)
    Vppp = np.max(np.abs(third)) / h**3 if len(third) else 0.0
    band = Vppp * h**2 / 6.0 + 1e-12 * max(1.0, float(np.max(np.abs(V))))

    violating = excess > band
    return {
        "max_excess": float(np.max(excess)),
        "band": float(band),
        "fraction_violating": float(np.mean(violating)),
        "satisfied": bool(not np.any(violating)),
    }


def theta_mass(state: State, grid: Grid) -> float:
    """Discrete integral of theta over the domain; of a modal state, from
    its constant mode alone (the other cosine modes sum to zero)."""
    if state.modal:
        return float(math.sqrt(grid.nflux) * state.theta[0] * grid.dx)
    return float(np.sum(state.theta) * grid.dx)
