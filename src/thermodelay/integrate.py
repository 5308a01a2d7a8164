"""IMEX time stepping and a dense matrix-exponential oracle.

The stiff viscous and heat terms (and the skew thermo-mechanical coupling)
are advanced by a theta-method on the coupled (v, theta) block, solved
monolithically from one LU factorization per (dt, params) of the (v, theta)
rows and columns of the assembled generator.  The delayed stress
alpha z(., 1)_x is the only explicit term.  The step is fixed at
dt = tau/Nrho, so z holds it exactly at both endpoints of the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .constants import LyapunovConstants
from .delay import HistoryBuffer, init_history
from .discretization import (DenseSizeError, Generator, Grid, State, _slices,
                             assemble_generator, grad_u, pack, unpack)
from .observables import Trajectory, energy, lyapunov_components, theta_mass
from .params import PhysParams

__all__ = ["ImplicitFactor", "NumericalBlowupError", "factor_implicit",
           "step_imex", "expm_oracle", "step_count", "simulate"]

EXPM_MAX_DIM = 4000
IMPLICIT_MAX_DIM = 4097     # dense (v, theta) block of 2 Nx + 1: Nx <= 2048


class NumericalBlowupError(RuntimeError):
    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


@dataclass
class ImplicitFactor:
    """LU factorization of the implicit (v, theta) block for one (dt, weight)."""

    grid: Grid
    p: PhysParams
    dt: float
    theta_weight: float
    lu: tuple = field(repr=False, default=None)       # lu_factor of I - w dt M
    explicit_mat: np.ndarray = field(repr=False, default=None)  # I + (1-w) dt M
    D: np.ndarray = field(repr=False, default=None)   # alpha-stress divergence

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return sla.lu_solve(self.lu, rhs)


def factor_implicit(grid: Grid, p: PhysParams, dt: float,
                    theta_weight: float = 0.5) -> ImplicitFactor:
    """Factor the coupled implicit block once; reusable across steps.

    M is the (v, theta) block of the assembled generator: the Kelvin-Voigt
    damping, the heat operator and the thermo-mechanical coupling, all
    treated implicitly.  Without damping, conduction and coupling it reduces
    to the identity.  The block and its LU are dense, so blocks larger than
    IMPLICIT_MAX_DIM are refused before anything is assembled.
    """
    n = grid.Nx + grid.ntheta
    if n > IMPLICIT_MAX_DIM:
        raise DenseSizeError(f"implicit (v, theta) block of dimension {n} "
                             f"exceeds the limit {IMPLICIT_MAX_DIM}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not (0.5 <= theta_weight <= 1.0):
        raise ValueError("theta_weight must lie in [1/2, 1]")
    gen = assemble_generator(grid, p)
    _, sv, _, st = _slices(grid)
    vt = np.r_[sv, st]
    M = gen.matrix[vt][:, vt].toarray()
    D = (-gen.ops.G.T).toarray(order="C")  # C order keeps the stress matvec bitwise

    w = theta_weight
    implicit = np.eye(n) - w * dt * M
    lu = sla.lu_factor(implicit)
    if not np.all(np.isfinite(lu[0])):
        raise RuntimeError("implicit factorization produced non-finite factors")
    return ImplicitFactor(
        grid=grid, p=p, dt=dt, theta_weight=w, lu=lu,
        explicit_mat=np.eye(n) + (1.0 - w) * dt * M,
        D=D,
    )


def step_imex(state: State, dt: float, fac: ImplicitFactor,
              buf: HistoryBuffer) -> State:
    """One IMEX step of length dt = tau/Nrho; advances (u, v, theta) and buf.

    The delayed stress is read from z at both step endpoints, u_x(t_n - tau)
    = z(., 1) and u_x(t_{n+1} - tau) = z(., 1 - 1/Nrho), and combined with
    the theta-method weights.
    """
    grid, p, w = fac.grid, fac.p, fac.theta_weight
    Nx = grid.Nx

    z1_eff = (1.0 - w) * buf.tail() + w * buf.z[:, -2]

    # near blow-up these products may overflow; the finite check below handles it
    with np.errstate(over="ignore", invalid="ignore"):
        force_v = p.alpha * (fac.D @ z1_eff)
        y = np.concatenate([state.v, state.theta])
        rhs = fac.explicit_mat @ y
        rhs[:Nx] += dt * force_v
    if not np.all(np.isfinite(rhs)):
        raise NumericalBlowupError("non-finite right-hand side before solve")
    y_new = fac.solve(rhs)
    if not np.all(np.isfinite(y_new)):
        raise NumericalBlowupError("non-finite state after implicit solve")

    v_new = y_new[:Nx]
    theta_new = y_new[Nx:]
    u_new = state.u + dt * ((1.0 - w) * state.v + w * v_new)
    buf.push(grad_u(u_new, grid.dx))
    return State(u=u_new, v=v_new, z=buf.as_field(), theta=theta_new)


def expm_oracle(gen: Generator, state: State, t: float) -> State:
    """Exact discrete semigroup action e^{t A_h} via scaling-and-squaring.

    Dense only; refuses dimensions above EXPM_MAX_DIM.
    """
    if gen.dim > EXPM_MAX_DIM:
        raise DenseSizeError(f"generator dimension {gen.dim} exceeds dense limit")
    phi = sla.expm(t * gen.dense())
    return unpack(phi @ pack(state), gen.grid)


def step_count(t_end: float, dt: float) -> int:
    """Number of steps of length dt to t_end, which must lie on the step grid."""
    n = round(t_end / dt)
    if not math.isclose(t_end / dt, n, rel_tol=1e-9):
        raise ValueError(f"t_end = {t_end} is not a multiple of the step "
                         f"tau/Nrho = {dt}")
    return n


def simulate(
    grid: Grid,
    p: PhysParams,
    consts: LyapunovConstants,
    u0: np.ndarray,
    u1: np.ndarray,
    theta0: np.ndarray,
    f0,
    t_end: float,
    record_every: int = 1,
    theta_weight: float = 0.5,
    raise_on_blowup: bool = False,
) -> Trajectory:
    """Advance the system to t_end and record observables.

    Deterministic given its inputs.  The step is dt = tau/Nrho (an exact
    one-node shift of z); t_end must be a whole number of steps.  The first
    step uses backward Euler to damp the initial layer, then the theta-method
    with the requested weight.  On numerical blow-up the trajectory is
    truncated and blowup_time set (or the error re-raised when
    raise_on_blowup).
    """
    dt = p.tau / grid.Nrho
    nsteps = step_count(t_end, dt)
    theta0 = np.asarray(theta0, dtype=float).copy()
    if p.theta_bc == "neumann":
        theta0 -= theta0.mean()

    fac_be = factor_implicit(grid, p, dt, theta_weight=1.0)
    fac = factor_implicit(grid, p, dt, theta_weight=theta_weight)

    buf = init_history(f0, grid, p.tau, u0=u0)
    state = State(u=np.asarray(u0, float).copy(), v=np.asarray(u1, float).copy(),
                  z=buf.as_field(), theta=theta0)

    times, Es, Vs, Vts, terms, masses = [], [], [], [], [], []
    blowup_time = None

    def record(t, s):
        times.append(t)
        # near blow-up the observables may overflow; record inf silently
        with np.errstate(over="ignore", invalid="ignore"):
            Es.append(energy(s, grid, p, consts.xi))
            comp = lyapunov_components(s, grid, consts, p)
        Vs.append(comp["V"])
        Vts.append(comp["Vtilde"])
        terms.append([comp[f"V{i}"] for i in range(1, 7)])
        masses.append(theta_mass(s, grid))

    record(0.0, state)
    for n in range(nsteps):
        t_next = (n + 1) * dt
        try:
            state = step_imex(state, dt, fac_be if n == 0 else fac, buf)
        except NumericalBlowupError as exc:
            if raise_on_blowup:
                exc.t = t_next
                raise
            blowup_time = t_next
            break
        if not np.all(np.isfinite(state.u)):
            blowup_time = t_next
            if raise_on_blowup:
                raise NumericalBlowupError("non-finite displacement", t=t_next)
            break
        if (n + 1) % record_every == 0 or n + 1 == nsteps:
            record(t_next, state)

    traj = Trajectory(
        times=np.asarray(times), E=np.asarray(Es), V=np.asarray(Vs),
        Vtilde=np.asarray(Vts), V_terms=np.asarray(terms).T if terms else np.zeros((6, 0)),
        theta_mass=np.asarray(masses), blowup_time=blowup_time,
    )
    return traj
