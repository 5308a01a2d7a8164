"""IMEX time stepping and a dense matrix-exponential oracle.

The stiff viscous and heat terms (and the skew thermo-mechanical coupling)
are advanced by a theta-method on the coupled (v, theta) block, solved
monolithically from one sparse LU factorization (SuperLU) of that block,
built from the operators alone.  It is banded, so factor, solve and the
explicit matvec cost O(Nx) and no size limit applies.  The delayed stress
alpha z(., 1)_x is the only explicit term.  The step is fixed at
dt = tau/Nrho, so z holds it exactly at both endpoints of the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constants import LyapunovConstants
from .delay import HistoryBuffer, init_history
from .discretization import (Generator, State, _vtheta_blocks, build_operators,
                             pack, unpack)
from .grid import (MAX_RECORDS, MAX_STEPS, DenseSizeError, Grid,  # noqa: F401
                   NumericalBlowupError, grad_u, step_count)
from .observables import Trajectory, energy, lyapunov_components, theta_mass
from .params import PhysParams

__all__ = ["ImplicitFactor", "NumericalBlowupError", "factor_implicit",
           "step_imex", "expm_oracle", "step_count", "simulate"]

EXPM_MAX_DIM = 4000


@dataclass
class ImplicitFactor:
    """Sparse LU of the implicit (v, theta) block for one weight."""

    grid: Grid
    p: PhysParams
    theta_weight: float
    dt: float                                             # tau/Nrho
    implicit: sp.csc_matrix = field(repr=False, default=None)  # I - w dt M
    lu: spla.SuperLU = field(repr=False, default=None)    # splu of implicit
    explicit_mat: sp.csr_matrix = field(repr=False, default=None)  # I + (1-w) dt M
    D: sp.csr_matrix = field(repr=False, default=None)    # alpha-stress divergence

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(rhs)


def factor_implicit(grid: Grid, p: PhysParams,
                    theta_weight: float = 0.5) -> ImplicitFactor:
    """Factor the coupled implicit block at dt = tau/Nrho once; reusable across steps.

    M is the (v, theta) block of the real-space generator, built from the
    operators alone: the Kelvin-Voigt damping, the heat operator and the
    thermo-mechanical coupling, all treated implicitly.  Without damping,
    conduction and coupling it reduces to the identity.  M is banded and
    stays sparse; a singular or non-finite block raises NumericalBlowupError.
    """
    if not (0.5 <= theta_weight <= 1.0):
        raise ValueError("theta_weight must lie in [1/2, 1]")
    ops = build_operators(grid, p)
    dt = p.tau / grid.Nrho
    w = theta_weight
    # an overflowing coefficient leaves inf in M; the checks below see it
    with np.errstate(over="ignore", invalid="ignore"):
        M = sp.bmat(_vtheta_blocks(ops, p), format="csr")
        M.eliminate_zeros()     # stored as in the generator: no zero coefficients
        eye = sp.identity(M.shape[0], format="csr")
        implicit = (eye - w * dt * M).tocsc()
        explicit = (eye + (1.0 - w) * dt * M).tocsr()
    if not np.all(np.isfinite(implicit.data)):
        raise NumericalBlowupError("non-finite implicit (v, theta) block")
    try:
        lu = spla.splu(implicit)
    except RuntimeError as exc:     # SuperLU: "Factor is exactly singular"
        raise NumericalBlowupError(f"implicit factorization failed: {exc}") from None
    if not (np.all(np.isfinite(lu.L.data)) and np.all(np.isfinite(lu.U.data))):
        raise NumericalBlowupError("implicit factorization produced non-finite factors")
    return ImplicitFactor(
        grid=grid, p=p, theta_weight=w, dt=dt, implicit=implicit, lu=lu,
        explicit_mat=explicit, D=(-ops.G.T).tocsr(),
    )


def step_imex(state: State, fac: ImplicitFactor, buf: HistoryBuffer) -> State:
    """One IMEX step of fac.dt = tau/Nrho, the only length at which z holds
    the delayed stress; advances (u, v, theta) and buf.

    It is read from z at both step endpoints, u_x(t_n - tau) = z(., 1) and
    u_x(t_{n+1} - tau) = z(., 1 - 1/Nrho), and combined with the
    theta-method weights.  A non-finite right-hand side, solution or
    displacement raises NumericalBlowupError before buf is advanced.  The
    strain of a finite displacement may still overflow; it is pushed as inf,
    silently.
    """
    grid, p, w, dt = fac.grid, fac.p, fac.theta_weight, fac.dt
    Nx = grid.Nx

    z1_eff = (1.0 - w) * buf.tail() + w * buf.z[:, -2]

    # near blow-up these products, the displacement and its strain may
    # overflow; the finite checks below handle all but the strain
    with np.errstate(over="ignore", invalid="ignore"):
        force_v = p.alpha * (fac.D @ z1_eff)
        y = np.concatenate([state.v, state.theta])
        rhs = fac.explicit_mat @ y
        rhs[:Nx] += dt * force_v
        if not np.isfinite(rhs).all():
            raise NumericalBlowupError("non-finite right-hand side before solve")
        y_new = fac.solve(rhs)
        if not np.isfinite(y_new).all():
            raise NumericalBlowupError("non-finite state after implicit solve")

        v_new = y_new[:Nx]
        theta_new = y_new[Nx:]
        u_new = state.u + dt * ((1.0 - w) * state.v + w * v_new)
        if not np.isfinite(u_new).all():
            raise NumericalBlowupError("non-finite displacement")
        ux_new = grad_u(u_new, grid.dx)
    buf.push(ux_new)
    return State(u=u_new, v=v_new, z=buf.as_field(), theta=theta_new)


def expm_oracle(gen: Generator, state: State, t: float) -> State:
    """Exact discrete semigroup action e^{t A_h} via scaling-and-squaring.

    Dense only; refuses dimensions above EXPM_MAX_DIM.
    """
    if gen.grid.dim > EXPM_MAX_DIM:
        raise DenseSizeError(f"generator dimension {gen.grid.dim} exceeds dense limit")
    phi = sla.expm(t * gen.matrix.toarray())
    return unpack(phi @ pack(state), gen.grid)


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
) -> Trajectory:
    """Advance the system to t_end and record observables.

    Deterministic given its inputs.  The step is dt = tau/Nrho (an exact
    one-node shift of z); t_end must be a whole number of steps.  The first
    step uses backward Euler to damp the initial layer, then the theta-method
    with the requested weight.  On numerical blow-up (step_imex raises) the
    trajectory is truncated and blowup_time set.
    """
    dt = p.tau / grid.Nrho
    nsteps = step_count(t_end, dt, record_every)
    theta0 = np.asarray(theta0, dtype=float).copy()
    if p.theta_bc == "neumann":
        theta0 -= theta0.mean()

    fac_be = factor_implicit(grid, p, theta_weight=1.0)
    fac = factor_implicit(grid, p, theta_weight=theta_weight)

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
            state = step_imex(state, fac_be if n == 0 else fac, buf)
        except NumericalBlowupError:
            blowup_time = t_next
            break
        if (n + 1) % record_every == 0 or n + 1 == nsteps:
            record(t_next, state)

    traj = Trajectory(
        times=np.asarray(times), E=np.asarray(Es), V=np.asarray(Vs),
        Vtilde=np.asarray(Vts), V_terms=np.asarray(terms).T if terms else np.zeros((6, 0)),
        theta_mass=np.asarray(masses), blowup_time=blowup_time,
    )
    return traj
