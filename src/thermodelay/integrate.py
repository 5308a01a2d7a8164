"""Theta-method time stepping per Fourier mode.

simulate advances (u, v, theta) and the strain history in the Fourier-mode
coordinates of discretization.build_operators: the orthonormal DST-I on the
nodes and the orthonormal DCT-II on the cells.  There the stiff (v, theta)
block (the Kelvin-Voigt damping, the heat operator and the
thermo-mechanical coupling) is one 2 x 2 block per mode, so the
theta-method's explicit product and implicit solve are elementwise updates
whose coefficients are computed once per weight.  With Dirichlet theta the
corner term adds one rank-one term per parity of the cosine modes; it
enters the product as it is and the solve as one Sherman-Morrison
correction per parity.  The delayed stress alpha z(., 1)_x is the only
explicit term.  The step is fixed at dt = tau/Nrho, so z holds it exactly
at both endpoints of the step.

Only the initial data are transformed (modal_state), and the recorded
observables are orthogonally invariant, so they read the modal state as it
is.  The module imports numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .constants import LyapunovConstants
from .delay import HistoryBuffer, init_history
from .discretization import State, build_operators, modal_state
from .grid import (MAX_RECORDS, MAX_STEPS, DenseSizeError, Grid,  # noqa: F401
                   NumericalBlowupError, grad_u, step_count)
from .observables import Trajectory, energy, lyapunov_components, theta_mass
from .params import PhysParams

__all__ = ["ImplicitFactor", "NumericalBlowupError", "factor_implicit",
           "step_imex", "step_count", "simulate"]


@dataclass
class ImplicitFactor:
    """The theta-method on the (v, theta) block for one weight w, per mode.

    Mode k = 1..Nx pairs sine mode k of v with cosine mode k of theta; its
    block is M_k = [[-beta g^2, gamma g], [-gamma g, -kappa g^2]] with
    g = g_k.  The theta mean (cosine mode 0) has M_0 = 0.  With Dirichlet
    theta, M also has the corner term -K a_p a_p^T per parity p, where
    K = 4 kappa/dx^2 and a_p holds c_j = C[0, j] on the theta modes
    j = p (mod 2).
    """

    grid: Grid
    theta_weight: float
    dt: float                                   # tau/Nrho
    g: np.ndarray = field(repr=False, default=None)         # symbols of G, g_0 = 0
    # [row, column, k - 1]: I + (1-w) dt M_k and (I - w dt M_k)^-1, rows and
    # columns in the order v, theta
    explicit: np.ndarray = field(repr=False, default=None)  # (2, 2, Nx)
    inverse: np.ndarray = field(repr=False, default=None)   # (2, 2, Nx)
    # the delayed stress on v from z(., 1) and z(., 1 - 1/Nrho):
    # (1 - w) and w times -alpha dt g_k
    force: np.ndarray = field(repr=False, default=None)     # (2, Nx)
    # Dirichlet only, one row per parity p: a_p on the theta modes and h_p =
    # (I - w dt M_N)^-1 a_p on (v, theta); then rho/d_p and sigma/d_p (see
    # factor_implicit)
    corner: tuple | None = field(repr=False, default=None)


def factor_implicit(grid: Grid, p: PhysParams,
                    theta_weight: float = 0.5) -> ImplicitFactor:
    """The per-mode coefficients of the theta-method at dt = tau/Nrho, once
    per weight; reusable across steps.

    The implicit block I - w dt M_k = [[P, -Q], [Q, R]] has P, R >= 1, so it
    is never singular; its inverse is taken in a form in which P R cannot
    overflow.  With Dirichlet theta, I - w dt M adds sigma a_p a_p^T per
    parity (sigma = w dt K) and I + (1 - w) dt M subtracts rho a_p a_p^T
    (rho = (1 - w) dt K).  Each parity is an invariant subspace of the
    per-mode blocks, so Sherman-Morrison per parity gives
    x_new = y - sum_p h_p (rho a_p^T x + sigma a_p^T y) / d_p, where y is
    the per-mode update of x and d_p = 1 + sigma a_p^T h_p.  A coefficient
    that overflows raises NumericalBlowupError.
    """
    if not (0.5 <= theta_weight <= 1.0):
        raise ValueError("theta_weight must lie in [1/2, 1]")
    ops = build_operators(grid, p)     # checks the grid; only its symbols are read
    dt = p.tau / grid.Nrho
    w = theta_weight
    Nx, nf = grid.Nx, grid.nflux
    g, c = ops.g, ops.c
    gk = g[1:]
    # an overflowing coefficient leaves inf or nan; the checks below see it
    with np.errstate(over="ignore", invalid="ignore"):
        mu = gk * gk
        a, b = (1.0 - w) * dt, w * dt
        explicit = np.array([[1.0 - a * p.beta * mu, a * p.gamma * gk],
                             [-a * p.gamma * gk, 1.0 - a * p.kappa * mu]])
        P = 1.0 + b * p.beta * mu
        Q = b * p.gamma * gk
        R = 1.0 + b * p.kappa * mu
        K = 4.0 * p.kappa / grid.dx**2 if p.theta_bc == "dirichlet" else 0.0
        if not (np.isfinite(P).all() and np.isfinite(Q).all()
                and np.isfinite(R).all() and np.isfinite(b * K)):
            raise NumericalBlowupError("non-finite implicit (v, theta) block")
        i11 = 1.0 / (P + Q * (Q / R))
        i22 = 1.0 / (R + Q * (Q / P))
        inverse = np.array([[i11, (Q / R) * i11], [-(Q / P) * i22, i22]])
        factors = [inverse]
        corner = None
        if p.theta_bc == "dirichlet":
            parity = np.arange(nf) % 2 == np.arange(2)[:, None]
            ca = np.where(parity, c, 0.0)                       # a_p
            h = np.hstack([inverse[0, 1] * ca[:, 1:],           # v, modes 1..Nx
                           np.c_[ca[:, :1], inverse[1, 1] * ca[:, 1:]]])
            d = 1.0 + b * K * np.einsum("pj,pj->p", ca, h[:, Nx:])
            corner = (ca, h, tuple(a * K / d), tuple(b * K / d))
            factors += corner[1:]
    if not all(np.isfinite(f).all() for f in factors):
        raise NumericalBlowupError("implicit factorization produced non-finite factors")
    force = -p.alpha * dt * gk
    return ImplicitFactor(grid=grid, theta_weight=w, dt=dt, g=g,
                          explicit=explicit, inverse=inverse,
                          force=np.array([(1.0 - w) * force, w * force]),
                          corner=corner)


def step_imex(state: State, fac: ImplicitFactor, buf: HistoryBuffer) -> State:
    """One IMEX step of fac.dt = tau/Nrho, the only length at which z holds
    the delayed stress; advances the modal state (see modal_state) and buf,
    which holds the modal strain rows.

    The stress is read from z at both step endpoints, u_x(t_n - tau) =
    z(., 1) and u_x(t_{n+1} - tau) = z(., 1 - 1/Nrho), and combined with the
    theta-method weights.  A non-finite solution or displacement raises
    NumericalBlowupError before buf is advanced.  The strain of a finite
    displacement may still overflow; it is pushed as inf, silently.
    """
    if not state.modal:
        raise ValueError("step_imex advances a modal state (see modal_state)")
    w, dt = fac.theta_weight, fac.dt
    e, inv, force = fac.explicit, fac.inverse, fac.force
    Nx, nf = fac.grid.Nx, fac.grid.nflux
    v, theta = state.v, state.theta
    th = theta[1:]

    # near blow-up these products, the displacement and its strain may
    # overflow; the finite check below handles all but the strain
    with np.errstate(over="ignore", invalid="ignore"):
        # the explicit product, per mode; the theta mean passes unchanged
        rv = e[0, 0] * v
        rv += e[0, 1] * th
        rv += force[0] * buf.tail()[1:]
        rv += force[1] * buf.z[1:, -2]
        rth = e[1, 0] * v
        rth += e[1, 1] * th
        # the solve, into one array so that one check covers v, theta and u
        y = np.empty(2 * Nx + nf)
        v_new, theta_new, u_new = y[:Nx], y[Nx:Nx + nf], y[Nx + nf:]
        np.multiply(inv[0, 0], rv, out=v_new)
        v_new += inv[0, 1] * rth
        theta_new[0] = theta[0]
        np.multiply(inv[1, 1], rth, out=theta_new[1:])
        theta_new[1:] += inv[1, 0] * rv
        if fac.corner is not None:
            ca, h, rho, sigma = fac.corner
            s, t = ca @ theta, ca @ theta_new
            y[:Nx + nf] -= ((rho[0] * s[0] + sigma[0] * t[0]) * h[0]
                            + (rho[1] * s[1] + sigma[1] * t[1]) * h[1])
        np.multiply((1.0 - w) * dt, v, out=u_new)
        u_new += (w * dt) * v_new
        u_new += state.u
        if not np.isfinite(y).all():
            raise NumericalBlowupError(
                "non-finite displacement" if np.isfinite(y[:Nx + nf]).all()
                else "non-finite state after implicit solve")
        ux_new = np.empty(nf)
        ux_new[0] = 0.0
        np.multiply(fac.g[1:], u_new, out=ux_new[1:])
    buf.push(ux_new)
    return State(u=u_new, v=v_new, z=buf.as_field(), theta=theta_new, modal=True)


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
) -> Trajectory:
    """Advance the system to t_end and record observables.

    Deterministic given its inputs.  The step is dt = tau/Nrho (an exact
    one-node shift of z); t_end must be a whole number of steps.  The first
    step uses backward Euler to damp the initial layer, then Crank-Nicolson
    (the theta-method at weight 1/2).  The initial data are transformed to the
    Fourier modes once; every step and record works on the modal state.
    Each record is a row of one table allocated up front, whose columns are
    the Trajectory's fields.  A run ends at its first non-finite record: a
    step that raises, or a row holding a non-finite number, left out; the
    table is cut after the last row written and blowup_time set.  Non-finite
    initial observables raise NumericalBlowupError.
    """
    dt = p.tau / grid.Nrho
    nsteps = step_count(t_end, dt, record_every)
    theta0 = np.asarray(theta0, dtype=float).copy()
    if p.theta_bc == "neumann":
        theta0 -= theta0.mean()

    fac_be = factor_implicit(grid, p, theta_weight=1.0)
    fac = factor_implicit(grid, p, theta_weight=0.5)

    z0 = init_history(f0, grid, p.tau, u0=u0).as_field()
    state = modal_state(State(u=np.asarray(u0, float), v=np.asarray(u1, float),
                              z=z0, theta=theta0))
    buf = HistoryBuffer(state.z)
    state = replace(state, z=buf.as_field())

    table = np.empty((1 + -(-nsteps // record_every), 11))
    rows, blowup_time = 0, None

    def record(t, s):
        nonlocal rows
        # near blow-up the observables may overflow; the row is then refused
        with np.errstate(over="ignore", invalid="ignore"):
            E = energy(s, grid, p, consts.xi)
            comp = lyapunov_components(s, grid, consts, p)
        table[rows] = (t, E, comp["V"], comp["Vtilde"],
                       *(comp[f"V{i}"] for i in range(1, 7)), theta_mass(s, grid))
        if not np.isfinite(table[rows]).all():
            raise NumericalBlowupError(f"non-finite observables at t = {t}")
        rows += 1

    record(0.0, state)
    for n in range(nsteps):
        t_next = (n + 1) * dt
        try:
            state = step_imex(state, fac_be if n == 0 else fac, buf)
            if (n + 1) % record_every == 0 or n + 1 == nsteps:
                record(t_next, state)
        except NumericalBlowupError:
            blowup_time = t_next
            break

    table = table[:rows]
    return Trajectory(times=table[:, 0], E=table[:, 1], V=table[:, 2],
                      Vtilde=table[:, 3], V_terms=table[:, 4:10].T,
                      theta_mass=table[:, 10], blowup_time=blowup_time)
