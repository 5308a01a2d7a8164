"""Reference code of the test suite: a hand-coded right-hand side, the
weighted state-space inner product, random states and the n1 row residual.

The package never calls these; they are independent oracles for the
assembled generator, the energies and the Lyapunov constants.
"""

from __future__ import annotations

import math

import numpy as np

from thermodelay.constants import LyapunovConstants
from thermodelay.discretization import State
from thermodelay.grid import Grid, grad_u
from thermodelay.params import PhysParams


def apply_rhs(state: State, grid: Grid, p: PhysParams) -> State:
    """Hand-coded right-hand side, independent of the assembled matrix.

    The test oracle for assemble_generator; the package never calls it.
    """
    dx, drho = grid.dx, grid.drho
    ux_rate = grad_u(state.v, dx)  # d/dt of u_x

    stress = p.alpha * state.z[:, -1] + p.beta * ux_rate
    theta_x = np.diff(state.theta) / dx
    dv = np.diff(stress) / dx - p.gamma * theta_x

    dz = np.empty_like(state.z)
    dz[:, 0] = ux_rate
    dz[:, 1:] = -(state.z[:, 1:] - state.z[:, :-1]) / (p.tau * drho)

    lo, hi = 0.0, 0.0
    if p.theta_bc == "dirichlet":
        lo, hi = 2.0 * state.theta[0] / dx, -2.0 * state.theta[-1] / dx
    full_flux = np.concatenate([[lo], theta_x, [hi]])
    dtheta = -p.gamma * ux_rate + p.kappa * np.diff(full_flux) / dx

    return State(u=state.v.copy(), v=dv, z=dz, theta=dtheta)


def inner_product_H(U1: State, U2: State, grid: Grid, p: PhysParams, xi: float) -> float:
    """Discrete analogue of the weighted state-space inner product.

    alpha (u1_x, u2_x) + (v1, v2) + (theta1, theta2) with weight dx, plus
    xi times the z double sum with weight dx * drho (uniform rho weights).
    """
    if U1.u.shape != U2.u.shape or U1.z.shape != U2.z.shape:
        raise ValueError("mismatched state shapes")
    dx, drho = grid.dx, grid.drho
    ux1 = grad_u(U1.u, dx)
    ux2 = grad_u(U2.u, dx)
    val = (
        p.alpha * np.dot(ux1, ux2) * dx
        + np.dot(U1.v, U2.v) * dx
        + np.dot(U1.theta, U2.theta) * dx
        + xi * np.sum(U1.z * U2.z) * dx * drho
    )
    return float(val)


def random_state(grid: Grid, p: PhysParams, rng: np.random.Generator,
                 domain: bool = True) -> State:
    """Random state; with domain=True it satisfies the discrete domain
    constraints (z(.,0) = u_x; zero theta mean in Neumann mode)."""
    s = State(
        u=rng.standard_normal(grid.Nx),
        v=rng.standard_normal(grid.Nx),
        z=rng.standard_normal((grid.nflux, grid.Nrho + 1)),
        theta=rng.standard_normal(grid.ntheta),
    )
    if domain:
        s.z[:, 0] = grad_u(s.u, grid.dx)
        if p.theta_bc == "neumann":
            s.theta -= s.theta.mean()
    return s


def n1_equality_residual(c: LyapunovConstants, p: PhysParams) -> float:
    """Residual of the balanced row -N4 e^{-2 lam}/tau + N1 alpha eps1/2 (zero by construction)."""
    return -c.N4 * math.exp(-2.0 * c.lam) / p.tau + 0.5 * c.N1 * p.alpha * c.eps1
