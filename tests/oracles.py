"""Reference code of the test suite: a hand-coded right-hand side, the
weighted state-space inner product and its Gram matrix, random states, the
n1 row residual, the real-space stepper, the inverse of the modal
transform, and the Dirichlet operators in Fourier-mode coordinates with
the blocks of their reduced generator.

The package never calls these; they are independent oracles for the
assembled generator, the energies, the dissipativity supremum, the
Lyapunov constants, the modal stepper and the Dirichlet parity blocks.
The real-space stepper (ImplicitFactor, factor_implicit, step_imex) is the
package's former one: one sparse LU (SuperLU) of the (v, theta) block,
stepping real-space states and strain histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thermodelay.constants import LyapunovConstants
from thermodelay.delay import HistoryBuffer
from thermodelay import discretization
from thermodelay.discretization import (Generator, Operators, State,
                                        _fourier_symbols, _vtheta_blocks,
                                        build_operators, modal_state)
from thermodelay.grid import Grid, NumericalBlowupError, grad_u
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


def h_weight_matrix(gen: Generator, xi: float) -> sp.csr_matrix:
    """Gram matrix of the discrete state-space inner product in the packed
    coordinates of gen (real space or Fourier modes)."""
    grid, G = gen.grid, gen.ops.G
    dx = grid.dx
    return sp.block_diag([
        gen.p.alpha * dx * (G.T @ G),
        dx * sp.identity(grid.Nx),
        xi * dx * grid.drho * sp.identity(grid.nflux * (grid.Nrho + 1)),
        dx * sp.identity(grid.ntheta),
    ], format="csr")


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


def modal_operators(grid: Grid, p: PhysParams) -> Operators:
    """discretization.modal_operators for either theta_bc.  With Dirichlet
    theta, L_theta is the Neumann one minus the corner term (4/dx^2) c_j c_k
    on the cosine modes j = k (mod 2), c = C[0]; the Fourier transform of
    the real-space corner -(2/dx^2)(e_0 e_0^T + e_Nx e_Nx^T)."""
    ops = discretization.modal_operators(grid, replace(p, theta_bc="neumann"))
    if p.theta_bc == "neumann":
        return ops

    def matrices():
        nf, c = grid.nflux, _fourier_symbols(grid)[1]
        j = np.arange(nf)
        row, col = np.nonzero(np.add.outer(j, j) % 2 == 0)
        corner = sp.csr_matrix((4.0 / grid.dx**2 * c[row] * c[col], (row, col)),
                               shape=(nf, nf))
        return ops.G, ops.L_theta - corner

    return Operators(matrices, modal=True)


def parity_blocks(grid: Grid) -> list[np.ndarray]:
    """The blocks of the reduced Dirichlet generator of modal_operators, as
    ascending index sets: the odd cosine modes, the even ones with the theta
    mean, then the mode-0 transport chain.  Each mode k = 1..Nx has the
    reduced coordinates u, v, z at rho > 0 and theta (see
    spectral.restriction_maps); the chain has Nrho."""
    Nx, Nrho = grid.Nx, grid.Nrho

    def block(k, theta):      # the modes k with the theta coordinates theta
        z = 2 * Nx + k[:, None] * Nrho + np.arange(Nrho)
        return np.r_[k - 1, Nx + k - 1, z.ravel(), 2 * Nx + grid.nflux * Nrho + theta]

    odd, even = np.arange(1, Nx + 1, 2), np.arange(2, Nx + 1, 2)
    return [block(odd, odd), block(even, np.r_[0, even]), 2 * Nx + np.arange(Nrho)]


def modal_start(state: State) -> tuple[State, HistoryBuffer]:
    """A real-space state in Fourier-mode coordinates, with a strain store
    holding its modal z, as simulate starts its steps."""
    modal = modal_state(state)
    buf = HistoryBuffer(modal.z)
    return replace(modal, z=buf.as_field()), buf


def real_space_state(state: State) -> State:
    """The inverse of discretization.modal_state, by scipy.fft."""
    assert state.modal
    return State(u=scipy.fft.idst(state.u, type=1, norm="ortho"),
                 v=scipy.fft.idst(state.v, type=1, norm="ortho"),
                 z=scipy.fft.idct(state.z, type=2, norm="ortho", axis=0),
                 theta=scipy.fft.idct(state.theta, type=2, norm="ortho"))


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
