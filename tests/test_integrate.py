"""IMEX stepping per Fourier mode, its coefficients, and the matrix-exponential oracle.

The real-space stepper it replaced (one sparse LU of the (v, theta) block)
lives in oracles.py; the tests here hold the modal stepper to it and to
dense references."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import oracles
from thermodelay.constants import f_weight, lyapunov_constants
from thermodelay.delay import HistoryBuffer, init_history
from thermodelay.discretization import (Grid, State, _vtheta_blocks,
                                        assemble_generator, build_operators,
                                        grad_u, modal_state, pack, strain,
                                        unpack)
from thermodelay.integrate import (NumericalBlowupError, expm_oracle,
                                   factor_implicit, simulate, step_imex)
from thermodelay.observables import (decay_rate_fit, energy,
                                     lyapunov_components, theta_mass)
from thermodelay.params import PhysParams

from oracles import modal_start, random_state, real_space_state

P = PhysParams(alpha=1.0, beta=2.0, gamma=1.0, kappa=1.0, tau=1.0, ell=1.0)


def _step_map(fac, v, theta):
    """(v, theta) after one step from (0, v, 0, theta) in modal coordinates:
    (I - w dt M)^-1 (I + (1 - w) dt M) (v, theta), with no delayed stress."""
    g = fac.grid
    buf = HistoryBuffer(np.zeros((g.nflux, g.Nrho + 1)))
    s = State(u=np.zeros(g.Nx), v=v, z=buf.as_field(), theta=theta, modal=True)
    s = step_imex(s, fac, buf)
    return np.r_[s.v, s.theta]


def _real_space_step_map(fac, x):
    """_step_map of a real-space (v, theta), through the modal transforms."""
    Nx = fac.grid.Nx
    zeros = dict(u=np.zeros(Nx), z=np.zeros((Nx + 1, 1)))
    xm = modal_state(State(v=x[:Nx], theta=x[Nx:], **zeros))
    y = _step_map(fac, xm.v, xm.theta)
    y = real_space_state(State(v=y[:Nx], theta=y[Nx:], modal=True, **zeros))
    return np.r_[y.v, y.theta]


def _modal_block(grid, p):
    """The (v, theta) block of the generator in Fourier-mode coordinates,
    dense, from the oracle's modal_operators (Dirichlet corner included)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return sp.bmat(_vtheta_blocks(oracles.modal_operators(grid, p), p)).toarray()


def test_factor_identity_when_unstiff():
    p = PhysParams(alpha=1.0, beta=0.0, gamma=0.0, kappa=1e-300)
    g = Grid(Nx=6, Nrho=4)
    fac = factor_implicit(g, p)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(g.Nx + g.ntheta)
    # kappa ~ 0, beta = gamma = 0: the block is the identity up to kappa*dt
    eye = np.eye(2)[:, :, None]
    assert np.allclose(fac.inverse, eye, atol=1e-12, rtol=0.0)
    assert np.allclose(fac.explicit, eye, atol=1e-12, rtol=0.0)
    assert np.allclose(_step_map(fac, x[:g.Nx], x[g.Nx:]), x, atol=1e-12)


def test_factor_solve_residual():
    # at theta_weight = 1/2 the implicit block is 2 I - explicit, so the
    # step map S obeys (2 I - E) S x = E x
    g = Grid(Nx=8, Nrho=4)
    fac = factor_implicit(g, P)
    rng = np.random.default_rng(1)
    n = g.Nx + g.ntheta
    E = np.eye(n) + 0.5 * fac.dt * _modal_block(g, P)
    for _ in range(10):
        x = rng.standard_normal(n)
        y = _step_map(fac, x[:g.Nx], x[g.Nx:])
        rhs = E @ x
        assert np.linalg.norm((2.0 * np.eye(n) - E) @ y - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_factor_determinism():
    g = Grid(Nx=8, Nrho=4)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(g.Nx + g.ntheta)
    x1 = _step_map(factor_implicit(g, P), x[:g.Nx], x[g.Nx:])
    x2 = _step_map(factor_implicit(g, P), x[:g.Nx], x[g.Nx:])
    assert np.array_equal(x1, x2)


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("beta, gamma, kappa", [
    (2.0, 1.0, 1.0), (4.6, 0.3, 7.0), (0.0, 0.0, 1e-300), (0.0, 1.3, 0.0),
    (5.0, 0.0, 2.0),
])
def test_factor_matrices_match_per_block_formula(theta_bc, beta, gamma, kappa):
    # the per-mode coefficients are the 2 x 2 blocks of I + (1 - w) dt M and
    # of (I - w dt M)^-1 without the Dirichlet corner, for M the (v, theta)
    # block beta D G, -gamma D, -gamma G, kappa L_theta of the oracle's
    # modal_operators; the step solves like a dense LU of the whole block,
    # corner included
    p = PhysParams(alpha=1.0, beta=beta, gamma=gamma, kappa=kappa, tau=1.0,
                   theta_bc=theta_bc)
    rng = np.random.default_rng(5)
    for g in (Grid(Nx=3, Nrho=2), Grid(Nx=17, Nrho=8)):
        Nx = g.Nx
        M = _modal_block(g, p)
        n = M.shape[0]
        v, th = np.arange(Nx), Nx + np.arange(1, Nx + 1)   # mode k = 1..Nx
        M_N = _modal_block(g, replace(p, theta_bc="neumann"))
        dt = p.tau / g.Nrho
        for w in (0.5, 1.0):
            fac = factor_implicit(g, p, theta_weight=w)
            assert fac.dt == dt
            assert fac.explicit.shape == fac.inverse.shape == (2, 2, Nx)
            E = np.eye(n) + (1.0 - w) * dt * M_N
            A = np.eye(n) - w * dt * M_N
            inv = np.array([np.linalg.inv(A[np.ix_([i, j], [i, j])])
                            for i, j in zip(v, th)])
            for r, rows in enumerate((v, th)):
                for c, cols in enumerate((v, th)):
                    np.testing.assert_allclose(fac.explicit[r, c], E[rows, cols],
                                               rtol=4e-16, atol=0.0)
                    np.testing.assert_allclose(fac.inverse[r, c], inv[:, r, c],
                                               rtol=1e-15, atol=1e-300)
            x = rng.standard_normal(n)
            ref = sla.lu_solve(sla.lu_factor(np.eye(n) - w * dt * M),
                               (np.eye(n) + (1.0 - w) * dt * M) @ x)
            got = _step_map(fac, x[:Nx], x[Nx:])
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_factor_validation():
    with pytest.raises(ValueError):
        factor_implicit(Grid(Nx=6, Nrho=4), P, theta_weight=0.25)


def test_factor_fill_is_linear_past_the_old_dense_limit():
    # the factor holds O(Nx) coefficients at any size, here up to Nx = 4096
    # (the dense factor stopped at 2048), and the step solves the real-space
    # block to a normwise backward error of 1e-15, as its sparse LU did
    rng = np.random.default_rng(6)
    for theta_bc in ("neumann", "dirichlet"):
        p = replace(P, theta_bc=theta_bc)
        for Nx in (1024, 4096):
            g = Grid(Nx=Nx, Nrho=2)
            fac = factor_implicit(g, p)
            held = [fac.explicit, fac.inverse, fac.force, fac.g]
            held += [] if fac.corner is None else list(fac.corner[:2])
            assert sum(a.size for a in held) <= 18 * (Nx + 1)
            ref = oracles.factor_implicit(g, p)
            n = Nx + Nx + 1
            x = rng.standard_normal(n)
            y = _real_space_step_map(fac, x)
            rhs = ref.explicit_mat @ x
            # normwise backward error: the entries grow like dt beta / dx^2
            scale = (sp.linalg.norm(ref.implicit) * np.linalg.norm(y)
                     + np.linalg.norm(rhs))
            assert np.linalg.norm(ref.implicit @ y - rhs) <= 1e-15 * scale


@pytest.mark.parametrize("override, match", [
    ({"kappa": 1e308}, "non-finite implicit"),    # kappa dt g^2 overflows
    ({"beta": 1e308}, "non-finite implicit"),     # beta dt g^2 overflows
])
def test_factor_failure_is_numerical_blowup(override, match):
    with pytest.raises(NumericalBlowupError, match=match):
        factor_implicit(Grid(Nx=8, Nrho=8), replace(P, **override))


def test_factor_keeps_the_theta_mean_where_real_space_loses_it():
    # at kappa = 1e300 the real-space block 1 + kappa dt L_theta loses the 1
    # of the constant mode and SuperLU finds it exactly singular; per mode
    # that 1 is kept, so the step is finite and the theta mean exact
    g, p = Grid(Nx=8, Nrho=8), replace(P, kappa=1e300)
    with pytest.raises(NumericalBlowupError, match="exactly singular"):
        oracles.factor_implicit(g, p)
    s, buf = modal_start(random_state(g, p, np.random.default_rng(8)))
    s.theta[0] = 0.25
    fac = factor_implicit(g, p)
    for _ in range(2 * g.Nrho):
        s = step_imex(s, fac, buf)
    assert np.isfinite(pack(s)).all() and s.theta[0] == 0.25


def _generator_slice(grid, p):
    """The former path to the implicit block: the (v, theta) rows and
    columns sliced from the assembled real-space generator."""
    vt = np.r_[grid.Nx:2 * grid.Nx, grid.dim - grid.ntheta:grid.dim]
    return assemble_generator(grid, p).matrix[vt][:, vt]


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("beta, gamma, kappa", [
    (4.5, 1.0, 1.0), (0.0, 0.0, 1e-300), (0.0, 1.3, 0.0), (5.0, 0.0, 2.0),
    (2.0, 1.0, 1e300),
])
def test_factored_block_is_the_generator_slice(theta_bc, beta, gamma, kappa):
    # the block built from the operators is stored exactly like the slice
    # of the generator (same data, indices and indptr); the modal step is
    # the theta-method of that slice in real space, to a normwise backward
    # error of 1e-14 in the max-norm (at kappa = 1e300 the 2-norm overflows)
    p = PhysParams(alpha=1.0, beta=beta, gamma=gamma, kappa=kappa, tau=1.0,
                   theta_bc=theta_bc)
    rng = np.random.default_rng(9)
    for g in (Grid(Nx=8, Nrho=4), Grid(Nx=33, Nrho=7), Grid(Nx=256, Nrho=16)):
        with np.errstate(over="ignore", invalid="ignore"):
            want = _generator_slice(g, p)
            got = sp.bmat(_vtheta_blocks(build_operators(g, p), p), format="csr")
            got.eliminate_zeros()
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (g, name)
        n, dt = want.shape[0], p.tau / g.Nrho
        eye = sp.identity(n, format="csr")
        implicit, explicit = eye - 0.5 * dt * want, eye + 0.5 * dt * want
        x = rng.standard_normal(n)
        y = _real_space_step_map(factor_implicit(g, p), x)
        rhs = explicit @ x
        scale = (abs(implicit).sum(axis=1).max() * np.abs(y).max()
                 + np.abs(rhs).max())
        assert np.abs(implicit @ y - rhs).max() <= 1e-14 * scale, g


class _DenseFactor:
    """The dense stepper: lu_factor of the generator's (v, theta) slice, for reference."""

    def __init__(self, grid, p, theta_weight):
        M = _generator_slice(grid, p).toarray()
        n = M.shape[0]
        dt = p.tau / grid.Nrho
        self.grid, self.p, self.theta_weight, self.dt = grid, p, theta_weight, dt
        self.lu = sla.lu_factor(np.eye(n) - theta_weight * dt * M)
        self.explicit_mat = np.eye(n) + (1.0 - theta_weight) * dt * M
        self.D = (-build_operators(grid, p).G.T).toarray(order="C")

    def solve(self, rhs):
        return sla.lu_solve(self.lu, rhs)


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("Nx, Nrho", [(17, 8), (64, 16)])
def test_sparse_step_matches_dense_lu_reference(theta_bc, Nx, Nrho):
    # 3 Nrho steps (backward Euler first, then Crank-Nicolson, as simulate
    # does) of the modal stepper agree with the real-space dense-LU stepper
    # to 1e-12 of the initial state
    p = PhysParams(alpha=1.0, beta=4.5, gamma=1.0, kappa=1.0, tau=1.0,
                   theta_bc=theta_bc)
    g = Grid(Nx=Nx, Nrho=Nrho)
    s0 = random_state(g, p, np.random.default_rng(7))
    fac_be, fac = factor_implicit(g, p, 1.0), factor_implicit(g, p, 0.5)
    s, buf = modal_start(s0)
    for n in range(3 * Nrho):
        s = step_imex(s, fac_be if n == 0 else fac, buf)
    modal = pack(real_space_state(s))
    fac_be, fac = _DenseFactor(g, p, 1.0), _DenseFactor(g, p, 0.5)
    buf = HistoryBuffer(s0.z.copy())
    s = unpack(pack(s0), g)
    for n in range(3 * Nrho):
        s = oracles.step_imex(s, fac_be if n == 0 else fac, buf)
    scale = np.linalg.norm(pack(s0))
    assert np.linalg.norm(modal - pack(s)) <= 1e-12 * scale
    assert not np.array_equal(pack(s), pack(s0))


def test_zero_state_is_equilibrium():
    g = Grid(Nx=6, Nrho=6)
    fac = factor_implicit(g, P)
    s, buf = modal_start(State.zeros(g))
    for _ in range(3 * g.Nrho):
        s = step_imex(s, fac, buf)
    assert np.max(np.abs(pack(s))) == 0.0


def test_gamma_zero_decouples_theta_pure_heat():
    p = PhysParams(alpha=1.0, beta=1.0, gamma=0.0, kappa=1.0, tau=1.0)
    g = Grid(Nx=10, Nrho=5)
    fac = factor_implicit(g, p)
    s = State.zeros(g)
    s.theta = np.cos(math.pi * g.x_flux)
    mass0 = np.sum(s.theta) * g.dx
    norm0 = np.dot(s.theta, s.theta)
    s, buf = modal_start(s)
    for _ in range(20):
        s = step_imex(s, fac, buf)
    assert np.max(np.abs(s.u)) == 0.0 and np.max(np.abs(s.v)) == 0.0
    assert abs(np.sum(real_space_state(s).theta) * g.dx - mass0) <= 1e-13
    assert np.dot(s.theta, s.theta) < norm0   # heat dissipates


def test_expm_oracle_identity_and_semigroup():
    g = Grid(Nx=4, Nrho=3)
    gen = assemble_generator(g, P)
    rng = np.random.default_rng(3)
    s = random_state(g, P, rng)
    s0 = expm_oracle(gen, s, 0.0)
    assert np.allclose(pack(s0), pack(s), atol=1e-14)
    one = pack(expm_oracle(gen, s, 0.7))
    two = pack(expm_oracle(gen, expm_oracle(gen, s, 0.3), 0.4))
    assert np.linalg.norm(one - two) <= 1e-10 * np.linalg.norm(one)


def test_expm_vs_eigendecomposition_oracle():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((40, 40))
    w, V = np.linalg.eig(A)
    t = 0.5
    via_eig = (V @ np.diag(np.exp(t * w)) @ np.linalg.inv(V)).real
    assert np.linalg.norm(sla.expm(t * A) - via_eig) <= 1e-9 * np.linalg.norm(via_eig)


def test_imex_matches_expm_and_converges():
    # matched refinement: dt = tau/N with the generator built on Nrho = N,
    # so the ring delay is exact at every level
    p = PhysParams(alpha=0.1, beta=2.0, gamma=0.1, kappa=1.0, tau=1.0)
    errs = []
    for N in (4, 8, 16):
        g = Grid(Nx=4, Nrho=N)
        gen = assemble_generator(g, p)
        u0 = np.sin(math.pi * g.x_nodes)
        ux0 = grad_u(u0, g.dx)
        buf = init_history(lambda x, s, ux0=ux0, g=g: np.interp(x, g.x_flux, ux0),
                           g, p.tau, u0=u0)
        s = State(u=u0.copy(), v=np.zeros(g.Nx), z=buf.as_field(), theta=np.zeros(g.ntheta))
        ref = pack(expm_oracle(gen, s, 1.0))
        fac_be = factor_implicit(g, p, theta_weight=1.0)
        fac = factor_implicit(g, p)
        s, buf = modal_start(s)
        for n in range(N):
            s = step_imex(s, fac_be if n == 0 else fac, buf)
        errs.append(np.linalg.norm(pack(real_space_state(s)) - ref) / np.linalg.norm(ref))
    assert errs[0] < 1e-2
    assert errs[0] > errs[1] > errs[2]


def test_simulate_determinism_and_recording():
    g = Grid(Nx=8, Nrho=8)
    c = lyapunov_constants(P, 0.5)
    u0 = np.sin(math.pi * g.x_nodes)
    ux0 = grad_u(u0, g.dx)

    def f0(x, s):
        return np.interp(x, g.x_flux, ux0)

    kw = dict(u0=u0, u1=np.zeros(g.Nx), theta0=np.cos(math.pi * g.x_flux),
              f0=f0, t_end=2.0, record_every=2)
    t1 = simulate(g, P, c, **kw)
    t2 = simulate(g, P, c, **kw)
    assert np.array_equal(t1.E, t2.E)
    assert np.array_equal(t1.V, t2.V)
    assert t1.times[0] == 0.0 and t1.times[-1] == pytest.approx(2.0)
    assert np.all(t1.E >= 0.0)
    assert t1.V_terms.shape == (6, len(t1.times))


def test_simulate_zero_data_stays_zero():
    g = Grid(Nx=6, Nrho=4)
    c = lyapunov_constants(P, 0.5)
    traj = simulate(g, P, c, np.zeros(g.Nx), np.zeros(g.Nx),
                    np.zeros(g.ntheta), lambda x, s: np.zeros_like(x), t_end=1.0)
    assert np.max(np.abs(traj.E)) == 0.0


def test_simulate_rejects_t_end_off_the_step_grid():
    g = Grid(Nx=6, Nrho=8)                     # dt = 1/8
    c = lyapunov_constants(P, 0.5)
    data = (np.zeros(g.Nx), np.zeros(g.Nx), np.zeros(g.ntheta),
            lambda x, s: np.zeros_like(x))
    with pytest.raises(ValueError, match="not a multiple of the step"):
        simulate(g, P, c, *data, t_end=0.3)
    assert simulate(g, P, c, *data, t_end=0.375).times[-1] == 0.375
    # rounding noise in t_end / dt (here 10.000000000000002) is not an error
    p = replace(P, tau=0.3)
    traj = simulate(Grid(Nx=6, Nrho=3), p, c, *data, t_end=1.0)
    assert len(traj.times) == 11 and traj.times[-1] == pytest.approx(1.0)


def test_blowup_truncates_or_raises():
    # beta = 0 with a large alpha delayed stress blows up quickly
    p = PhysParams(alpha=50.0, beta=0.0, gamma=1.0, kappa=1.0, tau=1.0)
    g = Grid(Nx=12, Nrho=8)
    c = lyapunov_constants(P, 0.5)   # weights only; run uses p
    u0 = np.sin(math.pi * g.x_nodes)
    ux0 = grad_u(u0, g.dx)

    def f0(x, s):
        return np.interp(x, g.x_flux, ux0)

    kw = dict(u0=u0, u1=np.zeros(g.Nx), theta0=np.zeros(g.ntheta), f0=f0,
              t_end=2000.0)
    traj = simulate(g, p, c, **kw)
    assert traj.blowup_time is not None
    assert traj.times[-1] <= traj.blowup_time
    # the step raises on a non-finite displacement, before the history moves
    buf = init_history(f0, g, p.tau, u0=u0)
    z = buf.as_field().copy()
    state = State(u=np.full(g.Nx, np.inf), v=np.zeros(g.Nx), z=z,
                  theta=np.zeros(g.ntheta), modal=True)
    fac = factor_implicit(g, p)
    with pytest.raises(NumericalBlowupError, match="non-finite displacement"):
        step_imex(state, fac, buf)
    assert np.array_equal(buf.as_field(), z)


def test_step_refuses_a_real_space_state():
    g = Grid(Nx=6, Nrho=4)
    buf = HistoryBuffer(np.zeros((g.nflux, g.Nrho + 1)))
    with pytest.raises(ValueError, match="modal state"):
        step_imex(State.zeros(g), factor_implicit(g, P), buf)
    with pytest.raises(ValueError, match="modal already"):
        modal_state(modal_state(State.zeros(g)))


class _ShiftedCopy:
    """The former delay store: every push builds a shifted copy of z."""

    def __init__(self, z):
        self.z = z

    def push(self, ux):
        self.z = np.column_stack([ux, self.z[:, :-1]])

    def tail(self):
        return self.z[:, -1]

    def as_field(self):
        return self.z


def _trapezoid(y, x):
    # np.trapezoid's own formula, spelled out so the oracle needs no numpy 2
    return float(np.add.reduce(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def _former_record(s, g, p, c):
    """t-free record row from the former energy and Lyapunov formulas, on
    the modal state: its strain is g_k u_k, its mass in the constant mode."""
    dx, rho = g.dx, g.rho_nodes
    ux = strain(s, g)
    E = float(0.5 * (np.dot(s.v, s.v) + p.alpha * np.dot(ux, ux)
                     + np.dot(s.theta, s.theta)) * dx
              + c.xi * np.sum(s.z**2) * dx * g.drho)
    V1 = 0.5 * np.dot(s.v, s.v) * dx
    V2 = 0.5 * np.dot(ux, ux) * dx
    V3 = 0.5 * np.dot(s.theta, s.theta) * dx
    znorm2 = np.sum(s.z**2, axis=0) * dx
    V4 = _trapezoid(np.exp(-2.0 * c.lam * rho) * znorm2, rho)
    w5 = np.exp(-c.lam * rho) * f_weight(rho, c.lam)
    V5 = -_trapezoid(w5 * (s.z.T @ ux * dx), rho)
    V6 = float(np.dot(s.u, s.v) * dx)
    Vt = c.N1 * V1 + p.alpha * c.N2 * V2 + c.N3 * V3 + c.N4 * V4
    V = Vt + c.N5 * V5 + c.N6 * V6
    return [E, V, Vt, V1, V2, V3, V4, V5, V6,
            float(math.sqrt(g.nflux) * s.theta[0] * dx)]


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
def test_simulate_matches_the_former_recording_path(theta_bc, record_every):
    # 48 steps at Nrho = 8 cross the 9-push chunk of the strain store five
    # times.  The steps are the same, so t, V1-V3, V6 and theta_mass are
    # bit-equal; E, V, Vtilde, V4 and V5 reorder their rho-sums
    p = replace(P, beta=4.5, theta_bc=theta_bc)
    g = Grid(Nx=16, Nrho=8)
    c = lyapunov_constants(p, 0.5)
    dt = p.tau / g.Nrho
    u0 = np.sin(math.pi * g.x_nodes) + 0.3 * np.sin(3 * math.pi * g.x_nodes)
    u1 = 0.5 * np.sin(2 * math.pi * g.x_nodes)
    theta0 = 1.0 + np.cos(math.pi * g.x_flux)
    ux0 = grad_u(u0, g.dx)

    def f0(x, s):
        return np.interp(x, g.x_flux, ux0) * np.exp(s) + 0.1 * np.sin(5 * s) * x

    traj = simulate(g, p, c, u0, u1, theta0, f0, t_end=6.0,
                    record_every=record_every)

    fac_be = factor_implicit(g, p, theta_weight=1.0)
    fac = factor_implicit(g, p)
    z0 = init_history(f0, g, p.tau).as_field().copy()
    th = theta0 - theta0.mean() if theta_bc == "neumann" else theta0.copy()
    s = modal_state(State(u=u0.copy(), v=u1.copy(), z=z0, theta=th))
    buf = _ShiftedCopy(s.z)
    times, rows = [0.0], [_former_record(s, g, p, c)]
    nsteps = 48
    for n in range(nsteps):
        s = step_imex(s, fac_be if n == 0 else fac, buf)
        if (n + 1) % record_every == 0 or n + 1 == nsteps:
            times.append((n + 1) * dt)
            rows.append(_former_record(s, g, p, c))
    want = np.array(rows).T

    got = np.vstack([traj.E, traj.V, traj.Vtilde, traj.V_terms, traj.theta_mass])
    assert got.shape == want.shape == (10, 1 + -(-nsteps // record_every))
    assert np.asarray(traj.times).tobytes() == np.array(times).tobytes()
    exact = [3, 4, 5, 8, 9]                  # V1, V2, V3, V6, theta_mass
    assert got[exact].tobytes() == want[exact].tobytes()
    close = [0, 1, 2, 6, 7]                  # E, V, Vtilde, V4, V5
    assert np.all(np.abs(got[close] - want[close]) <= 1e-13 * np.abs(want[close]))


# the measured largest deviations of simulate from the real-space stepper
# are listed in CHANGES.md; the bounds below are the stated tolerance
@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("Nx, Nrho", [(16, 16), (32, 32), (256, 8)])
def test_simulate_matches_the_real_space_stepper(theta_bc, Nx, Nrho):
    # the former stepper (sparse LU of the real-space block, real-space
    # strains) run through simulate's loop: backward Euler first, then
    # Crank-Nicolson, every step recorded from the real-space state
    p = replace(P, beta=4.5, theta_bc=theta_bc)
    g = Grid(Nx=Nx, Nrho=Nrho)
    c = lyapunov_constants(p, 0.5)
    x = g.x_nodes
    u0 = np.sin(math.pi * x) + 0.3 * np.sin(3 * math.pi * x)
    u1 = 0.5 * np.sin(2 * math.pi * x)
    theta0 = 1.0 + np.cos(math.pi * g.x_flux)
    ux0 = grad_u(u0, g.dx)

    def f0(x, s):
        return np.interp(x, g.x_flux, ux0) * np.exp(s) + 0.1 * np.sin(5 * s) * x

    t_end = 8.0
    traj = simulate(g, p, c, u0, u1, theta0, f0, t_end=t_end)

    fac_be = oracles.factor_implicit(g, p, theta_weight=1.0)
    fac = oracles.factor_implicit(g, p)
    buf = init_history(f0, g, p.tau, u0=u0)
    th = theta0 - theta0.mean() if theta_bc == "neumann" else theta0.copy()
    s = State(u=u0.copy(), v=u1.copy(), z=buf.as_field(), theta=th)

    def row(s):
        comp = lyapunov_components(s, g, c, p)
        return ([energy(s, g, p, c.xi), comp["V"], comp["Vtilde"]]
                + [comp[f"V{i}"] for i in range(1, 7)] + [theta_mass(s, g)])

    dt = p.tau / g.Nrho
    nsteps = round(t_end / dt)
    times, rows = [0.0], [row(s)]
    for n in range(nsteps):
        s = oracles.step_imex(s, fac_be if n == 0 else fac, buf)
        times.append((n + 1) * dt)
        rows.append(row(s))
    want = np.array(rows).T
    got = np.vstack([traj.E, traj.V, traj.Vtilde, traj.V_terms, traj.theta_mass])
    assert np.asarray(traj.times).tobytes() == np.array(times).tobytes()

    rel = np.abs(got[:3] - want[:3]) / np.abs(want[:3])       # E, V, Vtilde
    assert rel.max() <= 1e-9, rel.max()
    others = got[3:] if theta_bc == "dirichlet" else got[3:-1]
    scale = np.abs(want[3:3 + len(others)]).max(axis=1, keepdims=True)
    dev = np.abs(others - want[3:3 + len(others)]) / scale     # V1-V6, Dirichlet mass
    assert dev.max() <= 1e-9, dev.max()
    mass_dev = 0.0
    if theta_bc == "neumann":
        # the mean is removed, so the mass is rounding noise in both: the
        # modal one never changes, the real-space one drifts by roundings.
        # Its scale is the largest mass a theta of the run's size can hold,
        # sqrt(ell) max ||theta|| = sqrt(2 ell max V3)
        assert np.all(traj.theta_mass == traj.theta_mass[0])
        mass_dev = np.abs(want[-1] - traj.theta_mass[0]).max() / math.sqrt(
            2.0 * g.ell * want[5].max())
        assert mass_dev <= 1e-9, mass_dev
    window = (0.5 * t_end, t_end)
    a0 = decay_rate_fit(traj, window)["a0"]
    a0_ref = decay_rate_fit(replace(traj, E=want[0]), window)["a0"]
    assert abs(a0 - a0_ref) <= 1e-9 * abs(a0_ref)
    print(f"{theta_bc} {Nx}x{Nrho}: E/V/Vtilde rel {rel.max():.2e}, "
          f"other columns {dev.max():.2e} of their largest, a0 rel "
          f"{abs(a0 - a0_ref) / abs(a0_ref):.2e}, Neumann mass {mass_dev:.2e}")
