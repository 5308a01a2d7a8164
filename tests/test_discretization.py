"""Grids, operators, packed layout and the assembled generator.

The real-space stencils, packed layout and generator are the oracles of
oracles.py; the package's Fourier-mode ones are held to them."""

import math

import numpy as np
import pytest

import scipy.sparse as sp

from thermodelay.discretization import (Grid, State, _fourier_symbols,
                                        assemble_generator, build_operators,
                                        grad_u)
from thermodelay.integrate import factor_implicit
from thermodelay.params import PhysParams
from thermodelay.spectral import (dissipativity_test, spectral_abscissa,
                                  spectrum_dense)

import oracles
from oracles import (apply_rhs, inner_product_H, pack, random_state,
                     real_space_generator, real_space_operators, unpack)

P = PhysParams(alpha=1.0, beta=2.0, gamma=1.0, kappa=1.0, tau=1.0, ell=1.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(Nx=2, Nrho=4)
    with pytest.raises(ValueError):
        Grid(Nx=4, Nrho=1)
    with pytest.raises(ValueError):
        Grid(Nx=4, Nrho=4, ell=0.0)
    g = Grid(Nx=7, Nrho=5, ell=2.0)
    assert g.dx * (g.Nx + 1) == pytest.approx(g.ell, rel=1e-15)
    assert g.drho * g.Nrho == 1.0
    assert g.dim == 2 * 7 + 8 * 6 + 8


@pytest.mark.parametrize("build", [
    build_operators, oracles.modal_operators, assemble_generator,
    factor_implicit,
    spectral_abscissa, spectrum_dense, oracles.reduced_eigvals,
    lambda g, p: dissipativity_test(g, p, xi=1.0),
])
@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
def test_grid_length_must_be_the_models(build, theta_bc):
    # the grid's ell sets dx, the model's sets the Poincare constant and the
    # initial data: a mismatch is refused, not solved on the grid's length
    p = PhysParams(beta=4.5, ell=2.0, theta_bc=theta_bc)
    with pytest.raises(ValueError, match=r"grid length ell = 1\.0 .* ell = 2\.0"):
        build(Grid(Nx=8, Nrho=8), p)
    if build is assemble_generator and theta_bc == "dirichlet":
        # checked after the length: without ops, the Fourier-mode operators
        # are Neumann's
        with pytest.raises(ValueError, match="takes Neumann theta"):
            build(Grid(Nx=8, Nrho=8, ell=2.0), p)
    else:
        build(Grid(Nx=8, Nrho=8, ell=2.0), p)


def test_dirichlet_laplacian_sine_eigenvector():
    g = Grid(Nx=63, Nrho=2)
    ops = real_space_operators(g, P)
    w = np.sin(math.pi * g.x_nodes / g.ell)
    lam_num = (-(ops.G.T @ ops.G) @ w) / w
    assert np.allclose(lam_num, lam_num[0])
    assert lam_num[0] == pytest.approx(-(math.pi / g.ell) ** 2, rel=(g.dx) ** 2)


def test_neumann_laplacian_constant_null():
    g = Grid(Nx=16, Nrho=2)
    ops = real_space_operators(g, P)
    c = np.ones(g.ntheta)
    assert np.max(np.abs(ops.L_theta @ c)) == 0.0


def _stencil(n, diag, off):
    """Symmetric tridiagonal reference with the given entries, dense."""
    return (np.diag(np.full(n, diag)) + np.diag(np.full(n - 1, off), 1)
            + np.diag(np.full(n - 1, off), -1))


def test_div_grad_equals_dirichlet_laplacian_exactly():
    # bitwise against the values a per-entry stencil assembly produces
    for Nx in (8, 32, 48, 64):
        g = Grid(Nx=Nx, Nrho=2)
        d = 1.0 / g.dx
        ops = real_space_operators(g, P)
        want_G = np.zeros((Nx + 1, Nx))
        want_G[np.arange(Nx), np.arange(Nx)] = d
        want_G[np.arange(1, Nx + 1), np.arange(Nx)] = -d
        assert np.array_equal(ops.G.toarray(), want_G), Nx
        div_grad = (-ops.G.T @ ops.G).toarray()
        assert np.array_equal(div_grad, _stencil(Nx, -d * d - d * d, d * d)), Nx


def test_theta_laplacian_stencil_bitwise():
    for Nx in (8, 32, 48, 64):
        for bc in ("neumann", "dirichlet"):
            g = Grid(Nx=Nx, Nrho=2)
            dx = g.dx
            p = PhysParams(beta=2.0, theta_bc=bc)
            L = real_space_operators(g, p).L_theta.toarray()
            want = _stencil(Nx + 1, -1.0 / dx**2 - 1.0 / dx**2, 1.0 / dx**2)
            want[0, 0] = want[-1, -1] = -1.0 / dx**2
            if bc == "dirichlet":
                want[0, 0] = want[-1, -1] = -1.0 / dx**2 - 2.0 / dx**2
            assert np.array_equal(L, want), (Nx, bc)


def test_summation_by_parts_exact():
    # <div q, w> dx = -<q, grad w> dx by telescoping (Dirichlet w)
    g = Grid(Nx=12, Nrho=2)
    ops = real_space_operators(g, P)
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.standard_normal(g.Nx)
        q = rng.standard_normal(g.nflux)
        lhs = np.dot(-ops.G.T @ q, w)
        rhs = -np.dot(q, ops.G @ w)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_theta_row_sums_vanish_neumann():
    g = Grid(Nx=8, Nrho=4)
    gen = real_space_generator(g, P)
    tstart = 2 * g.Nx + g.nflux * (g.Nrho + 1)
    rows = gen.matrix[tstart:, :].toarray()
    colsums = rows.sum(axis=0)   # theta-mass rate for unit basis vectors
    assert np.max(np.abs(colsums)) <= 1e-12


def test_pack_unpack_roundtrip_and_locality():
    g = Grid(Nx=5, Nrho=3)
    rng = np.random.default_rng(1)
    s = random_state(g, P, rng, domain=False)
    s2 = unpack(pack(s), g)
    for name in ("u", "v", "z", "theta"):
        assert np.array_equal(getattr(s, name), getattr(s2, name))
    vec = pack(s)
    s.u[2] += 1.0
    assert np.sum(pack(s) != vec) == 1
    with pytest.raises(ValueError):
        unpack(np.zeros(g.dim + 1), g)


def test_generator_zero_and_linearity():
    g = Grid(Nx=6, Nrho=4)
    gen = real_space_generator(g, P)
    assert np.max(np.abs(gen.matrix @ np.zeros(g.dim))) == 0.0
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((2, g.dim))
    lhs = gen.matrix @ (2.0 * x - 3.0 * y)
    rhs = 2.0 * (gen.matrix @ x) - 3.0 * (gen.matrix @ y)
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_generator_matches_hand_coded_rhs(bc):
    p = PhysParams(alpha=1.3, beta=0.7, gamma=0.9, kappa=1.1, tau=0.8,
                   ell=1.5, theta_bc=bc)
    g = Grid(Nx=9, Nrho=6, ell=p.ell)
    gen = real_space_generator(g, p)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        s = random_state(g, p, rng, domain=False)
        got = unpack(gen.matrix @ pack(s), g)
        want = apply_rhs(s, g, p)
        for name in ("u", "v", "z", "theta"):
            a, b = getattr(got, name), getattr(want, name)
            scale = max(1.0, np.max(np.abs(b)))
            worst = max(worst, np.max(np.abs(a - b)) / scale)
    assert worst <= 1e-13


def _fourier_basis(g):
    """Orthogonal T = diag(S, S, C (x) I, C): DST-I on u, v, DCT-II on z, theta."""
    k = np.arange(1, g.Nx + 1)
    S = math.sqrt(2.0 / (g.Nx + 1)) * np.sin(np.outer(k, k) * math.pi / (g.Nx + 1))
    j = np.arange(g.nflux)
    C = math.sqrt(2.0 / g.nflux) * np.cos(np.outer(j + 0.5, j) * math.pi / g.nflux)
    C[:, 0] /= math.sqrt(2.0)
    return sp.block_diag([S, S, sp.kron(C, sp.identity(g.Nrho + 1)), C]).toarray()


@pytest.mark.parametrize("Nx,Nrho", [(16, 8), (17, 5)])
def test_modal_generator_is_fourier_transform_of_real_space(Nx, Nrho):
    # the package's Neumann operators and the oracle's Dirichlet ones
    g = Grid(Nx=Nx, Nrho=Nrho)
    T = _fourier_basis(g)
    assert np.allclose(T.T @ T, np.eye(g.dim), atol=1e-13)
    pd = PhysParams(**{**P.__dict__, "theta_bc": "dirichlet"})
    for p in (P, pd):
        ops = oracles.modal_operators(g, p)
        modal = assemble_generator(g, p, ops).matrix.toarray()
        TAT = T.T @ real_space_generator(g, p).matrix.toarray() @ T
        assert np.max(np.abs(modal - TAT)) <= 1e-13 * np.max(np.abs(TAT))
    # Dirichlet theta: the corner terms couple the cosine modes of one
    # parity, O(10^2) entries where the Neumann modal generator has none,
    # and store no entry between modes of opposite parity
    L = ops.L_theta.tocoo()
    assert L.nnz == (g.nflux**2 + 1) // 2
    assert np.all((L.row + L.col) % 2 == 0)
    neumann = assemble_generator(g, P, build_operators(g, P)).matrix.toarray()
    assert np.max(np.abs(modal[neumann == 0.0])) > 50.0


@pytest.mark.parametrize("Nx,Nrho", [(8, 8), (17, 5)])
def test_build_operators_is_one_for_either_theta_bc(Nx, Nrho):
    # the same Fourier-mode operators, bit for bit, for Neumann and
    # Dirichlet theta (whose corner its users add): G maps sine mode k to
    # cosine mode k times g_k, and L_theta = -diag(g)^2 with the symbols g
    # that factor_implicit reads
    g = Grid(Nx=Nx, Nrho=Nrho)
    neumann, dirichlet = (build_operators(g, PhysParams(**{**P.__dict__, "theta_bc": bc}))
                          for bc in ("neumann", "dirichlet"))
    for name in ("G", "L_theta"):
        a, b = getattr(neumann, name), getattr(dirichlet, name)
        for part in ("data", "indices", "indptr"):
            assert getattr(a, part).tobytes() == getattr(b, part).tobytes(), name
    sym = _fourier_symbols(g)[0]
    assert neumann.g is dirichlet.g is sym
    want_G = np.zeros((g.nflux, Nx))
    want_G[np.arange(1, Nx + 1), np.arange(Nx)] = sym[1:]
    assert np.array_equal(neumann.G.toarray(), want_G)
    assert np.array_equal(neumann.L_theta.toarray(), np.diag(-sym**2))


def test_v_row_reduces_to_delayed_stress_when_decoupled():
    # beta = kappa-only, gamma = 0: dv = alpha * div z(., 1)
    p = PhysParams(alpha=2.0, beta=0.0, gamma=0.0, kappa=1.0, tau=1.0)
    g = Grid(Nx=8, Nrho=4)
    ops = real_space_operators(g, p)
    rng = np.random.default_rng(4)
    s = random_state(g, p, rng, domain=False)
    ds = apply_rhs(s, g, p)
    assert np.allclose(ds.v, p.alpha * (-ops.G.T @ s.z[:, -1]), atol=1e-13)


def test_inner_product_definite_symmetric_blocks():
    g = Grid(Nx=6, Nrho=4)
    rng = np.random.default_rng(5)
    a = random_state(g, P, rng, domain=False)
    b = random_state(g, P, rng, domain=False)
    xi = 1.7
    assert inner_product_H(a, b, g, P, xi) == pytest.approx(
        inner_product_H(b, a, g, P, xi), rel=1e-14)
    assert inner_product_H(a, a, g, P, xi) > 0.0
    zero = State.zeros(g)
    assert inner_product_H(zero, zero, g, P, xi) == 0.0
    # z-only state: result is xi * discrete double sum of z^2
    zo = State.zeros(g)
    zo.z = rng.standard_normal(zo.z.shape)
    want = xi * np.sum(zo.z**2) * g.dx * g.drho
    assert inner_product_H(zo, zo, g, P, xi) == pytest.approx(want, rel=1e-14)


def test_grad_u_boundary_handling():
    g = Grid(Nx=4, Nrho=2)
    u = np.array([1.0, 2.0, 2.0, -1.0])
    ux = grad_u(u, g.dx)
    assert ux.shape == (5,)
    assert ux[0] == pytest.approx(u[0] / g.dx)
    assert ux[-1] == pytest.approx(-u[-1] / g.dx)


def test_grad_u_bitwise_equals_the_padded_diff():
    # signed zeros at either end: 0.0 - u[-1] keeps +0.0 where -u[-1] would not
    vals = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0, 1e308, 5e-324]
    rng = np.random.default_rng(0)
    with np.errstate(invalid="ignore", over="ignore"):
        for n in (1, 2, 3, 6):
            for _ in range(200):
                u = rng.choice(vals, size=n)
                for dx in (0.25, 1.0 / 3.0):
                    want = np.diff(u, prepend=0.0, append=0.0) / dx
                    assert grad_u(u, dx).tobytes() == want.tobytes(), u
