"""Energy, Lyapunov terms, decay fits and runtime decay checks."""

import math

import numpy as np
import pytest

from thermodelay.constants import f_weight, find_beta0, lyapunov_constants
from thermodelay.discretization import Grid, State, assemble_generator, modal_state
from thermodelay.observables import (Trajectory, check_decay_inequality,
                                     decay_rate_fit, energy,
                                     lyapunov_components, theta_mass)
from thermodelay.params import PhysParams

from oracles import (h_weight_matrix, inner_product_H, modal_operators, pack,
                     random_state, restriction_maps)

P = PhysParams(alpha=1.0, beta=2.0, gamma=1.0, kappa=1.0, tau=1.0, ell=1.0)
G = Grid(Nx=10, Nrho=8)


def _consts(lam=0.5, p=P):
    return lyapunov_constants(p, lam)


def test_energy_zero_state():
    assert energy(State.zeros(G), G, P, xi=1.0) == 0.0


def test_energy_constant_theta():
    s = State.zeros(G)
    c = 0.7
    s.theta[:] = c
    assert energy(s, G, P, xi=1.0) == pytest.approx(0.5 * c**2 * P.ell, rel=1e-14)
    assert theta_mass(s, G) == pytest.approx(c * P.ell, rel=1e-14)


def test_energy_vs_inner_product_identity():
    # E = 1/2 <U,U>_H + (xi/2) * discrete double sum of z^2
    rng = np.random.default_rng(0)
    xi = 1.3
    for _ in range(20):
        s = random_state(G, P, rng, domain=False)
        zsq = np.sum(s.z**2) * G.dx * G.drho
        want = 0.5 * inner_product_H(s, s, G, P, xi) + 0.5 * xi * zsq
        assert energy(s, G, P, xi) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
def test_energy_is_half_the_gram_norm_plus_half_the_history(theta_bc):
    # E = 1/2 ||x||_W^2 + 1/2 xi dx drho sum_i ||z(., rho_i)||^2 on modal
    # states, W the Gram matrix whose reduction E^T W E is dissipativity_test's
    # pencil weight: energy weighs the history twice as heavily as 1/2 W does
    p = PhysParams(alpha=1.3, beta=4.5, gamma=1.0, kappa=1.0, tau=1.0, ell=1.0,
                   theta_bc=theta_bc)
    g, xi = Grid(Nx=6, Nrho=5), 0.7
    gen = assemble_generator(g, p, modal_operators(g, p))
    W = h_weight_matrix(gen, xi)
    embed, left = restriction_maps(gen)
    D = (embed.T @ W @ embed).toarray()
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = modal_state(random_state(g, p, rng))
        x = pack(s)
        y = left @ x
        assert embed @ y == pytest.approx(x, rel=0.0, abs=1e-13)    # constrained
        half_history = 0.5 * xi * g.dx * g.drho * np.sum(s.z**2)
        e = energy(s, g, p, xi)
        assert e - 0.5 * (x @ (W @ x)) == pytest.approx(half_history, rel=1e-13)
        assert e - 0.5 * (y @ (D @ y)) == pytest.approx(half_history, rel=1e-13)


def test_energy_requires_positive_xi():
    with pytest.raises(ValueError):
        energy(State.zeros(G), G, P, xi=0.0)


def test_lyapunov_zero_state_and_z_free_state():
    c = _consts()
    out = lyapunov_components(State.zeros(G), G, c, P)
    assert all(v == 0.0 for v in out.values())
    rng = np.random.default_rng(1)
    s = random_state(G, P, rng, domain=False)
    s.z[:] = 0.0
    out = lyapunov_components(s, G, c, P)
    assert out["V4"] == 0.0 and out["V5"] == 0.0


def test_lyapunov_independent_quadrature_oracle():
    # recompute every term with an explicitly coded trapezoid sum
    c = _consts()
    rng = np.random.default_rng(2)
    s = random_state(G, P, rng, domain=False)
    out = lyapunov_components(s, G, c, P)

    dx = G.dx
    rho = G.rho_nodes
    ux = np.diff(s.u, prepend=0.0, append=0.0) / dx
    w_tz = np.full(G.Nrho + 1, G.drho)
    w_tz[0] = w_tz[-1] = 0.5 * G.drho
    V4 = sum(w_tz[i] * math.exp(-2 * c.lam * rho[i]) * np.dot(s.z[:, i], s.z[:, i]) * dx
             for i in range(G.Nrho + 1))
    V5 = -sum(w_tz[i] * math.exp(-c.lam * rho[i]) * f_weight(rho[i], c.lam)
              * np.dot(s.z[:, i], ux) * dx for i in range(G.Nrho + 1))
    assert out["V4"] == pytest.approx(V4, rel=1e-12)
    assert out["V5"] == pytest.approx(V5, rel=1e-12)
    assert out["V1"] == pytest.approx(0.5 * np.dot(s.v, s.v) * dx, rel=1e-13)
    assert out["V6"] == pytest.approx(np.dot(s.u, s.v) * dx, rel=1e-13)
    want_Vt = out["V1"] + P.alpha * c.N2 * out["V2"] + out["V3"] + c.N4 * out["V4"]
    assert out["Vtilde"] == pytest.approx(want_Vt, rel=1e-13)
    assert out["V"] == pytest.approx(want_Vt + c.N5 * out["V5"] + c.N6 * out["V6"],
                                     rel=1e-12)


def test_rho_quadrature_converges_on_separable_field():
    # z = g(x) e^{rho}: V4 has a closed form; trapezoid error is O(drho^2)
    c = _consts()
    lam = c.lam
    errs = []
    for nr in (8, 16, 32):
        g = Grid(Nx=10, Nrho=nr)
        s = State.zeros(g)
        gx = np.sin(math.pi * g.x_flux)
        s.z = np.outer(gx, np.exp(g.rho_nodes))
        out = lyapunov_components(s, g, c, P)
        coef = np.dot(gx, gx) * g.dx
        exact = coef * (math.exp(2.0 - 2.0 * lam) - 1.0) / (2.0 - 2.0 * lam)
        errs.append(abs(out["V4"] - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_equivalence_band_positive_for_certified_params():
    # (A1): on random states, V/Vtilde is bounded between positive constants
    lam = 0.5
    b0 = find_beta0(PhysParams(), [lam])["beta0"]
    p = PhysParams(beta=1.05 * b0)
    c = lyapunov_constants(p, lam)
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(1000):
        s = random_state(G, p, rng)
        out = lyapunov_components(s, G, c, p)
        if out["Vtilde"] > 0:
            ratios.append(out["V"] / out["Vtilde"])
    assert min(ratios) > 0.0
    assert max(ratios) < 10.0


def test_decay_rate_fit_exact_exponential():
    t = np.linspace(0.0, 10.0, 201)
    traj = Trajectory(times=t, E=5.0 * np.exp(-0.3 * t), V=np.exp(-t),
                      Vtilde=np.exp(-t), V_terms=np.zeros((6, len(t))),
                      theta_mass=np.zeros(len(t)))
    fit = decay_rate_fit(traj, (0.0, 10.0))
    assert fit["a0"] == pytest.approx(0.3, abs=1e-10)
    assert fit["C"] == pytest.approx(5.0, rel=1e-10)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)


def test_decay_rate_fit_constant_energy():
    t = np.linspace(0.0, 5.0, 50)
    traj = Trajectory(times=t, E=np.full(len(t), 2.0), V=np.ones(len(t)),
                      Vtilde=np.ones(len(t)), V_terms=np.zeros((6, len(t))),
                      theta_mass=np.zeros(len(t)))
    assert decay_rate_fit(traj, (0.0, 5.0))["a0"] == pytest.approx(0.0, abs=1e-12)


def test_decay_rate_fit_degenerate_window():
    t = np.linspace(0.0, 5.0, 50)
    traj = Trajectory(times=t, E=np.zeros(len(t)), V=np.zeros(len(t)),
                      Vtilde=np.zeros(len(t)), V_terms=np.zeros((6, len(t))),
                      theta_mass=np.zeros(len(t)))
    with pytest.raises(ValueError):
        decay_rate_fit(traj, (0.0, 5.0))
    with pytest.raises(ValueError):
        decay_rate_fit(traj, (4.99, 5.0))


def test_check_decay_inequality_exact_exponential():
    n0 = 0.4
    t = np.linspace(0.0, 10.0, 401)
    V = np.exp(-n0 * t)
    traj = Trajectory(times=t, E=V, V=V, Vtilde=V,
                      V_terms=np.zeros((6, len(t))), theta_mass=np.zeros(len(t)))
    rep = check_decay_inequality(traj, n0)
    assert rep["satisfied"]
    # a rate clearly above the true one must be flagged
    rep_bad = check_decay_inequality(traj, 2.0 * n0)
    assert not rep_bad["satisfied"]
    assert rep_bad["fraction_violating"] > 0.5


def test_check_decay_inequality_zero_trajectory():
    t = np.linspace(0.0, 1.0, 11)
    z = np.zeros(len(t))
    traj = Trajectory(times=t, E=z, V=z, Vtilde=z,
                      V_terms=np.zeros((6, len(t))), theta_mass=z)
    assert check_decay_inequality(traj, 1.0)["satisfied"]


def test_trajectory_validation():
    t = np.array([0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        Trajectory(times=t, E=np.zeros(3), V=np.zeros(3), Vtilde=np.zeros(3),
                   V_terms=np.zeros((6, 3)), theta_mass=np.zeros(3))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), E=np.zeros(3), V=np.zeros(2),
                   Vtilde=np.zeros(2), V_terms=np.zeros((6, 2)),
                   theta_mass=np.zeros(2))
