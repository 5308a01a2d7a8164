"""Property tests: packed-state round trip and theta-mass conservation."""

import numpy as np
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from thermodelay.delay import HistoryBuffer
from thermodelay.discretization import Grid, pack, random_state, unpack
from thermodelay.integrate import factor_implicit, step_imex
from thermodelay.observables import theta_mass
from thermodelay.params import PhysParams

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

grids = st.builds(Grid, Nx=st.integers(3, 40), Nrho=st.integers(2, 12),
                  ell=st.floats(0.25, 4.0))
seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(grid=grids, theta_bc=st.sampled_from(["neumann", "dirichlet"]),
       domain=st.booleans(), seed=seeds)
def test_pack_unpack_round_trip(grid, theta_bc, domain, seed):
    p = PhysParams(theta_bc=theta_bc, ell=grid.ell)
    s = random_state(grid, p, np.random.default_rng(seed), domain=domain)
    vec = pack(s)
    assert vec.shape == (grid.dim,)
    back = unpack(vec, grid)
    for name in ("u", "v", "z", "theta"):
        assert np.array_equal(getattr(back, name), getattr(s, name))
    assert np.array_equal(pack(back), vec)
    back.u[0] += 1.0                       # unpack copies: vec is untouched
    assert np.array_equal(pack(unpack(vec, grid)), vec)


@PROPERTY
@given(grid=grids, beta=st.floats(0.0, 10.0), gamma=st.floats(0.0, 5.0),
       kappa=st.floats(0.0, 10.0), weight=st.sampled_from([0.5, 1.0]),
       mean=st.floats(-10.0, 10.0), seed=seeds)
def test_step_conserves_neumann_theta_mass(grid, beta, gamma, kappa, weight,
                                           mean, seed):
    # with zero heat flux at both ends, the heat operator and the coupling
    # -gamma G v both have zero column sums, so every step keeps the mass of
    # theta up to the rounding of one sparse solve
    p = PhysParams(alpha=1.0, beta=beta, gamma=gamma, kappa=kappa, tau=1.0,
                   ell=grid.ell, theta_bc="neumann")
    dt = p.tau / grid.Nrho
    s = random_state(grid, p, np.random.default_rng(seed))
    s.theta += mean
    fac = factor_implicit(grid, p, dt, theta_weight=weight)
    buf = HistoryBuffer(s.z.copy())
    mass0 = theta_mass(s, grid)
    # backward error of the solve: eps times |implicit| times the iterate
    unit = (np.finfo(float).eps * grid.dx
            * spla.norm(fac.implicit, np.inf) * grid.ntheta)
    bound = 0.0
    for _ in range(grid.Nrho + 1):
        s = step_imex(s, dt, fac, buf)
        bound += unit * max(np.abs(s.v).max(), np.abs(s.theta).max())
        assert abs(theta_mass(s, grid) - mass0) <= 10.0 * bound + 1e-15 * abs(mass0)
