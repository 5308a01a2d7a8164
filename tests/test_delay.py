"""History sampling and the one-node shift of the delay field z."""

import math

import numpy as np
import pytest

from thermodelay.delay import HistoryBuffer, init_history
from thermodelay.discretization import Grid, grad_u

G = Grid(Nx=8, Nrho=8)
TAU = 1.0


def test_zero_history():
    buf = init_history(lambda x, s: np.zeros_like(x), G, TAU)
    assert buf.as_field().shape == (G.nflux, G.Nrho + 1)
    assert np.max(np.abs(buf.as_field())) == 0.0


def test_constant_history_all_slices_identical():
    u0 = np.sin(math.pi * G.x_nodes)
    ux0 = grad_u(u0, G.dx)

    def f0(x, s):
        return np.interp(x, G.x_flux, ux0)

    buf = init_history(f0, G, TAU, u0=u0)
    z = buf.as_field()
    assert np.allclose(z, z[:, [0]])
    assert np.array_equal(buf.tail(), ux0)
    assert np.array_equal(z[:, -1], ux0)


def test_separable_exponential_history_sampling():
    def f0(x, s):
        return np.sin(math.pi * x) * np.exp(s)

    buf = init_history(f0, G, TAU)
    z = buf.as_field()
    want = np.sin(math.pi * G.x_flux) * math.exp(-TAU)
    assert np.allclose(z[:, -1], want, rtol=1e-14)
    assert np.allclose(buf.tail(), want, rtol=1e-14)
    # intermediate slice: rho = 1/2
    mid = G.Nrho // 2
    assert np.allclose(z[:, mid], np.sin(math.pi * G.x_flux) * math.exp(-0.5),
                       rtol=1e-14)


def test_incompatible_history_warns():
    u0 = np.sin(math.pi * G.x_nodes)
    with pytest.warns(UserWarning, match="differs from u0_x"):
        init_history(lambda x, s: np.ones_like(x), G, TAU, u0=u0)


def test_nonsampleable_history_rejected():
    with pytest.raises(ValueError, match="not sampleable"):
        init_history(lambda x, s: "nope", G, TAU)


def test_ring_buffer_indexing_exact():
    # after more pushes than z has columns, column i holds the slab pushed
    # i steps before the newest, and tail() the one Nrho steps before
    rng = np.random.default_rng(0)
    buf = HistoryBuffer(np.full((G.nflux, G.Nrho + 1), np.nan))
    slabs = [rng.standard_normal(G.nflux) for _ in range(G.Nrho + 4)]
    for s in slabs:
        buf.push(s)
    z = buf.as_field()
    for i in range(G.Nrho + 1):
        assert np.array_equal(z[:, i], slabs[-1 - i])
    assert np.array_equal(buf.tail(), slabs[-1 - G.Nrho])


def test_unit_cfl_transport_matches_ring_semantics():
    # one step at dt = tau/Nrho shifts z by exactly one rho node
    rng = np.random.default_rng(2)
    z0 = rng.standard_normal((G.nflux, G.Nrho + 1))
    buf = HistoryBuffer(z0.copy())
    z = z0
    for _ in range(3 * G.Nrho):
        ux = rng.standard_normal(G.nflux)
        z = np.column_stack([ux, z[:, :-1]])
        buf.push(ux)
        assert np.array_equal(z, buf.as_field())


def test_push_leaves_returned_field_unchanged():
    rng = np.random.default_rng(3)
    buf = HistoryBuffer(rng.standard_normal((G.nflux, G.Nrho + 1)))
    held = buf.as_field()
    before = held.copy()
    for _ in range(G.Nrho + 2):
        buf.push(rng.standard_normal(G.nflux))
    assert buf.as_field() is not held
    assert np.array_equal(held, before)
