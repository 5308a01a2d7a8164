"""Spectrum, abscissa, dissipativity and the resolvent smoke test."""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from thermodelay import spectral
from thermodelay.constants import find_beta0, lyapunov_constants
from thermodelay.discretization import (DenseSizeError, Grid,
                                        assemble_generator, build_operators,
                                        pack)
from thermodelay.params import PhysParams
from thermodelay.spectral import (dissipativity_test, spectral_abscissa,
                                  spectrum_dense)
from thermodelay.spectral import reduced_generator

import oracles
from oracles import h_weight_matrix, inner_product_H, random_state

UNIT = PhysParams(alpha=1.0, beta=1.0, gamma=1.0, kappa=1.0, tau=1.0, ell=1.0)
N_TOP = spectral.N_REFINE        # the rightmost eigenvalues spectrum_dense refines


def _components(M):
    """Index sets of the weakly connected components of M's sparsity graph,
    each ascending, ordered by first index."""
    _, labels = connected_components(M, directed=True, connection="weak")
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


@pytest.fixture(scope="module")
def certified():
    lam = 0.5
    b0 = find_beta0(UNIT, [lam])["beta0"]
    p = UNIT.with_beta(1.05 * b0)
    c = lyapunov_constants(p, lam)
    return p, c


def test_small_dense_solver_sanity():
    w = sla.eigvals(np.diag([3.0, -1.0, 0.5]))
    assert sorted(w.real) == pytest.approx([-1.0, 0.5, 3.0])
    w2 = sla.eigvals(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert sorted(w2.imag) == pytest.approx([-1.0, 1.0])


def test_spectrum_residuals_small(certified):
    p, c = certified
    res = spectrum_dense(Grid(Nx=8, Nrho=8), p)
    assert np.all(np.diff(res.eigenvalues.real) <= 1e-12)   # sorted descending
    assert np.all(res.rightmost_residuals <= 1e-8)
    assert np.all(res.converged)


def test_companion_matrix_cross_check(certified):
    # independent eigenvalue route: roots of the characteristic polynomial
    # (the transport block is near-defective, so the match is loose)
    from scipy.optimize import linear_sum_assignment

    p, c = certified
    g = Grid(Nx=3, Nrho=3)
    gen = assemble_generator(g, p)
    A = gen.matrix.toarray()
    w_qr = sla.eigvals(A)
    w_poly = np.roots(np.poly(A))
    D = np.abs(w_qr[:, None] - w_poly[None, :])
    r, col = linear_sum_assignment(D)
    assert D[r, col].max() <= 1e-4 * np.max(np.abs(w_qr))


def test_reduced_generator_invariance(certified):
    # exact matrix-level invariance: A E = E (P A E) and P E = I
    from thermodelay.spectral import restriction_maps

    p, c = certified
    g = Grid(Nx=5, Nrho=4)
    gen = assemble_generator(g, p)
    E, Pm = (m.toarray() for m in restriction_maps(gen))
    assert np.allclose(Pm @ E, np.eye(E.shape[1]), atol=1e-13)
    red = Pm @ (gen.matrix @ E)
    resid = gen.matrix @ E - E @ red
    scale = np.max(np.abs(gen.matrix.toarray()))
    assert np.max(np.abs(resid)) <= 1e-12 * scale
    # and the rightmost reduced eigenvalue is a genuine full-space eigenvalue
    w_full = sla.eigvals(gen.matrix.toarray())
    w_red = sla.eigvals(red)
    lam = w_red[np.argmax(w_red.real)]
    assert np.min(np.abs(w_full - lam)) <= 1e-6 * max(1.0, np.max(np.abs(w_full)))


def test_full_spectrum_has_spurious_zeros_reduced_does_not(certified):
    p, c = certified
    for (Nx, Nrho), bc in itertools.product([(6, 4), (8, 8), (12, 6)],
                                            ["neumann", "dirichlet"]):
        g = Grid(Nx=Nx, Nrho=Nrho)
        pb = PhysParams(**{**p.__dict__, "theta_bc": bc})
        gen = assemble_generator(g, pb)
        w_full = sla.eigvals(gen.matrix.toarray())
        zero = np.abs(w_full) <= 1e-10
        # conserved z(.,0) - u_x at the Nx+1 flux points, and the theta mass
        assert np.sum(zero) == g.Nx + 1 + (bc == "neumann"), (Nx, bc)
        assert np.sum(zero) == g.dim - reduced_generator(gen).shape[0]
        a_red, _ = spectral_abscissa(g, pb)
        assert a_red < -1e-3
        assert abs(a_red - w_full[~zero].real.max()) <= 1e-12, (Nx, bc)


def test_certified_beta_negative_abscissa_32(certified):
    p, c = certified
    a, lam = spectral_abscissa(Grid(Nx=32, Nrho=32), p)
    assert a < 0.0
    assert a == pytest.approx(lam.real)


def test_beta_zero_positive_abscissa():
    a, _ = spectral_abscissa(Grid(Nx=16, Nrho=16), UNIT.with_beta(0.0))
    assert a > 0.0


def test_pure_heat_block_spectrum():
    # kappa L_theta: one zero eigenvalue (conserved mean), rest negative
    g = Grid(Nx=16, Nrho=2)
    ops = build_operators(g, UNIT)
    w = np.sort(sla.eigvalsh(UNIT.kappa * ops.L_theta.toarray()))
    assert abs(w[-1]) <= 1e-12
    assert w[-2] < -1e-6


def test_dense_size_guard(certified, monkeypatch):
    # the even Dirichlet parity block at 100x100 has 50*103 + 1 = 5151 > 5000
    # rows; the traps keep the oversized solve, the Nx^2 corner coupling and
    # the real-space assembly before it from running if the guard is missing
    # or comes too late
    def trap(*args):
        raise AssertionError("an oversized dense path ran")

    monkeypatch.setattr(spectral, "sla", SimpleNamespace(eigvals=trap))
    monkeypatch.setattr(spectral, "modal_operators", trap)
    monkeypatch.setattr(spectral, "assemble_generator", trap)
    p, c = certified
    pd = PhysParams(**{**p.__dict__, "theta_bc": "dirichlet"})
    with pytest.raises(ValueError, match="dimension 5151 exceeds"):
        spectrum_dense(Grid(Nx=100, Nrho=100), pd)


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("Nx,Nrho", [(3, 2), (4, 2), (17, 5), (32, 32)])
def test_modal_blocks_are_the_connected_components(theta_bc, Nx, Nrho):
    # the fixed layout equals a generic search of the sparsity graph: the
    # same index sets in the same order, each mode's block labelled by it.
    # Dirichlet: the oracle's parity blocks, which the parity-block test
    # slices, of the oracle's generator
    g = Grid(Nx=Nx, Nrho=Nrho)
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5, "theta_bc": theta_bc})
    R = reduced_generator(assemble_generator(g, p, oracles.modal_operators(g, p)))
    if theta_bc == "neumann":
        modes, blocks = zip(*spectral._modal_blocks(g))
        assert modes == tuple(range(1, Nx + 1)) + (0,)
    else:
        blocks = oracles.parity_blocks(g)
    components = _components(R)
    assert len(blocks) == len(components)
    for b, c in zip(blocks, components):
        assert np.array_equal(b, c)


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("Nx,Nrho", [(3, 2), (8, 8), (17, 5), (32, 32)])
def test_dense_blocks_equal_the_fancy_slices(theta_bc, Nx, Nrho):
    # the one-pass cut gives each block's bytes, for the modal blocks and
    # for index sets that are neither contiguous nor sorted
    g = Grid(Nx=Nx, Nrho=Nrho)
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5, "theta_bc": theta_bc})
    R = reduced_generator(assemble_generator(g, p, oracles.modal_operators(g, p)))
    rng = np.random.default_rng(Nx * Nrho)
    n = R.shape[0]
    scattered = [rng.permutation(n)[:size] for size in (1, 5, n // 3)]
    modal = ([b for _, b in spectral._modal_blocks(g)] if theta_bc == "neumann"
             else oracles.parity_blocks(g))
    for blocks in (modal,
                   scattered, [np.arange(n)[::-2], np.array([n - 1, 0])]):
        cut = list(spectral._dense_blocks(R, blocks))
        assert len(cut) == len(blocks)
        for a, b in zip(cut, blocks):
            ref = R[b][:, b].toarray()
            assert a.dtype == ref.dtype and a.shape == ref.shape
            assert a.tobytes() == ref.tobytes()


@pytest.mark.parametrize("Nx,Nrho,model", [
    (8, 8, {}), (6, 5, {"kappa": 0.37, "gamma": 2.3, "beta": 0.7, "ell": 1.7}),
    (32, 32, {}), (8, 8, {"kappa": 0.0})])
def test_parity_blocks_are_the_slices_of_the_dirichlet_generator(Nx, Nrho, model):
    # each block, cut from the Neumann generator with its theta-theta block
    # written per parity, is stored exactly like the slice of the Dirichlet
    # generator assembled whole (same data, indices and indptr); at
    # kappa = 0 neither stores a theta-theta entry
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5, "theta_bc": "dirichlet",
                      **model})
    g = Grid(Nx=Nx, Nrho=Nrho, ell=p.ell)
    R = reduced_generator(assemble_generator(g, p, oracles.modal_operators(g, p)))
    blocks = spectral._parity_blocks(g, p)
    assert len(blocks) == 3
    for (M, theta, _), b in zip(blocks, oracles.parity_blocks(g)):
        want = R[b][:, b]
        for name in ("data", "indices", "indptr"):
            a, c = getattr(M, name), getattr(want, name)
            assert a.dtype == c.dtype and a.tobytes() == c.tobytes(), (b.size, name)
    assert [t.tolist() for _, t, _ in blocks] == [list(range(1, Nx + 1, 2)),
                                                  list(range(0, Nx + 1, 2)), []]


@pytest.mark.parametrize("theta_bc,N,ref", [("neumann", 64, -0.2140881138550164),
                                            ("dirichlet", 32, -0.2359160740670643)])
def test_dissipativity_supremum_is_pinned(theta_bc, N, ref):
    # beta = 4.5 and the paper's xi = 4 tau alpha^2/beta; the values of the
    # per-block fancy-index cut
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5, "theta_bc": theta_bc})
    xi = 4.0 * p.tau * p.alpha**2 / p.beta
    sup = dissipativity_test(Grid(Nx=N, Nrho=N), p, xi)["max_rayleigh"]
    assert abs(sup - ref) <= 1e-13 * abs(ref)


def test_dense_blocks_hold_one_block_at_a_time():
    # 128 modes of 67 (eigenvalues) and of 66 (pencil) rows: holding every
    # dense block at once would take their total, about 4.6 and 8.9 MB;
    # one block at a time peaks at about a quarter of that
    g = Grid(Nx=128, Nrho=64)
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5})
    n = g.Nx * 8
    for run, n_dense in [(lambda: spectral.reduced_eigvals(g, p), n * (g.Nrho + 3)**2),
                         (lambda: dissipativity_test(g, p, 1.0), 2 * n * (g.Nrho + 2)**2)]:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_dense / 2


def test_dissipativity_refuses_an_oversized_block():
    # one mode's (u, v, z) block at Nrho = 4999 has 5001 rows
    p = UNIT.with_beta(2.0)
    with pytest.raises(DenseSizeError, match="dimension 5001 exceeds"):
        dissipativity_test(Grid(Nx=3, Nrho=4999), p, 4.0 * p.tau / p.beta)


def test_neumann_spectrum_is_modal_past_the_dense_limit(certified):
    # Neumann blocks have Nrho + 3 rows, so 70x70 (reduced 5180) is accepted
    p, c = certified
    g = Grid(Nx=70, Nrho=70)
    res = spectrum_dense(g, p)
    assert len(res.eigenvalues) == 70 * 73 + 70 == 5180
    assert np.all(res.converged)
    assert np.bincount(res.modes).tolist() == [70] + [73] * 70


@pytest.mark.parametrize("theta_bc,damped,Nx,Nrho", [
    pytest.param(bc, damped, Nx, Nrho,
                 id=f"{damped}-{Nx}-{Nrho}" + ("-dirichlet" if bc == "dirichlet" else ""))
    for bc in ("neumann", "dirichlet") for damped in (True, False)
    for Nx, Nrho in [(32, 32), (17, 5)]])
def test_modal_spectrum_matches_dense(certified, theta_bc, damped, Nx, Nrho):
    # oracle: one dense eigvals of the real-space reduced generator
    p, c = certified
    p = PhysParams(**{**p.__dict__, "beta": p.beta if damped else 0.0,
                      "theta_bc": theta_bc})
    g = Grid(Nx=Nx, Nrho=Nrho)
    gen = assemble_generator(g, p)
    w_dense = sla.eigvals(reduced_generator(gen).toarray())
    w_modal, modes = spectral.reduced_eigvals(g, p)
    assert len(w_modal) == len(w_dense)
    # the mode-0 transport chain is a block of its own, with eigenvalues
    # exactly -Nrho/tau
    assert np.sum(w_modal == -Nrho / p.tau) == Nrho
    if theta_bc == "neumann":
        assert len(modes) == len(w_modal)
    else:
        # two parity blocks, the even one with the theta mean, and the chain
        R = reduced_generator(assemble_generator(g, p, oracles.modal_operators(g, p)))
        sizes = sorted(b.size for b in _components(R))
        assert modes is None
        assert sizes == sorted([Nrho, Nx // 2 * (Nrho + 3) + 1,
                                (Nx + 1) // 2 * (Nrho + 3)])
    assert abs(spectral_abscissa(g, p)[0] - w_dense.real.max()) <= 1e-10
    top_d = w_dense[np.argsort(-w_dense.real)[:20]]
    top_m = w_modal[np.argsort(-w_modal.real)[:20]]
    dist = np.abs(top_d[:, None] - top_m[None, :])
    assert dist.min(axis=1).max() <= 1e-10 and dist.min(axis=0).max() <= 1e-10


@pytest.mark.parametrize("beta,mode", [(4.5, 1), (0.0, 16)])
def test_rightmost_mode(beta, mode):
    # damped: the slowest decay is the lowest mode; undamped: the delay
    # destabilizes the highest mode Nx
    res = spectrum_dense(Grid(Nx=16, Nrho=16), UNIT.with_beta(beta))
    assert res.modes[0] == mode
    assert (res.eigenvalues[0].real > 0) == (beta == 0.0)
    pd = PhysParams(**{**UNIT.__dict__, "beta": beta, "theta_bc": "dirichlet"})
    assert spectrum_dense(Grid(Nx=8, Nrho=8), pd).modes is None


def test_benchmark_reference_abscissa():
    # the shipped 64x64 Neumann default at beta = 4.5, recorded from the
    # dense 4352 x 4352 eigensolve
    res = spectrum_dense(Grid(Nx=64, Nrho=64), UNIT.with_beta(4.5))
    assert len(res.eigenvalues) == 4352
    assert abs(res.eigenvalues[0].real - -0.29329475221755485) <= 1e-10
    assert np.all(res.rightmost_residuals <= 1e-8)
    # the refined value against the 40-digit root (mpmath) of mode 1's
    # characteristic function e1(s) = (s + kappa mu) q + gamma^2 mu s, with
    # q = s (s + beta mu) + alpha mu (c/(s + c))^64, mu = (130 sin(pi/130))^2
    # and c = Nrho/tau = 64
    assert abs(res.eigenvalues[0] - -0.2932947522175783760153367) <= 5e-14


def test_refinement_waits_for_the_rayleigh_quotient_to_settle():
    # one solve from a shift 1e-8 (1 + |lambda|) away leaves the Rayleigh
    # quotient about 2e-8 off, with a residual below 1e-8; accepting it wrote
    # -0.7482970209682348 for the rightmost eigenvalue.  Oracle: one dense
    # eigvals of the real-space reduced generator
    p = PhysParams(**{**UNIT.__dict__, "beta": 2.7, "gamma": 3.0,
                      "theta_bc": "dirichlet"})
    g = Grid(Nx=8, Nrho=8)
    w = sla.eigvals(reduced_generator(assemble_generator(g, p)).toarray())
    res = spectrum_dense(g, p)
    assert abs(res.eigenvalues[0].real - -0.7482970387694956) <= 1e-10
    top = res.eigenvalues[:N_TOP]
    assert np.abs(top[:, None] - w[None, :]).min(axis=1).max() <= 1e-10


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
def test_refinement_keeps_every_eigenvalue_of_a_cluster(theta_bc):
    # the rightmost eigenvalues near -0.3005658 lie about 1e-8 apart, in
    # different modes; inverse iteration from one of them can settle on its
    # neighbour, which then appears twice and the eigenvalue itself not at all
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5, "gamma": 0.5,
                      "theta_bc": theta_bc})
    g = Grid(Nx=32, Nrho=32)
    w = spectral.reduced_eigvals(g, p)[0]
    w = w[np.argsort(-w.real)[:N_TOP]]
    assert np.ptp(w.real) < 1e-6
    res = spectrum_dense(g, p)
    dist = np.abs(res.eigenvalues[:N_TOP, None] - w[None, :])
    assert dist.min(axis=0).max() <= 1e-10 and dist.min(axis=1).max() <= 1e-10
    assert np.unique(dist.argmin(axis=1)).size == N_TOP
    # each lies alone in its Neumann mode block, so every refinement settles;
    # a Dirichlet parity block keeps half the cluster, too close for the shift
    if theta_bc == "neumann":
        assert res.converged.all()


def _dirichlet(beta):
    return PhysParams(**{**UNIT.__dict__, "beta": beta, "theta_bc": "dirichlet"})


def _mode_sized_eigvals_only(monkeypatch, grid):
    """Fail every dense eigensolve larger than one Fourier mode's block."""
    def eigvals(a):
        assert a.shape[0] <= grid.Nrho + 3, f"a dense block of {a.shape[0]} rows ran"
        return sla.eigvals(a)

    monkeypatch.setattr(spectral, "sla", SimpleNamespace(eigvals=eigvals))


# abscissae of the 64x64 Dirichlet reduced generator, recorded from dense
# eigvals: at beta = 4.5 of the 4353-row real-space matrix, at beta = 0.6 of
# the two parity blocks (reduced_eigvals)
DIRICHLET_64_ABSCISSA = {4.5: -0.2985132626820507, 0.6: 0.08140503008387126}


@pytest.mark.parametrize("N,beta", [(32, 4.5), (32, 6.0), (32, 0.0), (64, 4.5),
                                    (64, 0.6)])
def test_dirichlet_abscissa_is_counted(monkeypatch, N, beta):
    # the count is accepted in every case: no dense block larger than one
    # mode's runs; the dense parity blocks are the oracle.  At 64x64,
    # beta = 0.6 the first candidates miss pairs the count finds, and the
    # candidate retry recovers them
    g, p = Grid(Nx=N, Nrho=N), _dirichlet(beta)
    ref = (DIRICHLET_64_ABSCISSA[beta] if N == 64
           else spectral.reduced_eigvals(g, p)[0].real.max())
    _mode_sized_eigvals_only(monkeypatch, g)
    a, lam = spectral_abscissa(g, p)
    assert abs(a - ref) <= 1e-10
    assert lam.real == a and lam.imag >= 0.0
    if beta == 0.0:
        # the trap: the rightmost pair sits in a high mode, far from 0, where
        # shift-invert at 0 alone finds nothing right of 3.92
        assert lam == pytest.approx(5.0371 + 2.6136j, abs=1e-4)


@pytest.mark.parametrize("beta", [4.5, 0.0])
def test_dirichlet_count_matches_dense_count(beta):
    # 32x32, odd block: the left edge is put 1e-4, 1e-6 and 1e-9 to either
    # side of every pole and eigenvalue within 2e-3 of the abscissa.  At
    # beta = 4.5 they interlace about 1e-4 apart in the cluster near -0.30;
    # at beta = 0 the rightmost pair lies within 2e-6 of a pole.  Sampling
    # the edges only uniformly, bisected the same way, miscounts at beta = 0.
    g = Grid(Nx=32, Nrho=32)
    p = _dirichlet(beta)
    M, theta, poles = spectral._parity_blocks(g, p)[0]
    w = sla.eigvals(M.toarray())
    a = w.real.max()
    near = np.r_[poles, w]
    near = near[near.real > a - 2e-3].real
    offsets = np.array([1e-9, 1e-6, 1e-4])
    edges = [x for x in np.ravel(near[:, None] + np.r_[-offsets, offsets])
             if x < a]
    assert len(edges) >= 10
    for x0 in edges:
        assert spectral._count_right_of(x0, M, theta, poles, np.array([]), g,
                                        p) == np.sum(w.real > x0), x0


@pytest.mark.parametrize("beta,miss", [(4.5, "drop the rightmost"),
                                       (0.0, "shift at 0 only"),
                                       (4.5, "one past the box")])
def test_dirichlet_abscissa_falls_back_when_candidates_miss(monkeypatch, beta,
                                                            miss):
    # the count then differs from the candidates, and the dense block is
    # solved.  A spurious Ritz value past X + Y of the Gershgorin box puts
    # the left edge there: the count right of it is 0, not a box of
    # negative width
    g, p = Grid(Nx=16, Nrho=16), _dirichlet(beta)
    ref = spectral.reduced_eigvals(g, p)[0].real.max()
    found = spectral._rightmost_candidates

    def candidates(M, shifts, k=None):    # misses whatever k is asked for
        if miss == "shift at 0 only":
            return found(M, [0.0])
        w = found(M, shifts)
        if miss == "one past the box":
            X, Y = spectral._gershgorin_box(M)
            return np.r_[w, 2.0 * (abs(X) + Y) + 1.0]
        return w[w.real < w.real.max() - 1e-9]

    monkeypatch.setattr(spectral, "_rightmost_candidates", candidates)
    for M, theta, poles in spectral._parity_blocks(g, p)[:2]:
        assert spectral._counted_rightmost(M, theta, poles, g, p) is None
    assert abs(spectral_abscissa(g, p)[0] - ref) <= 1e-12


def test_dirichlet_abscissa_falls_back_when_arpack_fails(monkeypatch):
    g, p = Grid(Nx=16, Nrho=16), _dirichlet(4.5)
    ref = spectral.reduced_eigvals(g, p)[0].real.max()

    def eigs(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), None)

    monkeypatch.setattr(spectral.spla, "eigs", eigs)
    assert abs(spectral_abscissa(g, p)[0] - ref) <= 1e-12


@pytest.mark.parametrize("nx,beta,gamma,ref", [
    # QR put the rightmost of a 6e-11 wide cluster at +3.1e-10: growth
    (4, 0.0, 1e6, -3.4549150282366493e-11),
    # and the rightmost of a cluster 2e-15 apart 4.6e-9 off
    (5, 1e6, 1.0, -1.0000009722239433e-06),
])
def test_dirichlet_abscissa_at_a_large_parameter(nx, beta, gamma, ref):
    # neither the count nor QR resolves these clusters (_sharpened); the
    # references are 60-digit eigensolves of the reduced generator
    p = PhysParams(**{**_dirichlet(beta).__dict__, "gamma": gamma})
    assert abs(spectral_abscissa(Grid(Nx=nx, Nrho=2), p)[0] - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("nx,nrho,beta,large,ref", [
    # the rightmost of this cluster is real and found to the last bit, so a
    # confirming shift exactly at it factors as singular; QR's value, 3e-6
    # relative off, had stood
    (3, 3, 2.2172178636132402, "ell", -7.999999999989681e-12),
    (7, 10, 2.0763686346748704, "gamma", -3.749033200650757e-11),
])
def test_dirichlet_abscissa_of_a_sharpened_cluster(nx, nrho, beta, large, ref):
    # the references are 60-digit eigensolves of the reduced generator, the
    # same at 100 digits
    p = PhysParams(**{**_dirichlet(beta).__dict__, large: 1e6})
    g = Grid(Nx=nx, Nrho=nrho, ell=p.ell)
    assert abs(spectral_abscissa(g, p)[0] - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("beta,abscissa,complex_shifts", [
    (4.5, "-0x1.31fb67cfe55f1p-2", False),
    # the top pole (about 5.03 + 2.61i) is a complex shift
    (0.0, "0x1.426016bf578edp+2", True),
])
def test_candidate_arithmetic_follows_the_shift(monkeypatch, beta, abscissa,
                                                complex_shifts):
    # a real shift runs ARPACK on the float64 block, a complex shift on its
    # complex copy; the abscissa keeps its bits either way
    calls = []
    eigs = spectral.spla.eigs

    def recorded(A, **kwargs):
        calls.append((A.dtype, kwargs["sigma"], kwargs["v0"].dtype))
        return eigs(A, **kwargs)

    monkeypatch.setattr(spectral.spla, "eigs", recorded)
    a, _ = spectral_abscissa(Grid(Nx=32, Nrho=32), _dirichlet(beta))
    assert a.hex() == abscissa
    assert calls
    real = [c for c in calls if isinstance(c[1], float)]
    assert all(A == v0 == np.float64 for A, _, v0 in real)
    assert [s for _, s, _ in real].count(0.0) >= 2      # sigma = 0 per block
    cplx = [c for c in calls if not isinstance(c[1], float)]
    assert all(A == v0 == np.complex128 and isinstance(s, complex)
               and s.imag != 0.0 for A, s, v0 in cplx)
    assert bool(cplx) == complex_shifts
    if complex_shifts:
        assert any(abs(s - (5.03 + 2.61j)) < 0.05 for _, s, _ in cplx)


def test_dirichlet_abscissa_beyond_double_precision_is_refused():
    # at ell = 5.5e-30 the odd block's entries reach 2e60: QR's rightmost
    # eigenvalue, 2.7e28, lies far inside its rounding error of 5.2e45, and
    # sharpening cannot confirm it, so not even its sign is known
    ell = 5.477282865432251e-30
    p = PhysParams(**{**_dirichlet(0.0).__dict__, "ell": ell})
    with pytest.raises(FloatingPointError, match="rounding error"):
        spectral_abscissa(Grid(Nx=3, Nrho=2, ell=ell), p)


def test_h_weight_matrix_spd():
    g = Grid(Nx=6, Nrho=4)
    W = h_weight_matrix(assemble_generator(g, UNIT), xi=1.3).toarray()
    assert np.allclose(W, W.T)
    evals = np.linalg.eigvalsh(W)
    assert evals.min() > 0.0


def test_h_weight_matches_inner_product():
    g = Grid(Nx=6, Nrho=4)
    xi = 0.9
    W = h_weight_matrix(assemble_generator(g, UNIT), xi)
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = random_state(g, UNIT, rng, domain=False)
        x = pack(s)
        assert float(x @ (W @ x)) == pytest.approx(
            inner_product_H(s, s, g, UNIT, xi), rel=1e-13)


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("Nx,Nrho", [(6, 5), (16, 16)])
def test_reduced_gram_matrix_is_diagonal_in_fourier_modes(theta_bc, Nx, Nrho):
    # the pencil weight E^T W E that dissipativity_test divides out: u_k
    # weighs (alpha + xi drho) dx g_k^2, with z(., 0) = g_k u_k; v and theta
    # dx; each z at rho > 0 xi dx drho (the mode-0 chain too)
    p = PhysParams(**{**UNIT.__dict__, "alpha": 0.7, "beta": 4.5,
                      "theta_bc": theta_bc})
    g = Grid(Nx=Nx, Nrho=Nrho)
    xi = 1.3
    gen = assemble_generator(g, p, oracles.modal_operators(g, p))
    E = spectral.restriction_maps(gen)[0]
    B = (E.T @ h_weight_matrix(gen, xi) @ E).toarray()
    gk = 2.0 * np.sin(np.arange(1, Nx + 1) * np.pi / (2 * (Nx + 1))) / g.dx
    n_theta = g.ntheta - (theta_bc == "neumann")
    weights = np.r_[(p.alpha + xi * g.drho) * g.dx * gk**2, np.full(Nx, g.dx),
                    np.full(g.nflux * Nrho, xi * g.dx * g.drho), np.full(n_theta, g.dx)]
    assert not (B - np.diag(np.diag(B))).any()
    assert np.diag(B) == pytest.approx(weights, rel=1e-14, abs=0.0)


def _paper_xi_m(p):
    xi = 4.0 * p.tau * p.alpha**2 / p.beta
    return xi, p.alpha**2 / p.beta + xi / (2 * p.tau)


def test_dissipativity_negative_under_hypothesis():
    p = UNIT.with_beta(2.0)
    xi = 4.0 * p.tau * p.alpha**2 / p.beta
    g = Grid(Nx=24, Nrho=24)
    out = dissipativity_test(g, p, xi)
    assert out["max_rayleigh"] <= 1e-3
    assert out["m_used"] == pytest.approx(p.alpha**2 / p.beta + xi / (2 * p.tau))


def _dense_pencil(gen, xi, m):
    """(E^T sym(W (A - m I)) E, E^T W E) in real space, dense, and E."""
    E = spectral.restriction_maps(gen)[0].toarray()
    W = h_weight_matrix(gen, xi).toarray()
    WA = W @ (gen.matrix.toarray() - m * np.eye(gen.grid.dim))
    return E.T @ (0.5 * (WA + WA.T)) @ E, E.T @ W @ E, E


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("N", [16, 32])
def test_dissipativity_matches_dense_real_space_pencil(theta_bc, N):
    # the supremum over the constrained space is the top eigenvalue of the
    # pencil, here solved densely in real space, theta included
    p = PhysParams(alpha=1.0, beta=2.0, gamma=1.0, kappa=1.0, tau=1.0,
                   theta_bc=theta_bc)
    xi, m = _paper_xi_m(p)
    gen = assemble_generator(Grid(Nx=N, Nrho=N), p)
    S, B, _ = _dense_pencil(gen, xi, m)
    ref = sla.eigh(S, B, eigvals_only=True)[-1]
    exact = dissipativity_test(gen.grid, p, xi)["max_rayleigh"]
    assert abs(exact - ref) <= 1e-12


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
def test_dissipativity_theta_part_lies_below_u_only_states(theta_bc):
    # why the theta part is not solved: a state whose only nonzero field is u
    # has quotient exactly -m, and the theta block of the pencil lies below -m
    p = PhysParams(alpha=0.7, beta=0.5, gamma=3.0, kappa=0.01, tau=0.5,
                   theta_bc=theta_bc)
    xi, m = 1.3, -0.4
    g = Grid(Nx=12, Nrho=6)
    gen = assemble_generator(g, p)
    S, B, E = _dense_pencil(gen, xi, m)
    n = 2 * g.Nx + g.nflux * g.Nrho            # reduced (u, v, z) coordinates
    y = np.zeros(S.shape[0])
    y[:g.Nx] = np.random.default_rng(5).standard_normal(g.Nx)
    assert (y @ S @ y) / (y @ B @ y) == pytest.approx(-m, abs=1e-12)
    assert not S[:n, n:].any() and not B[:n, n:].any()
    assert sla.eigh(S[n:, n:], B[n:, n:], eigvals_only=True)[-1] < -m
    ref = sla.eigh(S, B, eigvals_only=True)[-1]
    assert abs(dissipativity_test(g, p, xi, m=m)["max_rayleigh"] - ref) <= 1e-12


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
def test_dissipativity_bounds_every_domain_state(theta_bc):
    p = PhysParams(alpha=1.0, beta=2.0, gamma=1.0, kappa=1.0, tau=1.0,
                   theta_bc=theta_bc)
    xi, m = _paper_xi_m(p)
    g = Grid(Nx=12, Nrho=8)
    gen = assemble_generator(g, p)
    W = h_weight_matrix(gen, xi)
    exact = dissipativity_test(g, p, xi)["max_rayleigh"]
    rng = np.random.default_rng(4)
    for _ in range(500):
        x = pack(random_state(g, p, rng, domain=True))
        q = (x @ (W @ (gen.matrix @ x - m * x))) / (x @ (W @ x))
        assert q <= exact + 1e-12


def test_dissipativity_trials_and_seed_are_ignored():
    p = UNIT.with_beta(2.0)
    xi, _ = _paper_xi_m(p)
    g = Grid(Nx=8, Nrho=6)
    out = dissipativity_test(g, p, xi, trials=10**4, seed=3)
    assert out["trials"] == 10**4
    assert out["max_rayleigh"] == dissipativity_test(g, p, xi)["max_rayleigh"]


@pytest.mark.parametrize("alpha, xi", [(0.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_dissipativity_needs_a_positive_definite_weight(alpha, xi):
    # PhysParams itself refuses a negative alpha
    p = PhysParams(alpha=alpha, beta=2.0)
    with pytest.raises(ValueError, match="alpha > 0 and xi > 0"):
        dissipativity_test(Grid(Nx=6, Nrho=4), p, xi)


def test_dissipativity_theta_only_states():
    p = UNIT.with_beta(2.0)
    xi = 4.0 * p.tau * p.alpha**2 / p.beta
    g = Grid(Nx=12, Nrho=8)
    from thermodelay.discretization import assemble_generator as asm
    gen = asm(g, p)
    W = h_weight_matrix(gen, xi)
    m = p.alpha**2 / p.beta + xi / (2 * p.tau)
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = random_state(g, p, rng)
        s.u[:] = 0.0
        s.v[:] = 0.0
        s.z[:] = 0.0
        s.theta -= s.theta.mean()
        x = pack(s)
        q = (x @ (W @ (gen.matrix @ x - m * x))) / (x @ (W @ x))
        assert q <= 0.0


def test_dissipativity_xi_below_bound_reported_not_asserted():
    # hypothesis violated: the test must still run and report a number
    p = UNIT.with_beta(2.0)
    xi = p.tau * p.alpha**2 / p.beta
    g = Grid(Nx=12, Nrho=8)
    out = dissipativity_test(g, p, xi, m=0.0)
    assert np.isfinite(out["max_rayleigh"])


def test_resolvent_solve_above_shift():
    # discrete shadow of maximality: (lam I - A_h) is solvable for lam > m
    p = UNIT.with_beta(2.0)
    xi = 4.0 * p.tau * p.alpha**2 / p.beta
    m = p.alpha**2 / p.beta + xi / (2 * p.tau)
    g = Grid(Nx=10, Nrho=8)
    gen = assemble_generator(g, p)
    lam = m + 1.0
    A = (lam * sp.identity(g.dim) - gen.matrix).tocsc()
    rng = np.random.default_rng(3)
    b = rng.standard_normal(g.dim)
    x = spla.spsolve(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
