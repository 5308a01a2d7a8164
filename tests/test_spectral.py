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
from thermodelay import discretization
from thermodelay.discretization import DenseSizeError, Grid, assemble_generator
from thermodelay.params import PhysParams
from thermodelay.spectral import (dissipativity_test, spectral_abscissa,
                                  spectrum_dense)

import oracles
from oracles import (h_weight_matrix, inner_product_H, pack, random_state,
                     real_space_generator)

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
    gen = real_space_generator(g, p)
    A = gen.matrix.toarray()
    w_qr = sla.eigvals(A)
    w_poly = np.roots(np.poly(A))
    D = np.abs(w_qr[:, None] - w_poly[None, :])
    r, col = linear_sum_assignment(D)
    assert D[r, col].max() <= 1e-4 * np.max(np.abs(w_qr))


def test_reduced_generator_invariance(certified):
    # exact matrix-level invariance: A E = E (P A E) and P E = I, for the
    # real-space generator with the oracle's restriction and the package's
    # Fourier-mode generator with its own
    p, c = certified
    g = Grid(Nx=5, Nrho=4)
    real, modal = real_space_generator(g, p), assemble_generator(g, p)
    for gen, maps in [(real, oracles.restriction_maps(real)),
                      (modal, spectral.restriction_maps(modal))]:
        E, Pm = (m.toarray() for m in maps)
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
        gen = real_space_generator(g, pb)
        w_full = sla.eigvals(gen.matrix.toarray())
        zero = np.abs(w_full) <= 1e-10
        # conserved z(.,0) - u_x at the Nx+1 flux points, and the theta mass
        assert np.sum(zero) == g.Nx + 1 + (bc == "neumann"), (Nx, bc)
        assert np.sum(zero) == g.dim - oracles.reduced_generator(gen).shape[0]
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
    ops = oracles.real_space_operators(g, UNIT)
    w = np.sort(sla.eigvalsh(UNIT.kappa * ops.L_theta.toarray()))
    assert abs(w[-1]) <= 1e-12
    assert w[-2] < -1e-6


def test_dense_size_guard(certified, monkeypatch):
    # the even Dirichlet parity block at 100x100 has 50*103 + 1 = 5151 > 5000
    # rows; the traps keep the oversized solve, the Nx^2 corner coupling and
    # the operators and generator before it from being built if the guard is
    # missing or comes too late
    def trap(*args):
        raise AssertionError("an oversized dense path ran")

    monkeypatch.setattr(spectral, "sla", SimpleNamespace(eigvals=trap))
    monkeypatch.setattr(discretization, "build_operators", trap)
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
    R = oracles.reduced_generator(assemble_generator(g, p, oracles.modal_operators(g, p)))
    if theta_bc == "neumann":
        modes, ranges = zip(*spectral._modal_blocks(g))
        assert modes == tuple(range(1, Nx + 1)) + (0,)
        blocks = [np.arange(R.shape[0])[b] for b in ranges]
    else:
        blocks = oracles.parity_blocks(g)
    components = _components(R)
    assert len(blocks) == len(components)
    for b, c in zip(blocks, components):
        assert np.array_equal(b, c)


@pytest.mark.parametrize("Nx,Nrho", [(3, 2), (4, 2), (17, 5), (32, 32)])
def test_reduced_neumann_generator_is_block_diagonal_as_stored(Nx, Nrho):
    # the package's reduced coordinates come mode by mode: its _modal_blocks
    # ranges tile the rows in order, no stored entry lies outside them, and
    # they are the weakly connected components
    g = Grid(Nx=Nx, Nrho=Nrho)
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5, "gamma": 0.7, "kappa": 1.3})
    R = spectral.reduced_generator(assemble_generator(g, p)).tocoo()
    rows = [np.arange(R.shape[0])[b] for _, b in spectral._modal_blocks(g)]
    assert np.array_equal(np.concatenate(rows), np.arange(R.shape[0]))
    label = np.repeat(np.arange(len(rows)), [r.size for r in rows])
    assert np.array_equal(label[R.row], label[R.col])
    components = _components(R)
    assert len(components) == len(rows)
    for r, c in zip(rows, components):
        assert np.array_equal(r, c)


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("Nx,Nrho", [(3, 2), (8, 8), (17, 5), (32, 32)])
def test_dense_blocks_equal_the_fancy_slices(monkeypatch, theta_bc, Nx, Nrho):
    # each block QR solves for the spectrum (_blocks) has the bytes of
    # the fancy slice R[b][:, b]: of the reduced generator for Neumann theta,
    # of the oracle's Dirichlet generator, assembled whole, for the parity
    # blocks and the chain of Dirichlet theta, whose mode blocks come first
    # (the poles of the count)
    solved = []

    def eigvals(a):
        solved.append(a)
        return sla.eigvals(a)

    monkeypatch.setattr(spectral, "sla", SimpleNamespace(eigvals=eigvals))
    g = Grid(Nx=Nx, Nrho=Nrho)
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5, "theta_bc": theta_bc})
    R = oracles.reduced_generator(assemble_generator(g, p, oracles.modal_operators(g, p)))
    spectral._blocks(g, p, solve=True)
    if theta_bc == "neumann":
        blocks = [np.arange(R.shape[0])[b] for _, b in spectral._modal_blocks(g)]
    else:
        blocks, solved = oracles.parity_blocks(g), [solved[-2], solved[-1], solved[Nx]]
    assert len(solved) == len(blocks)
    for a, b in zip(solved, blocks):
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
    R = oracles.reduced_generator(assemble_generator(g, p, oracles.modal_operators(g, p)))
    blocks = spectral._parity_blocks(g, p, spectral._modal_reduced(g, p),
                                     [b for _, b in spectral._modal_blocks(g)])
    assert len(blocks) == 2
    for (M, theta), b in zip(blocks, oracles.parity_blocks(g)):
        want = R[b][:, b]
        for name in ("data", "indices", "indptr"):
            a, c = getattr(M, name), getattr(want, name)
            assert a.dtype == c.dtype and a.tobytes() == c.tobytes(), (b.size, name)
    assert [t.tolist() for _, t in blocks] == [list(range(1, Nx + 1, 2)),
                                                  list(range(0, Nx + 1, 2))]


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
    for run, n_dense in [(lambda: oracles.reduced_eigvals(g, p), n * (g.Nrho + 3)**2),
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
    gen = real_space_generator(g, p)
    w_dense = sla.eigvals(oracles.reduced_generator(gen).toarray())
    w_modal, modes = oracles.reduced_eigvals(g, p)
    assert len(w_modal) == len(w_dense)
    # the mode-0 transport chain is a block of its own, with eigenvalues
    # exactly -Nrho/tau
    assert np.sum(w_modal == -Nrho / p.tau) == Nrho
    if theta_bc == "neumann":
        assert len(modes) == len(w_modal)
    else:
        # two parity blocks, the even one with the theta mean, and the chain
        R = oracles.reduced_generator(assemble_generator(g, p, oracles.modal_operators(g, p)))
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
    # inverse iteration, one solve from a shift 1e-8 (1 + |lambda|) away,
    # left the Rayleigh quotient about 2e-8 off, with a residual below 1e-8;
    # accepting it wrote -0.7482970209682348 for the rightmost eigenvalue.
    # Row 0 is now the counted abscissa.  Oracle: one dense eigvals of the
    # real-space reduced generator
    p = PhysParams(**{**UNIT.__dict__, "beta": 2.7, "gamma": 3.0,
                      "theta_bc": "dirichlet"})
    g = Grid(Nx=8, Nrho=8)
    w = sla.eigvals(oracles.reduced_generator(real_space_generator(g, p)).toarray())
    res = spectrum_dense(g, p)
    assert abs(res.eigenvalues[0].real - -0.7482970387694956) <= 1e-10
    top = res.eigenvalues[:N_TOP]
    assert np.abs(top[:, None] - w[None, :]).min(axis=1).max() <= 1e-10


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
def test_refinement_keeps_every_eigenvalue_of_a_cluster(theta_bc):
    # the rightmost eigenvalues near -0.3005658 lie about 1e-8 apart, in
    # different modes; a refinement could settle on a neighbour, which then
    # appears twice and the eigenvalue itself not at all
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5, "gamma": 0.5,
                      "theta_bc": theta_bc})
    g = Grid(Nx=32, Nrho=32)
    w = oracles.reduced_eigvals(g, p)[0]
    w = w[np.argsort(-w.real)[:N_TOP]]
    assert np.ptp(w.real) < 1e-6
    res = spectrum_dense(g, p)
    dist = np.abs(res.eigenvalues[:N_TOP, None] - w[None, :])
    assert dist.min(axis=0).max() <= 1e-10 and dist.min(axis=1).max() <= 1e-10
    assert np.unique(dist.argmin(axis=1)).size == N_TOP
    # the cluster is 2e-8 to 1.2e-7 wide, far wider than each block's QR
    # bound, so every polish is confirmed: inverse iteration, from a shift
    # 1e-8 (1 + |lambda|) away, refined 3 of the 10 Dirichlet rows
    assert res.converged.all()


@pytest.mark.parametrize("N,gamma", [(16, 1.0), (64, 1.0), (32, 0.5)])
def test_dense_refinement_matches_the_superlu_refinement(N, gamma):
    # independent cross-check: the polished rows against inverse iteration
    # by SuperLU on each Neumann mode block (oracles.spectrum_superlu, with
    # its own residual tolerance).  Only the N_TOP refined rows may move, by
    # rounding, and both refine every one of them; the residual is the
    # polish's last step.  32x32 at gamma = 0.5 is the cluster above
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5, "gamma": gamma})
    g = Grid(Nx=N, Nrho=N)
    res, ref = spectrum_dense(g, p), oracles.spectrum_superlu(g, p)
    top, ref_top = res.eigenvalues[:N_TOP], ref.eigenvalues[:N_TOP]
    assert np.all(np.abs(top - ref_top) <= 1e-12 * np.abs(ref_top))
    assert res.eigenvalues[N_TOP:].tobytes() == ref.eigenvalues[N_TOP:].tobytes()
    assert np.array_equal(res.modes, ref.modes)
    assert np.array_equal(res.converged, ref.converged) and res.converged.all()
    assert np.all(res.rightmost_residuals <= 1e-13)


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("N", [8, 16])
def test_a_real_eigenvalue_is_refined_in_real_arithmetic(N, theta_bc):
    # a real QR value is polished from a real start, on a function real on
    # the real axis, so its row is real: inverse iteration in complex
    # arithmetic left imaginary parts of about 1e-16 on 8 to 9 of the 10 rows
    # here.  Every row is refined
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5, "theta_bc": theta_bc})
    g = Grid(Nx=N, Nrho=N)
    w = oracles.reduced_eigvals(g, p)[0]
    w = w[np.argsort(-w.real)[:N_TOP]]
    res = spectrum_dense(g, p)
    top = res.eigenvalues[:N_TOP]
    assert res.converged.tolist() == [True] * N_TOP
    real = w[w.imag == 0.0]
    assert real.size >= N_TOP - 2
    for lam in real:      # the refined row of each, nearest its QR value
        row = top[np.argmin(np.abs(top - lam))]
        assert abs(row - lam) <= 1e-10 and row.imag == 0.0, (lam, row)


def test_dirichlet_spectrum_solves_each_parity_block_once(monkeypatch):
    # one QR each for the odd block and the even block, after one for each
    # Neumann mode block and the chain: the count that gives row 0 takes its
    # poles from the mode blocks, as the sweep does, and the chain's
    # eigenvalues are listed from the same solve
    calls = []

    def eigvals(a):
        calls.append(a.shape[0])
        return sla.eigvals(a)

    monkeypatch.setattr(spectral, "sla", SimpleNamespace(eigvals=eigvals))
    spectrum_dense(Grid(Nx=8, Nrho=8), _dirichlet(4.5))
    assert calls == [11] * 8 + [8, 4 * 11, 4 * 11 + 1]


def _dirichlet(beta):
    return PhysParams(**{**UNIT.__dict__, "beta": beta, "theta_bc": "dirichlet"})


def _counted_blocks(g, p):
    """The two parity blocks as the Dirichlet abscissa counts them, as
    (M, theta, poles, of, f): a parity entry of _blocks and the block's root
    function.  The poles are the eigenvalues of D, its modes' Neumann QR
    eigenvalues and 0 for the theta mean, which the count polishes in place."""
    return [(*parity, f) for _, _, f, parity in spectral._blocks(g, p)[:2]]


def _mode_sized_eigvals_only(monkeypatch, grid):
    """Fail every dense eigensolve larger than one Fourier mode's block."""
    def eigvals(a):
        assert a.shape[0] <= grid.Nrho + 3, f"a dense block of {a.shape[0]} rows ran"
        return sla.eigvals(a)

    monkeypatch.setattr(spectral, "sla", SimpleNamespace(eigvals=eigvals))


# abscissae of the 64x64 Dirichlet reduced generator, recorded from dense
# eigvals: at beta = 4.5 of the 4353-row real-space matrix, at beta = 0.6 of
# the two parity blocks (oracles.reduced_eigvals)
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
           else oracles.reduced_eigvals(g, p)[0].real.max())
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
    M, theta, poles, *_ = _counted_blocks(g, p)[0]
    w = sla.eigvals(M.toarray())
    a = w.real.max()
    near = np.r_[poles, w]
    near = near[near.real > a - 2e-3].real
    offsets = np.array([1e-9, 1e-6, 1e-4])
    edges = [x for x in np.ravel(near[:, None] + np.r_[-offsets, offsets])
             if x < a]
    assert len(edges) >= 10
    for x0 in edges:
        assert spectral._count_right_of(x0, theta, poles, np.array([]), g,
                                        p) == np.sum(w.real > x0), x0


@pytest.mark.parametrize("beta,miss", [(4.5, "drop the rightmost"),
                                       (0.0, "shift at 0 only"),
                                       (4.5, "one past the box")])
def test_dirichlet_abscissa_falls_back_when_candidates_miss(monkeypatch, beta,
                                                            miss):
    # the count then differs from the candidates, and the dense block is
    # solved.  A spurious Ritz value past 2 max_i sum_j |M_ij|, a bound on
    # every eigenvalue's modulus, puts the left edge there: the count right
    # of it is 0
    g, p = Grid(Nx=16, Nrho=16), _dirichlet(beta)
    ref = oracles.reduced_eigvals(g, p)[0].real.max()
    found = spectral._rightmost_candidates

    def candidates(M, shifts, k=None):    # misses whatever k is asked for
        if miss == "shift at 0 only":
            return found(M, [0.0])
        w = found(M, shifts)
        if miss == "one past the box":
            return np.r_[w, 2.0 * abs(M).sum(axis=1).max() + 1.0]
        return w[w.real < w.real.max() - 1e-9]

    monkeypatch.setattr(spectral, "_rightmost_candidates", candidates)
    for block in _counted_blocks(g, p):
        assert spectral._counted_rightmost(*block, g, p) is None
    assert abs(spectral_abscissa(g, p)[0] - ref) <= 1e-12


def test_dirichlet_abscissa_falls_back_when_arpack_fails(monkeypatch):
    g, p = Grid(Nx=16, Nrho=16), _dirichlet(4.5)
    ref = oracles.reduced_eigvals(g, p)[0].real.max()

    def eigs(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), None)

    monkeypatch.setattr(spla, "eigs", eigs)
    assert abs(spectral_abscissa(g, p)[0] - ref) <= 1e-12


@pytest.mark.parametrize("nx,beta,gamma,ref", [
    # QR put the rightmost of a 6e-11 wide cluster at +3.1e-10: growth
    (4, 0.0, 1e6, -3.4549150282366493e-11),
    # and the rightmost of a cluster 2e-15 apart 4.6e-9 off
    (5, 1e6, 1.0, -1.0000009722239433e-06),
    # the even block holds it
    (5, 0.0, 1e6, -3.6000000001205995e-11),
])
def test_dirichlet_abscissa_at_a_large_parameter(nx, beta, gamma, ref):
    # QR does not resolve these clusters, nor did the count on QR's poles
    # (_sharpened); the count on poles polished where QR cannot place them
    # does.  The references are 60-digit eigensolves of the reduced generator
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
    eigs = spla.eigs

    def recorded(A, **kwargs):
        calls.append((A.dtype, kwargs["sigma"], kwargs["v0"].dtype))
        return eigs(A, **kwargs)

    monkeypatch.setattr(spla, "eigs", recorded)
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


@pytest.mark.parametrize("gamma,ref", [
    (1e4, -9.769791994274596e-08), (1e5, -9.7697953982987e-10),
    (1e6, -9.769795432339e-12), (1e7, -9.7697954326794e-14)])
def test_neumann_abscissa_at_a_large_gamma(gamma, ref):
    # 8x8, beta = 4.5: QR alone was 3.4e-10, 1.1e-6 and 7.4e-5 off, and at
    # gamma = 1e7 put modes 8 and 6 on top at +6.2e-9 and +4.5e-9, growth.
    # Sharpening mode 8 alone gives -3.14e-12; every block whose rounding
    # error reaches the best value is sharpened, and mode 1 holds the
    # abscissa.  The references are 60-digit eigensolves (mpmath) of every
    # mode block
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5, "gamma": gamma})
    a, lam = spectral_abscissa(Grid(Nx=8, Nrho=8), p)
    assert abs(a - ref) <= 1e-10 * abs(ref)
    assert lam == a


SYMBOL_CASES = [(8, 8, {}), (6, 5, {"kappa": 0.37, "gamma": 2.3, "beta": 0.7, "ell": 1.7})]


@pytest.mark.parametrize("Nx,Nrho,model", SYMBOL_CASES)
def test_mode_symbol_is_the_determinant_of_its_block(Nx, Nrho, model):
    # det(sI - B_k) = (s + c)^Nrho e_k(s), c = Nrho/tau, for every mode block
    # B_k of the assembled generator, at random complex s
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5, **model})
    g = Grid(Nx=Nx, Nrho=Nrho, ell=p.ell)
    R = spectral._modal_reduced(g, p)
    gk = discretization._fourier_symbols(g)[0]
    c = Nrho / p.tau
    s = np.random.default_rng(7).normal(size=(6, 2)) @ [3.0, 3.0j]
    for k, b in spectral._modal_blocks(g)[:-1]:
        B = R[b, b].toarray()
        det = np.array([np.linalg.det(z * np.eye(len(B)) - B) for z in s])
        e = spectral._symbol(s, gk[k] ** 2, spectral._delay(s, g, p), p)[1]
        assert np.all(np.abs((s + c) ** Nrho * e - det) <= 1e-12 * np.abs(det)), k


@pytest.mark.parametrize("Nx,Nrho,model", SYMBOL_CASES)
def test_secular_function_is_the_determinant_ratio(Nx, Nrho, model):
    # F(s) = det(sI - M) / det(sI - D) on both parity blocks, where D is the
    # direct sum of the parity's Neumann mode blocks (and 0 for the mean)
    p = PhysParams(**{**UNIT.__dict__, "beta": 4.5, "theta_bc": "dirichlet", **model})
    g = Grid(Nx=Nx, Nrho=Nrho, ell=p.ell)
    R = spectral._modal_reduced(g, p)
    idx = [b for _, b in spectral._modal_blocks(g)]
    s = np.random.default_rng(7).normal(size=(6, 2)) @ [3.0, 3.0j]
    for M, theta in spectral._parity_blocks(g, p, R, idx):
        M = M.toarray()
        blocks = [R[idx[k - 1], idx[k - 1]].toarray() for k in theta if k]
        ratio = []
        for z in s:
            det_d = np.prod([np.linalg.det(z * np.eye(len(B)) - B) for B in blocks])
            det_d *= z if 0 in theta else 1.0
            ratio.append(np.linalg.det(z * np.eye(len(M)) - M) / det_d)
        F = spectral._secular(s, g, p, theta)
        assert np.all(np.abs(F - ratio) <= 1e-12 * np.abs(ratio)), theta


def test_a_counted_block_of_tiny_eigenvalues_is_not_sharpened(monkeypatch):
    # nx = 4, nrho = 2, beta = 0, gamma = 1e6: the odd block's candidates lie
    # about 1e-11 apart, and the count merged those within 1e-8 (1 + |a|),
    # so it failed and the block was sharpened.  Merged within 1e-8 |a|, the
    # count settles it.  The even block was sharpened, 3.1e-13 relative off,
    # until its poles were polished where QR cannot place them; now it is
    # counted too, 1.9e-16 from the 60-digit -3.4549150282366493e-11
    sharpened = []
    sharpen = spectral._sharpened

    def recorded(M, w):
        sharpened.append(M.shape[0])
        return sharpen(M, w)

    monkeypatch.setattr(spectral, "_sharpened", recorded)
    p = PhysParams(**{**_dirichlet(0.0).__dict__, "gamma": 1e6})
    a, _ = spectral_abscissa(Grid(Nx=4, Nrho=2), p)
    assert sharpened == []
    assert a.hex() == "-0x1.2fe5c529c8975p-35"


@pytest.mark.parametrize("N", [8, 16, 32, 64])
@pytest.mark.parametrize("beta", [0.0, 0.6244, 2.7, 4.5, 20.0])
def test_neumann_abscissa_where_qr_resolves_it_is_qrs(monkeypatch, N, beta):
    # the abscissa is spectrum_dense's row 0 to the bit, from the same rule:
    # QR's rightmost eigenvalue, polished within its block's QR bound, with
    # no ARPACK call
    def candidates(*args, **kwargs):
        raise AssertionError("ARPACK ran")

    monkeypatch.setattr(spectral, "_rightmost_candidates", candidates)
    g, p = Grid(Nx=N, Nrho=N), UNIT.with_beta(beta)
    a, lam = spectral_abscissa(g, p)
    row = spectrum_dense(g, p).eigenvalues[0]
    assert a.hex() == row.real.hex() and lam == row
    w, modes, *_, owner, err = spectral._mode_eigvals(g, p)
    j = owner[np.argmax(w.real)]
    assert abs(a - w.real.max()) <= err[j]


@pytest.mark.parametrize("arpack", ["fails", "does not reproduce"])
def test_sharpened_refuses_a_real_part_within_its_rounding_error(monkeypatch, arpack):
    # QR's rightmost, 1e-10 + 1i, lies within the block's rounding error
    # 8.9e-8 in its real part, though not in its modulus; it stood when
    # ARPACK failed or its second shift did not reproduce the Ritz value
    M = sp.csr_matrix(sla.block_diag([[1e-10, -1.0], [1.0, 1e-10]], -1e8, -2.0))
    calls = []

    def candidates(A, shifts, k=None):
        calls.append(shifts)
        if arpack == "fails":
            raise RuntimeError("no convergence")
        return np.array([1e-10 + 1j, 1e-10 - 1j]) if len(calls) == 1 else np.array([5.0])

    monkeypatch.setattr(spectral, "_rightmost_candidates", candidates)
    assert spectral._qr_error(M) == pytest.approx(8.9e-8, rel=1e-2)
    with pytest.raises(FloatingPointError, match="rounding error"):
        spectral._sharpened(M, sla.eigvals(M.toarray()))
    assert len(calls) == (1 if arpack == "fails" else 2)


def test_the_odd_block_counts_an_abscissa_of_size_4e_13():
    # 8x8 Dirichlet, beta = 4.5, gamma = 1e7.  The polish of the count
    # started from the candidate rounded to an absolute 2^-30, which kept no
    # digit of -3.79e-13, and the count failed; rounded to 2^-30 of its size,
    # it gives the 60-digit abscissa (mpmath eig of both parity blocks; the
    # even block holds it, 6.7e-27 right of the odd block's)
    p = PhysParams(**{**_dirichlet(4.5).__dict__, "gamma": 1e7})
    g = Grid(Nx=8, Nrho=8)
    lam = spectral._counted_rightmost(*_counted_blocks(g, p)[0], g, p)
    ref = -3.7900800214674234e-13
    assert lam is not None and abs(lam - ref) <= 1e-12 * abs(ref), lam


def test_the_count_reads_polished_poles():
    # 8x8 Dirichlet, beta = 4.5, gamma = 1e7, the even block on the line its
    # count draws.  QR puts the poles of modes 6 and 8 at +4.5e-9 and
    # +6.2e-9, inside their blocks' QR bounds 3.8e-7 and 4.3e-7 of the line;
    # their 60-digit values, -2.43e-12 and -3.14e-12, lie left of it.  On
    # QR's poles the count reads 3; on the poles polished where QR cannot
    # place them, 1: the block's rightmost eigenvalue, -3.79e-13, alone
    p = PhysParams(**{**_dirichlet(4.5).__dict__, "gamma": 1e7})
    g, x0 = Grid(Nx=8, Nrho=8), -8.588489771600068e-13
    M, theta, poles, of, _ = _counted_blocks(g, p)[1]
    assert spectral._count_right_of(x0, theta, poles, np.array([]), g, p) == 3
    spectral._settle(poles, of, np.abs(poles.real - x0))
    assert spectral._count_right_of(x0, theta, poles, np.array([]), g, p) == 1
    assert np.all(poles.real[poles.real > x0] <= 0.0)


def test_dirichlet_abscissa_of_a_cluster_the_count_misses():
    """9x6 Dirichlet, alpha = 25.67, beta = 97.18, gamma = 0.0552, kappa =
    0.0107, tau = 26.40, ell = 0.0960: the odd block's two rightmost pairs
    lie 3.4e-10 apart in real part, near its count's line, and the count
    there reads 4 where the truth is 2, so both parity counts fail and
    shift-invert sharpens each block.  The reference is the rightmost pair
    of a 60-digit eigensolve (mpmath eig) of the odd block."""
    p = PhysParams(alpha=25.67, beta=97.18, gamma=0.0552, kappa=0.0107, tau=26.40,
                   ell=0.0960, theta_bc="dirichlet")
    a, lam = spectral_abscissa(Grid(Nx=9, Nrho=6, ell=p.ell), p)
    ref = 0.030639575250766443 + 0.08526734161781147j
    assert abs(a - ref.real) <= 1e-11 * ref.real
    assert abs(lam - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-310, 3.79e-13, 0.3, 1e300])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("bits", [30, 40])
def test_rounding_of_a_polish_is_near_and_settled(x, kind, bits):
    # finite, within one step h of z, and rounded again unchanged; h is
    # 2^-bits of the largest power of two not above a normal |z|, and not 0
    # at z = 0 or a subnormal |z|
    z = complex(x, -x if kind == "complex" else 0.0)
    r, h = spectral._rounded(z, bits)
    assert 0.0 < h < np.inf and np.isfinite(r)
    assert abs(r - z) <= h
    assert spectral._rounded(r, bits) == (r, h)
    if abs(z) >= np.finfo(float).tiny:
        assert h == np.ldexp(1.0, int(np.floor(np.log2(abs(z)))) - bits)


def test_h_weight_matrix_spd():
    g = Grid(Nx=6, Nrho=4)
    W = h_weight_matrix(real_space_generator(g, UNIT), xi=1.3).toarray()
    assert np.allclose(W, W.T)
    evals = np.linalg.eigvalsh(W)
    assert evals.min() > 0.0


def test_h_weight_matches_inner_product():
    g = Grid(Nx=6, Nrho=4)
    xi = 0.9
    W = h_weight_matrix(real_space_generator(g, UNIT), xi)
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
    E = oracles.restriction_maps(gen)[0]
    B = (E.T @ h_weight_matrix(gen, xi) @ E).toarray()
    gk = 2.0 * np.sin(np.arange(1, Nx + 1) * np.pi / (2 * (Nx + 1))) / g.dx
    u, v, z = (p.alpha + xi * g.drho) * g.dx * gk**2, np.full(Nx, g.dx), xi * g.dx * g.drho
    if theta_bc == "neumann":     # the package's coordinates, mode by mode
        modes = np.column_stack([u, v, np.full((Nx, Nrho), z), np.full(Nx, g.dx)])
        weights = np.r_[modes.ravel(), np.full(Nrho, z)]
    else:                         # the oracle's, field by field
        weights = np.r_[u, v, np.full(g.nflux * Nrho, z), np.full(g.ntheta, g.dx)]
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
    E = oracles.restriction_maps(gen)[0].toarray()
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
    gen = real_space_generator(Grid(Nx=N, Nrho=N), p)
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
    gen = real_space_generator(g, p)
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
    gen = real_space_generator(g, p)
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
    gen = real_space_generator(g, p)
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
    gen = real_space_generator(g, p)
    lam = m + 1.0
    A = (lam * sp.identity(g.dim) - gen.matrix).tocsc()
    rng = np.random.default_rng(3)
    b = rng.standard_normal(g.dim)
    x = spla.spsolve(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
