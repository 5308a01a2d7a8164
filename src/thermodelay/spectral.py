"""Eigenvalue analysis of the discrete generator on the constrained state space.

The delay reformulation lives on the subspace z(., 0) = u_x (with zero theta
mean in Neumann mode).  Spectra are taken there: sparse maps E and P
restrict the assembled generator to it.  One generator is assembled per
call, in Fourier-mode coordinates with Neumann theta (modal_operators),
where the restricted matrix splits into one small block per mode
(_modal_blocks); only those blocks are dense.  Dirichlet theta couples the
cosine modes of one parity, as the reflection x -> ell - x commutes with
the generator, so its restricted matrix splits into an odd and an even
block of about half the reduced dimension each.  Each parity block is
M = D - w c c^T: D, the Neumann mode blocks of its modes, is cut from the
Neumann matrix, and only the rank-1 theta coupling w c c^T is added
(_parity_blocks).  The Dirichlet abscissa alone needs no dense parity
block: its rightmost eigenvalue is found by sparse shift-invert and
confirmed by counting eigenvalues in a box (_counted_rightmost), with the
dense block as the fallback.  Dense blocks are cut from one permuted copy
of their sparse matrix (_dense_blocks).  Each rightmost eigenvalue is
refined on the sparse block that holds it, with that block's residual
(spectrum_dense).

The dissipativity supremum is read off the same Neumann mode blocks.  The
Gram matrix of the weighted inner product, restricted to the constrained
space, is diagonal in Fourier-mode coordinates: (alpha + xi drho) dx g_k^2
on u_k (z(., 0) = g_k u_k carries xi drho dx g_k^2 of it), dx on v_k and
theta_k, xi dx drho on each z_k at rho > 0.  So each block's pencil is one
symmetric eigenproblem.  theta drops out: v and theta weigh the same dx,
so the v-theta coupling is skew in that inner product.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretization import (Generator, _fourier_symbols, assemble_generator,
                             modal_operators)
from .grid import DenseSizeError, Grid
from .params import PhysParams

__all__ = ["SpectrumResult", "spectrum_dense", "spectral_abscissa",
           "dissipativity_test", "reduced_eigvals", "reduced_generator",
           "restriction_maps"]

DENSE_MAX_DIM = 5000     # largest block handed to the dense eigensolver
N_REFINE = 10            # rightmost eigenvalues refined by inverse iteration
RESIDUAL_TOL = 1e-8      # residual below which a refinement has converged
N_CANDIDATES = 6         # eigenvalues per shift in the Dirichlet abscissa
WINDING_ROUNDS = 60      # bisection rounds of the winding-number contour
WINDING_MAX_SAMPLES = 200_000
SECANT_STEPS = 20        # polishing steps of the counted Dirichlet eigenvalue


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray        # sorted by real part, descending
    rightmost_residuals: np.ndarray
    converged: np.ndarray          # per refined eigenvalue
    modes: np.ndarray | None = None  # Fourier mode per eigenvalue (Neumann only)


def restriction_maps(gen: Generator):
    """Sparse embedding E and left inverse P of the constrained subspace.

    E maps reduced coordinates (u, v, z at rho > 0, theta coordinates) to full
    packed coordinates obeying the domain constraints: z(., 0) = G u and, in
    Neumann mode, zero theta mean, through an orthonormal basis of the
    mean-zero vectors (in modal coordinates: every theta mode but the
    constant one).  P recovers reduced coordinates, P E = I.  The
    constrained subspace is invariant under the generator, so
    A @ E = E @ (P @ A @ E) up to rounding.
    """
    grid = gen.grid
    Nx, nf, nr = grid.Nx, grid.nflux, grid.Nrho + 1
    z = 2 * Nx + np.arange(nf * nr).reshape(nf, nr)     # packed z indices
    kept = np.r_[np.arange(2 * Nx), z[:, 1:].ravel()]   # u, v, z at rho > 0
    n_full, n_kept = 2 * Nx + nf * nr, kept.size
    G = gen.ops.G.tocoo()
    # identity on the kept coordinates, and z(., 0) = G u
    E_uvz = sp.csr_matrix(
        (np.r_[np.ones(n_kept), G.data],
         (np.r_[kept, z[G.row, 0]], np.r_[np.arange(n_kept), G.col])),
        shape=(n_full, n_kept))
    P_uvz = sp.csr_matrix((np.ones(n_kept), (np.arange(n_kept), kept)),
                          shape=(n_kept, n_full))

    if gen.p.theta_bc == "dirichlet":
        theta = sp.identity(grid.ntheta, format="csr")
    elif gen.ops.modal:
        theta = sp.identity(grid.ntheta, format="csr")[:, 1:]
    else:
        theta = sp.csr_matrix(sla.null_space(np.ones((1, grid.ntheta))))
    E = sp.block_diag([E_uvz, theta], format="csr")
    P = sp.block_diag([P_uvz, theta.T], format="csr")
    return E, P


def reduced_generator(gen: Generator) -> sp.csr_matrix:
    """Generator restricted to the discrete state space, as a sparse matrix.

    The full-space matrix conserves z(., 0) - u_x componentwise and (in
    Neumann mode) the theta mass, so it carries Nx + 1 (Neumann: Nx + 2)
    structural zero eigenvalues; the restriction removes exactly those, and
    every spectrum in this module is taken on the reduced matrix.  Raises
    FloatingPointError if an entry is not finite (a coefficient overflowed
    in assembly), before any eigensolver sees it.
    """
    E, P = restriction_maps(gen)
    R = (P @ (gen.matrix @ E)).tocsr()
    if not np.isfinite(R.data).all():
        raise FloatingPointError("the generator has a non-finite entry")
    return R


def _modal_blocks(grid: Grid) -> list[tuple[int, np.ndarray]]:
    """The blocks of the reduced Neumann generator in Fourier-mode
    coordinates, as (mode, ascending reduced indices), ordered by first
    index.

    Each mode k = 1..Nx is a block of Nrho + 3 reduced coordinates (u, v,
    z at rho > 0, theta; see restriction_maps), and the mode-0 transport
    chain, of Nrho, comes last.  These are the weakly connected components
    of the reduced generator's sparsity graph.
    """
    Nx, Nrho = grid.Nx, grid.Nrho
    z = 2 * Nx + np.arange(Nrho)
    theta = 2 * Nx + grid.nflux * Nrho - 1    # no theta mean: cosine k is k - 1
    return ([(k, np.r_[k - 1, Nx + k - 1, z + k * Nrho, theta + k])
             for k in range(1, Nx + 1)] + [(0, z)])


def _dense_blocks(A: sp.spmatrix, blocks: list[np.ndarray]) -> Iterator[np.ndarray]:
    """The dense submatrices A[b][:, b] for the index sets b in blocks, one
    at a time.

    A is permuted once so that the blocks follow each other on its
    diagonal; each is then one contiguous slice of the permuted matrix,
    made dense only when it is reached, so that no more than one dense
    block is held.
    """
    perm = np.concatenate(blocks)
    Ap = A.tocsr()[perm][:, perm]
    ends = np.cumsum([b.size for b in blocks])
    return (Ap[e - b.size:e, e - b.size:e].toarray() for b, e in zip(blocks, ends))


def _check_dense_dim(dim: int):
    if dim > DENSE_MAX_DIM:
        raise DenseSizeError(f"dense block of dimension {dim} exceeds "
                             f"the limit {DENSE_MAX_DIM}")


def _modal_reduced(grid: Grid, p: PhysParams) -> sp.csr_matrix:
    """The reduced generator in Fourier-mode coordinates (modal_operators),
    with Neumann theta whatever p's theta_bc: its blocks are _modal_blocks."""
    p = replace(p, theta_bc="neumann")
    return reduced_generator(assemble_generator(grid, p, modal_operators(grid, p)))


def _mode_eigvals(grid: Grid, p: PhysParams):
    """Every QR eigenvalue of the reduced Neumann modal generator R and its
    Fourier mode, whatever p's theta_bc; then R, the index sets of its
    blocks (_modal_blocks) and each eigenvalue's block.  The largest block
    is checked against DENSE_MAX_DIM before R is assembled."""
    ks, idx = zip(*_modal_blocks(grid))
    _check_dense_dim(max(b.size for b in idx))
    R = _modal_reduced(grid, p)
    w = np.concatenate([sla.eigvals(a) for a in _dense_blocks(R, idx)])
    owner = np.repeat(np.arange(len(idx)), [b.size for b in idx])
    return w, np.array(ks)[owner], R, idx, owner


def _block_eigvals(grid: Grid, p: PhysParams):
    """_mode_eigvals for Neumann theta.  For Dirichlet theta the same, with
    mode None, of R = diag(odd block, even block, chain) (_parity_blocks):
    the larger parity block, (Nx + 1) // 2 odd or Nx // 2 even modes of
    Nrho + 3 rows and the theta mean, is checked before any assembly."""
    if p.theta_bc == "neumann":
        return _mode_eigvals(grid, p)
    Nx, n = grid.Nx, grid.Nrho + 3
    _check_dense_dim(max((Nx + 1) // 2 * n, Nx // 2 * n + 1))
    blocks = [M for M, _, _ in _parity_blocks(grid, p)]
    R = sp.block_diag(blocks, format="csr")
    idx = np.split(np.arange(R.shape[0]), np.cumsum([M.shape[0] for M in blocks])[:-1])
    w = np.concatenate([sla.eigvals(a) for a in _dense_blocks(R, idx)])
    return w, None, R, idx, np.repeat(np.arange(len(idx)), [b.size for b in idx])


def reduced_eigvals(grid: Grid, p: PhysParams):
    """Eigenvalues of the reduced generator and their modes (_block_eigvals)."""
    return _block_eigvals(grid, p)[:2]


def spectrum_dense(grid: Grid, p: PhysParams) -> SpectrumResult:
    """All eigenvalues of the generator on the constrained state space.

    QR (LAPACK) gives every eigenvalue, block by block (_block_eigvals).  The
    N_REFINE rightmost are refined by shifted inverse iteration (SuperLU) on
    the sparse block that holds each, a Neumann mode or a Dirichlet parity
    block, from the shift 1e-8 (1 + |lambda|).  The first iterate is only about
    1e-8 accurate, and in a cluster the iteration can settle on a neighbour, so
    a Rayleigh quotient replaces its QR value (converged) only when its
    residual is at most RESIDUAL_TOL, it moved by at most 1e-12 (1 + |lambda|)
    since the previous iterate (the first is compared with the QR value), and
    no other QR eigenvalue lies nearer.  The residual is the block's at the
    last iterate, in reduced coordinates, and inf where the shift cannot be
    factored or the iterate, Rayleigh quotient or residual is not finite.
    Raises FloatingPointError if a QR eigenvalue is not finite.
    """
    w, modes, R, blocks, owner = _block_eigvals(grid, p)
    if not np.isfinite(w).all():
        raise FloatingPointError("the spectrum has a non-finite eigenvalue")
    order = np.argsort(-w.real)
    w = w[order]
    rng = np.random.default_rng(1234)
    k = min(N_REFINE, w.size)
    residuals = np.full(k, np.inf)
    converged = np.zeros(k, dtype=bool)
    refined = w.copy()
    for i in range(k):
        b = blocks[owner[order[i]]]
        A = R[b][:, b].astype(complex)
        lam = w[i]
        shift = lam + 1e-8 * (1.0 + abs(lam))
        try:
            lu = spla.splu((A - shift * sp.identity(b.size)).tocsc())
        except RuntimeError:
            continue
        x = rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size)
        prev = lam
        with np.errstate(all="ignore"):   # overflow is caught below
            for _ in range(5):
                x = lu.solve(x)
                norm = np.linalg.norm(x)
                if not 0.0 < norm < np.inf:
                    res = np.inf
                    break
                x /= norm
                Ax = A @ x
                lam_r = np.vdot(x, Ax)
                res = np.linalg.norm(Ax - lam_r * x)
                if res <= RESIDUAL_TOL and abs(lam_r - prev) <= 1e-12 * (1.0 + abs(lam)):
                    # settled; kept only if it is nearest its own QR value
                    dist = np.abs(w - lam_r)
                    if dist[i] <= dist.min():
                        refined[i], converged[i] = lam_r, True
                    break
                prev = lam_r
        if np.isfinite(res):
            residuals[i] = res
    order2 = np.argsort(-refined.real)
    return SpectrumResult(eigenvalues=refined[order2],
                          rightmost_residuals=residuals, converged=converged,
                          modes=None if modes is None else modes[order][order2])


def spectral_abscissa(grid: Grid, p: PhysParams):
    """Maximum real part of the constrained-space spectrum and the achieving
    eigenvalue.

    Neumann theta takes every eigenvalue per Fourier mode (reduced_eigvals);
    Dirichlet theta counts instead of listing (_dirichlet_rightmost).
    """
    if p.theta_bc == "neumann":
        w = reduced_eigvals(grid, p)[0]
    else:
        w = _dirichlet_rightmost(grid, p)
    idx = int(np.argmax(w.real))
    return float(w.real[idx]), complex(w[idx])


def _dirichlet_rightmost(grid: Grid, p: PhysParams) -> np.ndarray:
    """The rightmost eigenvalues of the reduced Dirichlet generator, per block.

    Each parity block is counted (_counted_rightmost); one whose count
    fails is solved densely, and its rightmost eigenvalue sharpened
    (_sharpened).  The mode-0 transport chain is the same as in Neumann
    mode.
    """
    *blocks, (_, _, chain) = _parity_blocks(grid, p)
    out = [chain]
    for M, theta, poles in blocks:
        lam = _counted_rightmost(M, theta, poles, grid, p)
        if lam is None:
            _check_dense_dim(M.shape[0])
            lam = _sharpened(M, sla.eigvals(M.toarray()))
        out.append(np.atleast_1d(lam))
    return np.concatenate(out)


def _sharpened(M: sp.spmatrix, w: np.ndarray) -> complex:
    """The rightmost of the dense eigenvalues w of M, sharpened where QR
    does not resolve it.

    QR finds every eigenvalue, but only to about err = n eps ||M||_1.  At
    a large beta, gamma, kappa or ell that may exceed 1e-9 of the rightmost
    eigenvalue, often its size and the spacing of its cluster, which is
    then too fine to count.  Shift-invert Arnoldi at the QR value then
    finds the eigenvalues nearest it, mostly to about eps relative.  The
    rightmost of those within err of it is kept if a second shift at
    itself reproduces it to 1e-9, rounded to 2^-40 relative so that the
    BLAS thread count does not show.  The second shift sits that rounding
    unit above it, off the real axis: a real eigenvalue found to the last
    bit would make the shifted matrix exactly singular.  Both runs iterate
    in complex arithmetic, even at a real shift: at the edge of double
    precision the rounding decides the last bits and whether the
    confirmation holds, and the complex runs are the ones checked against
    60-digit references.  A Ritz value that is not reproduced
    is an artefact of a spectrum beyond double precision, and QR's stands,
    unless err is at least its size: then not even its sign is known, and
    FloatingPointError is raised.  It is raised as well when the first run
    finds no eigenvalue within err of QR's value, which shift-invert then
    contradicts: such a value can be wrong in sign (+1.708 where the
    abscissa is -0.0384, at ell = 7.3e-6).  Only when ARPACK fails does QR's
    value go unchecked, under the rule above.
    """
    z0 = w[np.argmax(w.real)]
    err = M.shape[0] * np.finfo(float).eps * spla.norm(M, 1)
    if err <= 2.0**-30 * abs(z0):
        return z0
    z = None
    try:
        C = M.astype(complex)
        cand = _rightmost_candidates(C, [z0])
        cand = cand[np.abs(cand - z0) <= err]
        if not cand.size:
            raise FloatingPointError(f"shift-invert finds no eigenvalue within the "
                                     f"rounding error {err:.3g} of QR's rightmost {z0}")
        z = cand[np.argmax(cand.real)]
        h = math.ldexp(1.0, math.frexp(abs(z))[1] - 41)
        again = _rightmost_candidates(C, [z + 1j * h])
        if not np.abs(again - z).min() <= 2.0**-30 * abs(z):
            z = None
    except RuntimeError:      # a singular shift or an ArpackError
        z = None
    if z is None:
        if err >= abs(z0):
            raise FloatingPointError(f"the rightmost eigenvalue {z0} lies within "
                                     f"the rounding error {err:.3g} of its block")
        return z0
    return complex(round(z.real / h) * h, round(z.imag / h) * h)


def _parity_blocks(grid: Grid, p: PhysParams):
    """The blocks of the reduced Dirichlet generator in Fourier-mode
    coordinates, as (M, theta, poles): the odd and the even parity block,
    then the mode-0 transport chain.

    M is the sparse block, theta its cosine modes and poles the eigenvalues
    of D, where M = D - w c c^T: D is the Neumann per-mode block-diagonal
    matrix of its modes (and 0 for the theta mean), w = 4 kappa/dx^2 and c
    the corner cosines on its theta modes.  So det(M - sI) = det(D - sI) F(s)
    with the scalar F of _secular.  M is cut from the reduced Neumann
    generator, whose mode blocks also give the poles (_mode_eigvals), in
    the order u, v, z, theta of its modes, the even block with a theta-mean
    row and column; only its theta-theta block,
    kappa (-diag(g^2) - (4/dx^2) c c^T), is written here.  The chain has
    no theta mode: M = D.
    """
    # the theta coupling of the larger parity block is stored densely
    nf = grid.nflux
    _check_dense_dim(nf - nf // 2)
    poles, modes, R, idx, _ = _mode_eigvals(grid, p)
    g, c = _fourier_symbols(grid)
    blocks = []
    for parity in (1, 0):
        theta = np.arange(parity, nf, 2)           # even: with the theta mean
        B = np.array([idx[k - 1] for k in theta[theta > 0]])     # mode blocks
        cut = np.r_[B[:, 0], B[:, 1], B[:, 2:-1].ravel(), B[:, -1]]
        n, mean = cut.size - B.shape[0], parity ^ 1     # (u, v, z) rows; the mean
        D = R[cut][:, cut].tocoo()
        off = (D.row < n) | (D.col < n)        # all but D's theta diagonal
        at = np.r_[np.arange(n), np.arange(n + mean, n + theta.size)]  # rows in M
        with np.errstate(over="ignore", invalid="ignore"):
            L = -np.multiply.outer(4.0 / grid.dx**2 * c[theta], c[theta])
            L[np.diag_indices_from(L)] -= g[theta] ** 2
            L *= p.kappa
        if not np.isfinite(L).all():
            raise FloatingPointError("the generator has a non-finite entry")
        i, j = np.nonzero(L)
        M = sp.csr_matrix((np.r_[D.data[off], L[i, j]],
                           (np.r_[at[D.row[off]], n + i], np.r_[at[D.col[off]], n + j])),
                          shape=(n + theta.size,) * 2)
        blocks.append((M, theta, np.r_[poles[(modes % 2 == parity) & (modes > 0)],
                                       np.zeros(mean)]))
    chain = idx[-1]
    return blocks + [(R[chain][:, chain], np.arange(0), poles[modes == 0])]


def _secular(s: np.ndarray, grid: Grid, p: PhysParams,
             theta: np.ndarray) -> np.ndarray:
    """F(s) = det(M - sI) / det(D - sI) for the parity block on the cosine
    modes `theta` (see _parity_blocks), at the points s.

    F(s) = 1 + (4 kappa/dx^2) sum_k c_k^2 rho_k(s), where rho_k is the
    theta-theta entry of (sI - D_k)^-1 with z eliminated exactly:
    rho_k = 1/(s + kappa mu + gamma^2 mu s / (s^2 + beta mu s
    + alpha mu r^Nrho)), r = c/(s + c), c = Nrho/tau, mu = g_k^2 (so
    rho_0 = 1/s).  Summed mode by mode, so memory stays that of s.
    """
    g, c = _fourier_symbols(grid)
    rate = grid.Nrho / p.tau
    with np.errstate(all="ignore"):   # a non-finite F is checked by the caller
        rN = (rate / (s + rate)) ** grid.Nrho
        acc = np.zeros_like(s)
        for k in theta:
            mu = g[k] ** 2
            q = s * (s + p.beta * mu) + p.alpha * mu * rN
            acc += c[k] ** 2 / (s + p.kappa * mu + p.gamma**2 * mu * s / q)
        return 1.0 + 4.0 * p.kappa / grid.dx**2 * acc


def _rightmost_candidates(M: sp.spmatrix, shifts,
                          k: int = N_CANDIDATES) -> np.ndarray:
    """The k eigenvalues of M nearest each shift, by sparse shift-invert
    Arnoldi (ARPACK) from a fixed start vector of ones, with their
    conjugates (M is real, or the complex copy of a real matrix).  A real
    shift iterates in M's own arithmetic, real for a real M; a complex
    shift, in complex arithmetic."""
    A = M.tocsc()
    n = A.shape[0]
    w = []
    for sigma in map(complex, shifts):
        if sigma.imag == 0.0:
            B, sigma = A, sigma.real
        else:
            B = A.astype(complex, copy=False)
        w.append(spla.eigs(B, k=min(k, n - 2), sigma=sigma,
                           v0=np.ones(n, B.dtype), return_eigenvectors=False))
    w = np.concatenate(w)
    return np.r_[w, w.conj()]


def _gershgorin_box(M: sp.spmatrix):
    """X >= Re(lambda) and Y >= |Im(lambda)| for every eigenvalue of the real
    sparse M, from its Gershgorin discs by rows and by columns."""
    d = M.diagonal()
    A = abs(M - sp.diags(d)).tocsr()
    one = np.ones(A.shape[0])
    rows, cols = A @ one, A.T @ one
    return (min(np.max(d + rows), np.max(d + cols)),
            min(np.max(rows), np.max(cols)))


def _edge(a: float, b: float, marks: np.ndarray, step: float) -> np.ndarray:
    """Samples from a to b: a uniform grid at most `step` apart and the
    marks strictly between them."""
    lo, hi = min(a, b), max(a, b)
    t = np.unique(np.r_[np.linspace(lo, hi, int(np.ceil((hi - lo) / step)) + 1),
                        marks[(marks > lo) & (marks < hi)]])
    return t if a <= b else t[::-1]


def _winding(f, x0: float, X: float, Y: float, known: np.ndarray,
             step: float) -> int | None:
    """Winding number of f around the box x0 < Re s < X, |Im s| < Y.

    f(conj s) = conj f(s), so the winding number is the change of arg f
    along the upper half X -> X + iY -> x0 + iY -> x0, divided by pi.  Each
    edge is sampled at most `step` apart and, for each known pole or zero,
    at its projection onto the edge and one distance from it either side;
    then every step is bisected until f turns by at most pi/8 from sample
    to sample.  The result is sampled, not proven.  Returns None when f is
    not finite on the path or the refinement does not settle.
    """
    re, im = known.real, known.imag

    def vertical(x):
        d = np.abs(re - x)
        return np.r_[im, im - d, im + d]

    top = np.r_[re, re - np.abs(im - Y), re + np.abs(im - Y)]
    s = np.r_[X + 1j * _edge(0.0, Y, vertical(X), step),
              (_edge(X, x0, top, step) + 1j * Y)[1:],
              (x0 + 1j * _edge(Y, 0.0, vertical(x0), step))[1:]]
    fs = f(s)
    for _ in range(WINDING_ROUNDS):
        with np.errstate(all="ignore"):
            turn = np.angle(fs[1:] / fs[:-1])
        if not np.all(np.isfinite(turn)):
            return None
        wide = np.flatnonzero(np.abs(turn) > np.pi / 8)
        if wide.size == 0:
            n = turn.sum() / np.pi
            return round(n) if abs(n - round(n)) < 1e-6 else None
        if s.size + wide.size > WINDING_MAX_SAMPLES:
            return None
        mid = 0.5 * (s[wide] + s[wide + 1])
        s = np.insert(s, wide + 1, mid)
        fs = np.insert(fs, wide + 1, f(mid))
    return None


def _count_right_of(x0: float, M: sp.spmatrix, theta: np.ndarray,
                    poles: np.ndarray, known: np.ndarray, grid: Grid,
                    p: PhysParams) -> int | None:
    """Number of eigenvalues of the parity block M (see _parity_blocks)
    with real part above x0, or None when the winding number is not settled.

    The box x0 < Re s < X, |Im s| < Y holds all of them: X and Y are the
    Gershgorin bounds of M plus a margin, which keeps every
    eigenvalue off its right, top and bottom edges.  The count is the poles
    (eigenvalues of D) in the box plus the winding number of F (_secular)
    around it, sampled also at the poles and the other `known` points.
    None also when the bounds overflow, and 0 when x0 is not left of X (a
    spurious candidate put it there): no eigenvalue lies right of X.
    """
    X, Y = _gershgorin_box(M)
    if not np.isfinite(X + Y):
        return None
    if x0 >= X:
        return 0
    margin = (X - x0 + Y) / 8.0
    X, Y = X + margin, Y + margin
    winding = _winding(lambda s: _secular(s, grid, p, theta), x0, X, Y,
                       np.r_[poles, known], margin / 4.0)
    if winding is None:
        return None
    inside = (poles.real > x0) & (poles.real < X) & (np.abs(poles.imag) < Y)
    return int(inside.sum()) + winding


def _counted_rightmost(M: sp.spmatrix, theta: np.ndarray, poles: np.ndarray,
                       grid: Grid, p: PhysParams) -> complex | None:
    """Rightmost eigenvalue of the Dirichlet parity block M, or None when
    the count does not confirm it.

    1. Candidates: shift-invert Arnoldi at 0 and at the rightmost pole.
    2. The left edge x0 lies in the widest gap between pole real parts just
       below the rightmost candidate a: at most 1e-3 (1 + |a|) below it, and
       above the next candidate.
    3. The eigenvalues right of x0 are counted (_count_right_of).
    4. The candidate is accepted if the count equals the number of distinct
       candidates right of x0.  A count above it means candidates were
       missed: steps 1-3 are redone once with 4 N_CANDIDATES per shift.
    """
    top = poles[np.argmax(poles.real)]
    shifts = dict.fromkeys([0j, complex(top.real, abs(top.imag))])
    for k in (N_CANDIDATES, 4 * N_CANDIDATES):
        try:
            cand = _rightmost_candidates(M, shifts, k)
        except RuntimeError:      # a singular shift or an ArpackError
            return None
        a = cand.real.max()
        tol = 1e-8 * (1.0 + abs(a))
        lo = max(a - 1e-3 * (1.0 + abs(a)),
                 cand.real[cand.real < a - tol].max(initial=-np.inf))
        cuts = np.sort(np.r_[lo, a, poles.real[(poles.real > lo) & (poles.real < a)]])
        i = int(np.argmax(np.diff(cuts)))
        x0 = 0.5 * (cuts[i] + cuts[i + 1])

        distinct = []
        for z in sorted(cand[cand.real > x0], key=lambda z: (-z.real, -z.imag)):
            if all(abs(z - d) > tol for d in distinct):
                distinct.append(z)
        count = _count_right_of(x0, M, theta, poles, cand, grid, p)
        if count is None or count <= len(distinct):
            break
    if count != len(distinct):
        return None
    lam = complex(distinct[0].real,
                  abs(distinct[0].imag) if abs(distinct[0].imag) > tol else 0.0)
    # F times the distance to the nearest pole has the same root there but
    # no pole beside it, which may sit closer than the rounded start
    near = poles[np.argmin(np.abs(poles - lam))]
    return _secant_root(lambda s: _secular(s, grid, p, theta) * (s - near), lam)


def _secant_root(f, z: complex) -> complex | None:
    """The root of f next to z, by the secant method from z rounded to
    about 1e-9 relative, or None if it does not settle within that.

    The last bits of an ARPACK eigenvalue depend on the BLAS thread count;
    the root found from the rounded start does not, and it is the
    eigenvalue as accurately as f can be evaluated.
    """
    h = 2.0 ** (np.floor(np.log2(1.0 + abs(z))) - 30)
    s0 = complex(round(z.real / h) * h, round(z.imag / h) * h)
    s1 = s0 + h
    f0, f1 = (complex(f(np.array([s]))[0]) for s in (s0, s1))
    for _ in range(SECANT_STEPS):
        if f1 == f0:
            break
        s0, s1 = s1, s1 - f1 * (s1 - s0) / (f1 - f0)
        f0, f1 = f1, complex(f(np.array([s1]))[0])
        if abs(s1 - s0) <= 4.0 * np.finfo(float).eps * abs(s1):
            break
    return s1 if np.isfinite(s1) and abs(s1 - z) <= 4.0 * h else None


def dissipativity_test(grid: Grid, p: PhysParams, xi: float,
                       m: float | None = None, *, trials: int | None = None,
                       seed: int | None = None) -> dict:
    """Exact supremum of <(A_h - m I) x, x>_W / <x, x>_W over the discrete
    state space, W the Gram matrix of the weighted inner product.

    With x = E y and A E = E R (R the reduced generator), it is the top
    eigenvalue of the pencil (sym(D R) - m D, D), D = E^T W E.  In
    Fourier-mode coordinates D is diagonal: D_k = ((alpha + xi drho) dx g_k^2,
    dx, xi dx drho x Nrho) on (u_k, v_k, z_k at rho > 0), the u weight
    taking in z(., 0) = g_k u_k, and xi dx drho on the mode-0 chain.  So the
    supremum is max_k lambda_max(sym(D_k^1/2 R_k D_k^-1/2)) - m over the
    mode blocks R_k, one symmetric eigenproblem each.  theta_k drops: it
    weighs dx as v_k does, so the v-theta coupling is skew and leaves no
    entry in the symmetric part, whose theta part, kappa L_theta on the
    constrained theta space, lies below 0, the value at a state whose only
    free nonzero field is u.  The (u, v, z) rows do not depend on theta_bc,
    so the Neumann blocks (Nrho + 2 rows each) serve both.  For
    xi > 2 tau alpha^2/beta and the paper's m the supremum is expected
    nonpositive up to the O(drho) quadrature defect.  trials and seed are
    ignored (trials is echoed back); they keep the benchmark's call working
    until its next change retires them.
    """
    if not (p.alpha > 0 and xi > 0):
        raise ValueError("the weight W needs alpha > 0 and xi > 0")
    if m is None:
        if p.beta <= 0:
            raise ValueError("paper shift needs beta > 0; pass m explicitly")
        m = p.alpha**2 / p.beta + xi / (2.0 * p.tau)

    # each mode's block without its theta coordinate, the last one
    modal = _modal_blocks(grid)
    blocks = [b if k == 0 else b[:-1] for k, b in modal]
    _check_dense_dim(max(b.size for b in blocks))
    R = _modal_reduced(grid, p)
    g = _fourier_symbols(grid)[0]
    sup = -np.inf
    for (k, _), a in zip(modal, _dense_blocks(R, blocks)):
        if k:      # D_k^1/2 a D_k^-1/2; the chain's weights are all equal
            d = np.full(a.shape[0], xi * grid.dx * grid.drho)
            d[:2] = (p.alpha + xi * grid.drho) * grid.dx * g[k] ** 2, grid.dx
            s = np.sqrt(d)
            a = a * s[:, None] / s
        sup = max(sup, np.linalg.eigvalsh(0.5 * (a + a.T))[-1])
    return {"max_rayleigh": float(sup - m), "m_used": float(m), "trials": trials}
