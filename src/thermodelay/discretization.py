"""Finite-difference operators, the state and the assembled discrete
generator, on the Grid of thermodelay.grid (re-exported here).

Layout conventions (fixed; the generator's coordinates are u, v, z row-major
in x then rho, theta):

  * u, v live at the Nx interior nodes x_i = i dx, i = 1..Nx, with homogeneous
    Dirichlet values eliminated (dx = ell/(Nx+1)).
  * u_x (and the delay field z) live at the Nx+1 flux points (i+1/2) dx,
    which are also the centers of the Nx+1 cells partitioning (0, ell).
  * theta is cell-centered on those same Nx+1 cells, so the coupling terms
    v_x <-> theta_x pair up without interpolation and the flux form of the
    heat row conserves the discrete theta mass exactly in Neumann mode.
  * z has Nrho+1 rho-nodes rho_i = i/Nrho; the rho = 0 column is tied to u_x.

The operators are built in Fourier-mode coordinates alone (build_operators):
the orthonormal DST-I on the nodes and the orthonormal DCT-II on the cells,
where every Fourier mode of the generator is its own block.  modal_state
takes a state there.  The module imports numpy only: the sparse matrices
are assembled, and scipy.sparse imported, when an Operators' G or L_theta
is first read or a generator is assembled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .grid import DenseSizeError, Grid, grad_u
from .params import PhysParams

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["Grid", "State", "Operators", "Generator", "DenseSizeError",
           "build_operators", "modal_state", "strain", "assemble_generator",
           "grad_u"]


@dataclass
class State:
    """Discrete state (u, v, z, theta) on a Grid; with modal=True, in the
    Fourier-mode coordinates of build_operators (see modal_state)."""

    u: np.ndarray      # (Nx,)
    v: np.ndarray      # (Nx,)
    z: np.ndarray      # (Nx+1, Nrho+1)
    theta: np.ndarray  # (Nx+1,)
    modal: bool = False

    @classmethod
    def zeros(cls, grid: Grid) -> "State":
        return cls(
            u=np.zeros(grid.Nx),
            v=np.zeros(grid.Nx),
            z=np.zeros((grid.nflux, grid.Nrho + 1)),
            theta=np.zeros(grid.ntheta),
        )


class Operators:
    """The gradient G and the Neumann theta Laplacian L_theta of one grid,
    in Fourier-mode coordinates (see build_operators).

    g holds the symbols of G, g[k] = 2 sin(k pi / (2 (Nx+1))) / dx with
    g[0] = 0, and c = C[0] the first row of the orthonormal DCT-II, of which
    the Dirichlet corner term is made; both are read-only.  The sparse G
    (sine mode k -> cosine mode k, times g_k) and L_theta = -diag(g)^2 are
    assembled, and scipy.sparse imported, when first read.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.g, self.c = _fourier_symbols(grid)

    @functools.cached_property
    def G(self) -> sp.csr_matrix:
        import scipy.sparse as sp
        k = np.arange(1, self.grid.Nx + 1)
        return sp.csr_matrix((self.g[1:], (k, k - 1)),
                             shape=(self.grid.nflux, self.grid.Nx))

    @functools.cached_property
    def L_theta(self) -> sp.csr_matrix:
        import scipy.sparse as sp
        with np.errstate(over="ignore"):     # inf; spectral.reduced_generator reports it
            return sp.diags(-self.g ** 2, format="csr")


def build_operators(grid: Grid, p: PhysParams) -> Operators:
    """The operators of every stencil, in Fourier-mode coordinates, for
    either theta_bc.

    In real space the stencils derive from the gradient G (interior nodes
    -> flux points): the divergence (also theta_x at the interior faces) is
    -G^T, the Dirichlet Laplacian of u is -G^T G and the zero-flux theta
    Laplacian -G G^T.  With the orthonormal DST-I S on the interior nodes
    (u, v) and the orthonormal DCT-II C on the cells (z, theta), C^T G S
    maps sine mode k to cosine mode k with the symbol g_k, and the Neumann
    C^T L_theta C = -diag(g)^2 with g_0 = 0 (the conserved theta mean).  A
    generator assembled from these operators is T^T A T for the orthogonal
    T = diag(S, S, C (x) I, C), and every Fourier mode is its own block.
    Dirichlet theta adds the corner term -(2/dx^2)(e_0 e_0^T + e_Nx e_Nx^T)
    to the real-space L_theta; it becomes -(4/dx^2) c_j c_k for
    j = k (mod 2), with c = C[0], and couples the cosine modes of one
    parity.  L_theta is Neumann's whatever p.theta_bc: the users of
    Dirichlet theta add that rank-one term per parity to the Neumann blocks
    themselves (spectral._parity_blocks, integrate.factor_implicit).

    The grid's length is checked against the model's here: a mismatch would
    silently give the spectrum of another length.
    """
    if grid.ell != p.ell:
        raise ValueError(f"grid length ell = {grid.ell} differs from the "
                         f"model's ell = {p.ell}")
    return Operators(grid)


@functools.lru_cache(maxsize=64)
def _fourier_symbols(grid: Grid):
    """The symbols g of G and the corner cosines c = C[0] of Operators,
    read-only: the Dirichlet corner term on cosine modes j, k is
    -(4/dx^2) c_j c_k for j = k (mod 2)."""
    j = np.arange(grid.nflux)
    g = 2.0 * np.sin(j * np.pi / (2 * grid.nflux)) / grid.dx
    c = (np.sqrt(np.where(j == 0, 1.0, 2.0) / grid.nflux)
         * np.cos(j * np.pi / (2 * grid.nflux)))
    g.flags.writeable = c.flags.writeable = False
    return g, c


def _dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis (its own inverse), by one FFT."""
    n = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    ext[..., 1:n + 1] = x
    return np.fft.rfft(ext)[..., 1:n + 1].imag * -math.sqrt(2.0 / (n + 1))


def _dct2(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the last axis, the coefficients C^T x, by
    one FFT of the even extension."""
    n = x.shape[-1]
    k = np.arange(n)
    y = np.fft.rfft(np.concatenate([x, x[..., ::-1]], axis=-1))[..., :n]
    return ((y * np.exp(-0.5j * np.pi * k / n)).real
            * np.where(k == 0, math.sqrt(0.25 / n), math.sqrt(0.5 / n)))


def modal_state(state: State) -> State:
    """state in the Fourier-mode coordinates of build_operators: u and v by
    the orthonormal DST-I, theta and every rho column of z by the
    orthonormal DCT-II.  The transforms are orthogonal, so norms and inner
    products are those of the real-space state."""
    if state.modal:
        raise ValueError("the state is modal already")
    return State(u=_dst1(state.u), v=_dst1(state.v), z=_dct2(state.z.T).T,
                 theta=_dct2(state.theta), modal=True)


def strain(state: State, grid: Grid) -> np.ndarray:
    """u_x at the flux points; for a modal state, its cosine coefficients
    g_k u_k, with 0 for the constant mode."""
    if not state.modal:
        return grad_u(state.u, grid.dx)
    g = _fourier_symbols(grid)[0]
    out = np.empty(grid.nflux)
    out[0] = 0.0
    np.multiply(g[1:], state.u, out=out[1:])
    return out


@dataclass
class Generator:
    """Assembled discrete generator acting on packed state vectors."""

    grid: Grid
    p: PhysParams
    matrix: sp.csr_matrix
    ops: Operators = field(repr=False, default=None)


def _vtheta_blocks(ops: Operators, p: PhysParams) -> list:
    """The generator's stiff (v, theta) rows and columns as 2 x 2 blocks,
    [[beta D G, -gamma D], [-gamma G, kappa L_theta]] with D = -G^T."""
    G = ops.G
    D = -G.T
    return [[p.beta * (D @ G), -p.gamma * D],
            [-p.gamma * G, p.kappa * ops.L_theta]]


def assemble_generator(grid: Grid, p: PhysParams,
                       ops: Operators | None = None) -> Generator:
    """Assemble the sparse block generator.

    Rows: u' = v; v' = div(alpha z(.,1) + beta grad v) - gamma theta_x;
    z' with first-order upwind in rho and the rho = 0 column driven by
    (grad v) so that z(.,0) tracks u_x; theta' = -gamma v_x + kappa L theta.
    `ops` defaults to build_operators, in Fourier-mode coordinates with
    Neumann theta: without `ops`, Dirichlet theta raises ValueError, as its
    users add the corner term per parity themselves (see build_operators).
    A coefficient product that overflows leaves inf in the matrix without a
    warning; its user spectral.reduced_generator checks for it.
    """
    import scipy.sparse as sp
    if ops is None:
        ops = build_operators(grid, p)
        if p.theta_bc != "neumann":
            raise ValueError("assemble_generator takes Neumann theta without ops; "
                             "the Dirichlet corner is added per parity by its users")
    with np.errstate(over="ignore", invalid="ignore"):
        Nx, nf, nr = grid.Nx, grid.nflux, grid.Nrho + 1
        G = ops.G
        D = -G.T
        first = sp.csr_matrix(([1.0], ([0], [0])), shape=(nr, 1))     # rho = 0 row
        last = sp.csr_matrix(([1.0], ([0], [nr - 1])), shape=(1, nr))  # rho = 1 column
        # upwind in rho on the nodes i >= 1; the rho = 0 row is set by `first`
        c = 1.0 / (p.tau * grid.drho)
        i = np.arange(1, nr)
        transport = sp.csr_matrix((np.r_[np.full(nr - 1, -c), np.full(nr - 1, c)],
                                   (np.r_[i, i], np.r_[i, i - 1])), shape=(nr, nr))

        (vv, vth), (thv, thth) = _vtheta_blocks(ops, p)
        A = sp.bmat([
            [sp.csr_matrix((Nx, Nx)), sp.identity(Nx), None, None],
            [None, vv, sp.kron(p.alpha * D, last), vth],
            [None, sp.kron(G, first), sp.kron(sp.identity(nf), transport), None],
            [None, thv, None, thth],
        ], format="csr")
        A.eliminate_zeros()     # a zero coefficient leaves no stored entries
    return Generator(grid=grid, p=p, matrix=A, ops=ops)

