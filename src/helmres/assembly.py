"""Dense FEM matrices for the three formulations.

DtN triplet on Omega_d = (-d, d), no essential conditions:

    A_ji = int phi'_j phi'_i dx       (stiffness, singular Neumann kernel)
    M_ji = int n^2 phi_j phi_i dx     (weighted mass, SPD)
    E_ji = n0 (phi_j(-d) phi_i(-d) + phi_j(d) phi_i(d))   (rank <= 2)

PML pair on Omega_ell = (-ell, ell) with Dirichlet ends, alpha = 1 + i sigma:

    At_ji = int (1/alpha) phi'_j phi'_i dx,   Mt_ji = int n^2 alpha phi_j phi_i dx

both complex symmetric.  The resonator mass M^r is the plain L^2 mass on the
space over Omega_r used by the spurious-solution filter.

All matrices are dense; the 1D problems stay small enough that the dense
eigensolves downstream want them dense anyway.  Each matrix set also carries
the parity blocks of its space: (even, odd) when the medium is even and the
mesh is its own mirror image, since every matrix then commutes with the
mirror permutation of the DOFs, and the whole space otherwise.  It gives its
matrix function T(k) as ``t(k)``, the list of those blocks of T(k).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .media import MediumProfile, PmlConfig, sigma_eval
from .mesh_fe import BoundaryCondition, MeshedSpace, ParityBlock, cell_quadrature, parity_blocks

# Points per PML cell: 1/alpha is analytic but not polynomial on the ramp, and
# at sigma0 = 5 on an h = 0.5 cell about 20 Gauss points reach 1e-13.
_PML_MIN_ORDER = 24


@dataclass(frozen=True, eq=False)
class DtnMatrices:
    """(A, M, E) on ``space`` and the parity blocks they commute with."""

    a: np.ndarray
    m: np.ndarray
    e: np.ndarray
    space: MeshedSpace
    blocks: tuple[ParityBlock, ...]

    @functools.cached_property
    def folded(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(A, M, E) folded into each block, built once."""
        return [(b.fold(self.a), b.fold(self.m), b.fold(self.e)) for b in self.blocks]

    def t(self, k: complex) -> list[np.ndarray]:
        """The blocks of T(k) = A + lambda E + lambda^2 M at lambda = -ik, one per
        ``blocks``; T(k) is singular exactly at the eigenvalues k."""
        lam = -1j * k
        return [a + lam * e + lam**2 * m for a, m, e in self.folded]


@dataclass(frozen=True, eq=False)
class PmlMatrices:
    """(At, Mt) on ``space`` and the parity blocks they commute with."""

    a_tilde: np.ndarray
    m_tilde: np.ndarray
    space: MeshedSpace
    blocks: tuple[ParityBlock, ...]

    @functools.cached_property
    def folded(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(At, Mt) folded into each block, built once."""
        return [(b.fold(self.a_tilde), b.fold(self.m_tilde)) for b in self.blocks]

    def t(self, k: complex) -> list[np.ndarray]:
        """The blocks of T(k) = At - k^2 Mt, one per ``blocks``."""
        return [a_tilde - k**2 * m_tilde for a_tilde, m_tilde in self.folded]


def default_quadrature_order(p: int) -> int:
    """p+3 Gauss points: exact through degree 2p+5, which covers n^2 phi phi
    for every built-in profile (the bump has polynomial n^2 of degree 4)."""
    return p + 3


def _check_alignment(space: MeshedSpace, breakpoints, tol: float = 1e-12) -> None:
    v = space.mesh.vertices
    lo, hi = v[0], v[-1]
    missing = [b for b in breakpoints
               if lo + tol < b < hi - tol and not space.mesh.has_vertex(b, tol)]
    if missing:
        raise ValueError(f"mesh is not aligned with material breakpoints {missing}")


def _assemble(space: MeshedSpace, basis: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The (dofs x dofs) sum over cells c of B_c^T diag(w_c) B_c.

    ``basis`` holds the shape functions or their derivatives at each cell's
    quadrature nodes, (cells, q, p+1); ``weights`` is (cells, q).  A constrained
    node's DOF index -1 adds into a spare last row and column, which are dropped.

    The cells are added in two passes, the even ones and then the odd ones.
    Alternate cells share no DOF, so no pass repeats an index but the spare
    one, and each entry takes at most one term per pass.  Two terms added
    to 0 in either order give the same bits, so the sum is that of adding
    the cells one by one.
    """
    local = (np.swapaxes(basis, -1, -2) * weights[:, None, :]) @ basis
    n = space.dof_count
    mat = np.zeros((n + 1, n + 1), dtype=local.dtype)
    for first in (0, 1):
        dofs = space.cell_dofs[first::2]
        mat[dofs[:, :, None], dofs[:, None, :]] += local[first::2]
    return mat[:n, :n].copy()


def assemble_dtn(space: MeshedSpace, medium: MediumProfile,
                 quad_order: int | None = None) -> DtnMatrices:
    """Assemble (A, M, E) on the mesh of ``space``; the domain must contain the
    resonator support and the mesh must resolve the medium breakpoints."""
    if space.boundary_condition is not BoundaryCondition.NONE:
        raise ValueError("the DtN formulation uses a space without essential conditions")
    v = space.mesh.vertices
    a_res = medium.resonator_halfwidth
    if v[0] > -a_res + 1e-12 or v[-1] < a_res - 1e-12:
        raise ValueError(
            f"domain ({v[0]}, {v[-1]}) does not contain the resonator support (+-{a_res})")
    _check_alignment(space, medium.breakpoints)

    q = quad_order if quad_order is not None else default_quadrature_order(space.degree)
    xq, wq, vals, ders, _ = cell_quadrature(space, q)
    # the Lobatto end nodes are the first and last DOF, so E only has two entries
    emat = np.zeros((space.dof_count, space.dof_count))
    emat[0, 0] = emat[-1, -1] = medium.n0
    return DtnMatrices(a=_assemble(space, ders, wq),
                       m=_assemble(space, vals, wq * medium.n(xq) ** 2),
                       e=emat, space=space, blocks=parity_blocks(space, medium.is_even()))


def assemble_pml(space: MeshedSpace, medium: MediumProfile, pml: PmlConfig) -> PmlMatrices:
    """Assemble the complex pair (At, Mt) over (-ell, ell) with Dirichlet ends.

    One rule of max(p+4, 24) points serves every cell: 1/alpha is not
    polynomial on the ramp d < |x| < x_c, and elsewhere the rule is exact.
    """
    if space.boundary_condition is not BoundaryCondition.DIRICHLET_BOTH_ENDS:
        raise ValueError("the PML formulation uses a space with Dirichlet ends")
    _check_alignment(space, medium.breakpoints + pml.breakpoints)

    xq, wq, vals, ders, _ = cell_quadrature(space, max(space.degree + 4, _PML_MIN_ORDER))
    alpha = 1.0 + 1j * sigma_eval(pml, xq)
    # sigma depends on |x| alone, so the layer is even whenever the medium is
    return PmlMatrices(a_tilde=_assemble(space, ders, wq / alpha),
                       m_tilde=_assemble(space, vals, wq * medium.n(xq) ** 2 * alpha),
                       space=space, blocks=parity_blocks(space, medium.is_even()))


def assemble_resonator_mass(space: MeshedSpace) -> np.ndarray:
    """Plain mass matrix M^r_ij = int phi_j phi_i dx over the space's mesh."""
    _, wq, vals, _, _ = cell_quadrature(space, default_quadrature_order(space.degree))
    return _assemble(space, vals, wq)
