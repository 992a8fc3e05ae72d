"""Dense FEM matrices for the three formulations.

DtN triplet on Omega_d = (-d, d), no essential conditions:

    A_ji = int phi'_j phi'_i dx       (stiffness, singular Neumann kernel)
    M_ji = int n^2 phi_j phi_i dx     (weighted mass, SPD)
    E_ji = n0 (phi_j(-d) phi_i(-d) + phi_j(d) phi_i(d))   (rank <= 2)

PML pair on Omega_ell = (-ell, ell) with Dirichlet ends, alpha = 1 + i sigma:

    At_ji = int (1/alpha) phi'_j phi'_i dx,   Mt_ji = int n^2 alpha phi_j phi_i dx

both complex symmetric.  The resonator mass M^r is the plain L^2 mass on the
space over Omega_r used by the spurious-solution filter.

All matrices are dense; the 1D problems stay small enough that the dense QZ
downstream wants them dense anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .media import MediumProfile, PmlConfig, sigma_eval
from .mesh_fe import BoundaryCondition, MeshedSpace, QuadratureRule, evaluate_basis

# Points per ramp cell: 1/alpha is analytic but not polynomial there, and at
# sigma0 = 5 on an h = 0.5 cell about 20 Gauss points reach 1e-13.
_RAMP_MIN_ORDER = 24


@dataclass(frozen=True, eq=False)
class DtnMatrices:
    a: np.ndarray
    m: np.ndarray
    e: np.ndarray
    space: MeshedSpace
    n0: float


@dataclass(frozen=True, eq=False)
class PmlMatrices:
    a_tilde: np.ndarray
    m_tilde: np.ndarray
    space: MeshedSpace


@dataclass(frozen=True, eq=False)
class ResonatorMass:
    m: np.ndarray
    space: MeshedSpace


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


def _scatter(mat: np.ndarray, dofs: np.ndarray, local: np.ndarray) -> None:
    keep = dofs >= 0
    idx = dofs[keep]
    mat[np.ix_(idx, idx)] += local[np.ix_(keep, keep)]


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
    rule = QuadratureRule.gauss_legendre(q)
    n = space.dof_count
    amat = np.zeros((n, n))
    mmat = np.zeros((n, n))
    vals, _ = evaluate_basis(space, 0, rule.points)
    for c in range(space.mesh.n_cells):
        lo, hi = space.mesh.cell_bounds(c)
        xq, wq = rule.mapped(lo, hi)
        _, ders = evaluate_basis(space, c, rule.points)
        n2 = medium.n(xq) ** 2
        dofs = space.cell_dofs(c)
        amat[np.ix_(dofs, dofs)] += (ders * wq) @ ders.T
        mmat[np.ix_(dofs, dofs)] += (vals * (wq * n2)) @ vals.T

    emat = np.zeros((n, n))
    for c, ref in ((0, -1.0), (space.mesh.n_cells - 1, 1.0)):
        bvals, _ = evaluate_basis(space, c, [ref])
        vec = np.zeros(n)
        vec[space.cell_dofs(c)] = bvals[:, 0]
        emat += medium.n0 * np.outer(vec, vec)
    return DtnMatrices(a=amat, m=mmat, e=emat, space=space, n0=medium.n0)


def assemble_pml(space: MeshedSpace, medium: MediumProfile, pml: PmlConfig,
                 quad_order: int | None = None, ramp_quad_order: int | None = None) -> PmlMatrices:
    """Assemble the complex pair (At, Mt) over (-ell, ell) with Dirichlet ends.

    Cells meeting the ramp |x| in (d, x_c) get a higher-order rule because the
    1/alpha weight is not polynomial there; elsewhere alpha is constant per
    cell and the base rule is already exact.
    """
    if space.boundary_condition is not BoundaryCondition.DIRICHLET_BOTH_ENDS:
        raise ValueError("the PML formulation uses a space with Dirichlet ends")
    d, x_c = pml.d, pml.x_c
    _check_alignment(space, tuple(medium.breakpoints) + (-x_c, -d, d, x_c))

    p = space.degree
    q_base = quad_order if quad_order is not None else default_quadrature_order(p)
    q_ramp = ramp_quad_order if ramp_quad_order is not None else max(p + 4, _RAMP_MIN_ORDER)
    rules = {q: QuadratureRule.gauss_legendre(q) for q in {q_base, q_ramp}}
    tabs = {q: evaluate_basis(space, 0, r.points)[0] for q, r in rules.items()}

    n = space.dof_count
    amat = np.zeros((n, n), dtype=complex)
    mmat = np.zeros((n, n), dtype=complex)
    for c in range(space.mesh.n_cells):
        lo, hi = space.mesh.cell_bounds(c)
        mid = abs(0.5 * (lo + hi))
        in_ramp = d < mid < x_c
        rule = rules[q_ramp if in_ramp else q_base]
        xq, wq = rule.mapped(lo, hi)
        vals = tabs[rule.order]
        _, ders = evaluate_basis(space, c, rule.points)
        alpha = 1.0 + 1j * sigma_eval(pml, xq)
        n2 = medium.n(xq) ** 2
        dofs = space.cell_dofs(c)
        _scatter(amat, dofs, (ders * (wq / alpha)) @ ders.T)
        _scatter(mmat, dofs, (vals * (wq * n2 * alpha)) @ vals.T)
    return PmlMatrices(a_tilde=amat, m_tilde=mmat, space=space)


def assemble_resonator_mass(space: MeshedSpace, quad_order: int | None = None) -> ResonatorMass:
    """Plain mass matrix M^r_ij = int phi_j phi_i dx over the space's mesh."""
    q = quad_order if quad_order is not None else default_quadrature_order(space.degree)
    rule = QuadratureRule.gauss_legendre(q)
    n = space.dof_count
    mmat = np.zeros((n, n))
    vals, _ = evaluate_basis(space, 0, rule.points)
    for c in range(space.mesh.n_cells):
        lo, hi = space.mesh.cell_bounds(c)
        _, wq = rule.mapped(lo, hi)
        _scatter(mmat, space.cell_dofs(c), (vals * wq) @ vals.T)
    return ResonatorMass(m=mmat, space=space)

