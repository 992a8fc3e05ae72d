"""The volume-integral (Lippmann-Schwinger) operator, the spurious-solution
filter, and pseudospectrum grids.

The operator acts on functions over the minimal domain
Omega_r = supp(n^2 - n0^2):

    K(k)u (x) = (ik / 2 n0) int_{Omega_r} exp(i n0 k |x - y|) (n(y)^2 - n0^2) u(y) dy
    T(k)u = u - K(k)u

Resonances are the k with T(k)u = 0.  Collocating on the nodal basis gives a
dense nonlinear eigenproblem; projecting K(k)u back onto the space gives the
scalar filter value

    eps = || u - P K(k)u ||_{L^2(Omega_r)}

for a unit-normalized u, which is small exactly when (u, k) is an approximate
eigenpair of the integral operator, whatever formulation produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import ResonatorMass, assemble_resonator_mass
from .eigen import EigenPair, smallest_singular_value
from .media import MediumProfile
from .mesh_fe import (BoundaryCondition, MeshedSpace, QuadratureRule, build_mesh,
                      build_space, evaluate_basis, evaluate_function)


class NoResonatorSupportError(ValueError):
    """The eigenvector restricted to Omega_r is numerically zero."""


@dataclass(frozen=True, eq=False)
class LsContext:
    """Collocation space on Omega_r with its mass matrix and inner quadrature order."""

    space: MeshedSpace
    medium: MediumProfile
    mass: ResonatorMass
    quad_order: int

    def __post_init__(self):
        a = self.medium.resonator_halfwidth
        v = self.space.mesh.vertices
        if v[0] > -a + 1e-12 or v[-1] < a - 1e-12:
            raise ValueError("collocation space must cover the resonator support")

    @property
    def mass_cholesky(self):
        if not hasattr(self, "_chol"):
            object.__setattr__(self, "_chol", scipy.linalg.cho_factor(self.mass.m))
        return self._chol


@dataclass(frozen=True, eq=False)
class FilterReport:
    k: complex
    epsilon: float
    feasible: bool
    formulation: str


@dataclass(frozen=True, eq=False)
class PseudospectrumGrid:
    """s_min values on a rectangular k-grid, row-major with Re k varying fastest."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int
    values: np.ndarray
    formulation: str

    @property
    def re_points(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.nx)

    @property
    def im_points(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.ny)


def build_ls_context(medium: MediumProfile, degree: int, initial_cell_size: float = 0.5,
                     refinements: int = 0, quad_order: int | None = None) -> LsContext:
    """Collocation context on Omega_r = (-a, a) with interfaces resolved."""
    a = medium.resonator_halfwidth
    interior = [b for b in medium.breakpoints if -a < b < a]
    mesh = build_mesh((-a, a), interior, initial_cell_size, refinements)
    space = build_space(mesh, degree, BoundaryCondition.NONE)
    mass = assemble_resonator_mass(space)
    q = quad_order if quad_order is not None else degree + 6
    return LsContext(space=space, medium=medium, mass=mass, quad_order=q)


def _kernel_matrix(ctx: LsContext, k: complex, eval_points: np.ndarray) -> np.ndarray:
    """G[i, j] = (ik/2n0) int exp(i n0 k |x_i - y|) (n^2 - n0^2)(y) phi_j(y) dy.

    Cell-wise Gauss quadrature; the integrand has a kink in y at each x_i, so
    for evaluation points strictly inside a cell that cell's contribution is
    recomputed from the two subintervals split at y = x_i.
    """
    space = ctx.space
    medium = ctx.medium
    pts = np.atleast_1d(np.asarray(eval_points, dtype=float))
    n0 = medium.n0
    pref = 1j * k / (2.0 * n0)
    rule = QuadratureRule.gauss_legendre(ctx.quad_order)
    vals = evaluate_basis(space, 0, rule.points)[0]
    verts = space.mesh.vertices
    gmat = np.zeros((pts.size, space.dof_count), dtype=complex)

    cell_tables = []
    for c in range(space.mesh.n_cells):
        lo, hi = space.mesh.cell_bounds(c)
        yq, wq = rule.mapped(lo, hi)
        weighted = (vals * (wq * medium.contrast(yq))).T   # (q, p+1)
        cell_tables.append((yq, weighted))
        dist = np.abs(pts[:, None] - yq[None, :])
        gmat[:, space.cell_dofs(c)] += np.exp(1j * n0 * k * dist) @ weighted

    inside = (pts > verts[0] + 1e-12) & (pts < verts[-1] - 1e-12)
    cells = np.clip(np.searchsorted(verts, pts, side="right") - 1, 0, space.mesh.n_cells - 1)
    for i in np.nonzero(inside)[0]:
        x = pts[i]
        c = int(cells[i])
        lo, hi = space.mesh.cell_bounds(c)
        if min(x - lo, hi - x) <= 1e-12:
            continue  # kink sits on a cell edge; the plain rule was already smooth
        dofs = space.cell_dofs(c)
        yq, weighted = cell_tables[c]
        gmat[i, dofs] -= np.exp(1j * n0 * k * np.abs(x - yq)) @ weighted
        for aa, bb in ((lo, x), (x, hi)):
            ys, ws = rule.mapped(aa, bb)
            loc = 2.0 * (ys - lo) / (hi - lo) - 1.0
            sub_vals = evaluate_basis(space, c, loc)[0]
            contr = ws * medium.contrast(ys)
            gmat[i, dofs] += np.exp(1j * n0 * k * np.abs(x - ys)) * contr @ sub_vals.T
    return pref * gmat


def apply_kernel(ctx: LsContext, k: complex, u, points) -> np.ndarray:
    """Values of K(k)u at arbitrary points for u given by DOF coefficients."""
    coeffs = np.asarray(u, dtype=complex)
    if coeffs.shape != (ctx.space.dof_count,):
        raise ValueError(f"expected {ctx.space.dof_count} coefficients, got {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficient vector has non-finite entries")
    return _kernel_matrix(ctx, k, points) @ coeffs


def collocation_matrix(ctx: LsContext, k: complex) -> np.ndarray:
    """T(k) = I - K(k) collocated at the space's Gauss-Lobatto nodes."""
    gmat = _kernel_matrix(ctx, k, ctx.space.node_coords)
    return np.eye(ctx.space.dof_count, dtype=complex) - gmat


def filter_epsilon(ctx: LsContext, pair: EigenPair,
                   critical_angle: float | None = None) -> FilterReport:
    """The pseudomode residual eps = ||u - P K(k)u||_{L^2(Omega_r)} of an eigenpair.

    The eigenvector is interpolated at the collocation nodes, normalized to
    unit L^2(Omega_r) norm, K(k)u is projected onto the space by solving
    M^r eta = b with b_i = int phi_i K(k)u, and
    eps = sqrt((xi - eta)^* M^r (xi - eta)).  With vanishing contrast K = 0,
    so eps = 1 for any unit u.  ``feasible`` records the critical-line side
    when an angle is supplied (PML formulation), otherwise True.
    """
    if pair.space is None:
        raise ValueError("eigenpair carries no originating space")
    if pair.space is ctx.space:
        xi = pair.vector.astype(complex)
    else:
        xi = evaluate_function(pair.space, pair.vector, ctx.space.node_coords)
    mr = ctx.mass.m
    nrm2 = float(np.real(xi.conj() @ (mr @ xi)))
    if nrm2 <= 0 or np.sqrt(nrm2) < 1e-12:
        raise NoResonatorSupportError(
            f"eigenvector at k = {pair.k} has no support on the resonator domain")
    xi = xi / np.sqrt(nrm2)

    space = ctx.space
    rule = QuadratureRule.gauss_legendre(ctx.quad_order)
    vals = evaluate_basis(space, 0, rule.points)[0]
    all_pts = []
    all_w = []
    for c in range(space.mesh.n_cells):
        lo, hi = space.mesh.cell_bounds(c)
        xq, wq = rule.mapped(lo, hi)
        all_pts.append(xq)
        all_w.append(wq)
    ku = apply_kernel(ctx, pair.k, xi, np.concatenate(all_pts))
    b = np.zeros(space.dof_count, dtype=complex)
    q = rule.order
    for c in range(space.mesh.n_cells):
        b[space.cell_dofs(c)] += vals @ (all_w[c] * ku[c * q:(c + 1) * q])
    eta = scipy.linalg.cho_solve(ctx.mass_cholesky, b)
    diff = xi - eta
    eps = float(np.sqrt(max(np.real(diff.conj() @ (mr @ diff)), 0.0)))
    feasible = True if critical_angle is None else bool(np.angle(pair.k) >= critical_angle)
    return FilterReport(k=pair.k, epsilon=eps, feasible=feasible, formulation=pair.formulation)


def pseudospectrum(t, region: tuple[float, float, float, float],
                   resolution: tuple[int, int], formulation: str) -> PseudospectrumGrid:
    """s_min(t(k)) on a rectangular k-grid for a matrix function ``t``.

    ``formulation`` names the origin of ``t`` for the grid's record.  Values
    are absolute (no relative rescaling); grid traversal is row-major over
    (ny, nx) and bit-reproducible.
    """
    re_min, re_max, im_min, im_max = map(float, region)
    nx, ny = map(int, resolution)
    if nx < 1 or ny < 1:
        raise ValueError("resolution must be positive")
    values = np.empty((ny, nx))
    for iy, im in enumerate(np.linspace(im_min, im_max, ny)):
        for ix, re in enumerate(np.linspace(re_min, re_max, nx)):
            values[iy, ix] = smallest_singular_value(t(complex(re, im)))
    return PseudospectrumGrid(re_min=re_min, re_max=re_max, im_min=im_min, im_max=im_max,
                              nx=nx, ny=ny, values=values, formulation=formulation)


def write_grid_csv(grid: PseudospectrumGrid, path, parameters: dict | None = None) -> None:
    """Grid as "re_k,im_k,smin" rows (row-major, Re k fastest) plus a JSON sidecar."""
    path = str(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re_k,im_k,smin\n")
        for iy, im in enumerate(grid.im_points):
            for ix, re in enumerate(grid.re_points):
                fh.write(f"{re:.12g},{im:.12g},{grid.values[iy, ix]:.12g}\n")
    sidecar = {
        "region": [grid.re_min, grid.re_max, grid.im_min, grid.im_max],
        "resolution": [grid.nx, grid.ny],
        "formulation": grid.formulation,
        "parameters": parameters or {},
    }
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
