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

Only exp(i n0 k |x - y|) depends on k.  A :class:`KernelGeometry` holds the
rest for one set of evaluation points: the distances D to every cell Gauss
node, the table W of contrast x basis x weight over the DOFs, and, for points
strictly inside a cell, the two sub-rules split at the kink y = x that stand
in for that cell's plain rule.  K(k) then costs one exponential of D and one
product with W.  An :class:`LsContext` builds the geometry once at its
collocation nodes (T(k)) and once at its cell Gauss points (the filter).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import assemble_resonator_mass
from .eigen import EigenPair, smallest_singular_value
from .media import MediumProfile
from .mesh_fe import (BoundaryCondition, MeshedSpace, QuadratureRule, build_mesh,
                      build_space, cell_quadrature, evaluate_basis, evaluate_function,
                      locate)


class NoResonatorSupportError(ValueError):
    """The eigenvector restricted to Omega_r is numerically zero."""


@dataclass(frozen=True, eq=False)
class LsContext:
    """Collocation space on Omega_r and the order of its inner quadrature."""

    space: MeshedSpace
    medium: MediumProfile
    quad_order: int

    def __post_init__(self):
        a = self.medium.resonator_halfwidth
        v = self.space.mesh.vertices
        if v[0] > -a + 1e-12 or v[-1] < a - 1e-12:
            raise ValueError("collocation space must cover the resonator support")

    @functools.cached_property
    def mass(self) -> np.ndarray:
        """The resonator mass matrix M^r of the space."""
        return assemble_resonator_mass(self.space)

    @functools.cached_property
    def mass_cholesky(self):
        return scipy.linalg.cho_factor(self.mass)

    @functools.cached_property
    def cell_quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """The Gauss nodes y of every cell, cell by cell, and the (nodes x DOFs)
        table phi_j(y) w(y) of the inner rule.

        The table's transpose is the projection b_i = int phi_i f of values
        of f at the nodes.
        """
        nodes, weights, vals, _ = cell_quadrature(self.space, self.quad_order)
        table = np.zeros((nodes.size, self.space.dof_count))
        rows = np.arange(nodes.size).reshape(nodes.shape)
        table[rows[:, :, None], self.space.cell_dofs[:, None, :]] = weights[:, :, None] * vals
        return nodes.ravel(), table

    @functools.cached_property
    def kernel_weights(self) -> np.ndarray:
        """W[g, j] = (n^2 - n0^2)(y_g) phi_j(y_g) w_g, shared by both geometries."""
        nodes, table = self.cell_quadrature
        return (self.medium.contrast(nodes)[:, None] * table).astype(complex)

    @functools.cached_property
    def collocation_geometry(self) -> "KernelGeometry":
        return _kernel_geometry(self, self.space.node_coords)

    @functools.cached_property
    def quadrature_geometry(self) -> "KernelGeometry":
        return _kernel_geometry(self, self.cell_quadrature[0])


@dataclass(frozen=True, eq=False)
class FilterReport:
    """The filter value eps of the eigenpair at k."""

    k: complex
    epsilon: float


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
                     refinements: int = 0) -> LsContext:
    """Collocation context on Omega_r = (-a, a) with interfaces resolved and an
    inner rule of degree + 6 Gauss points per cell."""
    a = medium.resonator_halfwidth
    interior = [b for b in medium.breakpoints if -a < b < a]
    mesh = build_mesh((-a, a), interior, initial_cell_size, refinements)
    space = build_space(mesh, degree, BoundaryCondition.NONE)
    return LsContext(space=space, medium=medium, quad_order=degree + 6)


@dataclass(frozen=True, eq=False)
class KernelGeometry:
    """The k-independent part of K(k) at a fixed set of m evaluation points x.

    K(k) = pref(k) [(exp(i n0 k D) o keep) @ W + S(k)],  pref(k) = ik / 2n0,

    with D[i, g] = |x_i - y_g| over the cell Gauss nodes y and
    W[g, j] = (n^2 - n0^2)(y_g) phi_j(y_g) w_g.  The integrand has a kink at
    y = x_i, so for a point strictly inside a cell ``keep`` drops that cell's
    plain rule, and S adds the cell's two sub-rules split at x_i in its place:
    row ``split_rows[r]`` gets exp(i n0 k ``split_dist[r]``) @
    ``split_weights[r]`` at the cell's DOFs ``split_dofs[r]``.
    """

    n0: float
    dist: np.ndarray            # (m, nodes)
    keep: np.ndarray            # (m, nodes) bool
    weights: np.ndarray         # (nodes, dofs)
    split_rows: np.ndarray      # (s,)
    split_dist: np.ndarray      # (s, 2q)
    split_weights: np.ndarray   # (s, 2q, p+1)
    split_dofs: np.ndarray      # (s, p+1)

    def _phases(self, k: complex) -> tuple[np.ndarray, np.ndarray]:
        ikn = 1j * self.n0 * k
        plain = np.exp(ikn * self.dist, out=np.zeros(self.dist.shape, dtype=complex),
                       where=self.keep)
        return plain, np.exp(ikn * self.split_dist)

    def matrix(self, k: complex) -> np.ndarray:
        """K(k) as an (m, dofs) matrix."""
        plain, split = self._phases(k)
        gmat = plain @ self.weights
        gmat[self.split_rows[:, None], self.split_dofs] += \
            np.einsum("rq,rql->rl", split, self.split_weights)
        return (1j * k / (2.0 * self.n0)) * gmat

    def apply(self, k: complex, coeffs: np.ndarray) -> np.ndarray:
        """K(k)u at the m points for u given by DOF coefficients, without forming K(k)."""
        plain, split = self._phases(k)
        ku = plain @ (self.weights @ coeffs)
        local = self.split_weights @ coeffs[self.split_dofs][:, :, None]
        ku[self.split_rows] += np.sum(split * local[:, :, 0], axis=1)
        return (1j * k / (2.0 * self.n0)) * ku


def _kernel_geometry(ctx: LsContext, points) -> KernelGeometry:
    """The geometry of K(k) at ``points`` for the context's inner rule."""
    space, medium = ctx.space, ctx.medium
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    nodes, _ = ctx.cell_quadrature
    q = ctx.quad_order
    verts = space.mesh.vertices
    cells = locate(space.mesh, pts)
    lo, hi = verts[cells], verts[cells + 1]
    # a kink on a cell edge (or outside the mesh) leaves the plain rule smooth
    split = np.minimum(pts - lo, hi - pts) > 1e-12
    keep = ~(split[:, None] & (np.arange(nodes.size) // q == cells[:, None]))

    rule = QuadratureRule.gauss_legendre(q)
    x, lo, hi = pts[split, None], lo[split, None], hi[split, None]
    sub_rules = []
    for aa, bb in ((lo, x), (x, hi)):
        ys, ws = rule.mapped(aa, bb)
        loc = 2.0 * (ys - lo) / (hi - lo) - 1.0
        vals = evaluate_basis(space, 0, loc.ravel())[0].T.reshape(*ys.shape, space.degree + 1)
        sub_rules.append((ys, ws, vals))
    ys, ws, sub_vals = (np.hstack(parts) for parts in zip(*sub_rules))
    return KernelGeometry(
        n0=medium.n0,
        dist=np.abs(pts[:, None] - nodes[None, :]),
        keep=keep,
        weights=ctx.kernel_weights,
        split_rows=np.nonzero(split)[0],
        split_dist=np.abs(x - ys),
        split_weights=(ws * medium.contrast(ys))[:, :, None] * sub_vals,
        split_dofs=space.cell_dofs[cells[split]],
    )


def _checked_coefficients(ctx: LsContext, u) -> np.ndarray:
    coeffs = np.asarray(u, dtype=complex)
    if coeffs.shape != (ctx.space.dof_count,):
        raise ValueError(f"expected {ctx.space.dof_count} coefficients, got {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficient vector has non-finite entries")
    return coeffs


def apply_kernel(ctx: LsContext, k: complex, u, points) -> np.ndarray:
    """Values of K(k)u at arbitrary points for u given by DOF coefficients.

    The geometry of ``points`` is built for this call only.
    """
    coeffs = _checked_coefficients(ctx, u)
    return _kernel_geometry(ctx, points).apply(k, coeffs)


def collocation_matrix(ctx: LsContext, k: complex) -> np.ndarray:
    """T(k) = I - K(k) collocated at the space's Gauss-Lobatto nodes."""
    return np.eye(ctx.space.dof_count, dtype=complex) - ctx.collocation_geometry.matrix(k)


def filter_epsilon(ctx: LsContext, pair: EigenPair) -> FilterReport:
    """The pseudomode residual eps = ||u - P K(k)u||_{L^2(Omega_r)} of an eigenpair.

    The eigenvector is interpolated at the collocation nodes, normalized to
    unit L^2(Omega_r) norm, K(k)u is projected onto the space by solving
    M^r eta = b with b_i = int phi_i K(k)u, and
    eps = sqrt((xi - eta)^* M^r (xi - eta)).  With vanishing contrast K = 0,
    so eps = 1 for any unit u.  eps depends on (k, u) alone, not on the
    solver that produced the pair.
    """
    if pair.space is None:
        raise ValueError("eigenpair carries no originating space")
    if pair.space is ctx.space:
        xi = pair.vector.astype(complex)
    else:
        xi = evaluate_function(pair.space, pair.vector, ctx.space.node_coords)
    mr = ctx.mass
    nrm2 = float(np.real(xi.conj() @ (mr @ xi)))
    if nrm2 <= 0 or np.sqrt(nrm2) < 1e-12:
        raise NoResonatorSupportError(
            f"eigenvector at k = {pair.k} has no support on the resonator domain")
    xi = xi / np.sqrt(nrm2)

    ku = ctx.quadrature_geometry.apply(pair.k, _checked_coefficients(ctx, xi))
    _, table = ctx.cell_quadrature
    b = table.T @ ku
    eta = scipy.linalg.cho_solve(ctx.mass_cholesky, b)
    diff = xi - eta
    eps = float(np.sqrt(max(np.real(diff.conj() @ (mr @ diff)), 0.0)))
    return FilterReport(k=pair.k, epsilon=eps)


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

