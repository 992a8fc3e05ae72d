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

Only exp(i n0 k |x - y|) depends on k, and in 1D it factors on either side
of x: the semiseparable structure of the Green's function (Greengard &
Rokhlin, CPAM 44, 1991).  A :class:`KernelGeometry` holds the rest for one
set of evaluation points, so that K(k) costs one exponential per Gauss node
and per point, prefix and suffix sums over the cells, and the kink-split
sub-rules of each point's own cell.  An :class:`LsContext` builds the geometry
once at its collocation nodes (T(k)) and once at its cell Gauss points (the
filter), and the filter's L^2 projection from those points onto the space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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
    """Collocation space on Omega_r and the order of its inner quadrature.

    Everything k-independent is derived once per context and cached: the
    resonator mass matrix, the kernel geometries at the collocation nodes and
    at the cell Gauss points, and the filter's ``projection`` (M^r)^-1 P^T,
    so that each filter call projects K(k)u with one matrix-vector product.
    """

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
    def cell_quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """The Gauss nodes y of every cell, (cells, q), and the table
        phi_l(y) w(y) of the inner rule on each cell's DOFs, (cells, q, p+1)."""
        nodes, weights, vals, _ = cell_quadrature(self.space, self.quad_order)
        return nodes, weights[:, :, None] * vals

    @functools.cached_property
    def projection(self) -> np.ndarray:
        """(M^r)^-1 P^T, (dofs, cells * q): the L^2 projection onto the space of a
        function given by its values at the cell Gauss points, in ravelled
        (cell, node) order.  P^T[i, (c, g)] = phi_i(y) w(y) at node g of cell c.
        Stored complex, so the product with K(k)u casts nothing per call."""
        _, table = self.cell_quadrature
        cells, q, _ = table.shape
        pt = np.zeros((self.space.dof_count, cells, q))
        pt[self.space.cell_dofs[:, :, None], np.arange(cells)[:, None, None],
           np.arange(q)] = np.swapaxes(table, 1, 2)
        return np.linalg.solve(self.mass, pt.reshape(self.space.dof_count, -1)).astype(complex)

    @functools.cached_property
    def collocation_geometry(self) -> "KernelGeometry":
        return _kernel_geometry(self, self.space.node_coords)

    @functools.cached_property
    def quadrature_geometry(self) -> "KernelGeometry":
        return _kernel_geometry(self, self.cell_quadrature[0].ravel())


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

    K(k)[i] = pref(k) [e^{i n0 k x_i} P[left_i] + e^{-i n0 k x_i} Q[right_i] + S_i(k)]

    with pref(k) = ik / 2n0.  P and Q are the prefix and suffix sums over cells
    of the moments M-+[c] = sum_g e^{-+i n0 k y_g} W[c, g] on cell c's DOFs,
    W[c, g, l] = (n^2 - n0^2)(y_g) phi_l(y_g) w_g at its Gauss nodes y; the
    first ``left[i]`` cells lie wholly left of x_i, those from ``right[i]`` on
    wholly right.  The integrand has a kink at y = x_i, so a cell that x_i lies
    strictly inside is in neither sum, and S_i adds its two sub-rules split at
    x_i: row ``split_rows[r]`` gets exp(i n0 k ``split_dist[r]``) @
    ``split_weights[r]`` at the cell's DOFs ``split_dofs[r]``.
    """

    n0: float
    points: np.ndarray          # (m,)
    left: np.ndarray            # (m,) cells wholly left of each point
    right: np.ndarray           # (m,) first cell wholly right of each point
    nodes: np.ndarray           # (cells, q)
    weights: np.ndarray         # (cells, q, p+1)
    cell_dofs: np.ndarray       # (cells, p+1)
    dof_count: int
    split_rows: np.ndarray      # (s,)
    split_dist: np.ndarray      # (s, 2q)
    split_weights: np.ndarray   # (s, 2q, p+1)
    split_dofs: np.ndarray      # (s, p+1)

    def _terms(self, ikn: complex) -> tuple[np.ndarray, np.ndarray]:
        """The moments M-+[c, l] = sum_g e^{-+ikn y_g} W[c, g, l], (2, cells, p+1),
        and the split terms S[r] = e^{ikn split_dist[r]} @ split_weights[r], (s, p+1)."""
        phases = np.exp(np.multiply.outer((-ikn, ikn), self.nodes))
        moments = (phases[:, :, None, :] @ self.weights)[:, :, 0]
        split = (np.exp(ikn * self.split_dist)[:, None, :] @ self.split_weights)[:, 0]
        return moments, split

    def _sides(self, ikn: complex, minus: np.ndarray, plus: np.ndarray) -> np.ndarray:
        """e^{ikn x} P[left] + e^{-ikn x} Q[right], with P and Q the prefix and
        suffix sums over cells (axis 0) of the moments ``minus`` and ``plus``."""
        zero = np.zeros_like(minus[:1])
        prefix = np.concatenate((zero, np.cumsum(minus, axis=0)))
        suffix = np.concatenate((np.cumsum(plus[::-1], axis=0)[::-1], zero))
        column = (-1,) + (1,) * (minus.ndim - 1)
        out = np.exp(ikn * self.points).reshape(column) * prefix[self.left]
        out += np.exp(-ikn * self.points).reshape(column) * suffix[self.right]
        return out

    def matrix(self, k: complex) -> np.ndarray:
        """K(k) as an (m, dofs) matrix."""
        ikn = 1j * self.n0 * k
        moments, split = self._terms(ikn)
        cells = np.arange(self.nodes.shape[0])[:, None]
        dense = np.zeros((2, cells.size, self.dof_count), dtype=complex)
        dense[:, cells, self.cell_dofs] = moments
        gmat = self._sides(ikn, *dense)
        gmat[self.split_rows[:, None], self.split_dofs] += split
        return (1j * k / (2.0 * self.n0)) * gmat

    def apply(self, k: complex, coeffs: np.ndarray) -> np.ndarray:
        """K(k)u at the m points for u given by DOF coefficients, without forming K(k)."""
        ikn = 1j * self.n0 * k
        moments, split = self._terms(ikn)
        ku = self._sides(ikn, *np.sum(moments * coeffs[self.cell_dofs], axis=2))
        ku[self.split_rows] += np.sum(split * coeffs[self.split_dofs], axis=1)
        return (1j * k / (2.0 * self.n0)) * ku


def _kernel_geometry(ctx: LsContext, points) -> KernelGeometry:
    """The geometry of K(k) at ``points`` for the context's inner rule."""
    space, medium = ctx.space, ctx.medium
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    verts = space.mesh.vertices
    cells = locate(space.mesh, pts)
    lo, hi = verts[cells], verts[cells + 1]
    # a kink within 1e-12 of a cell edge (or outside the mesh) falls between
    # cells: the point's own cell then lies wholly on one side of it
    past = hi - pts <= 1e-12
    split = (pts - lo > 1e-12) & ~past
    left = cells + past

    rule = QuadratureRule.gauss_legendre(ctx.quad_order)
    x, lo, hi = pts[split, None], lo[split, None], hi[split, None]
    # the rule on both halves (lo, x) and (x, hi) of every split cell, side by side
    ys, ws = (v.reshape(x.size, 2 * ctx.quad_order)
              for v in rule.mapped(np.stack((lo, x), axis=1), np.stack((x, hi), axis=1)))
    loc = 2.0 * (ys - lo) / (hi - lo) - 1.0
    sub_vals = evaluate_basis(space, 0, loc.ravel())[0].T.reshape(*ys.shape, space.degree + 1)
    nodes, table = ctx.cell_quadrature
    return KernelGeometry(
        n0=medium.n0,
        points=pts,
        left=left,
        right=left + split,
        nodes=nodes,
        weights=(medium.contrast(nodes)[:, :, None] * table).astype(complex),
        cell_dofs=space.cell_dofs,
        dof_count=space.dof_count,
        split_rows=np.nonzero(split)[0],
        split_dist=np.abs(x - ys),
        split_weights=((ws * medium.contrast(ys))[:, :, None] * sub_vals).astype(complex),
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
    unit L^2(Omega_r) norm, K(k)u is evaluated at the cell Gauss points and
    projected onto the space, eta = (M^r)^-1 b with b_i = int phi_i K(k)u,
    as one product with the context's cached ``projection``, and
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
    if not np.all(np.isfinite(ku)):
        raise ValueError(f"K(k)u overflowed at k = {pair.k}")
    eta = ctx.projection @ ku
    diff = xi - eta
    eps = float(np.sqrt(max(np.real(diff.conj() @ (mr @ diff)), 0.0)))
    return FilterReport(k=pair.k, epsilon=eps)


def pseudospectrum(t, region: tuple[float, float, float, float],
                   resolution: tuple[int, int]) -> PseudospectrumGrid:
    """s_min(t(k)) on a rectangular k-grid for a matrix function ``t``.

    Values are absolute (no relative rescaling); grid traversal is row-major over
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
                              nx=nx, ny=ny, values=values)

