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
set of evaluation points on the mesh cut at every point, so that the kink of
the integrand at y = x falls on a piece edge.  K(k) then costs one exponential
per Gauss node and per point, and prefix and suffix sums over the pieces.  An
:class:`LsContext` builds the geometry once at its collocation nodes (T(k))
and once at its cell Gauss points (the filter), and the filter's L^2
projection from those points onto the space.

For an even medium on a mirror-symmetric mesh, T(k) commutes with the mirror
permutation of the nodes, so its even and odd blocks are all of it: T(k) is
collocated only at the nodes with x >= 0, the last ones, and its columns are
summed with their mirrors' (even) or differenced (odd).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .assembly import assemble_resonator_mass
from .eigen import EigenPair, smallest_singular_value
from .media import MediumProfile
from .mesh_fe import (BoundaryCondition, MeshedSpace, ParityBlock, QuadratureRule,
                      build_mesh, build_space, cell_quadrature, evaluate_function,
                      lagrange_values, locate, parity_blocks)


# Below degree 4 the collocation nodes cut a cell into at most three pieces,
# across each of which the kernel grows by up to e^{n0 |Im k| h}, and the
# (p + 6)-point rule misses T(k) deep in the lower half plane: by 1.2e-4 at
# p = 1, k = 3 - 20i on the air cavity at h = 0.5.  There T(k) also cuts every
# cell at the Gauss-Lobatto nodes of this degree, which keeps it within 2e-13
# of a rule of three times the order.
_LOW_DEGREE_CUTS = 6


@dataclass(frozen=True, eq=False)
class LsContext:
    """Collocation space on Omega_r and the order of its inner quadrature.

    Everything k-independent is derived once per context and cached: the
    parity blocks of T(k), the resonator mass matrix, the kernel geometries at
    the collocation nodes of the first block (the last nodes, which hold the
    rows of every block) and at the cell Gauss points, and the filter's
    ``projection`` (M^r)^-1 P^T, so that each filter call projects K(k)u with
    one matrix-vector product.
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
    def blocks(self) -> tuple[ParityBlock, ...]:
        """(even, odd) for an even medium on a mirror-symmetric mesh, else the whole space."""
        return parity_blocks(self.space, self.medium.is_even())

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
    def cuts(self) -> np.ndarray:
        """The points the mesh of T(k) is cut at: the collocation nodes, and below
        degree 4 also the Gauss-Lobatto nodes of degree ``_LOW_DEGREE_CUTS`` of
        every cell."""
        nodes = self.space.node_coords
        if self.space.degree >= 4:
            return nodes
        return np.union1d(nodes, build_space(self.space.mesh, _LOW_DEGREE_CUTS).node_coords)

    @functools.cached_property
    def collocation_geometry(self) -> "KernelGeometry":
        """The geometry at the nodes of the first block; ``cuts`` holds every node,
        so its pieces are those of a geometry at all nodes."""
        return _kernel_geometry(self, self.space.node_coords[-self.blocks[0].size:], self.cuts)

    @functools.cached_property
    def quadrature_geometry(self) -> "KernelGeometry":
        return _kernel_geometry(self, self.cell_quadrature[0].ravel(), ())

    def t(self, k: complex) -> list[np.ndarray]:
        """The blocks of T(k) = I - K(k), one per ``blocks``: :func:`collocation_matrix`."""
        return collocation_matrix(self, k)


@dataclass(frozen=True, eq=False)
class FilterReport:
    """The filter value eps of an eigenpair."""

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

    K(k)[i] = pref(k) [e^{i n0 k x_i} P[cut_i] + e^{-i n0 k x_i} Q[cut_i]]

    with pref(k) = ik / 2n0.  The mesh is cut at every point inside it, so each
    piece lies wholly on one side of every point; the first ``cut[i]`` pieces lie
    left of x_i.  P and Q are the prefix and suffix sums over pieces of the
    moments M-+[j] = sum_g e^{-+i n0 k y_g} W[j, g] on the DOFs of piece j's
    cell, W[j, g, l] = (n^2 - n0^2)(y_g) phi_l(y_g) w_g at its Gauss nodes y.
    """

    n0: float
    points: np.ndarray          # (m,)
    cut: np.ndarray             # (m,) pieces left of each point
    nodes: np.ndarray           # (pieces, q)
    weights: np.ndarray         # (pieces, q, p+1)
    piece_dofs: np.ndarray      # (pieces, p+1)
    dof_count: int

    @functools.cached_property
    def lo(self) -> int:
        """The first piece right of any point: Q is needed from there on only."""
        return int(self.cut.min(initial=len(self.piece_dofs)))

    def _moments(self, ikn: complex) -> tuple[np.ndarray, np.ndarray]:
        """M-[j, l] = sum_g e^{-ikn y_g} W[j, g, l] of every piece, (pieces, p+1),
        and M+ (e^{+ikn y_g}) of the pieces from ``lo`` on, (pieces - lo, p+1)."""
        lo = self.lo
        minus = np.exp(-ikn * self.nodes)[:, None, :] @ self.weights
        plus = np.exp(ikn * self.nodes[lo:])[:, None, :] @ self.weights[lo:]
        return minus[:, 0], plus[:, 0]

    def _sides(self, k: complex, prefix: np.ndarray, suffix: np.ndarray) -> np.ndarray:
        """pref(k) [e^{ikn x} P[cut] + e^{-ikn x} Q[cut]].  ``prefix`` holds the
        minus moments of the pieces after a zero first row, ``suffix`` the plus
        moments of the pieces from ``lo`` on before a zero last row; both are
        summed in place into P and Q."""
        np.cumsum(prefix, axis=0, out=prefix)
        reverse = suffix[::-1]
        np.cumsum(reverse, axis=0, out=reverse)
        ikn, pref = 1j * self.n0 * k, 1j * k / (2.0 * self.n0)
        column = (-1,) + (1,) * (prefix.ndim - 1)
        # gathered and scaled in place: no (m, dofs) temporary beyond ``right``
        out = prefix[self.cut]
        out *= (pref * np.exp(ikn * self.points)).reshape(column)
        right = suffix[self.cut - self.lo]
        right *= (pref * np.exp(-ikn * self.points)).reshape(column)
        out += right
        return out

    def matrix(self, k: complex) -> np.ndarray:
        """K(k) as an (m, dofs) matrix."""
        lo = self.lo
        minus, plus = self._moments(1j * self.n0 * k)
        pieces = np.arange(len(self.piece_dofs))[:, None]
        prefix = np.zeros((pieces.size + 1, self.dof_count), dtype=complex)
        suffix = np.zeros((pieces.size + 1 - lo, self.dof_count), dtype=complex)
        prefix[pieces + 1, self.piece_dofs] = minus
        suffix[pieces[lo:] - lo, self.piece_dofs[lo:]] = plus
        return self._sides(k, prefix, suffix)

    def apply(self, k: complex, coeffs: np.ndarray) -> np.ndarray:
        """K(k)u at the m points for u given by DOF coefficients, without forming K(k)."""
        minus, plus = self._moments(1j * self.n0 * k)
        prefix = np.zeros(len(minus) + 1, dtype=complex)
        suffix = np.zeros(len(plus) + 1, dtype=complex)
        prefix[1:] = np.sum(minus * coeffs[self.piece_dofs], axis=1)
        suffix[:-1] = np.sum(plus * coeffs[self.piece_dofs[self.lo:]], axis=1)
        return self._sides(k, prefix, suffix)


def _kernel_geometry(ctx: LsContext, points, cuts) -> KernelGeometry:
    """The geometry of K(k) at ``points`` on the mesh cut at the points and at
    ``cuts``, with the context's inner rule on every piece."""
    space, medium = ctx.space, ctx.medium
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    verts = space.mesh.vertices
    inside = np.clip(pts, verts[0], verts[-1])
    edges = np.union1d(verts, np.clip(np.concatenate((cuts, pts)), verts[0], verts[-1]))
    cells = locate(space.mesh, edges[:-1])
    nodes, w = QuadratureRule.gauss_legendre(ctx.quad_order).mapped(edges[:-1, None],
                                                                    edges[1:, None])
    loc = 2.0 * (nodes - verts[cells, None]) / np.diff(verts)[cells, None] - 1.0
    vals = lagrange_values(space.ref_nodes, space.bary_weights, loc.ravel())
    vals = vals.T.reshape(*nodes.shape, space.degree + 1)
    table = w[:, :, None] * vals  # phi_l(y) w(y), as in LsContext.cell_quadrature
    return KernelGeometry(
        n0=medium.n0, points=pts, cut=np.searchsorted(edges, inside), nodes=nodes,
        weights=np.ascontiguousarray(medium.contrast(nodes)[:, :, None] * table, dtype=complex),
        piece_dofs=space.cell_dofs[cells], dof_count=space.dof_count)


def apply_kernel(ctx: LsContext, k: complex, u, points) -> np.ndarray:
    """Values of K(k)u at arbitrary points for u given by DOF coefficients.

    The geometry is cut where that of T(k) is as well as at ``points``, so that
    its pieces are as short and its rule as accurate deep in the lower half
    plane; it is built for this call only.
    """
    coeffs = np.asarray(u, dtype=complex)
    if coeffs.shape != (ctx.space.dof_count,):
        raise ValueError(f"expected {ctx.space.dof_count} coefficients, got {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficient vector has non-finite entries")
    return _kernel_geometry(ctx, points, ctx.cuts).apply(k, coeffs)


def collocation_matrix(ctx: LsContext, k: complex) -> list[np.ndarray]:
    """The blocks of T(k) = I - K(k) collocated at the space's Gauss-Lobatto
    nodes, one per ``ctx.blocks``.

    K(k) is formed only at the nodes of the first block, the last nodes (those
    with x >= 0 when there are two blocks), and each block folds its rows, the
    last of those, by summing or differencing the two slices of mirror
    columns; T = I - K is then formed in the block's array.
    """
    kernel = ctx.collocation_geometry.matrix(k)
    blocks = []
    for block in ctx.blocks:
        t = block.fold(kernel)
        np.negative(t, out=t)
        t.ravel()[::t.shape[1] + 1] += 1.0  # the diagonal of a C-contiguous block
        blocks.append(t)
    return blocks


def filter_epsilon(ctx: LsContext, pair: EigenPair) -> FilterReport:
    """The pseudomode residual eps = ||u - P K(k)u||_{L^2(Omega_r)} of an eigenpair.

    The eigenvector is interpolated at the collocation nodes, normalized to
    unit L^2(Omega_r) norm, K(k)u is evaluated at the cell Gauss points and
    projected onto the space, eta = (M^r)^-1 b with b_i = int phi_i K(k)u,
    as one product with the context's cached ``projection``, and
    eps = sqrt((xi - eta)^* M^r (xi - eta)).  With vanishing contrast K = 0,
    so eps = 1 for any unit u.  eps depends on (k, u) alone, not on the
    solver that produced the pair.

    Deep in the lower half plane K(k)u can be finite while its square is not.
    So xi and K(k)u are both scaled by 2^-e before the projection and the
    norm, with e the binary exponent of the largest real or imaginary part of
    K(k)u when that exceeds 1, and eps is scaled back: a power of two changes
    no digit.  eps is inf for a pair the filter cannot test: a vector without
    support on Omega_r, which cannot be a resonance mode, and a k at which
    K(k)u is not finite in double precision.
    """
    if pair.space is None:
        raise ValueError("eigenpair carries no originating space")
    # at the nodes of its own space the interpolant hits each node exactly
    xi = evaluate_function(pair.space, pair.vector, ctx.space.node_coords)
    mr = ctx.mass
    nrm2 = float(np.real(xi.conj() @ (mr @ xi)))
    if nrm2 <= 0 or np.sqrt(nrm2) < 1e-12:
        return FilterReport(epsilon=math.inf)
    xi = xi / np.sqrt(nrm2)

    with np.errstate(over="ignore", invalid="ignore"):
        ku = ctx.quadrature_geometry.apply(pair.k, xi)
    if not np.all(np.isfinite(ku)):
        return FilterReport(epsilon=math.inf)
    # parts rather than moduli: |K(k)u| itself may overflow
    scale = 2.0 ** -max(math.frexp(float(np.abs(ku.view(float)).max()))[1], 0)
    diff = scale * xi - ctx.projection @ (scale * ku)
    # exact, and a float division gives inf beyond the float range
    eps = math.sqrt(max(float(np.real(diff.conj() @ (mr @ diff))), 0.0)) / scale
    return FilterReport(epsilon=eps)


def pseudospectrum(t, region: tuple[float, float, float, float],
                   resolution: tuple[int, int]) -> PseudospectrumGrid:
    """s_min(t(k)) on a rectangular k-grid for a matrix function ``t`` that returns
    the list of its diagonal blocks (s_min is the least over them).

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

