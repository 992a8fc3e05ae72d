"""The volume-integral (Lippmann-Schwinger) operator, the spurious-solution
filter, and s_min arrays over a k-grid (pseudospectra).

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
:func:`filter_epsilons` gives eps for every pair of a run in one pass, with
one k and one parity per column of u; :func:`filter_epsilon` is that pass on
one pair.

Only exp(i n0 k |x - y|) depends on k, and in 1D it factors on either side
of x: the semiseparable structure of the Green's function (Greengard &
Rokhlin, CPAM 44, 1991).  A :class:`KernelGeometry` holds the rest for one
set of evaluation points on the mesh cut at every point, so that the kink of
the integrand at y = x falls on a piece edge.  K(k) then takes one
exponential per Gauss node, e^{-i n0 k y}, whose reciprocal is e^{+i n0 k y},
and prefix and suffix sums over the pieces.  On an even medium the cut mesh
is a mirror image, and a geometry holds the right half of its pieces and of
its points alone: the left pieces are the mirrors of the stored right ones by
construction and are never evaluated, and K(k) commutes with the mirror, so
K(k)u of an even or odd u is fixed by its values at x >= 0.  e^{-i n0 k y}
at y >= 0 is e^{+i n0 k y} at the mirror node: T(k) then takes one
exponential per mirror pair of Gauss nodes, and its sums run over the right
half of the pieces and start at the centre.  K(k)u for many pairs contracts
the weight table with the u first and takes one exponential per Gauss node
and pair, e^{-i n0 k y}: e^{+i n0 k y} is its reciprocal.  Every u it takes
on a mirror is even or odd, and the left pieces add the right ones' moments
times its parity sign.  An :class:`LsContext` builds the geometry once at its
collocation nodes (T(k)) and once at its cell Gauss points (the filter), on
an even medium at those with x >= 0 alone.

For an even medium on a mirror-symmetric mesh, T(k) and the resonator mass
commute with the mirror permutation of the nodes, so their even and odd
blocks are all of them: T(k) is collocated only at the nodes with x >= 0,
the last ones, and its columns are summed with their mirrors' (even) or
differenced (odd), and the filter projects K(k)u onto the block of the pair
alone, with the block's folded mass, from its values at x >= 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .assembly import assemble_resonator_mass
from .eigen import EigenPair, _real_product, smallest_singular_value
from .media import MediumProfile
from .mesh_fe import (BoundaryCondition, MeshedSpace, ParityBlock, build_mesh, build_space,
                      cell_quadrature, evaluate_function, parity_blocks)


# Below degree 4 the collocation nodes cut a cell into at most three pieces,
# across each of which the kernel grows by up to e^{n0 |Im k| h}, and the
# (p + 6)-point rule misses T(k) deep in the lower half plane: by 1.2e-4 at
# p = 1, k = 3 - 20i on the air cavity at h = 0.5.  There T(k) also cuts every
# cell at the Gauss-Lobatto nodes of this degree, which keeps it within 2e-13
# of a rule of three times the order.
_LOW_DEGREE_CUTS = 6

# KernelGeometry.apply takes its columns in slices, so that no (stored pieces,
# q, columns) array outgrows this many bytes, however many pairs it takes.
_SLICE_BYTES = 1 << 17

_SIGNS = {"even": 1.0, "odd": -1.0, None: 0.0}


@dataclass(frozen=True, eq=False)
class LsContext:
    """Collocation space on Omega_r and the order of its inner quadrature.

    Everything k-independent is derived once per context and cached: the
    parity blocks of T(k), the resonator mass matrix, the kernel geometries at
    the collocation nodes of the first block (the last nodes, which hold the
    rows of every block) and at the cell Gauss points, both at x >= 0 alone
    with two blocks, and per block the folded mass and L^2 moments of the
    filter's projection.
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
        nodes, weights, vals, _, _ = cell_quadrature(self.space, self.quad_order)
        return nodes, weights[:, :, None] * vals

    @functools.cached_property
    def projection_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per block, its folded mass M_b = Q_b^T M^r Q_b and Q_b^T P^T, both
        real.  P^T[i, (c, g)] = phi_i(y) w(y) at node g of cell c, so that P^T f
        is the L^2 moments on the space of a function given by its values at
        the cell Gauss points of ``quadrature_geometry``, in ravelled (cell,
        node) order, and M_b^-1 Q_b^T P^T f is the block coordinates of its
        projection.  With two blocks those are the last ceil(m / 2) of the m
        points, and an f of the block's parity s is s times its value at the
        mirror point: P^T's column there is R times the column at the right
        point, and Q_b^T R = s Q_b^T, so each right column is doubled, and the
        centre's (m odd), its own mirror, is taken once."""
        _, table = self.cell_quadrature
        cells, q, _ = table.shape
        pt = np.zeros((self.space.dof_count, cells, q))
        pt[self.space.cell_dofs[:, :, None], np.arange(cells)[:, None, None],
           np.arange(q)] = np.swapaxes(table, 1, 2)
        pt = pt.reshape(self.space.dof_count, -1)[:, -len(self.quadrature_geometry.points):]
        out = []
        for block in self.blocks:
            moments = block.coordinates(pt)
            if block.parity is not None:
                moments[:, cells * q % 2:] *= 2.0
            out.append((block.fold(self.mass), moments))
        return out

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
        so its pieces are those of a geometry at all nodes.  With two blocks
        those nodes are the right half, and it holds the right half of the
        pieces too.  With one block it is the geometry at all nodes, and holds
        every piece."""
        return _kernel_geometry(self, self.space.node_coords[-self.blocks[0].size:], self.cuts)

    @functools.cached_property
    def quadrature_geometry(self) -> "KernelGeometry":
        """The filter's geometry at the m cell Gauss points in ravelled (cell,
        node) order, all of which are ``cuts``.  With two blocks it holds the
        right half of them, the last ceil(m / 2), and of its pieces, with the
        values of a geometry at every point, bit for bit."""
        points = self.cell_quadrature[0].ravel()
        first = points.size // 2 if len(self.blocks) == 2 else 0
        return _kernel_geometry(self, points[first:], points)

    def t(self, k: complex) -> list[np.ndarray]:
        """The blocks of T(k) = I - K(k), one per ``blocks``: :func:`collocation_matrix`."""
        return collocation_matrix(self, k)


@dataclass(frozen=True, eq=False)
class FilterReport:
    """The filter value eps of an eigenpair."""

    epsilon: float


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

    K(k)[i] = pref(k) [e^{i n0 k x_i} P[rows_i] + e^{-i n0 k x_i} Q[rows_i]]

    with pref(k) = ik / 2n0.  The mesh is cut at every point inside it, so each
    piece lies wholly on one side of every point; the first ``half + rows[i]``
    pieces lie left of x_i.  P and Q are the prefix and suffix sums over pieces
    of the moments M-+[j] = sum_g e^{-+i n0 k y_g} W[j, g] on the DOFs of piece
    j's cell, W[j, g, l] = (n^2 - n0^2)(y_g) phi_l(y_g) w_g at its Gauss nodes y.

    A geometry with left pieces, ``half > 0``, such as those of a context with
    two parity blocks, stands for a cut mesh that is a mirror image, and it is
    its right half: its points lie at or right of the centre, and it stores its
    pieces from ``half`` = pieces // 2 on, with an odd count the centre piece,
    its own mirror, too.  Its left pieces, nodes and weights are the exact
    mirror images of the stored ones (x -> -x, DOF d -> dofs - 1 - d) by
    construction, and are never evaluated.  Any other geometry stores every
    piece, ``half = 0``.  :meth:`matrix` and :meth:`apply` take the moments of
    the stored pieces.
    """

    n0: float
    points: np.ndarray          # (m,)
    rows: np.ndarray            # (m,) each point's row of P and Q: stored pieces left of it
    nodes: np.ndarray           # (stored pieces, q)
    table: np.ndarray           # (stored pieces, p+1, q): W transposed, real
    piece_dofs: np.ndarray      # (stored pieces, p+1)
    dof_count: int
    half: int                   # the left pieces, not stored; piece j mirrors piece -1-j
    first_dof: int              # the first DOF the stored pieces touch
    into_p: np.ndarray          # the flat index of their DOFs in P, one row down
    into_q: np.ndarray          # and in Q, whose columns start at first_dof

    def matrix(self, k: complex) -> np.ndarray:
        """K(k) as an (m, dofs) matrix, from the moments of the stored pieces.

        Those pieces take e^{-ikn y} for their minus moments and its reciprocal
        for their plus moments: one exponential per Gauss node, or per mirror
        pair of them.  Both moments are one real product with the weight table,
        which is real.  P starts at the centre from the minus moments of the
        pieces before the stored ones: a left piece mirrors a right one, so its
        minus moments are the DOF-reversed plus moments of that one, and the P
        of all left pieces is the reversed Q of their mirrors.  With no mirror
        there are no left pieces, and P starts from zero.  P and Q have one row
        more than the stored pieces, and Q ends at the last piece.  Both are
        summed over the DOFs those pieces touch only; the rest of P is its first
        row, and Q is held on those DOFs alone, as it is zero on the rest.
        """
        first = self.first_dof
        terms = np.empty(self.nodes.shape + (2,), dtype=complex)
        np.exp(-1j * self.n0 * k * self.nodes, out=terms[..., 0])
        np.reciprocal(terms[..., 0], out=terms[..., 1])
        moments = (self.table @ terms.view(float)).view(complex)  # (pieces, p+1, 2)
        prefix = np.zeros((len(self.nodes) + 1, self.dof_count), dtype=complex)
        suffix = np.zeros((len(self.nodes) + 1, self.dof_count - first), dtype=complex)
        prefix.ravel()[self.into_p] = moments[..., 0].ravel()
        suffix.ravel()[self.into_q] = moments[..., 1].ravel()
        reverse = suffix[::-1]
        np.cumsum(reverse, axis=0, out=reverse)
        # the mirrors of the left pieces are the stored ones from pieces - half
        # on; with no left pieces that is Q's last row, zero
        prefix[0, :suffix.shape[1]] = suffix[len(self.nodes) - self.half, ::-1]
        prefix[1:, :first] = prefix[0, :first]
        np.cumsum(prefix[:, first:], axis=0, out=prefix[:, first:])
        return _combine(k, self.n0, self.points, prefix[self.rows], suffix[self.rows])

    def apply(self, k, coeffs: np.ndarray, signs=0) -> np.ndarray:
        """K(k)u at the m points without forming K(k): (m,) for one k and a
        coefficient vector u, (m, pairs) for one k per column of a (dofs, pairs)
        array.

        ``signs`` gives the parity of each column under the mirror R, u[::-1] =
        s u: +1 for an even column, -1 for an odd one and 0 for one without a
        parity.  A geometry with left pieces takes even and odd columns alone,
        whose left pieces' moments are s times the right ones', so each costs
        the stored pieces.  The K(k)u of a column without a parity, summed from
        its even and odd parts, lost its small entries to cancellation deep in
        the plane (at k = 2 - 20i they came out wrong by their own size), so
        :func:`filter_epsilons` tests each part in its block apart.  The
        columns go through :meth:`_apply_slice` in slices of at most
        ``_SLICE_BYTES`` per (stored pieces, q, columns) array, so the
        temporaries do not grow with the number of columns.
        """
        cols = coeffs.reshape(self.dof_count, -1)
        ks = np.broadcast_to(k, cols.shape[1:])
        signs = np.broadcast_to(signs, ks.shape)
        if self.half and not np.all(signs):
            raise ValueError("a mirrored geometry takes even or odd columns alone")
        width = max(1, _SLICE_BYTES // (16 * self.nodes.size))
        out = np.empty((len(self.points), len(ks)), dtype=complex)
        for start in range(0, len(ks), width):
            part = slice(start, start + width)
            out[:, part] = self._apply_slice(ks[part], cols[:, part], signs[part])
        return out.reshape(out.shape[:1] + coeffs.shape[1:])

    def _apply_slice(self, ks: np.ndarray, cols: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """K(k)u with one k and one parity sign per column, (m, columns).

        The weight table is contracted with the columns first, Wu[j, g] =
        W[j, g] u[piece dofs], so each Gauss node and column costs one
        exponential, e^{-ikn y}; e^{+ikn y} is its reciprocal.  Where e^{-ikn y}
        leaves the float range, so does K(k)u: it is then not finite, as with
        two exponentials.  P starts at the centre as in :meth:`matrix`, from the
        sign times the reversed Q: the left pieces' moments of u are those of
        R u = s u on their mirrors.
        """
        gathered = np.ascontiguousarray(cols[self.piece_dofs], dtype=complex)
        wu = (np.swapaxes(self.table, 1, 2) @ gathered.view(float)).view(complex)
        terms = np.multiply.outer(self.nodes, -1j * self.n0 * ks)
        np.exp(terms, out=terms)
        prefix = np.zeros((len(wu) + 1, len(ks)), dtype=complex)
        prefix[1:] = np.einsum("jgs,jgs->js", terms, wu)
        np.reciprocal(terms, out=terms)
        suffix = np.zeros_like(prefix)
        suffix[:-1] = np.einsum("jgs,jgs->js", terms, wu)
        reverse = suffix[::-1]
        np.cumsum(reverse, axis=0, out=reverse)
        # with no left pieces that is Q's last row, zero
        prefix[0] = signs * suffix[len(wu) - self.half]
        np.cumsum(prefix, axis=0, out=prefix)
        return _combine(ks, self.n0, self.points, prefix[self.rows], suffix[self.rows])


def _combine(k, n0: float, points: np.ndarray, prefix: np.ndarray,
             suffix: np.ndarray) -> np.ndarray:
    """pref(k) [e^{ikn x} P + e^{-ikn x} Q] for the rows P and Q gathered at the
    points x, scaled in place and summed into ``prefix``.  Q may hold the last
    columns of P only, and is zero on the rest.  ``k`` is a scalar, or an
    array with one k per column of P and Q."""
    ikn, pref = 1j * n0 * k, 1j * k / (2.0 * n0)
    phase = np.multiply.outer(points, ikn)
    column = phase.shape + (1,) * (prefix.ndim - phase.ndim)
    prefix *= (pref * np.exp(phase)).reshape(column)
    suffix *= (pref * np.exp(-phase)).reshape(column)
    prefix[:, prefix.shape[1] - suffix.shape[1]:] += suffix
    return prefix


def _kernel_geometry(ctx: LsContext, points, cuts, mirror: bool = True) -> KernelGeometry:
    """The geometry of K(k) at ``points`` on the mesh cut at the points and at
    ``cuts``: the context's inner rule on every stored piece, by
    :func:`cell_quadrature`, and each point's row of P and Q and the indices
    that scatter the moments into them.  On a context with two parity blocks
    it has left pieces unless ``mirror`` is false: the cut mesh must then be a
    mirror image, and no point may lie left of its centre.  Only its right half
    is evaluated; the left half is the mirror of it by construction."""
    space, medium = ctx.space, ctx.medium
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    verts = space.mesh.vertices
    inside = np.clip(pts, verts[0], verts[-1])
    base = np.union1d(verts, np.clip(np.asarray(cuts, dtype=float), verts[0], verts[-1]))
    edges = np.union1d(base, inside)
    cut = np.searchsorted(edges, inside)
    half = 0
    # parity blocks mean an even medium on mirror DOFs
    if mirror and len(ctx.blocks) == 2:
        if np.max(np.abs(edges + edges[::-1])) > 1e-12 * (verts[-1] - verts[0]):
            raise ValueError("the pieces of a two-block context are no mirror image")
        if np.any(2 * cut < len(edges) - 1):
            raise ValueError("a mirrored geometry holds no point left of its centre")
        half = (len(edges) - 1) // 2
    nodes, w, table, _, cells = cell_quadrature(space, ctx.quad_order, edges[half:])
    table *= w[:, :, None]  # in place: phi_l(y) w(y), as in LsContext.cell_quadrature
    table *= medium.contrast(nodes)[:, :, None]
    piece_dofs, dofs = space.cell_dofs[cells], space.dof_count
    first_dof = int(piece_dofs.min())
    right = np.arange(len(piece_dofs))[:, None]
    return KernelGeometry(
        n0=medium.n0, points=pts, rows=cut - half, nodes=nodes,
        table=np.ascontiguousarray(np.swapaxes(table, 1, 2)), piece_dofs=piece_dofs,
        dof_count=dofs, half=half, first_dof=first_dof,
        into_p=((right + 1) * dofs + piece_dofs).ravel(),
        into_q=(right * (dofs - first_dof) + piece_dofs - first_dof).ravel())


def apply_kernel(ctx: LsContext, k: complex, u, points) -> np.ndarray:
    """Values of K(k)u at arbitrary points for u given by DOF coefficients.

    The geometry is cut where that of T(k) is as well as at ``points``, so that
    its pieces are as short and its rule as accurate deep in the lower half
    plane; it is built for this call only, over every piece.
    """
    coeffs = np.asarray(u, dtype=complex)
    if coeffs.shape != (ctx.space.dof_count,):
        raise ValueError(f"expected {ctx.space.dof_count} coefficients, got {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficient vector has non-finite entries")
    return _kernel_geometry(ctx, points, ctx.cuts, mirror=False).apply(k, coeffs)


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


def filter_epsilons(ctx: LsContext, pairs) -> np.ndarray:
    """The pseudomode residual eps = ||u - P K(k)u||_{L^2(Omega_r)} of every
    eigenpair, in pair order.

    Each vector is interpolated at the collocation nodes, K(k)u is evaluated at
    the cell Gauss points and projected onto the space, eta = (M^r)^-1 b with
    b_i = int phi_i K(k)u, and eps = sqrt((xi - eta)^* M^r (xi - eta)).  eps is
    taken for u as interpolated and divided by its norm, K(k) and P being
    linear: it is that of the unit vector.  With vanishing contrast K = 0, so
    eps = 1 for any u.  eps depends on (k, u) alone, not on the solver that
    produced the pair.

    M^r and K(k) commute with the mirror R on a context with two parity
    blocks, so eps is taken in block coordinates, with each block's folded
    mass M_b: a pair with a parity is tested in its block alone, xi_b = Q_b^T
    xi, and a pair without one in both, eps and the norm being the roots of
    the sums of the squares, its parts never summed into one K(k)u (see
    :meth:`KernelGeometry.apply`).  K(k)u is formed at the points of
    ``quadrature_geometry``, and each block's Q_b^T P^T takes in their
    mirrors.  A context with one block is the whole space, Q = I.  All pairs
    take each step together, with one interpolation per space: one
    :meth:`KernelGeometry.apply` with a k and a parity sign per column, and per
    block one product with Q_b^T P^T, one solve with M_b and products with
    M_b for the norms.

    Deep in the lower half plane K(k)u can be finite while its square is not.
    So xi and K(k)u are both scaled by 2^-e before the projection and the
    norm, with e the binary exponent of the largest real or imaginary part of
    the column's K(k)u when that exceeds 1, and eps is scaled back: a power of
    two changes no digit.  eps is inf for a pair the filter cannot test: a
    vector without support on Omega_r (a norm below 1e-12), which cannot be a
    resonance mode, and a k at which K(k)u is not finite in double precision.
    """
    pairs = list(pairs)
    if any(pair.space is None for pair in pairs):
        raise ValueError("eigenpair carries no originating space")
    # at the nodes of its own space the interpolant hits each node exactly
    xi = np.empty((ctx.space.dof_count, len(pairs)), dtype=complex)
    for space in dict.fromkeys(pair.space for pair in pairs):
        rows = [j for j, pair in enumerate(pairs) if pair.space is space]
        xi[:, rows] = evaluate_function(space, np.stack([pairs[j].vector for j in rows], axis=1),
                                        ctx.space.node_coords)
    # the pairs each block tests, by their parity, and their block coordinates
    cols = [np.array([j for j, pair in enumerate(pairs)
                      if None in (block.parity, pair.parity) or block.parity == pair.parity],
                     dtype=int) for block in ctx.blocks]
    ys = [block.coordinates(xi[:, c]) for block, c in zip(ctx.blocks, cols)]
    # one column of apply per block and pair, a DOF vector of the block's parity
    u = np.concatenate([block.unfold(y) for block, y in zip(ctx.blocks, ys)], axis=1)
    ks = np.array([pairs[j].k for c in cols for j in c])
    signs = np.concatenate([np.full(c.size, _SIGNS[block.parity])
                            for block, c in zip(ctx.blocks, cols)])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ku = ctx.quadrature_geometry.apply(ks, u, signs)
    finite = np.all(np.isfinite(ku), axis=0)
    ku[:, ~finite] = 0.0
    # parts rather than moduli: |K(k)u| itself may overflow
    top = np.maximum(np.abs(ku.real).max(axis=0), np.abs(ku.imag).max(axis=0))
    scale = np.ldexp(1.0, -np.maximum(np.frexp(top)[1], 0))
    eps, squares = np.zeros(len(pairs)), np.zeros(len(pairs))
    start = 0
    for (mass, moments), c, y in zip(ctx.projection_blocks, cols, ys):
        part = slice(start, start + c.size)
        start += c.size
        rhs = _real_product(moments, scale[part] * ku[:, part])  # Q_b^T P^T K(k)u
        eta = np.linalg.solve(mass, rhs.view(float)).view(complex)
        diff = scale[part] * y - eta
        # exact, and a division beyond the float range gives inf
        with np.errstate(over="ignore"):
            e = np.where(finite[part], np.sqrt(_mass_squares(mass, diff)) / scale[part],
                         math.inf)
        eps[c] = np.hypot(eps[c], e)
        squares[c] += _mass_squares(mass, y)
    nrm = np.sqrt(squares)
    with np.errstate(over="ignore"):
        return np.divide(eps, nrm, out=np.full(len(pairs), math.inf), where=nrm >= 1e-12)


def _mass_squares(mass: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z_j^* M z_j of every column z_j, for a real symmetric M; a quadratic form
    that rounds below zero gives 0."""
    return np.maximum(np.real(np.sum(z.conj() * _real_product(mass, z), axis=0)), 0.0)


def filter_epsilon(ctx: LsContext, pair: EigenPair) -> FilterReport:
    """The eps of one eigenpair: :func:`filter_epsilons` of a one-pair list."""
    return FilterReport(epsilon=float(filter_epsilons(ctx, [pair])[0]))


def pseudospectrum(t, region: tuple[float, float, float, float],
                   resolution: tuple[int, int]) -> np.ndarray:
    """s_min(t(k)) on a rectangular k-grid as an (ny, nx) array, for a matrix
    function ``t`` that returns the list of its diagonal blocks (s_min is the
    least over them).

    Entry (iy, ix) is at k = re[ix] + i im[iy], with re and im the
    ``np.linspace`` axes of ``region`` at ``resolution = (nx, ny)`` points.
    Values are absolute (no relative rescaling); grid traversal is row-major and
    bit-reproducible.  An s_min below n u ||T(k)||_2, with n the order of T(k)
    and u = 1.1e-16 the unit roundoff, is rounding, and no value is flagged as
    such: on the air cavity at p = 4, h = 0.5 and k = 2 - 10i, ||T(k)||_2 =
    5.9e19, so n u ||T(k)||_2 = 1.6e5 while s_min is about 1e-3, itself
    rounding.  Deeper in the lower half plane T(k) can overflow, or take the
    reciprocal of an exponential that underflowed to 0: the ValueError for a
    T(k) that is not finite names the k.
    """
    re_min, re_max, im_min, im_max = map(float, region)
    nx, ny = map(int, resolution)
    if nx < 1 or ny < 1:
        raise ValueError("resolution must be positive")
    values = np.empty((ny, nx))
    for iy, im in enumerate(np.linspace(im_min, im_max, ny)):
        for ix, re in enumerate(np.linspace(re_min, re_max, nx)):
            k = complex(re, im)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                blocks = t(k)
            try:
                values[iy, ix] = smallest_singular_value(blocks)
            except ValueError as exc:
                raise ValueError(f"T(k) at k = {k.real:.6g}{k.imag:+.6g}j: {exc}") from exc
    return values
