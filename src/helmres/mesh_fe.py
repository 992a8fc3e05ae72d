"""One-dimensional meshes, nodal Gauss-Lobatto finite element spaces, and quadrature.

The spaces are spanned by Lagrange polynomials on the Gauss-Lobatto points of
each cell, so every basis function satisfies phi_j(x_i) = delta_ji at the
global node set.  That nodal property is what lets the same space serve both
as a Galerkin trial space and as a collocation space for the volume-integral
formulation.

On a mesh that is its own mirror image the reflection x -> -x permutes the
nodes, and so the DOFs.  A matrix that commutes with that permutation is block
diagonal in the orthonormal basis of even and odd DOF pairs (Bossavit, CMAME
56, 1986).  The DOFs are numbered in ascending x, so the permutation is the
reversal: :func:`parity_blocks` describes the two blocks, and each
:class:`ParityBlock` folds matrices into its block and unfolds block vectors
back into DOF vectors by sums of two slices, its own DOFs (the last) and
their mirrors (the first, reversed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg


class BoundaryCondition(enum.Enum):
    NONE = "none"
    DIRICHLET_BOTH_ENDS = "dirichlet_both_ends"


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Legendre rule on the reference interval [-1, 1]; ``order`` points
    integrate polynomials of degree <= 2*order - 1 exactly."""

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss_legendre(cls, order: int) -> "QuadratureRule":
        if order < 1:
            raise ValueError(f"quadrature order must be >= 1, got {order}")
        x, w = npleg.leggauss(order)
        return cls(points=x, weights=w)

    def mapped(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Points and weights transplanted to the physical interval [lo, hi].

        Arrays of bounds broadcast against the rule's points along the last axis.
        """
        half = 0.5 * (hi - lo)
        return lo + half * (self.points + 1.0), half * self.weights


def gauss_lobatto_nodes(degree: int) -> np.ndarray:
    """The degree+1 Gauss-Lobatto points on [-1, 1].

    Interior points are the roots of P'_degree; the companion-matrix roots are
    polished with two Newton steps so that nodes are accurate to machine
    precision also for large degree.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if degree == 1:
        return np.array([-1.0, 1.0])
    coeff = np.zeros(degree + 1)
    coeff[-1] = 1.0
    dcoeff = npleg.legder(coeff)
    x = np.sort(npleg.legroots(dcoeff))
    d2coeff = npleg.legder(dcoeff)
    for _ in range(2):
        x = x - npleg.legval(x, dcoeff) / npleg.legval(x, d2coeff)
    return np.concatenate(([-1.0], x, [1.0]))


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    return w / np.max(np.abs(w))


def _differentiation_matrix(nodes: np.ndarray, bw: np.ndarray) -> np.ndarray:
    # D[i, j] = l'_j(x_i) for the Lagrange cardinal polynomials l_j
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (bw[None, :] / bw[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def lagrange_values(nodes: np.ndarray, bw: np.ndarray, pts) -> np.ndarray:
    """Values of all Lagrange cardinal polynomials at ``pts``, (n_nodes, n_pts).

    Barycentric form: l_j(x) = (w_j/(x-x_j)) / sum_m w_m/(x-x_m); at a point
    that coincides with a node they are that node's unit vector.
    """
    diff = np.atleast_1d(np.asarray(pts, dtype=float))[None, :] - nodes[:, None]
    exact = np.abs(diff) < 1e-14
    c = bw[:, None] / np.where(exact, 1.0, diff)
    vals = c / c.sum(axis=0)
    hit = np.nonzero(exact.any(axis=0))[0]
    if hit.size:
        vals[:, hit] = 0.0
        vals[np.argmax(exact[:, hit], axis=0), hit] = 1.0
    return vals


def _lagrange_eval(nodes: np.ndarray, bw: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of all Lagrange cardinal polynomials at ``pts``.

    l'_j = l_j * (T/S - 1/(x-x_j)) with S = sum w_m/(x-x_m),
    T = sum w_m/(x-x_m)^2.  Points that coincide with a node take their
    derivatives from the differentiation matrix.  Shapes: (n_nodes, n_pts).
    """
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    vals = lagrange_values(nodes, bw, pts)
    diff = pts[None, :] - nodes[:, None]
    exact = np.abs(diff) < 1e-14
    safe = np.where(exact, 1.0, diff)
    s = (bw[:, None] / safe).sum(axis=0)
    t = (bw[:, None] / safe**2).sum(axis=0)
    ders = vals * (t / s - 1.0 / safe)
    hit = np.nonzero(exact.any(axis=0))[0]
    if hit.size:
        ders[:, hit] = _differentiation_matrix(nodes, bw)[np.argmax(exact[:, hit], axis=0)].T
    return vals, ders


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Sorted vertices; cell i is (vertices[i], vertices[i+1])."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("a mesh needs at least two vertices")
        if not np.all(np.diff(v) > 0):
            raise ValueError("mesh vertices must be strictly increasing")

    @property
    def n_cells(self) -> int:
        return self.vertices.size - 1

    def has_vertex(self, x: float, tol: float = 1e-12) -> bool:
        return bool(np.min(np.abs(self.vertices - x)) <= tol)


def build_mesh(domain: tuple[float, float], breakpoints, initial_cell_size: float,
               refinements: int = 0) -> Mesh1D:
    """Uniform-by-segment mesh of ``domain`` with every breakpoint as a vertex.

    Each segment between consecutive anchors (domain ends plus breakpoints) is
    split into round(length / initial_cell_size) coarse cells, and every coarse
    cell is then bisected ``refinements`` times.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError(f"empty domain ({lo}, {hi})")
    if initial_cell_size <= 0:
        raise ValueError(f"initial_cell_size must be positive, got {initial_cell_size}")
    if refinements < 0:
        raise ValueError(f"refinements must be >= 0, got {refinements}")
    bps = []
    for b in (float(x) for x in breakpoints):
        if b < lo or b > hi:
            raise ValueError(f"breakpoint {b} outside domain ({lo}, {hi})")
        if lo < b < hi:
            bps.append(b)
    anchors = np.unique(np.concatenate(([lo, hi], bps)))
    verts = [lo]
    for a, b in zip(anchors[:-1], anchors[1:]):
        n = max(1, round((b - a) / initial_cell_size)) * 2**refinements
        verts.extend(np.linspace(a, b, n + 1)[1:])
    return Mesh1D(np.asarray(verts))


@dataclass(frozen=True, eq=False)
class MeshedSpace:
    """Nodal Gauss-Lobatto space of degree p on a 1D mesh.

    Global node numbering is cell*p + local over the full node set; with the
    Dirichlet condition the two endpoint nodes are removed from the DOF set.
    ``node_coords`` lists the coordinates of the unconstrained DOFs, and
    ``cell_dofs[c]`` the global DOF of each local node on cell c, -1 where
    constrained.
    """

    mesh: Mesh1D
    degree: int
    boundary_condition: BoundaryCondition
    dof_count: int
    node_coords: np.ndarray
    ref_nodes: np.ndarray
    bary_weights: np.ndarray
    cell_dofs: np.ndarray       # (cells, p+1)


def build_space(mesh: Mesh1D, p: int, bc: BoundaryCondition = BoundaryCondition.NONE) -> MeshedSpace:
    if p < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {p}")
    ref = gauss_lobatto_nodes(p)
    v = mesh.vertices
    local = v[:-1, None] + 0.5 * (ref + 1.0) * np.diff(v)[:, None]
    # each cell owns its first p nodes; the last cell also owns the right end
    coords = np.append(local[:, :-1], local[-1, -1])
    dofs = p * np.arange(mesh.n_cells)[:, None] + np.arange(p + 1)
    if bc is BoundaryCondition.DIRICHLET_BOTH_ENDS:
        coords = coords[1:-1]
        dofs -= 1
        dofs[-1, -1] = -1
    return MeshedSpace(mesh=mesh, degree=p, boundary_condition=bc, dof_count=coords.size,
                       node_coords=coords, ref_nodes=ref, bary_weights=_barycentric_weights(ref),
                       cell_dofs=dofs)


def cell_quadrature(space: MeshedSpace, order: int):
    """The ``order``-point Gauss rule on every cell with the shape functions at its nodes.

    Returns the nodes and weights, (cells, q); the shape-function values,
    (q, p+1), the same on every cell; and their physical derivatives,
    (cells, q, p+1).
    """
    rule = QuadratureRule.gauss_legendre(order)
    v = space.mesh.vertices
    nodes, weights = rule.mapped(v[:-1, None], v[1:, None])
    vals, ders = _lagrange_eval(space.ref_nodes, space.bary_weights, rule.points)
    ders = ders * (2.0 / np.diff(v))[:, None, None]
    return nodes, weights, vals.T, ders.transpose(0, 2, 1)


def locate(mesh: Mesh1D, points) -> np.ndarray:
    """Index of the cell holding each point; a vertex belongs to the cell on its
    right, the last vertex and points beyond the ends to the nearest cell."""
    cells = np.searchsorted(mesh.vertices, points, side="right") - 1
    return np.clip(cells, 0, mesh.n_cells - 1)


def evaluate_function(space: MeshedSpace, coeffs, points) -> np.ndarray:
    """Evaluate the FE function with the given DOF coefficients at physical points."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (space.dof_count,):
        raise ValueError(f"expected {space.dof_count} coefficients, got shape {coeffs.shape}")
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    v = space.mesh.vertices
    if pts.size and (pts.min() < v[0] - 1e-12 or pts.max() > v[-1] + 1e-12):
        raise ValueError("evaluation point outside the mesh")
    cells = locate(space.mesh, pts)
    lo, hi = v[cells], v[cells + 1]
    loc = np.clip(2.0 * (pts - lo) / (hi - lo) - 1.0, -1.0, 1.0)
    vals = lagrange_values(space.ref_nodes, space.bary_weights, loc)
    # a constrained node's DOF index -1 reads the appended zero
    local = np.append(coeffs, 0)[space.cell_dofs[cells]]
    return np.sum(vals.T * local, axis=1)


# A node's mirror must lie within this fraction of the domain width of -x
_MIRROR_TOLERANCE = 1e-12


def mirror_permutation(space: MeshedSpace) -> np.ndarray | None:
    """The DOF permutation R of the reflection x -> -x, or None when the DOF
    coordinates x are no mirror image of themselves.

    The DOFs are numbered in ascending x, so R is the reversal; it is accepted
    only if every |x[R[i]] + x[i]| is within 1e-12 of the domain width.
    """
    x = space.node_coords
    v = space.mesh.vertices
    if x.size and np.max(np.abs(x + x[::-1])) > _MIRROR_TOLERANCE * (v[-1] - v[0]):
        return None
    return np.arange(x.size)[::-1]


@dataclass(frozen=True, eq=False)
class ParityBlock:
    """One diagonal block of the matrices that commute with the mirror permutation R.

    The DOFs are numbered in ascending x and R reverses them, so the block's
    DOFs are the last ``size`` and their mirrors the first ``size`` reversed.
    Block coordinate j stands for the orthonormal DOF vector
    q_j = w_j (e_d + s e_m), d = dof_count - size + j, m = size - 1 - j = R d,
    with s = +1 for the even block and -1 for the odd one; w_j = 1/sqrt(2),
    except at the centre node x = 0, which is its own mirror, belongs to the
    even block alone (as its first coordinate, when 2 size > dof_count) and has
    w = 1/2, so q = e_d.  The block that is the whole space has parity None
    and q_j = e_j.
    """

    parity: str | None
    size: int
    dof_count: int

    @property
    def _centre(self) -> bool:
        return self.parity == "even" and 2 * self.size > self.dof_count

    def fold(self, mat: np.ndarray) -> np.ndarray:
        """The block Q^T X Q of a matrix X that commutes with R.

        ``mat`` is X, or its rows at any last DOFs that include the block's.
        The block is the slice sum X[d, d] + s X[d, m] with the centre row and
        column scaled by 1/sqrt(2): no product with Q is formed.
        """
        n = self.size
        own = mat[-n:, -n:]
        if self.parity is None:
            return np.array(own)
        mirrored = mat[-n:, n - 1::-1]
        out = own + mirrored if self.parity == "even" else own - mirrored
        if self._centre:
            out[0] *= np.sqrt(0.5)
            out[:, 0] *= np.sqrt(0.5)
        return out

    def unfold(self, vectors: np.ndarray) -> np.ndarray:
        """Q y: the DOF vectors of block coordinates, (size,) or (size, m)."""
        vectors = np.asarray(vectors)
        out = np.zeros((self.dof_count,) + vectors.shape[1:],
                       dtype=np.result_type(vectors, float))
        n = self.size
        if self.parity is None:
            out[-n:] = vectors
            return out
        weights = np.full(n, np.sqrt(0.5))
        if self._centre:
            weights[0] = 0.5
        part = weights.reshape((-1,) + (1,) * (vectors.ndim - 1)) * vectors
        out[-n:] = part
        # the centre is the first of both runs and gets half of its value from each
        if self.parity == "even":
            out[n - 1::-1] += part
        else:
            out[n - 1::-1] -= part
        return out


def parity_blocks(space: MeshedSpace, even_medium: bool) -> tuple[ParityBlock, ...]:
    """The (even, odd) blocks of the space, or the one block that is the whole
    space when the medium is not even or the DOFs are no mirror image.  A
    block without DOFs (the odd one of a lone centre node) is left out."""
    n = space.dof_count
    if not even_medium or mirror_permutation(space) is None:
        return (ParityBlock(parity=None, size=n, dof_count=n),)
    return tuple(ParityBlock(parity=parity, size=size, dof_count=n)
                 for parity, size in (("even", (n + 1) // 2), ("odd", n // 2)) if size)
