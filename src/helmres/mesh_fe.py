"""One-dimensional meshes, nodal Gauss-Lobatto finite element spaces, and quadrature.

The spaces are spanned by Lagrange polynomials on the Gauss-Lobatto points of
each cell, so every basis function satisfies phi_j(x_i) = delta_ji at the
global node set.  That nodal property is what lets the same space serve both
as a Galerkin trial space and as a collocation space for the volume-integral
formulation.
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
    """Gauss-Legendre rule on the reference interval [-1, 1].

    ``order`` is the number of points; the rule integrates polynomials of
    degree <= 2*order - 1 exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    order: int

    @classmethod
    def gauss_legendre(cls, order: int) -> "QuadratureRule":
        if order < 1:
            raise ValueError(f"quadrature order must be >= 1, got {order}")
        x, w = npleg.leggauss(order)
        return cls(points=x, weights=w, order=order)

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


def _lagrange_eval(nodes: np.ndarray, bw: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of all Lagrange cardinal polynomials at ``pts``.

    Barycentric form: l_j(x) = (w_j/(x-x_j)) / sum_m w_m/(x-x_m) and
    l'_j = l_j * (T/S - 1/(x-x_j)) with S = sum w_m/(x-x_m),
    T = sum w_m/(x-x_m)^2.  Points that coincide with a node are handled
    through the differentiation matrix.  Shapes: (n_nodes, n_pts).
    """
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    diff = pts[None, :] - nodes[:, None]
    exact = np.abs(diff) < 1e-14
    safe = np.where(exact, 1.0, diff)
    c = bw[:, None] / safe
    s = c.sum(axis=0)
    t = (bw[:, None] / safe**2).sum(axis=0)
    vals = c / s
    ders = vals * (t / s - 1.0 / safe)
    hit = np.nonzero(exact.any(axis=0))[0]
    if hit.size:
        node = np.argmax(exact[:, hit], axis=0)
        vals[:, hit] = 0.0
        vals[node, hit] = 1.0
        ders[:, hit] = _differentiation_matrix(nodes, bw)[node].T
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

    def cell_bounds(self, cell: int) -> tuple[float, float]:
        return float(self.vertices[cell]), float(self.vertices[cell + 1])

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


def evaluate_basis(space: MeshedSpace, cell: int, local_points) -> tuple[np.ndarray, np.ndarray]:
    """Values and physical-coordinate derivatives of the cell-local shape functions.

    ``local_points`` are reference coordinates in [-1, 1]; result shapes are
    (p+1, n_points).
    """
    lo, hi = space.mesh.cell_bounds(cell)
    pts = np.atleast_1d(np.asarray(local_points, dtype=float))
    if pts.size and (pts.min() < -1.0 - 1e-12 or pts.max() > 1.0 + 1e-12):
        raise ValueError("local points must lie in the reference interval [-1, 1]")
    vals, ders = _lagrange_eval(space.ref_nodes, space.bary_weights, pts)
    return vals, ders * (2.0 / (hi - lo))


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
    vals, _ = _lagrange_eval(space.ref_nodes, space.bary_weights, loc)
    # a constrained node's DOF index -1 reads the appended zero
    local = np.append(coeffs, 0)[space.cell_dofs[cells]]
    return np.sum(vals.T * local, axis=1)
