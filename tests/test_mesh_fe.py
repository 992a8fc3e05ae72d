"""Meshes, nodal spaces, basis evaluation, and Gauss-Legendre quadrature."""

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from helmres import (BoundaryCondition, Mesh1D, build_mesh, build_space,
                     evaluate_function, parity_blocks)
from helmres.mesh_fe import cell_quadrature, gauss_legendre, gauss_lobatto_nodes, lagrange_values


def test_uniform_mesh_vertices():
    mesh = build_mesh((-1.0, 1.0), [], 0.5)
    np.testing.assert_allclose(mesh.vertices, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert mesh.n_cells == 4


def test_breakpoints_become_vertices_and_refinement_bisects():
    mesh = build_mesh((-2.0, 2.0), [-1.0, 1.0], 0.5, refinements=1)
    assert mesh.n_cells == 16
    np.testing.assert_allclose(np.diff(mesh.vertices), 0.25)
    assert mesh.has_vertex(-1.0) and mesh.has_vertex(1.0)


def test_breakpoint_outside_domain_rejected():
    with pytest.raises(ValueError, match="1.5"):
        build_mesh((-1.0, 1.0), [1.5], 0.5)


def test_mesh_validation():
    with pytest.raises(ValueError):
        build_mesh((1.0, -1.0), [], 0.5)
    with pytest.raises(ValueError):
        build_mesh((-1.0, 1.0), [], -0.1)
    with pytest.raises(ValueError):
        build_mesh((-1.0, 1.0), [], 0.5, refinements=-1)
    with pytest.raises(ValueError):
        Mesh1D(np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        Mesh1D(np.array([0.0]))


def test_cell_count_rounds_to_nearest():
    # 1 / 0.3 rounds to 3 cells
    mesh = build_mesh((0.0, 1.0), [], 0.3)
    assert mesh.n_cells == 3


def test_dof_counts():
    mesh = build_mesh((-1.0, 1.0), [], 0.5)  # 4 cells
    assert build_space(mesh, 2).dof_count == 9
    assert build_space(mesh, 2, BoundaryCondition.DIRICHLET_BOTH_ENDS).dof_count == 7
    single = build_mesh((0.0, 1.0), [], 1.0)
    space = build_space(single, 1)
    assert space.dof_count == 2
    np.testing.assert_allclose(space.node_coords, [0.0, 1.0])


def test_dof_count_formula_sweep():
    # dofs = p * cells * 2^ref + 1 on a mesh with material breakpoints
    for p in range(1, 6):
        for ref in range(4):
            mesh = build_mesh((-2.0, 2.0), [-1.0, 1.0], 0.5, refinements=ref)
            space = build_space(mesh, p)
            assert space.dof_count == p * 8 * 2**ref + 1


def test_degree_validation():
    mesh = build_mesh((0.0, 1.0), [], 0.5)
    with pytest.raises(ValueError):
        build_space(mesh, 0)


def test_cell_dofs_shared_and_constrained():
    mesh = build_mesh((0.0, 1.0), [], 0.25)
    space = build_space(mesh, 3)
    assert space.cell_dofs[0][-1] == space.cell_dofs[1][0]
    dspace = build_space(mesh, 3, BoundaryCondition.DIRICHLET_BOTH_ENDS)
    assert dspace.cell_dofs[0][0] == -1
    assert dspace.cell_dofs[3][-1] == -1
    with pytest.raises(IndexError):
        space.cell_dofs[4]


def test_gauss_lobatto_nodes():
    np.testing.assert_allclose(gauss_lobatto_nodes(1), [-1.0, 1.0])
    np.testing.assert_allclose(gauss_lobatto_nodes(2), [-1.0, 0.0, 1.0], atol=1e-15)
    n4 = gauss_lobatto_nodes(4)
    np.testing.assert_allclose(n4, [-1.0, -np.sqrt(3.0 / 7.0), 0.0,
                                    np.sqrt(3.0 / 7.0), 1.0], atol=1e-14)
    n9 = gauss_lobatto_nodes(9)
    np.testing.assert_allclose(n9, -n9[::-1], atol=1e-14)
    with pytest.raises(ValueError):
        gauss_lobatto_nodes(0)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 22])
def test_reference_rules_are_computed_once_and_read_only(n):
    nodes = gauss_lobatto_nodes(n)
    x, w = gauss_legendre(n)
    assert gauss_lobatto_nodes(n) is nodes
    assert build_space(build_mesh((0, 1), [], 0.5), n).ref_nodes is nodes
    assert gauss_legendre(n)[0] is x and gauss_legendre(n)[1] is w
    for a in (nodes, x, w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    np.testing.assert_array_equal(nodes, gauss_lobatto_nodes.__wrapped__(n))
    fresh = npleg.leggauss(n)
    np.testing.assert_array_equal(x, fresh[0])
    np.testing.assert_array_equal(w, fresh[1])


def test_linear_hats_at_midpoint():
    mesh = build_mesh((0.0, 1.0), [], 1.0)
    space = build_space(mesh, 1)
    # the one-point Gauss rule sits at the midpoint
    _, _, vals, ders, _ = cell_quadrature(space, 1)
    np.testing.assert_allclose(vals[0, 0], [0.5, 0.5])
    # physical slope of a hat on a unit cell is -+1
    np.testing.assert_allclose(ders[0, 0], [-1.0, 1.0])


def test_nodal_property_and_partition_of_unity():
    mesh = build_mesh((0.0, 2.0), [], 0.5)
    space = build_space(mesh, 2)
    vals = lagrange_values(space.ref_nodes, space.bary_weights, space.ref_nodes)
    np.testing.assert_allclose(vals, np.eye(3), atol=1e-14)
    for p in (1, 3, 6):
        _, _, v, d, _ = cell_quadrature(build_space(mesh, p), 9)
        np.testing.assert_allclose(v.sum(axis=-1), 1.0, atol=1e-13)
        np.testing.assert_allclose(d.sum(axis=-1), 0.0, atol=1e-12)


def test_polynomial_reproduction():
    rng = np.random.default_rng(3)
    mesh = build_mesh((-1.5, 2.0), [0.25], 0.5)
    pts = rng.uniform(-1.5, 2.0, 40)
    for p in range(1, 6):
        space = build_space(mesh, p)
        coeffs_poly = rng.standard_normal(p + 1)
        exact = np.polyval(coeffs_poly, pts)
        nodal = np.polyval(coeffs_poly, space.node_coords)
        np.testing.assert_allclose(evaluate_function(space, nodal, pts), exact,
                                   rtol=1e-12, atol=1e-12)


def test_evaluate_function_complex_and_bounds():
    space = build_space(build_mesh((0.0, 1.0), [], 0.5), 2)
    coeffs = (1.0 + 2.0j) * space.node_coords
    out = evaluate_function(space, coeffs, [0.3])
    assert np.iscomplexobj(out)
    np.testing.assert_allclose(out[0], 0.3 * (1.0 + 2.0j), rtol=1e-13)
    with pytest.raises(ValueError):
        evaluate_function(space, coeffs, [1.2])
    with pytest.raises(ValueError):
        evaluate_function(space, coeffs[:-1], [0.3])


def test_evaluate_function_on_dirichlet_space_has_zero_ends():
    rng = np.random.default_rng(5)
    mesh = build_mesh((-1.0, 2.0), [0.5], 0.5)
    free = build_space(mesh, 3)
    pinned = build_space(mesh, 3, BoundaryCondition.DIRICHLET_BOTH_ENDS)
    coeffs = rng.standard_normal(pinned.dof_count) + 1j * rng.standard_normal(pinned.dof_count)
    pts = np.concatenate(([-1.0, 2.0], mesh.vertices, rng.uniform(-1.0, 2.0, 30)))
    np.testing.assert_array_equal(evaluate_function(pinned, coeffs, pts),
                                  evaluate_function(free, np.pad(coeffs, 1), pts))
    np.testing.assert_array_equal(evaluate_function(pinned, coeffs, [-1.0, 2.0]), 0.0)


def test_quadrature_moments():
    lo, hi = -0.3, 1.7
    space = build_space(Mesh1D(np.array([lo, hi])), 1)
    for order in (1, 2, 5, 11):
        x, w, _, _, _ = cell_quadrature(space, order)
        for m in range(2 * order):
            exact = (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)
            assert abs(np.sum(w * x**m) - exact) <= 1e-13 * abs(exact)
    with pytest.raises(ValueError):
        cell_quadrature(space, 0)


def test_quadrature_derivatives_reproduce_legendre_polynomials():
    p = 16
    space = build_space(Mesh1D(np.array([-1.0, 1.0])), p)
    x, _, _, ders, _ = cell_quadrature(space, p + 6)
    for m in range(p + 1):
        coeff = np.zeros(m + 1)
        coeff[-1] = 1.0
        exact = npleg.legval(x[0], npleg.legder(coeff))
        err = np.max(np.abs(ders[0] @ npleg.legval(space.node_coords, coeff) - exact))
        assert err <= 5e-14 * max(1.0, np.max(np.abs(exact)))


def test_quadrature_intervals_must_keep_every_vertex():
    space = build_space(build_mesh((0.0, 2.0), [], 0.5), 2)
    x, _, vals, _, cells = cell_quadrature(space, 3, [0.0, 0.25, 0.5, 1.0, 1.5, 1.75, 2.0])
    np.testing.assert_array_equal(cells, [0, 0, 1, 2, 3, 3])
    np.testing.assert_allclose(vals.sum(axis=-1), 1.0, atol=1e-14)
    # a sub-range of the mesh, as a mirrored kernel geometry's right half asks for
    _, _, _, _, cells = cell_quadrature(space, 3, [0.0, 0.5, 1.0, 1.5])
    np.testing.assert_array_equal(cells, [0, 1, 2])
    # a skipped vertex, inside or in a sub-range; a decreasing edge; one outside
    for edges in ([0.0, 0.25, 1.0, 1.5, 2.0], [0.5, 1.5, 2.0], [0.0, 1.0, 0.5, 1.5, 2.0],
                  [-0.5, 0.0, 0.5]):
        with pytest.raises(ValueError, match="every"):
            cell_quadrature(space, 3, edges)


def test_parity_blocks_split_only_mirror_images():
    space = build_space(build_mesh((-2.0, 2.0), [-1.0, 1.0], 0.25), 5)
    assert np.max(np.abs(space.node_coords + space.node_coords[::-1])) <= 1e-15
    assert len(parity_blocks(space, True)) == 2
    dirichlet = build_space(build_mesh((-5.0, 5.0), [-3, -2, -1, 1, 2, 3], 0.5), 3,
                            BoundaryCondition.DIRICHLET_BOTH_ENDS)
    assert len(parity_blocks(dirichlet, True)) == 2
    # a lone centre node has an even block and no odd one
    centre_only = build_space(build_mesh((-1.0, 1.0), [], 1.0), 1,
                              BoundaryCondition.DIRICHLET_BOTH_ENDS)
    assert [(b.parity, b.size) for b in parity_blocks(centre_only, True)] == [("even", 1)]
    # a shifted domain, and a symmetric domain whose vertices are not
    for mesh in (build_mesh((-1.0, 2.0), [], 0.5), build_mesh((-1.0, 1.0), [0.3], 0.5)):
        assert [b.parity for b in parity_blocks(build_space(mesh, 2), True)] == [None]


def _commuting_matrix(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return y + y[::-1, ::-1]  # R Y R with R the reversal of the sorted DOFs


@pytest.mark.parametrize("mesh, degree, sizes", [
    (((-1.0, 1.0), [], 0.5), 2, (5, 4)),   # 9 DOFs with a centre node at x = 0
    (((-1.5, 1.5), [], 1.0), 1, (2, 2)),   # 4 DOFs, none at x = 0
])
def test_parity_blocks_fold_into_the_orthonormal_even_odd_basis(mesh, degree, sizes):
    space = build_space(build_mesh(*mesh), degree)
    n = space.dof_count
    blocks = parity_blocks(space, True)
    assert [(b.parity, b.size) for b in blocks] == [("even", sizes[0]), ("odd", sizes[1])]
    # Q_b from unfolding the identity: orthonormal columns of pure parity
    qs = [b.unfold(np.eye(b.size)) for b in blocks]
    q = np.hstack(qs)
    np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-15)
    for b, qb in zip(blocks, qs):
        sign = 1.0 if b.parity == "even" else -1.0
        np.testing.assert_array_equal(qb[::-1], sign * qb)
    x = _commuting_matrix(n, 0)
    rng = np.random.default_rng(1)
    u = rng.standard_normal((n, 3))
    for b, qb in zip(blocks, qs):
        np.testing.assert_allclose(b.fold(x), qb.T @ x @ qb, rtol=0, atol=1e-14)
        np.testing.assert_allclose(b.unfold(qb.T @ u[:, 0]), qb @ qb.T @ u[:, 0],
                                   rtol=0, atol=1e-15)
        # the rows of X at the even DOFs serve both blocks
        np.testing.assert_array_equal(b.fold(x[-blocks[0].size:]), b.fold(x))


def test_the_whole_space_is_one_block():
    space = build_space(build_mesh((-1.0, 1.0), [], 0.5), 2)
    (block,) = parity_blocks(space, False)
    assert block.parity is None and block.size == space.dof_count
    x = _commuting_matrix(space.dof_count, 2)
    folded = block.fold(x)
    np.testing.assert_array_equal(folded, x)
    assert folded is not x and not np.shares_memory(folded, x)
    np.testing.assert_array_equal(block.unfold(x[:, 0]), x[:, 0])
