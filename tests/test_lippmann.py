"""Volume-integral operator, pseudomode filter, pseudospectrum grids."""

import dataclasses
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from helmres import (BoundaryCondition, EigenPair, LsContext, MediumProfile,
                     ParityBlock, air_filled_cavity_profile, apply_kernel, assemble_dtn,
                     build_ls_context, build_mesh, build_space, collocation_matrix,
                     evaluate_function, filter_epsilon, filter_epsilons, pseudospectrum,
                     slab_dtn_eigenvalues, slab_profile, smallest_singular_value, solve_contour,
                     solve_dtn)
from helmres import cli, eigen, lippmann
from helmres.mesh_fe import cell_quadrature
from helmres.cli import RunConfig, discretize, write_grid_csv

K1 = math.pi / 4 - 1j * math.log(3.0) / 4
GOLDEN = pathlib.Path(__file__).parent / "golden"


def _unit_pair(ctx, k, seed=0):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(ctx.space.dof_count)
    return EigenPair(k=k, vector=vec, space=ctx.space)


def test_context_covers_resonator():
    ctx = build_ls_context(air_filled_cavity_profile(1.5, math.sqrt(3.5),
                                                     math.sqrt(2.5)), 8, 0.25)
    assert ctx.space.dof_count == 97
    v = ctx.space.mesh.vertices
    assert (v[0], v[-1]) == (-1.5, 1.5)
    assert ctx.space.mesh.has_vertex(-1.0) and ctx.space.mesh.has_vertex(1.0)
    small = build_space(build_mesh((-1.0, 1.0), [], 0.5), 2)
    with pytest.raises(ValueError, match="cover"):
        LsContext(space=small, medium=ctx.medium, quad_order=8)


def test_vanishing_contrast_kernel_is_zero():
    ctx = build_ls_context(slab_profile(1.0, 1.0), 4, 0.5)
    u = np.ones(ctx.space.dof_count, dtype=complex)
    pts = np.linspace(-1, 1, 11)
    for k in (0.5 - 0.2j, 2.0 - 1.0j):
        np.testing.assert_allclose(apply_kernel(ctx, k, u, pts), 0.0, atol=1e-14)
        blocks = collocation_matrix(ctx, k)
        assert sum(len(t) for t in blocks) == ctx.space.dof_count
        for t in blocks:
            np.testing.assert_allclose(t, np.eye(len(t)), atol=1e-14)


def test_zero_wavenumber_gives_identity():
    ctx = build_ls_context(slab_profile(2.0, 1.0), 4, 0.5)
    blocks = collocation_matrix(ctx, 0.0)
    assert sum(len(t) for t in blocks) == ctx.space.dof_count
    for t in blocks:
        np.testing.assert_allclose(t, np.eye(len(t)), atol=1e-14)


def test_interior_mode_is_kernel_fixed_point():
    # u = sin(2 k1 x) restricted to the slab satisfies u = K(k1)u
    ctx = build_ls_context(slab_profile(2.0, 1.0), 10, 0.25)
    u = np.sin(2.0 * K1 * ctx.space.node_coords).astype(complex)
    pts = np.linspace(-0.97, 0.97, 41)
    ku = apply_kernel(ctx, K1, u, pts)
    exact = np.sin(2.0 * K1 * pts)
    assert np.max(np.abs(ku - exact)) < 1e-6 * np.max(np.abs(exact))


def test_kernel_respects_profile_symmetry():
    ctx = build_ls_context(slab_profile(2.0, 1.0), 6, 0.25)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(ctx.space.dof_count) \
        + 1j * rng.standard_normal(ctx.space.dof_count)
    pts = np.array([0.1, 0.35, 0.8])
    k = 1.1 - 0.3j
    direct = apply_kernel(ctx, k, u, pts)
    reflected = apply_kernel(ctx, k, u[::-1], -pts)
    np.testing.assert_allclose(reflected, direct, rtol=1e-12, atol=1e-13)


def _fe_function(space, coeffs):
    """u_h(y) from DOF coefficients by Lagrange interpolation on y's cell."""
    verts, p = space.mesh.vertices, space.degree

    def u(y):
        c = min(max(int(np.searchsorted(verts, y, side="right")) - 1, 0), space.mesh.n_cells - 1)
        nodes = space.node_coords[c * p:c * p + p + 1]
        total = 0.0
        for l in range(p + 1):
            others = np.delete(nodes, l)
            total += coeffs[c * p + l] * np.prod((y - others) / (nodes[l] - others))
        return total

    return u


def _kernel_oracle(ctx, k, x, density):
    """(ik/2n0) int exp(i n0 k |x - y|) (n^2 - n0^2)(y) density(y) dy by adaptive
    quadrature, split at every vertex and at x so that each piece is smooth."""
    quad = pytest.importorskip("scipy.integrate").quad
    n0 = ctx.medium.n0
    verts = ctx.space.mesh.vertices
    cuts = np.unique(np.clip(np.append(verts, x), verts[0], verts[-1]))

    def integrand(y):
        return np.exp(1j * n0 * k * abs(x - y)) * float(ctx.medium.contrast(y)) * density(y)

    total = 0j
    for a, b in zip(cuts[:-1], cuts[1:]):
        for part, unit in ((np.real, 1.0), (np.imag, 1j)):
            val, _ = quad(lambda y: part(integrand(y)), a, b, epsabs=1e-13, epsrel=1e-13,
                          limit=200)
            total += unit * val
    return 1j * k / (2.0 * n0) * total


def _oracle_context(degree):
    """The air-cavity context of the oracle tests, on cells of width 0.5.

    Across such a cell the integrand grows by e^{n0 |Im k| / 2}, about e^16 at
    |Im k| = 20, which the default (p + 6)-point inner rule resolves only to
    about 1e-5 (p = 4) and 5e-4 (p = 1) on a whole cell.  The kernel cuts every
    cell at the collocation nodes (below p = 4 at finer points too), and at the
    points it is evaluated at, so it integrates no whole cell.
    """
    medium = air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5))
    return build_ls_context(medium, degree, 0.5)


@pytest.mark.parametrize("k", [2.0 - 0.4j, 1.2 - 1.0j, 3.0 - 20.0j, 0.3 + 2.0j])
def test_kernel_matches_adaptive_quadrature(k):
    ctx = _oracle_context(4)
    space = ctx.space
    n = space.dof_count
    assert space.degree == 4 and space.mesh.has_vertex(0.0)
    # K(k) at every node, so not the right half of a mirror
    gmat = lippmann._kernel_geometry(ctx, space.node_coords, ctx.cuts, mirror=False).matrix(k)
    # node 6 (x = -0.75) lies strictly inside cell 1, node 12 (x = 0) on a vertex
    for i, columns in ((6, (4, 5, 6, 8, 20)), (12, (8, 11, 12, 13, 16))):
        x = space.node_coords[i]
        for j in columns:
            phi_j = _fe_function(space, np.eye(n)[j])
            assert gmat[i, j] == pytest.approx(_kernel_oracle(ctx, k, x, phi_j), rel=1e-12)

    rng = np.random.default_rng(3)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pts = np.array([0.3141, -1.1, 1.9, -1.9])  # none of them a collocation node
    assert np.min(np.abs(space.node_coords[:, None] - pts)) > 1e-3
    expected = [_kernel_oracle(ctx, k, x, _fe_function(space, u)) for x in pts]
    np.testing.assert_allclose(apply_kernel(ctx, k, u, pts), expected, rtol=1e-12)


@pytest.mark.parametrize("k", [2.0 - 0.4j, 1.2 - 1.0j, 3.0 - 20.0j, 0.3 + 2.0j])
def test_kernel_without_split_points_matches_adaptive_quadrature(k):
    # no evaluation point strictly inside a cell
    ctx = _oracle_context(1)
    space = ctx.space
    n = space.dof_count
    assert np.all([space.mesh.has_vertex(x) for x in space.node_coords])
    # K(k) at every node, so not the right half of a mirror
    gmat = lippmann._kernel_geometry(ctx, space.node_coords, ctx.cuts, mirror=False).matrix(k)
    for i in (0, 2, n - 1):
        x = space.node_coords[i]
        for j in range(n):
            phi_j = _fe_function(space, np.eye(n)[j])
            assert gmat[i, j] == pytest.approx(_kernel_oracle(ctx, k, x, phi_j), rel=1e-12)

    ctx = _oracle_context(4)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(ctx.space.dof_count) + 1j * rng.standard_normal(ctx.space.dof_count)
    u_h = _fe_function(ctx.space, u)
    assert ctx.space.mesh.has_vertex(0.0)
    # a vertex, outside Omega_r on either side, all three
    for pts in ([0.0], [1.9], [-1.9], [1.9, 0.0, -1.9]):
        expected = [_kernel_oracle(ctx, k, x, u_h) for x in pts]
        np.testing.assert_allclose(apply_kernel(ctx, k, u, pts), expected, rtol=1e-12)


def _off_centre_medium():
    """A slab that is not even, so its context is one block."""
    return MediumProfile(n=lambda x: np.where((x >= -1.0) & (x <= 0.5), 2.0, 1.0),
                         n0=1.0, resonator_halfwidth=1.0, breakpoints=(-1.0, 0.5))


@pytest.mark.parametrize("k", [2.0 - 0.4j, 1.2 - 1.0j, 3.0 - 20.0j, 0.3 + 2.0j])
def test_one_block_kernel_matches_adaptive_quadrature(k):
    # the T(k) of a medium that is not even takes the moments of every piece
    for degree, entries in ((1, {0: range(5), 2: range(5), 4: range(5)}),
                            (4, {6: (4, 5, 6, 8, 16), 12: (8, 11, 12, 13, 16)})):
        ctx = build_ls_context(_off_centre_medium(), degree, 0.5)
        space = ctx.space
        n = space.dof_count
        geometry = ctx.collocation_geometry
        assert geometry.half == 0 and n == 4 * degree + 1
        gmat = geometry.matrix(k)
        # at p = 4 node 6 (x = -0.25) lies strictly inside cell 1, node 12 on the
        # breakpoint x = 0.5
        for i, columns in entries.items():
            x = space.node_coords[i]
            for j in columns:
                phi_j = _fe_function(space, np.eye(n)[j])
                assert gmat[i, j] == pytest.approx(_kernel_oracle(ctx, k, x, phi_j), rel=1e-12)


def _times_block(kernel, block):
    """K Q_b, K's columns summed with or differenced from their mirrors' in
    pairs: at x = 0 that makes an odd u's K(k)u exactly zero, as apply does,
    where K @ u, summing every column at once, leaves rounding."""
    return block.coordinates(kernel.T).T


@pytest.mark.parametrize("degree", [1, 4])
def test_kernel_matrix_matches_apply(degree):
    # 12 and 16 cells: the piece tables, (pieces, p + 1, q) with pieces <= cells +
    # points, then stay below points x (cells q) entries, the size of a dense
    # kernel table.  The even medium's geometries have left pieces, so they hold
    # the right half of their points and pieces, and take even and odd columns;
    # the off-centre medium's hold every point and piece, and take any column.
    even = build_ls_context(air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5)),
                            degree, 0.25)
    off_centre = build_ls_context(_off_centre_medium(), degree, 0.125)
    for ctx in (even, off_centre):
        cells, q = ctx.space.mesh.n_cells, ctx.quad_order
        rng = np.random.default_rng(6)
        coords = [rng.standard_normal(block.size) + 1j * rng.standard_normal(block.size)
                  for block in ctx.blocks]
        assert len(coords) == (2 if ctx is even else 1)
        for geometry in (ctx.collocation_geometry, ctx.quadrature_geometry):
            assert (geometry.half > 0) == (ctx is even)
            assert np.all(geometry.points >= 0.0) == (ctx is even)
            m = geometry.points.size
            for field in dataclasses.fields(geometry):
                value = getattr(geometry, field.name)
                if isinstance(value, np.ndarray):
                    assert value.size < m * cells * q, field.name
            for k in (2.0 - 0.4j, 6.0 - 3.0j, 3.0 - 20.0j, 0.3 + 2.0j):
                for block, y in zip(ctx.blocks, coords):
                    sign = lippmann._SIGNS[block.parity]
                    np.testing.assert_allclose(_times_block(geometry.matrix(k), block) @ y,
                                               geometry.apply(k, block.unfold(y), sign),
                                               rtol=1e-13)


@pytest.mark.parametrize("degree, cell_size", [(1, 0.5), (2, 0.5), (3, 0.5), (8, 0.5),
                                               (3, 0.7), (5, 0.7)])
def test_mirrored_kernel_matrix_matches_its_columns(degree, cell_size):
    # a two-block context's T(k) takes the moments of the right half of the pieces
    # alone and sums P and Q from the centre, at the right half of the nodes; so
    # does apply, on the even and odd columns of each block, and the T(k) of a
    # one-block context is the same routine with no mirror, on every column
    ctx = build_ls_context(air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5)),
                           degree, cell_size)
    colloc = ctx.collocation_geometry
    pieces = colloc.half + len(colloc.nodes)
    assert colloc.half > 0 and np.all(colloc.points >= 0.0)
    if cell_size == 0.7:
        # no node at x = 0, so the first row of T(k) lies off the centre: at p = 3
        # the cut at x = 0 comes from the Gauss-Lobatto nodes of degree 6, and at
        # p = 5 the piece around x = 0 is its own mirror
        assert np.all(ctx.space.node_coords != 0.0)
        assert (pieces, colloc.half + colloc.rows[0]) == {3: (40, 21), 5: (25, 13)}[degree]
    for block in ctx.blocks:
        columns = block.unfold(np.eye(block.size))
        for k in (3.0 - 0.5j, 7.9 - 1.2j, 2.0 - 20.0j, 0.3 + 2.0j, 0.0):
            np.testing.assert_allclose(_times_block(colloc.matrix(k), block),
                                       colloc.apply(k, columns, lippmann._SIGNS[block.parity]),
                                       rtol=1e-13)
    one_block = build_ls_context(_off_centre_medium(), degree, cell_size).collocation_geometry
    assert one_block.half == 0
    eye = np.eye(one_block.dof_count)
    for k in (3.0 - 0.5j, 7.9 - 1.2j, 2.0 - 20.0j, 0.3 + 2.0j, 0.0):
        np.testing.assert_allclose(one_block.matrix(k), one_block.apply(k, eye), rtol=1e-13)


# 5 cells at h = 0.7: at p = 4 an even rule leaves the centre piece its own
# mirror, at p = 3 an odd one puts a Gauss node at x = 0; then the LS contexts of
# the benchmark's dtn, pml and ls discretizations
_MIRROR_CONTEXTS = [(4, 0.7), (3, 0.7), (16, 0.25), (10, 0.5), (8, 0.25)]


@pytest.mark.parametrize("degree, cell_size", _MIRROR_CONTEXTS)
def test_mirrored_apply_matches_a_geometry_over_every_piece(degree, cell_size):
    ctx = build_ls_context(air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5)),
                           degree, cell_size)
    mirrored = ctx.quadrature_geometry
    every_point = ctx.cell_quadrature[0].ravel()
    every_piece = lippmann._kernel_geometry(ctx, mirrored.points, every_point, mirror=False)
    pieces = mirrored.half + len(mirrored.piece_dofs)
    assert mirrored.half == pieces // 2 > 0 and every_piece.half == 0
    assert np.array_equal(mirrored.points, every_point[every_point.size // 2:])
    assert len(every_piece.piece_dofs) == pieces
    if cell_size == 0.7:
        assert ctx.space.mesh.n_cells == 5
        assert pieces % 2 == (1 if degree == 4 else 0)
        assert (np.min(np.abs(mirrored.points)) < 1e-15) == (degree == 3)
    rng = np.random.default_rng(degree)
    even, odd = ctx.blocks
    n = ctx.space.dof_count
    columns = [even.unfold(rng.standard_normal(even.size) + 1j * rng.standard_normal(even.size)),
               odd.unfold(rng.standard_normal(odd.size) + 1j * rng.standard_normal(odd.size))]
    ks = np.repeat([2.0 - 0.4j, 6.0 - 3.0j, 3.0 - 20.0j, 0.3 + 2.0j, 0.0], 2)
    u = np.stack(columns * 5, axis=1)
    signs = np.tile([1.0, -1.0], 5)
    got, want = mirrored.apply(ks, u, signs), every_piece.apply(ks, u)
    assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-13 * np.max(np.abs(want), axis=0))
    # one call per column
    for j in range(u.shape[1]):
        np.testing.assert_array_equal(mirrored.apply(ks[j], u[:, j], signs[j]), got[:, j])
    # no column without a parity: sign 0, the default
    free = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    with pytest.raises(ValueError, match="even or odd"):
        mirrored.apply(ks[:3], np.stack(columns + [free], axis=1), [1.0, -1.0, 0.0])
    with pytest.raises(ValueError, match="even or odd"):
        mirrored.apply(ks[0], u[:, 0])


@pytest.mark.parametrize("degree, cell_size", _MIRROR_CONTEXTS)
def test_a_mirrored_geometry_evaluates_its_stored_pieces_alone(monkeypatch, degree, cell_size):
    # the left half of the cut mesh is the mirror of the right one by
    # construction: the rule and the basis are evaluated on the right half alone,
    # the centre piece whole when it is its own mirror
    ctx = build_ls_context(air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5)),
                           degree, cell_size)
    intervals = []
    real = lippmann.cell_quadrature

    def counted(space, order, edges=None):
        out = real(space, order, edges)
        intervals.append(len(out[0]))
        return out

    monkeypatch.setattr(lippmann, "cell_quadrature", counted)
    for name in ("collocation_geometry", "quadrature_geometry"):
        geometry = getattr(ctx, name)
        pieces = geometry.half + len(geometry.piece_dofs)
        assert geometry.half == pieces // 2 > 0
        assert intervals[-1] == len(geometry.nodes) == pieces - pieces // 2
    assert len(intervals) == 3  # the context's own cell rule, then the two geometries


def test_a_two_block_geometry_must_be_a_mirror_image():
    # parity blocks on a context whose mesh is no mirror image
    ctx = build_ls_context(_off_centre_medium(), 4, 0.4)
    assert not np.allclose(ctx.space.mesh.vertices, -ctx.space.mesh.vertices[::-1])
    n = ctx.space.dof_count
    ctx.__dict__["blocks"] = (ParityBlock(parity="even", size=(n + 1) // 2, dof_count=n),
                              ParityBlock(parity="odd", size=n // 2, dof_count=n))
    with pytest.raises(ValueError, match="no mirror image"):
        ctx.collocation_geometry


@pytest.mark.parametrize("degree", [1, 2, 3, 8])
def test_collocation_geometry_is_the_last_rows_of_the_every_node_one(degree):
    # T(k) is collocated at the nodes of the first block, the last ones, those
    # with x >= 0; a mirrored geometry holds no point left of the centre, so
    # there is no geometry at every node, cut at every node, to match bit for bit
    ctx = _oracle_context(degree)
    size = ctx.blocks[0].size
    assert [b.parity for b in ctx.blocks] == ["even", "odd"]
    assert ctx.collocation_geometry.points.size == size < ctx.space.dof_count
    np.testing.assert_array_equal(ctx.collocation_geometry.points,
                                  ctx.space.node_coords[-size:])
    with pytest.raises(ValueError, match="left of its centre"):
        lippmann._kernel_geometry(ctx, ctx.space.node_coords, ctx.cuts)
    with pytest.raises(ValueError, match="left of its centre"):
        lippmann._kernel_geometry(ctx, ctx.space.node_coords[:1], ctx.cuts)

    # a medium that is not even is one block, collocated at every node
    ctx = build_ls_context(_off_centre_medium(), degree, 0.5)
    assert [b.parity for b in ctx.blocks] == [None]
    assert np.array_equal(ctx.collocation_geometry.points, ctx.space.node_coords)


@pytest.mark.parametrize("t", [10.0, 20.0])
def test_collocation_matrix_resolves_the_kernel_deep_in_the_plane(t):
    # the collocation nodes cut each cell into p pieces, on which the default
    # rule agrees with one of three times its order; whole cells missed by
    # 1.5e-9 (t = 10) and 1.8e-6 (t = 20)
    ctx = build_ls_context(air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5)),
                           4, 0.5)
    fine = LsContext(space=ctx.space, medium=ctx.medium, quad_order=3 * ctx.quad_order)
    k = 5.0 - t * 1j
    coarse, exact = collocation_matrix(ctx, k), collocation_matrix(fine, k)
    # Frobenius norms of the block diagonal T(k), whose blocks are orthonormal folds
    diff = np.sqrt(sum(np.linalg.norm(c - e) ** 2 for c, e in zip(coarse, exact)))
    assert diff <= 1e-12 * np.sqrt(sum(np.linalg.norm(e) ** 2 for e in exact))


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("k", [5.0 - 10.0j, 3.0 - 20.0j])
def test_low_degree_collocation_matrix_resolves_the_kernel_deep_in_the_plane(k, degree):
    # the nodes cut each cell into at most p pieces; cut there alone, T(k) missed a
    # rule of three times the order by 6.2e-7 / 1.2e-4 (p = 1), 5.3e-12 / 7.4e-9
    # (p = 2) and 3.4e-15 / 6.3e-13 (p = 3) at k = 5 - 10i / 3 - 20i
    ctx = _oracle_context(degree)
    fine = LsContext(space=ctx.space, medium=ctx.medium, quad_order=3 * ctx.quad_order)
    coarse, exact = collocation_matrix(ctx, k), collocation_matrix(fine, k)
    diff = np.sqrt(sum(np.linalg.norm(c - e) ** 2 for c, e in zip(coarse, exact)))
    assert diff <= 1e-12 * np.sqrt(sum(np.linalg.norm(e) ** 2 for e in exact))


@pytest.mark.parametrize("k", [5.0 - 10.0j, 3.0 - 20.0j])
def test_apply_kernel_resolves_the_kernel_deep_in_the_plane(k):
    # points inside cells, between them and outside Omega_r: the geometry is cut at
    # the collocation nodes too, so no point integrates a whole cell; cut at the
    # points alone it missed by 1.1e-9 (5 - 10i) and 9.1e-7 (3 - 20i)
    ctx = build_ls_context(air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5)),
                           4, 0.5)
    fine = LsContext(space=ctx.space, medium=ctx.medium, quad_order=3 * ctx.quad_order)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(ctx.space.dof_count) + 1j * rng.standard_normal(ctx.space.dof_count)
    pts = np.array([0.3141, -1.1, 1.9, -1.9, 0.0, 1.5])
    coarse, exact = apply_kernel(ctx, k, u, pts), apply_kernel(fine, k, u, pts)
    assert coarse.shape == pts.shape
    assert np.linalg.norm(coarse - exact) <= 1e-12 * np.linalg.norm(exact)


def test_apply_kernel_validation():
    ctx = build_ls_context(slab_profile(2.0, 1.0), 3, 0.5)
    good = np.ones(ctx.space.dof_count)
    with pytest.raises(ValueError, match="expected"):
        apply_kernel(ctx, 1.0, good[:-1], [0.0])
    bad = good.astype(complex)
    bad[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        apply_kernel(ctx, 1.0, bad, [0.0])


def test_collocation_dips_at_resonance():
    ctx = build_ls_context(slab_profile(2.0, 1.0), 10, 0.25)
    assert smallest_singular_value(collocation_matrix(ctx, K1)) < 1e-4
    assert smallest_singular_value(collocation_matrix(ctx, K1 + 0.05)) > 1e-3


def test_filter_is_one_for_vanishing_contrast():
    ctx = build_ls_context(slab_profile(1.0, 1.0), 4, 0.5)
    rep = filter_epsilon(ctx, _unit_pair(ctx, 0.7 - 0.2j))
    assert rep.epsilon == pytest.approx(1.0, rel=1e-10)


def test_filter_is_exact_on_collocation_eigenpairs(monkeypatch):
    # the circle of radius 0.3 about K1, with 32 nodes and 8 probe columns
    monkeypatch.setattr(eigen, "_LS_NODES", 32)
    monkeypatch.setattr(eigen, "_LS_PROBE", 8)
    ctx = build_ls_context(slab_profile(2.0, 1.0), 8, 0.25)
    window = (K1.real - 0.3, K1.real + 0.3, K1.imag - 0.3, K1.imag + 0.3)
    pairs = solve_contour(lambda z: collocation_matrix(ctx, z), ctx.blocks, window, rng=0,
                          space=ctx.space)
    assert len(pairs) == 1
    rep = filter_epsilon(ctx, pairs[0])
    cond = np.linalg.cond(ctx.mass)
    assert rep.epsilon <= 1e-10 * cond


def test_filter_scalar_invariance():
    ctx = build_ls_context(slab_profile(2.0, 1.0), 6, 0.25)
    base = _unit_pair(ctx, 1.3 - 0.5j, seed=4)
    scaled = EigenPair(k=base.k, vector=(3.0 - 4.0j) * base.vector, space=ctx.space)
    e0 = filter_epsilon(ctx, base).epsilon
    e1 = filter_epsilon(ctx, scaled).epsilon
    assert e1 == pytest.approx(e0, rel=1e-12)


def test_filter_quadrature_doubling():
    ctx = build_ls_context(slab_profile(2.0, 1.0), 6, 0.25)
    fine = LsContext(space=ctx.space, medium=ctx.medium,
                     quad_order=2 * ctx.quad_order)
    for pair in (_unit_pair(ctx, 0.9 - 0.3j, seed=7), _unit_pair(ctx, K1, seed=8)):
        e0 = filter_epsilon(ctx, pair).epsilon
        e1 = filter_epsilon(fine, pair).epsilon
        assert abs(e1 - e0) < 0.01 * e0


def test_kernel_geometry_is_built_once_per_context(monkeypatch):
    ctx = build_ls_context(slab_profile(2.0, 1.0), 6, 0.25)
    built = []
    real = lippmann._kernel_geometry
    monkeypatch.setattr(lippmann, "_kernel_geometry",
                        lambda c, *args: built.append(c) or real(c, *args))
    for k in (K1, 0.9 - 0.3j, 2.0 - 1.0j):
        collocation_matrix(ctx, k)
        filter_epsilon(ctx, _unit_pair(ctx, k))
    assert built == [ctx, ctx]
    colloc, quadrature = ctx.collocation_geometry, ctx.quadrature_geometry
    collocation_matrix(ctx, 1.5 - 0.2j)
    filter_epsilon(ctx, _unit_pair(ctx, 1.5 - 0.2j))
    assert ctx.collocation_geometry is colloc and ctx.quadrature_geometry is quadrature
    assert len(built) == 2

    # a context with its own quadrature order gets its own geometry; the expected
    # values are acceptance 9's probe as a per-point quadrature loop computes them
    fine = LsContext(space=ctx.space, medium=ctx.medium,
                     quad_order=2 * ctx.quad_order)
    rng = np.random.default_rng(5)
    probe = EigenPair(k=0.9 - 0.3j, vector=rng.standard_normal(ctx.space.dof_count),
                      space=ctx.space)
    assert filter_epsilon(ctx, probe).epsilon == pytest.approx(1.2981181563271973, rel=1e-12)
    assert filter_epsilon(fine, probe).epsilon == pytest.approx(1.2981181563271988, rel=1e-12)
    assert built == [ctx, ctx, fine]
    assert fine.quadrature_geometry.points.size == 2 * quadrature.points.size


def test_filter_interpolates_from_other_spaces():
    med = slab_profile(2.0, 1.0)
    space = build_space(build_mesh((-2, 2), [-1, 1], 0.25), 6, BoundaryCondition.NONE)
    mats = assemble_dtn(space, med)
    pairs = solve_dtn(mats)
    best = min(pairs, key=lambda pr: abs(pr.k - K1))
    ctx = build_ls_context(med, 6, 0.25)
    rep = filter_epsilon(ctx, best)
    assert rep.epsilon < 1e-6


def test_filter_rejects_a_pair_without_a_space():
    ctx = build_ls_context(slab_profile(2.0, 1.0), 4, 0.5)
    pair = EigenPair(k=1.0 - 0.1j, vector=np.ones(ctx.space.dof_count), space=None)
    with pytest.raises(ValueError, match="no originating space"):
        filter_epsilon(ctx, pair)


def test_filter_is_infinite_without_resonator_support():
    med = slab_profile(2.0, 1.0)
    space = build_space(build_mesh((-2, 2), [-1, 1], 0.25), 4, BoundaryCondition.NONE)
    coeffs = np.exp(-((space.node_coords - 1.75) / 0.03) ** 2)
    pair = EigenPair(k=1.0 - 0.1j, vector=coeffs, space=space)
    ctx = build_ls_context(med, 4, 0.25)
    assert filter_epsilon(ctx, pair).epsilon == math.inf


def test_filter_is_infinite_where_the_kernel_overflows():
    # e^{+-i n0 k x} overflows once n0 |Im k| |x| passes about 700
    ctx = build_ls_context(slab_profile(2.0, 1.0), 4, 0.5)
    for k in (1.0 + 2000j, 1.0 - 2000j):
        assert filter_epsilon(ctx, _unit_pair(ctx, k)).epsilon == math.inf


def test_filter_reads_its_own_space_as_an_equal_one():
    # the values at a space's own nodes are its coefficients, bit for bit
    medium = air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5))
    ctx = build_ls_context(medium, 6, 0.25)
    twin = build_ls_context(medium, 6, 0.25).space
    assert twin is not ctx.space
    for seed, k in enumerate((1.6 - 0.4j, 4.8 - 0.4j, 3.0 - 20j)):
        pair = _unit_pair(ctx, k, seed)
        np.testing.assert_array_equal(
            evaluate_function(ctx.space, pair.vector, ctx.space.node_coords), pair.vector)
        moved = EigenPair(k=k, vector=pair.vector, space=twin)
        assert filter_epsilon(ctx, pair).epsilon == filter_epsilon(ctx, moved).epsilon


# the discretizations and windows of the benchmark's dtn, pml and ls workloads
_BENCH_RUNS = {
    "dtn": dict(problem="air_cavity", formulation="dtn", degree=16, initial_cell_size=0.25,
                d=2.0, window=(0.0, 13.5, -2.0, 0.0)),
    "pml": dict(problem="air_cavity", formulation="pml", degree=10, initial_cell_size=0.5,
                d=2.0, x_c=3.0, ell=5.0, sigma0=5.0, window=(0.0, 13.5, -2.0, 0.0)),
    "ls": dict(problem="air_cavity", formulation="ls", degree=8, initial_cell_size=0.25,
               window=(0.0134, 8.0134, -1.2339, -0.0339), seed=1),
}

# and two filter contexts of 5 cells at h = 0.7: at p = 3 an odd rule puts a Gauss
# node at x = 0, and at p = 4 an even one leaves the centre piece its own mirror
_FILTER_RUNS = {**_BENCH_RUNS, **{
    f"p{p}-h0.7": dict(problem="air_cavity", formulation="dtn", degree=p, initial_cell_size=0.7,
                       d=2.0, window=(0.0, 13.5, -2.0, 0.0)) for p in (3, 4)}}


def _oracle_epsilon(ctx, pair):
    """eps of one pair over the whole space, with (M^r)^-1 P^T and K(k)u at the
    cell Gauss points formed here: K(k)u by the context's rule on the mesh cut at
    those points, one exponential e^{i n0 k |x - y|} per point and node."""
    space, n0 = ctx.space, ctx.medium.n0
    x, w, vals, _, _ = cell_quadrature(space, ctx.quad_order)
    cells, q, _ = vals.shape
    pt = np.zeros((space.dof_count, cells, q))
    pt[space.cell_dofs[:, :, None], np.arange(cells)[:, None, None],
       np.arange(q)] = np.swapaxes(w[:, :, None] * vals, 1, 2)
    projection = np.linalg.solve(ctx.mass, pt.reshape(space.dof_count, -1))
    edges = np.union1d(space.mesh.vertices, x.ravel())
    y, wy, vy, _, cy = cell_quadrature(space, ctx.quad_order, edges)
    xi = evaluate_function(pair.space, pair.vector, space.node_coords)
    xi = xi / math.sqrt(np.real(xi.conj() @ ctx.mass @ xi))
    # (n^2 - n0^2) u w at every node y of every piece
    density = ctx.medium.contrast(y) * wy * np.einsum("jgl,jl->jg", vy, xi[space.cell_dofs[cy]])
    kernel = np.exp(1j * n0 * pair.k * np.abs(x.reshape(-1, 1) - y.reshape(1, -1)))
    ku = 1j * pair.k / (2.0 * n0) * (kernel @ density.ravel())
    diff = xi - projection @ ku
    return math.sqrt(np.real(diff.conj() @ ctx.mass @ diff))


@pytest.mark.parametrize("run", sorted(_FILTER_RUNS))
def test_batched_filter_matches_a_per_pair_kernel_matrix(run):
    disc = discretize(RunConfig(**_FILTER_RUNS[run]))
    pairs = disc.solve()
    re_min, re_max, im_min, im_max = disc.config.window
    pairs = [p for p in pairs if re_min <= p.k.real <= re_max and im_min <= p.k.imag <= im_max]
    assert len(pairs) > 1
    eps = filter_epsilons(disc.ls_context, pairs)
    assert eps.shape == (len(pairs),) and np.all(np.isfinite(eps))
    for e, pair in zip(eps, pairs):
        expected = _oracle_epsilon(disc.ls_context, pair)
        assert abs(e - expected) <= 1e-12 * max(1.0, expected), (pair.k, e, expected)


def test_one_block_filter_keeps_the_off_centre_slabs_windowed_dtn_pairs():
    # no built-in medium is off-centre, so no CLI call filters on a one-block
    # context: its projection is the whole space and its geometry holds every piece
    medium = _off_centre_medium()
    space = build_space(build_mesh((-2, 2), [-1, 0.5], 0.25), 8)
    pairs = solve_dtn(assemble_dtn(space, medium), window=(0, 8, -1.5, 0), rng=0)
    ctx = build_ls_context(medium, 8, 0.25)
    assert [b.parity for b in ctx.blocks] == [None]
    assert ctx.quadrature_geometry.half == 0
    eps = filter_epsilons(ctx, pairs)
    assert len(eps) > 0 and np.all(np.isfinite(eps))
    assert eps.min() < 1e-6
    for e, pair in zip(eps, pairs):
        expected = _oracle_epsilon(ctx, pair)
        assert abs(e - expected) <= 1e-12 * max(1.0, expected), (pair.k, e, expected)


def test_batched_filter_gives_inf_only_to_the_pairs_it_cannot_test(monkeypatch):
    ctx = build_ls_context(slab_profile(2.0, 1.0), 4, 0.5)
    wide = build_space(build_mesh((-2, 2), [-1, 1], 0.25), 4, BoundaryCondition.NONE)
    outside = EigenPair(k=1.0 - 0.1j, vector=np.exp(-((wide.node_coords - 1.75) / 0.03) ** 2),
                        space=wide)
    normal = [_unit_pair(ctx, k, seed) for seed, k in
              enumerate((0.9 - 0.3j, K1, 2.0 - 1.0j, 3.0 - 20.0j, 1.4 - 0.5j))]
    deep = _unit_pair(ctx, 1.0 - 2000j)
    pairs = [normal[0], outside, normal[1], deep, *normal[2:]]
    alone = [filter_epsilon(ctx, pair).epsilon for pair in pairs]
    # two columns per slice: the overflowing pair shares one with a normal pair
    monkeypatch.setattr(lippmann, "_SLICE_BYTES", 2 * 16 * ctx.quadrature_geometry.nodes.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow stays inside the filter
        eps = filter_epsilons(ctx, pairs)
    assert [e == math.inf for e in eps] == [False, True, False, True, False, False, False]
    finite = [j for j, e in enumerate(eps) if e < math.inf]
    for j in finite:
        assert eps[j] == pytest.approx(alone[j], rel=1e-12)
        assert eps[j] == pytest.approx(_oracle_epsilon(ctx, pairs[j]), rel=1e-12)


def test_batched_filter_of_no_pairs_is_empty():
    ctx = build_ls_context(slab_profile(2.0, 1.0), 4, 0.5)
    eps = filter_epsilons(ctx, [])
    assert isinstance(eps, np.ndarray) and eps.shape == (0,)


def test_batched_filter_takes_pairs_from_two_spaces_in_one_call(monkeypatch):
    med = slab_profile(2.0, 1.0)
    ctx = build_ls_context(med, 6, 0.25)
    space = build_space(build_mesh((-2, 2), [-1, 1], 0.25), 6, BoundaryCondition.NONE)
    dtn_pairs = solve_dtn(assemble_dtn(space, med))
    dtn_pairs = sorted(dtn_pairs, key=lambda pr: abs(pr.k - K1))[:3]
    own = [_unit_pair(ctx, k, seed) for seed, k in enumerate((K1, 1.3 - 0.5j))]
    pairs = [dtn_pairs[0], own[0], dtn_pairs[1], own[1], dtn_pairs[2]]
    calls = []
    apply = lippmann.KernelGeometry.apply

    def counted(self, *args):
        calls.append(self)
        return apply(self, *args)

    monkeypatch.setattr(lippmann.KernelGeometry, "apply", counted)
    eps = filter_epsilons(ctx, pairs)
    assert calls == [ctx.quadrature_geometry]  # every pair of both spaces in one pass
    for e, pair in zip(eps, pairs):
        assert e == pytest.approx(_oracle_epsilon(ctx, pair), rel=1e-12)
    assert eps[0] < 1e-6  # the DtN pair at the slab's resonance K1


def test_pseudospectrum_identity_for_vanishing_contrast():
    ctx = build_ls_context(slab_profile(1.0, 1.0), 3, 0.5)
    smin = pseudospectrum(lambda z: collocation_matrix(ctx, z), (0.5, 1.5, -1.0, -0.1),
                          (3, 3))
    assert smin.shape == (3, 3)
    np.testing.assert_allclose(smin, 1.0, rtol=1e-12)


def test_pseudospectrum_resolvent_grows_into_lower_half_plane():
    disc = discretize(RunConfig(problem="air_cavity", formulation="dtn", degree=6,
                                initial_cell_size=0.5, d=2.0))
    col = pseudospectrum(disc.operator.t, (2.0, 2.0, -3.0, -0.5), (1, 8))[:, 0]
    assert np.all(np.diff(col) > 0)  # s_min shrinks as Im k decreases


def _count_svds(monkeypatch):
    """The order of every matrix handed to np.linalg.svd from now on."""
    calls = []
    svd = np.linalg.svd

    def counted(m, *args, **kwargs):
        calls.append(m.shape[0])
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_ls_cavity_grid_proves_most_second_blocks_larger(monkeypatch):
    # the benchmark's seed-1 grid: 108 points of two blocks, where the block that
    # holds s_min changes with Re k and hardly with Im k
    argv = json.loads((GOLDEN / "ls-cavity-1" / "argv.json").read_text(encoding="utf-8"))
    cfg = cli.build_config(cli._parser().parse_args(argv))
    t = discretize(cfg).operator.t
    calls = _count_svds(monkeypatch)
    pseudospectrum(t, cfg.window, cfg.pseudo_resolution)
    assert len(calls) <= 130


def test_deep_plane_grid_takes_every_svd(monkeypatch):
    # T(k) is rounding there, and no certificate holds: all 12 x 2 blocks get an SVD
    t = discretize(RunConfig(problem="air_cavity", formulation="ls", degree=4,
                             initial_cell_size=0.5)).operator.t
    calls = _count_svds(monkeypatch)
    pseudospectrum(t, (0.0, 6.0, -30.0, -10.0), (4, 3))
    assert len(calls) == 24


def test_one_block_grid_takes_one_svd_per_point(monkeypatch):
    ctx = build_ls_context(_off_centre_medium(), 4, 0.5)
    calls = _count_svds(monkeypatch)
    pseudospectrum(ctx.t, (0.5, 3.0, -1.0, 0.0), (4, 3))
    assert calls == [ctx.space.dof_count] * 12


def test_pseudospectrum_names_a_non_finite_block_it_would_not_decompose(monkeypatch):
    # the second block is far from singular, so it is proved larger at every point,
    # yet a NaN in it is still found and reported with its k
    def t(k):
        return [np.diag([1.0, abs(k - 1.5)]).astype(complex),
                np.full((2, 2), np.nan) if k == 2.0 else 10.0 * np.eye(2)]

    calls = _count_svds(monkeypatch)
    np.testing.assert_allclose(pseudospectrum(t, (1.0, 3.0, 0.0, 0.0), (2, 1)), [[0.5, 1.0]],
                               rtol=1e-15)
    assert len(calls) == 2
    with pytest.raises(ValueError, match=r"T\(k\) at k = 2\+0j: matrix has non-finite"):
        pseudospectrum(t, (1.0, 3.0, 0.0, 0.0), (3, 1))


def test_pseudospectrum_validation():
    ctx = build_ls_context(slab_profile(2.0, 1.0), 3, 0.5)
    with pytest.raises(ValueError):
        pseudospectrum(lambda z: collocation_matrix(ctx, z), (0, 1, -1, 0), (0, 3))


def test_grid_csv_and_sidecar(tmp_path):
    ctx = build_ls_context(slab_profile(2.0, 1.0), 3, 0.5)
    cfg = RunConfig(problem="slab", formulation="ls", degree=3,
                    window=(0.0, 1.0, -0.5, 0.0), pseudo_resolution=(3, 2))
    smin = pseudospectrum(lambda z: collocation_matrix(ctx, z), cfg.window,
                          cfg.pseudo_resolution)
    path = tmp_path / "grid.csv"
    write_grid_csv(smin, path, cfg)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re_k,im_k,smin"
    assert len(lines) == 1 + 6
    # row-major with the real coordinate varying fastest
    first, second = lines[1].split(","), lines[2].split(",")
    assert (float(first[0]), float(first[1])) == (0.0, -0.5)
    assert (float(second[0]), float(second[1])) == (0.5, -0.5)
    sidecar = json.loads((tmp_path / "grid.csv.json").read_text())
    assert sidecar["region"] == [0.0, 1.0, -0.5, 0.0]
    assert sidecar["resolution"] == [3, 2]
    assert sidecar["formulation"] == "ls"
    assert RunConfig.from_json_dict(sidecar["parameters"]) == cfg
