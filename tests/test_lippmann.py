"""Volume-integral operator, pseudomode filter, pseudospectrum grids."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from helmres import (BoundaryCondition, ContourConfig, EigenPair, LsContext, MediumProfile,
                     air_filled_cavity_profile, apply_kernel, assemble_dtn, build_ls_context,
                     build_mesh, build_space, collocation_matrix, evaluate_function,
                     filter_epsilon, pseudospectrum, slab_dtn_eigenvalues, slab_profile,
                     smallest_singular_value, solve_contour)
from helmres import lippmann
from helmres.cli import RunConfig, discretize, write_grid_csv

K1 = math.pi / 4 - 1j * math.log(3.0) / 4


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
    # K(k) at every node
    gmat = lippmann._kernel_geometry(ctx, space.node_coords, ctx.cuts).matrix(k)
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
    # K(k) at every node
    gmat = lippmann._kernel_geometry(ctx, space.node_coords, ctx.cuts).matrix(k)
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


@pytest.mark.parametrize("degree", [1, 4])
def test_kernel_matrix_matches_apply(degree):
    # 12 cells: the piece tables, (pieces, q, p + 1) with pieces <= cells + points,
    # then stay below points x (cells q) entries, the size of a dense kernel table
    ctx = build_ls_context(air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5)),
                           degree, 0.25)
    cells, q = ctx.space.mesh.n_cells, ctx.quad_order
    rng = np.random.default_rng(6)
    u = rng.standard_normal(ctx.space.dof_count) + 1j * rng.standard_normal(ctx.space.dof_count)
    every_node = lippmann._kernel_geometry(ctx, ctx.space.node_coords, ctx.cuts)
    for geometry in (every_node, ctx.quadrature_geometry):
        m = geometry.points.size
        for field in dataclasses.fields(geometry):
            value = getattr(geometry, field.name)
            if isinstance(value, np.ndarray):
                assert value.size < m * cells * q, field.name
        for k in (2.0 - 0.4j, 6.0 - 3.0j, 3.0 - 20.0j, 0.3 + 2.0j):
            np.testing.assert_allclose(geometry.matrix(k) @ u, geometry.apply(k, u),
                                       rtol=1e-13)


@pytest.mark.parametrize("degree", [1, 2, 3, 8])
def test_collocation_geometry_is_the_last_rows_of_the_every_node_one(degree):
    # T(k) is collocated at the nodes of the first block, the last ones; cut at
    # every node either way, the geometry has the same pieces and rounding
    ctx = _oracle_context(degree)
    every_node = lippmann._kernel_geometry(ctx, ctx.space.node_coords, ctx.cuts)
    size = ctx.blocks[0].size
    assert [b.parity for b in ctx.blocks] == ["even", "odd"]
    assert ctx.collocation_geometry.points.size == size < ctx.space.dof_count
    for k in (3.0 - 0.5j, 2.0 - 20.0j):
        assert np.array_equal(ctx.collocation_geometry.matrix(k), every_node.matrix(k)[-size:])

    # a medium that is not even is one block, collocated at every node
    off_centre = MediumProfile(n=lambda x: np.where((x >= -1.0) & (x <= 0.5), 2.0, 1.0),
                               n0=1.0, resonator_halfwidth=1.0, breakpoints=(-1.0, 0.5))
    ctx = build_ls_context(off_centre, degree, 0.5)
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


def test_filter_is_exact_on_collocation_eigenpairs():
    ctx = build_ls_context(slab_profile(2.0, 1.0), 8, 0.25)
    cfg = ContourConfig(center=K1, radius=0.3, probe_columns=8)
    pairs = solve_contour(lambda z: collocation_matrix(ctx, z), cfg, rng=0,
                          space=ctx.space, blocks=ctx.blocks)
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
    from helmres import solve_dtn
    pairs, _ = solve_dtn(mats)
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


def test_pseudospectrum_identity_for_vanishing_contrast():
    ctx = build_ls_context(slab_profile(1.0, 1.0), 3, 0.5)
    grid = pseudospectrum(lambda z: collocation_matrix(ctx, z), (0.5, 1.5, -1.0, -0.1),
                          (3, 3))
    np.testing.assert_allclose(grid.values, 1.0, rtol=1e-12)
    np.testing.assert_allclose(grid.re_points, [0.5, 1.0, 1.5])
    np.testing.assert_allclose(grid.im_points, [-1.0, -0.55, -0.1])


def test_pseudospectrum_resolvent_grows_into_lower_half_plane():
    disc = discretize(RunConfig(problem="air_cavity", formulation="dtn", degree=6,
                                initial_cell_size=0.5, d=2.0))
    grid = pseudospectrum(disc.operator.t, (2.0, 2.0, -3.0, -0.5), (1, 8))
    col = grid.values[:, 0]
    assert np.all(np.diff(col) > 0)  # s_min shrinks as Im k decreases


def test_pseudospectrum_validation():
    ctx = build_ls_context(slab_profile(2.0, 1.0), 3, 0.5)
    with pytest.raises(ValueError):
        pseudospectrum(lambda z: collocation_matrix(ctx, z), (0, 1, -1, 0), (0, 3))


def test_grid_csv_and_sidecar(tmp_path):
    ctx = build_ls_context(slab_profile(2.0, 1.0), 3, 0.5)
    grid = pseudospectrum(lambda z: collocation_matrix(ctx, z), (0.0, 1.0, -0.5, 0.0),
                          (3, 2))
    path = tmp_path / "grid.csv"
    cfg = RunConfig(problem="slab", formulation="ls", degree=3)
    write_grid_csv(grid, path, cfg)
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
    assert sidecar["parameters"] == cfg.to_json_dict()
