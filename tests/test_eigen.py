"""DtN/PML pencil solves against a QZ oracle, Newton iteration, contour integration."""

import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from helmres import (BoundaryCondition, ContourConfig, DtnMatrices, EigenPair, MediumProfile,
                     NewtonConvergenceError, ParityBlock, PmlConfig, ProbeTooSmallError,
                     assemble_dtn, assemble_pml, build_ls_context,
                     build_mesh, build_space, collocation_matrix, newton_root, reference_table,
                     slab_dtn_eigenvalues, slab_profile, smallest_singular_value,
                     solve_contour, solve_dtn, solve_pml)
from helmres.cli import RunConfig, discretize
from helmres.eigen import _block_pairs
from helmres.lippmann import _kernel_geometry
from helmres.mesh_fe import parity_blocks

K1 = math.pi / 4 - 1j * math.log(3.0) / 4


def _one_block(n):
    """The whole space of n DOFs as one block, for a synthetic T(z) of size n."""
    return (ParityBlock(parity=None, size=n, dof_count=n),)


def _slab_dtn_mats(p, h, d=1.0):
    med = slab_profile(2.0, 1.0)
    bps = [-1.0, 1.0] if d > 1.0 else []
    mesh = build_mesh((-d, d), bps, h)
    space = build_space(mesh, p, BoundaryCondition.NONE)
    return assemble_dtn(space, med)


def test_eigenpair_normalizes_vector():
    pair = EigenPair(k=1.0 + 0j, vector=np.array([3.0, 4.0]))
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        EigenPair(k=1.0 + 0j, vector=np.zeros(2))


def test_contour_config_validation():
    with pytest.raises(ValueError):
        ContourConfig(center=0j, radius=0.0)
    with pytest.raises(ValueError):
        ContourConfig(center=0j, radius=1.0, quadrature_nodes=4)
    with pytest.raises(ValueError, match="even"):
        ContourConfig(center=0j, radius=1.0, quadrature_nodes=33)
    with pytest.raises(ValueError, match="imaginary semi-axis"):
        ContourConfig(center=0j, radius=1.0, radius_im=0.0)
    with pytest.raises(ValueError):
        ContourConfig(center=0j, radius=1.0, probe_columns=0)
    cfg = ContourConfig(center=1.0 + 0j, radius=2.0, radius_im=0.5)
    assert cfg.contains(1.0 + 0.49j)
    assert not cfg.contains(1.0 + 0.51j)


def test_quadratic_pencil_residuals():
    assembled = _slab_dtn_mats(4, 0.5)
    # a full E as well: the solver must not rely on E vanishing off the end DOFs
    full = DtnMatrices(a=assembled.a, m=assembled.m, e=assembled.e + 0.3,
                       space=assembled.space, blocks=parity_blocks(assembled.space, False))
    for mats in (assembled, full):
        pairs, _ = solve_dtn(mats)
        assert pairs
        na = np.linalg.norm(mats.a, 2)
        ne = np.linalg.norm(mats.e, 2)
        nm = np.linalg.norm(mats.m, 2)
        for pr in pairs:
            lam = -1j * pr.k
            res = (mats.a + lam * mats.e + lam**2 * mats.m) @ pr.vector
            assert np.linalg.norm(res) <= 1e-10 * (na + abs(lam) * ne + abs(lam) ** 2 * nm)


def test_pencil_eigenvalue_count():
    mats = _slab_dtn_mats(3, 0.5)
    pairs, diag = solve_dtn(mats)
    n = mats.a.shape[0]
    assert diag.pencil_size == 2 * n
    assert len(pairs) + diag.dropped == 2 * n


def test_slab_eigenvalue_high_order():
    pairs, _ = solve_dtn(_slab_dtn_mats(10, 0.125))
    ks = np.array([pr.k for pr in pairs])
    assert np.min(np.abs(ks - K1)) < 1e-8


def test_pml_pencil_residuals_and_count():
    med = slab_profile(2.0, 1.0)
    cfg = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=5.0)
    mesh = build_mesh((-5, 5), [-3, -2, -1, 1, 2, 3], 0.5)
    space = build_space(mesh, 3, BoundaryCondition.DIRICHLET_BOTH_ENDS)
    mats = assemble_pml(space, med, cfg)
    pairs, diag = solve_pml(mats)
    assert diag.pencil_size == space.dof_count
    assert len(pairs) + diag.dropped == space.dof_count
    na = np.linalg.norm(mats.a_tilde, 2)
    nm = np.linalg.norm(mats.m_tilde, 2)
    for pr in pairs:
        res = (mats.a_tilde - pr.k**2 * mats.m_tilde) @ pr.vector
        assert np.linalg.norm(res) <= 1e-10 * (na + abs(pr.k**2) * nm)
        assert pr.k.real >= 0 and pr.k.imag <= 0


def _qz_dtn_ks(mats):
    """k = i lambda over every eigenvalue of the companion pencil, by QZ.

    [[A, E], [0, I]] z = lambda [[0, -M], [I, 0]] z, whose first block row with
    eta = lambda xi is (A + lambda E + lambda^2 M) xi = 0.
    """
    n = mats.a.shape[0]
    zero, eye = np.zeros((n, n)), np.eye(n)
    lam = scipy.linalg.eigvals(np.block([[mats.a, mats.e], [zero, eye]]),
                               np.block([[zero, -mats.m], [eye, zero]]))
    return 1j * lam


def _dtn_backward_errors(mats, pairs):
    """Normwise backward errors of quadratic eigenpairs (Tisseur 2000), in 2-norms."""
    na, ne, nm = (np.linalg.norm(x, 2) for x in (mats.a, mats.e, mats.m))
    errors = []
    for pr in pairs:
        lam = -1j * pr.k
        res = (mats.a + lam * mats.e + lam**2 * mats.m) @ pr.vector
        errors.append(np.linalg.norm(res) / ((na + abs(lam) * ne + abs(lam) ** 2 * nm)
                                             * np.linalg.norm(pr.vector)))
    return np.array(errors)


_ORACLE_DTN = {
    "slab": dict(problem="slab", degree=4, initial_cell_size=0.5, d=1.0),
    "air_cavity": dict(problem="air_cavity", degree=16, initial_cell_size=0.5, d=2.0),
    "bump": dict(problem="bump", degree=12, initial_cell_size=0.5, d=1.5),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_DTN))
def test_dtn_eigenvalues_match_qz_oracle(name):
    mats = discretize(RunConfig(formulation="dtn", **_ORACLE_DTN[name])).operator
    pairs, _ = solve_dtn(mats)
    ks = np.array([pr.k for pr in pairs])
    oracle = _qz_dtn_ks(mats)
    oracle = np.delete(oracle, np.argmin(np.abs(oracle)))  # the static mode k = 0
    # the solver returns one member, Re k >= 0, of each {k, -conj k} pair
    oracle = np.where(oracle.real < 0, -np.conj(oracle), oracle)
    # large-|k| eigenvalues are ill-conditioned and legitimately differ
    for mine, other in ((ks, oracle), (oracle, ks)):
        for k in mine[np.abs(mine) < 15]:
            assert np.min(np.abs(other - k)) <= 1e-9 * (1.0 + abs(k))
    assert np.max(_dtn_backward_errors(mats, pairs)) <= 1e-13


def test_dtn_rejects_indefinite_mass():
    mats = _slab_dtn_mats(3, 0.5)
    indefinite = mats.m.copy()
    indefinite[-1, -1] = -indefinite[-1, -1]   # one negative pivot, at the end
    singular = mats.m.copy()
    mid = mats.m.shape[0] // 2
    singular[mid, :] = singular[:, mid] = 0.0  # positive semidefinite with a zero pivot
    for m in (-mats.m, indefinite, singular):
        bad = DtnMatrices(a=mats.a, m=m, e=mats.e, space=mats.space,
                          blocks=parity_blocks(mats.space, False))
        with pytest.raises(ValueError, match="M is not symmetric positive definite"):
            solve_dtn(bad)


@pytest.mark.parametrize("sigma0", [5.0, 50.0])
def test_pml_eigenpairs_match_qz_oracle(sigma0):
    mats = discretize(RunConfig(problem="air_cavity", formulation="pml", degree=10,
                                initial_cell_size=0.5, d=2.0, x_c=3.0, ell=5.0,
                                sigma0=sigma0)).operator
    pairs, _ = solve_pml(mats)
    na = np.linalg.norm(mats.a_tilde, 2)
    nm = np.linalg.norm(mats.m_tilde, 2)
    for pr in pairs:
        res = (mats.a_tilde - pr.k**2 * mats.m_tilde) @ pr.vector
        assert np.linalg.norm(res) <= 1e-13 * (na + abs(pr.k**2) * nm)
    # the spurious eigenvalues are non-normal and move between backward-stable
    # solvers, so only those next to the table are compared
    oracle = np.sqrt(scipy.linalg.eigvals(mats.a_tilde, mats.m_tilde))
    oracle = np.where(oracle.imag > 0, np.conj(oracle), oracle)
    table = reference_table("air_cavity").values
    near = [pr.k for pr in pairs if np.min(np.abs(table - pr.k)) < 1e-3]
    assert near
    for k in near:
        assert np.min(np.abs(oracle - k)) <= 1e-9 * abs(k)


# air_cavity at the benchmark's discretizations; the ls window is its seed-1 window
_REPORTED = {
    "dtn": dict(formulation="dtn", degree=16, initial_cell_size=0.25, d=2.0),
    "pml": dict(formulation="pml", degree=10, initial_cell_size=0.5, d=2.0, x_c=3.0,
                ell=5.0, sigma0=5.0),
    "ls": dict(formulation="ls", degree=8, initial_cell_size=0.25, seed=1,
               window=(0.013436424411240122, 8.01343642441124,
                       -1.2338973494774892, -0.033897349477489305)),
}


@pytest.mark.parametrize("name", sorted(_REPORTED))
def test_reported_pairs_solve_t_at_the_reported_k(name):
    disc = discretize(RunConfig(problem="air_cavity", **_REPORTED[name]))
    pairs, _ = disc.solve()
    assert pairs
    mats = disc.operator
    # T(k) on the whole space, not its parity blocks: the pairs are unfolded
    if name == "dtn":
        norms = [np.linalg.norm(x, 2) for x in (mats.a, mats.e, mats.m)]
        scale = lambda k: norms[0] + abs(k) * norms[1] + abs(k) ** 2 * norms[2]
        t = lambda k: mats.a - 1j * k * mats.e - k**2 * mats.m
    elif name == "pml":
        norms = [np.linalg.norm(x, 2) for x in (mats.a_tilde, mats.m_tilde)]
        scale = lambda k: norms[0] + abs(k) ** 2 * norms[1]
        t = lambda k: mats.a_tilde - k**2 * mats.m_tilde
    else:
        ctx = disc.ls_context
        geometry = _kernel_geometry(ctx, ctx.space.node_coords, ctx.cuts)
        t = lambda k: np.eye(disc.operator.space.dof_count) - geometry.matrix(k)
        scale = lambda k: np.linalg.norm(t(k), 2)
    worst = max(np.linalg.norm(t(pr.k) @ pr.vector) / scale(pr.k) for pr in pairs)
    assert worst <= {"dtn": 1e-13, "pml": 1e-13, "ls": 1e-9}[name]


def test_pml_weak_absorption_gives_dirichlet_laplacian():
    med = slab_profile(1.0, 1.0)
    cfg = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=1e-300)
    mesh = build_mesh((-5, 5), [-3, -2, -1, 1, 2, 3], 0.5)
    space = build_space(mesh, 4, BoundaryCondition.DIRICHLET_BOTH_ENDS)
    pairs, _ = solve_pml(assemble_pml(space, med, cfg))
    ks = np.sort_complex(np.array([pr.k for pr in pairs]))
    exact = np.arange(1, 4) * np.pi / 10.0
    np.testing.assert_allclose(ks[:3].real, exact, rtol=1e-6)
    np.testing.assert_allclose(ks[:3].imag, 0.0, atol=1e-9)


def test_newton_simple_quadratic():
    root = newton_root(lambda k: k * k + 1.0, 0.3 + 0.7j)
    assert abs(root - 1j) < 1e-12


def test_newton_quadratic_convergence():
    calls = []

    def f(k):
        calls.append(k)
        return k * k + 1.0

    newton_root(f, 0.3 + 0.7j)
    iterates = calls[0::3]  # f(z), f(z+h), f(z-h) per step
    errs = [abs(z - 1j) for z in iterates]
    for e_prev, e_next in zip(errs, errs[1:]):
        if e_prev < 1e-7:
            break
        assert e_next <= 5.0 * e_prev**2


def test_newton_slab_dispersion_relation():
    eta, a = 2.0, 1.0
    refl2 = ((eta - 1) / (eta + 1)) ** 2
    root = newton_root(lambda k: cmath.exp(-4j * eta * k * a) - refl2, 0.7 - 0.3j)
    assert abs(root - K1) < 1e-10


def test_newton_failures():
    # vanishing central-difference derivative at the symmetry point
    with pytest.raises(NewtonConvergenceError):
        newton_root(lambda k: k * k + 1.0, 0.0 + 0.0j)
    with pytest.raises(NewtonConvergenceError) as err:
        newton_root(lambda k: k * k + 1.0, 5.0 + 5.0j, max_iter=1)
    assert err.value.residual > 0


def test_contour_diagonal_case():
    t_fun = lambda z: [np.diag([z - 1.0, z + 2.0])]
    cfg = ContourConfig(center=1.0 + 0j, radius=0.5, probe_columns=2)
    pairs = solve_contour(t_fun, cfg, _one_block(2), rng=0)
    assert len(pairs) == 1
    assert abs(pairs[0].k - 1.0) < 1e-12


def test_contour_empty_region():
    t_fun = lambda z: [np.diag([z - 1.0, z + 2.0])]
    cfg = ContourConfig(center=10.0 + 0j, radius=0.5, probe_columns=2)
    assert solve_contour(t_fun, cfg, _one_block(2), rng=0) == []


def test_contour_probe_saturation():
    t_fun = lambda z: [(z - 1.0) * np.eye(4)]
    cfg = ContourConfig(center=1.0 + 0j, radius=0.5, probe_columns=3)
    with pytest.raises(ProbeTooSmallError):
        solve_contour(t_fun, cfg, _one_block(4), rng=0)


def test_contour_warns_when_under_resolved():
    # the eigenvector of the eigenvalue 1 inside also belongs to 1.9, just outside;
    # the rank-1 moments mix the two by weights that 8 trapezoid nodes cannot resolve
    t_fun = lambda z: [np.diag([(z - 1.0) * (z - 1.9), z + 1e6])]
    cfg = ContourConfig(center=1.4 + 0j, radius=0.45, quadrature_nodes=8,
                        probe_columns=2)
    with pytest.warns(RuntimeWarning, match=r"^contour moments of the single block are "
                      r"under-resolved: halving the node count from 8 to 4 moved the "
                      r"eigenvalues inside the contour by 2\.04e-01 of its size;"):
        solve_contour(t_fun, cfg, _one_block(2), rng=0)


def test_contour_does_not_warn_about_a_pole_near_it():
    # one simple pole 0.05 inside: A0 changes by 62% when the nodes are halved, but
    # the trapezoid rule's eigenvalue is exact at any node count
    t_fun = lambda z: [np.diag([z - 1.0, z + 1e6])]
    cfg = ContourConfig(center=1.4 + 0j, radius=0.45, quadrature_nodes=8,
                        probe_columns=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = solve_contour(t_fun, cfg, _one_block(2), rng=0)
    assert len(pairs) == 1 and abs(pairs[0].k - 1.0) < 1e-14


def test_contour_warns_once_and_names_the_block():
    # nodes -1, -0.5, 0, 0.5, 1: the even block has 3 DOFs, the odd one 2
    blocks = parity_blocks(build_space(build_mesh((-1.0, 1.0), [], 0.5), 1), True)
    assert [b.size for b in blocks] == [3, 2]
    # both blocks are under-resolved, as in test_contour_warns_when_under_resolved;
    # the even one more (its eigenvalues move by 2.1e-1 of the contour, the odd ones
    # by 1.7e-1), and that is the block the one warning names
    t_fun = lambda z: [np.diag([(z - 1.0) * (z - 1.95), z + 1e6, z + 2e6]),
                       np.diag([(z - 1.0) * (z - 1.88), z + 3e6])]
    cfg = ContourConfig(center=1.4 + 0j, radius=0.45, quadrature_nodes=8, probe_columns=2)
    with pytest.warns(RuntimeWarning) as caught:
        pairs = solve_contour(t_fun, cfg, rng=0, blocks=blocks)
    assert len(caught) == 1
    assert str(caught[0].message).startswith("contour moments of the even block are "
                                             "under-resolved: halving the node count "
                                             "from 8 to 4 moved the eigenvalues inside "
                                             "the contour by 2.13e-01")
    assert sorted(pr.parity for pr in pairs) == ["even", "odd"]
    for pr in pairs:
        assert pr.vector.shape == (5,)


def test_contour_rejects_blocks_that_do_not_match_t():
    # the even block has 3 DOFs and the eigenvalue 1, the odd one 2 DOFs and 1.1
    blocks = parity_blocks(build_space(build_mesh((-1.0, 1.0), [], 0.5), 1), True)
    t_fun = lambda z: [np.diag([z - 1.0, z + 2.0, z + 3.0]), np.diag([z - 1.1, z + 2.0])]
    cfg = ContourConfig(center=1.0 + 0j, radius=0.5, probe_columns=2)
    pairs = solve_contour(t_fun, cfg, blocks, rng=0)
    np.testing.assert_allclose([pr.k for pr in pairs], [1.0, 1.1], atol=1e-12)
    assert [pr.parity for pr in pairs] == ["even", "odd"]
    # too few blocks would lose k = 1.1, and swapped ones would unfold into the wrong DOFs
    for wrong in (blocks[:1], blocks[::-1]):
        with pytest.raises(ValueError, match=r"^T\(z\) has blocks of shapes "):
            solve_contour(t_fun, cfg, wrong, rng=0)


def test_contour_matches_closed_form_on_integral_formulation():
    ctx = build_ls_context(slab_profile(2.0, 1.0), 8, 0.25)
    cfg = ContourConfig(center=K1, radius=0.3, probe_columns=8)
    pairs = solve_contour(lambda z: collocation_matrix(ctx, z), cfg, rng=0,
                          blocks=ctx.blocks)
    refs = slab_dtn_eigenvalues(2.0, 1.0, 6).values
    inside = [k for k in refs if cfg.contains(k)]
    assert len(pairs) == len(inside) == 1
    assert abs(pairs[0].k - K1) < 1e-7


def _assert_re_im_order(pairs):
    keys = [(pr.k.real, pr.k.imag) for pr in pairs]
    assert keys == sorted(keys)


def test_solvers_return_pairs_in_re_then_im_order():
    # eigenvalues.csv lists its rows in the order the solvers return them
    dtn, _ = solve_dtn(_slab_dtn_mats(3, 0.5))
    cfg = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=5.0)
    space = build_space(build_mesh((-5, 5), [-3, -2, -1, 1, 2, 3], 0.5), 2,
                        BoundaryCondition.DIRICHLET_BOTH_ENDS)
    pml, _ = solve_pml(assemble_pml(space, slab_profile(2.0, 1.0), cfg))
    # two eigenvalues of equal real part inside the circle
    t_fun = lambda z: [np.diag([z - (1.0 + 0.2j), z + 2.0, z - (1.0 - 0.2j), z - 0.8])]
    contour = solve_contour(t_fun, ContourConfig(center=1.0 + 0j, radius=0.5,
                                                 quadrature_nodes=64, probe_columns=4),
                            _one_block(4), rng=0)
    np.testing.assert_allclose(sorted((pr.k for pr in contour), key=lambda k: k.imag),
                               [1.0 - 0.2j, 0.8, 1.0 + 0.2j], atol=1e-12)
    for pairs in (dtn, pml, contour):
        _assert_re_im_order(pairs)


def test_pair_order_breaks_real_ties_by_imaginary_part():
    (block,) = _one_block(3)
    pairs = _block_pairs([(block, np.array([1.0 + 0.2j, 0.5, 1.0 - 0.2j]), np.eye(3))], None)
    assert [pr.k for pr in pairs] == [0.5, 1.0 - 0.2j, 1.0 + 0.2j]
    np.testing.assert_array_equal(pairs[0].vector, [0, 1, 0])


def test_smallest_singular_value():
    assert smallest_singular_value([np.eye(3)]) == pytest.approx(1.0)
    assert smallest_singular_value([np.diag([3.0, 1e-7])]) == pytest.approx(1e-7)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    assert smallest_singular_value([q]) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        smallest_singular_value([np.empty((0, 0))])
    with pytest.raises(ValueError):
        smallest_singular_value([np.array([[np.nan, 0.0], [0.0, 1.0]])])


@pytest.mark.parametrize("formulation", ["dtn", "pml", "ls"])
@pytest.mark.parametrize("problem", ["slab", "air_cavity", "bump"])
def test_block_singular_values_equal_the_full_t(problem, formulation):
    disc = discretize(RunConfig(problem=problem, formulation=formulation, degree=6,
                                initial_cell_size=0.25, d=2.0))
    op = disc.operator
    assert [b.parity for b in op.blocks] == ["even", "odd"]
    if formulation == "ls":
        geometry = _kernel_geometry(op, op.space.node_coords, op.cuts)  # K(k) at every node
    for k in (0.9 - 0.3j, 2.5 - 0.6j, 4.0 - 1.5j):
        if formulation == "dtn":
            full = op.a - 1j * k * op.e - k**2 * op.m
        elif formulation == "pml":
            full = op.a_tilde - k**2 * op.m_tilde
        else:
            full = np.eye(op.space.dof_count) - geometry.matrix(k)
        blocks = op.t(k)
        assert [len(t) for t in blocks] == [b.size for b in op.blocks]
        expected = np.linalg.svd(full, compute_uv=False)
        found = np.sort(np.concatenate([np.linalg.svd(t, compute_uv=False)
                                        for t in blocks]))[::-1]
        assert np.max(np.abs(found - expected)) <= 1e-13 * expected[0]
        assert smallest_singular_value(blocks) == pytest.approx(expected[-1], rel=1e-12,
                                                                abs=1e-13 * expected[0])


def _off_centre_slab():
    return MediumProfile(n=lambda x: np.where((x >= -1.0) & (x <= 0.5), 2.0, 1.0), n0=1.0,
                         resonator_halfwidth=1.0, breakpoints=(-1.0, 0.5))


def test_asymmetric_medium_is_solved_as_one_block_as_before():
    medium = _off_centre_slab()
    space = build_space(build_mesh((-2.0, 2.0), [-1.0, 0.5], 0.25), 4)
    assert len(parity_blocks(space, True)) == 2  # the mesh alone is symmetric
    mats = assemble_dtn(space, medium)
    assert [b.parity for b in mats.blocks] == [None]
    pairs, diag = solve_dtn(mats)
    # the unsplit solve: one companion matrix, static mode = eigenvalue of least modulus
    n = space.dof_count
    companion = np.zeros((2 * n, 2 * n))
    companion[:n, n:] = np.eye(n)
    companion[n:, :n] = -np.linalg.solve(mats.m, mats.a)
    companion[n:, n:] = -np.linalg.solve(mats.m, mats.e)
    lam = np.linalg.eig(companion)[0]  # with vectors, as LAPACK rounds differently without
    keep = np.flatnonzero(lam.imag <= 0)
    keep = keep[keep != np.argmin(np.abs(lam))]
    expected = sorted((complex(k) for k in 1j * lam[keep]), key=lambda k: (k.real, k.imag))
    assert [pr.k for pr in pairs] == expected
    assert all(pr.parity is None for pr in pairs)
    assert diag.pencil_size == 2 * n and len(pairs) + diag.dropped == 2 * n

    cfg = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=5.0)
    pml_space = build_space(build_mesh((-5, 5), [-3, -2, -1, 0.5, 2, 3], 0.5), 3,
                            BoundaryCondition.DIRICHLET_BOTH_ENDS)
    pml = assemble_pml(pml_space, medium, cfg)
    assert [b.parity for b in pml.blocks] == [None]
    lam = np.linalg.eig(np.linalg.solve(pml.m_tilde, pml.a_tilde))[0]
    expected = sorted((complex(k) for k in np.sqrt(lam)), key=lambda k: (k.real, k.imag))
    assert [pr.k for pr in solve_pml(pml)[0]] == expected

    ctx = build_ls_context(medium, 6, 0.25)
    assert [b.parity for b in ctx.blocks] == [None]
    (t,) = collocation_matrix(ctx, 1.0 - 0.3j)
    geometry = _kernel_geometry(ctx, ctx.space.node_coords, ctx.cuts)
    np.testing.assert_array_equal(t, np.eye(ctx.space.dof_count) - geometry.matrix(1.0 - 0.3j))


def test_odd_dtn_block_keeps_its_smallest_eigenvalue():
    mats = discretize(RunConfig(**_ORACLE_DTN["air_cavity"], formulation="dtn")).operator
    pairs, diag = solve_dtn(mats)
    by_parity = {}
    for block, (a, m, e) in zip(mats.blocks, mats.folded):
        n = a.shape[0]
        companion = np.block([[np.zeros((n, n)), np.eye(n)],
                              [-np.linalg.solve(m, a), -np.linalg.solve(m, e)]])
        by_parity[block.parity] = 1j * np.linalg.eigvals(companion)
    # the static mode k = 0 is the even block's; the odd block has no zero eigenvalue
    even, odd = by_parity["even"], by_parity["odd"]
    assert np.min(np.abs(even)) < 1e-10 < 1e-3 < np.min(np.abs(odd))
    smallest = odd[np.argmin(np.abs(odd))]
    smallest = -np.conj(smallest) if smallest.real < 0 else smallest
    found = [pr.k for pr in pairs if pr.parity == "odd"]
    assert np.min(np.abs(np.array(found) - smallest)) <= 1e-12 * abs(smallest)
    assert min(abs(pr.k) for pr in pairs) >= 1e-8
    # one static mode dropped, and the mirror of each pair off the imaginary axis
    assert diag.dropped == 1 + sum(pr.k.real > 0 for pr in pairs)
