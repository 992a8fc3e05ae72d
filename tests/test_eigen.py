"""DtN/PML pencil solves against a QZ oracle, Newton iteration, contour integration."""

import cmath
import math
import warnings

import numpy as np
import pytest

from helmres import (BoundaryCondition, DtnMatrices, EigenPair, MediumProfile,
                     NewtonConvergenceError, ParityBlock, PmlConfig, ProbeTooSmallError,
                     assemble_dtn, assemble_pml, build_ls_context,
                     build_mesh, build_space, collocation_matrix, newton_root, reference_table,
                     slab_dtn_eigenvalues, slab_profile, smallest_singular_value,
                     solve_contour, solve_dtn, solve_pml)
from helmres import eigen
from helmres.cli import RunConfig, discretize
from helmres.eigen import _block_pairs
from helmres.lippmann import _kernel_geometry
from helmres.mesh_fe import parity_blocks

K1 = math.pi / 4 - 1j * math.log(3.0) / 4


def _one_block(n):
    """The whole space of n DOFs as one block, for a synthetic T(z) of size n."""
    return (ParityBlock(parity=None, size=n, dof_count=n),)


def _square(center, radius):
    """The window whose inscribed ellipse is the circle of ``center`` and ``radius``."""
    return (center.real - radius, center.real + radius,
            center.imag - radius, center.imag + radius)


def _ls_counts(monkeypatch, probe, nodes=32):
    """The LS contour's probe and node counts for the rest of a test."""
    monkeypatch.setattr(eigen, "_LS_NODES", nodes)
    monkeypatch.setattr(eigen, "_LS_PROBE", probe)


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


def test_window_contour_is_the_ellipse_inscribed_in_the_right_half_of_the_window():
    for window in [(0.0, 2.0, -0.5, 0.5), (-3.0, 2.0, -0.5, 0.5)]:
        contour = eigen.window_contour(window, 1.0, 64, 24)
        assert contour.contains(1.0 + 0.49j)
        assert not contour.contains(1.0 + 0.51j)
        assert eigen.window_contour(window, 1.1, 64, 24).contains(1.0 + 0.51j)
    assert eigen.window_contour((-3.0, 0.0, -0.5, 0.5), 1.0, 64, 24) is None


def test_quadratic_pencil_residuals():
    assembled = _slab_dtn_mats(4, 0.5)
    # a full E as well: the solver must not rely on E vanishing off the end DOFs
    full = DtnMatrices(a=assembled.a, m=assembled.m, e=assembled.e + 0.3,
                       space=assembled.space, blocks=parity_blocks(assembled.space, False))
    for mats in (assembled, full):
        pairs = solve_dtn(mats)
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
    pairs = solve_dtn(mats)
    # every eigenvalue of the 2n companion but the static mode, and the mirror of
    # each pair off the imaginary axis
    assert len(pairs) == 2 * mats.a.shape[0] - 1 - sum(pr.k.real > 0 for pr in pairs)


def test_slab_eigenvalue_high_order():
    pairs = solve_dtn(_slab_dtn_mats(10, 0.125))
    ks = np.array([pr.k for pr in pairs])
    assert np.min(np.abs(ks - K1)) < 1e-8


def test_pml_pencil_residuals_and_count():
    med = slab_profile(2.0, 1.0)
    cfg = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=5.0)
    mesh = build_mesh((-5, 5), [-3, -2, -1, 1, 2, 3], 0.5)
    space = build_space(mesh, 3, BoundaryCondition.DIRICHLET_BOTH_ENDS)
    mats = assemble_pml(space, med, cfg)
    pairs = solve_pml(mats)
    assert len(pairs) == space.dof_count
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
    eigvals = pytest.importorskip("scipy.linalg").eigvals
    n = mats.a.shape[0]
    zero, eye = np.zeros((n, n)), np.eye(n)
    lam = eigvals(np.block([[mats.a, mats.e], [zero, eye]]),
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
    pairs = solve_dtn(mats)
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
    pairs = solve_pml(mats)
    na = np.linalg.norm(mats.a_tilde, 2)
    nm = np.linalg.norm(mats.m_tilde, 2)
    for pr in pairs:
        res = (mats.a_tilde - pr.k**2 * mats.m_tilde) @ pr.vector
        assert np.linalg.norm(res) <= 1e-13 * (na + abs(pr.k**2) * nm)
    # the spurious eigenvalues are non-normal and move between backward-stable
    # solvers, so only those next to the table are compared
    eigvals = pytest.importorskip("scipy.linalg").eigvals
    oracle = np.sqrt(eigvals(mats.a_tilde, mats.m_tilde))
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
    pairs = disc.solve()
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
        # K(k) at every node, so not the right half of a mirror
        geometry = _kernel_geometry(ctx, ctx.space.node_coords, ctx.cuts, mirror=False)
        t = lambda k: np.eye(disc.operator.space.dof_count) - geometry.matrix(k)
        scale = lambda k: np.linalg.norm(t(k), 2)
    worst = max(np.linalg.norm(t(pr.k) @ pr.vector) / scale(pr.k) for pr in pairs)
    assert worst <= {"dtn": 1e-13, "pml": 1e-13, "ls": 1e-9}[name]


def test_pml_weak_absorption_gives_dirichlet_laplacian():
    med = slab_profile(1.0, 1.0)
    cfg = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=1e-300)
    mesh = build_mesh((-5, 5), [-3, -2, -1, 1, 2, 3], 0.5)
    space = build_space(mesh, 4, BoundaryCondition.DIRICHLET_BOTH_ENDS)
    pairs = solve_pml(assemble_pml(space, med, cfg))
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


def test_newton_stops_on_a_step_below_rounding():
    # |f| never reaches tol = 0, so the step size ends the iteration
    root = newton_root(lambda k: k * k - 2.0, 1.0, tol=0.0)
    assert abs(root - math.sqrt(2.0)) <= 4 * np.finfo(float).eps


def test_contour_diagonal_case(monkeypatch):
    _ls_counts(monkeypatch, probe=2)
    t_fun = lambda z: [np.diag([z - 1.0, z + 2.0])]
    pairs = solve_contour(t_fun, _one_block(2), _square(1.0, 0.5), rng=0)
    assert len(pairs) == 1
    assert abs(pairs[0].k - 1.0) < 1e-12


def test_contour_empty_region(monkeypatch):
    _ls_counts(monkeypatch, probe=2)
    t_fun = lambda z: [np.diag([z - 1.0, z + 2.0])]
    assert solve_contour(t_fun, _one_block(2), _square(10.0, 0.5), rng=0) == []
    # a window with no width right of the axis places no contour
    assert solve_contour(t_fun, _one_block(2), (-3.0, 0.0, -1.0, 1.0), rng=0) == []


def test_contour_empty_region_with_rounding_above_the_absolute_tolerance(monkeypatch):
    # the rounding of A0 exceeds 1e-10, but not 1e-10 of the largest quadrature term
    _ls_counts(monkeypatch, probe=2)
    t_fun = lambda z: [1e-8 * np.diag([z - 1.0, z + 2.0])]
    assert solve_contour(t_fun, _one_block(2), _square(10.0, 0.5), rng=0) == []


def test_contour_probe_saturation(monkeypatch):
    _ls_counts(monkeypatch, probe=3)
    t_fun = lambda z: [(z - 1.0) * np.eye(4)]
    with pytest.raises(ProbeTooSmallError, match="the probe of 3 columns is narrower than "
                       "the single block of 4 DOFs, so use a smaller window$"):
        solve_contour(t_fun, _one_block(4), _square(1.0, 0.5), rng=0)


def test_contour_probe_needs_an_rng():
    t_fun = lambda z: [np.diag([z - 1.0, z + 2.0])]
    with pytest.raises(TypeError):
        solve_contour(t_fun, _one_block(2), _square(1.0, 0.5))
    # None would draw fresh OS entropy, and is rejected before any window is read
    for window in [_square(1.0, 0.5), (-3.0, 0.0, -1.0, 1.0)]:
        with pytest.raises(TypeError, match="rng"):
            solve_contour(t_fun, _one_block(2), window, None)


def test_contour_with_equal_seeds_is_bit_identical():
    # two unseeded calls on this contour returned k that differed by 1.2e-12
    op = discretize(RunConfig(problem="air_cavity", formulation="ls", degree=6,
                              initial_cell_size=0.25)).operator
    first, second = (solve_contour(op.t, op.blocks, (0.0, 8.0, -1.2, 0.0), 7, space=op.space)
                     for _ in range(2))
    assert len(first) >= 5
    assert [pr.k for pr in first] == [pr.k for pr in second]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.vector, b.vector)


def test_contour_saturating_a_whole_block_asks_for_a_smaller_window(monkeypatch):
    _ls_counts(monkeypatch, probe=5)
    t_fun = lambda z: [(z - 1.0) * np.eye(4)]
    with pytest.raises(ProbeTooSmallError, match="spans the single block of 4 DOFs, "
                                                  "so use a smaller window or a finer mesh"):
        solve_contour(t_fun, _one_block(4), _square(1.0, 0.5), rng=0)


def test_contour_warns_when_under_resolved(monkeypatch):
    # the eigenvector of the eigenvalue 1 inside also belongs to 1.9, just outside;
    # the rank-1 moments mix the two by weights that 8 trapezoid nodes cannot resolve
    _ls_counts(monkeypatch, nodes=8, probe=2)
    t_fun = lambda z: [np.diag([(z - 1.0) * (z - 1.9), z + 1e6])]
    with pytest.warns(RuntimeWarning, match=r"^contour moments of the single block are "
                      r"under-resolved: halving the node count from 8 to 4 moved the "
                      r"eigenvalues inside the contour by 2\.04e-01 of its size; "
                      r"use a smaller window$"):
        solve_contour(t_fun, _one_block(2), _square(1.4, 0.45), rng=0)


def test_contour_does_not_warn_about_a_pole_near_it(monkeypatch):
    # one simple pole 0.05 inside: A0 changes by 62% when the nodes are halved, but
    # the trapezoid rule's eigenvalue is exact at any node count
    _ls_counts(monkeypatch, nodes=8, probe=2)
    t_fun = lambda z: [np.diag([z - 1.0, z + 1e6])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = solve_contour(t_fun, _one_block(2), _square(1.4, 0.45), rng=0)
    assert len(pairs) == 1 and abs(pairs[0].k - 1.0) < 1e-14


def test_contour_warns_once_and_names_the_block(monkeypatch):
    # nodes -1, -0.5, 0, 0.5, 1: the even block has 3 DOFs, the odd one 2
    blocks = parity_blocks(build_space(build_mesh((-1.0, 1.0), [], 0.5), 1), True)
    assert [b.size for b in blocks] == [3, 2]
    # both blocks are under-resolved, as in test_contour_warns_when_under_resolved;
    # the even one more (its eigenvalues move by 2.1e-1 of the contour, the odd ones
    # by 1.7e-1), and that is the block the one warning names
    t_fun = lambda z: [np.diag([(z - 1.0) * (z - 1.95), z + 1e6, z + 2e6]),
                       np.diag([(z - 1.0) * (z - 1.88), z + 3e6])]
    _ls_counts(monkeypatch, nodes=8, probe=2)
    with pytest.warns(RuntimeWarning) as caught:
        pairs = solve_contour(t_fun, blocks, _square(1.4, 0.45), rng=0)
    assert len(caught) == 1
    assert str(caught[0].message).startswith("contour moments of the even block are "
                                             "under-resolved: halving the node count "
                                             "from 8 to 4 moved the eigenvalues inside "
                                             "the contour by 2.13e-01")
    assert sorted(pr.parity for pr in pairs) == ["even", "odd"]
    for pr in pairs:
        assert pr.vector.shape == (5,)


def test_contour_rejects_blocks_that_do_not_match_t(monkeypatch):
    # the even block has 3 DOFs and the eigenvalue 1, the odd one 2 DOFs and 1.1
    _ls_counts(monkeypatch, probe=2)
    blocks = parity_blocks(build_space(build_mesh((-1.0, 1.0), [], 0.5), 1), True)
    t_fun = lambda z: [np.diag([z - 1.0, z + 2.0, z + 3.0]), np.diag([z - 1.1, z + 2.0])]
    pairs = solve_contour(t_fun, blocks, _square(1.0, 0.5), rng=0)
    np.testing.assert_allclose([pr.k for pr in pairs], [1.0, 1.1], atol=1e-12)
    assert [pr.parity for pr in pairs] == ["even", "odd"]
    # too few blocks would lose k = 1.1, and swapped ones would unfold into the wrong DOFs
    for wrong in (blocks[:1], blocks[::-1]):
        with pytest.raises(ValueError, match=r"^T\(z\) has blocks of shapes "):
            solve_contour(t_fun, wrong, _square(1.0, 0.5), rng=0)


def test_contour_matches_closed_form_on_integral_formulation(monkeypatch):
    _ls_counts(monkeypatch, probe=8)
    ctx = build_ls_context(slab_profile(2.0, 1.0), 8, 0.25)
    pairs = solve_contour(lambda z: collocation_matrix(ctx, z), ctx.blocks, _square(K1, 0.3),
                          rng=0)
    refs = slab_dtn_eigenvalues(2.0, 1.0, 6).values
    inside = [k for k in refs if abs(k - K1) <= 0.3]
    assert len(pairs) == len(inside) == 1
    assert abs(pairs[0].k - K1) < 1e-7


def _assert_re_im_order(pairs):
    keys = [(pr.k.real, pr.k.imag) for pr in pairs]
    assert keys == sorted(keys)


def test_solvers_return_pairs_in_re_then_im_order(monkeypatch):
    # eigenvalues.csv lists its rows in the order the solvers return them
    dtn = solve_dtn(_slab_dtn_mats(3, 0.5))
    cfg = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=5.0)
    space = build_space(build_mesh((-5, 5), [-3, -2, -1, 1, 2, 3], 0.5), 2,
                        BoundaryCondition.DIRICHLET_BOTH_ENDS)
    pml = solve_pml(assemble_pml(space, slab_profile(2.0, 1.0), cfg))
    # two eigenvalues of equal real part inside the circle
    t_fun = lambda z: [np.diag([z - (1.0 + 0.2j), z + 2.0, z - (1.0 - 0.2j), z - 0.8])]
    _ls_counts(monkeypatch, nodes=64, probe=4)
    contour = solve_contour(t_fun, _one_block(4), _square(1.0, 0.5), rng=0)
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
    for empty in ([np.empty((0, 0))], []):
        with pytest.raises(ValueError, match="matrix is empty"):
            smallest_singular_value(empty)
    with pytest.raises(ValueError):
        smallest_singular_value([np.array([[np.nan, 0.0], [0.0, 1.0]])])


def _two_block_cases(seed):
    """Pairs of complex blocks: random ones of spread sizes and scales; pairs with
    the same singular values in other singular vectors, whose computed s_min
    agree to about 1e-14 relative; and pairs with a block whose s_min is 0."""
    rng = np.random.default_rng(seed)

    def gaussian(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def unitary(n):
        return np.linalg.qr(gaussian(n))[0]

    cases = []
    for _ in range(30):
        sizes = rng.integers(1, 20, size=2)
        cases.append([10.0 ** rng.uniform(-3, 3) * gaussian(n) for n in sizes])
    for _ in range(10):
        n = int(rng.integers(2, 20))
        values = np.sort(10.0 ** rng.uniform(0, 1, n))[::-1]
        cases.append([(unitary(n) * values) @ unitary(n), (unitary(n) * values) @ unitary(n)])
    zero = np.diag(np.array([3.0, 0.0, 1.0, 2.0], dtype=complex))
    cases += [[zero, gaussian(5)], [gaussian(5), zero], [zero, zero]]
    return cases


@pytest.mark.parametrize("seed", range(3))
def test_least_singular_value_is_the_least_block_svd_bit_for_bit(seed):
    least, ties = [], 0
    for blocks in _two_block_cases(seed):
        svds = [np.linalg.svd(m, compute_uv=False)[-1] for m in blocks]
        least.append(min(svds))
        for first in (0, 1):
            value, held = eigen._least_singular_value(blocks, first)
            assert value == min(svds) and svds[held] == value
        assert smallest_singular_value(blocks) == min(svds)
        if abs(svds[0] - svds[1]) <= 1e-14 * max(svds) and 0.0 not in svds:
            # a near tie: neither block may be proved larger than the other
            ties += 1
            assert not eigen._above(blocks[1], svds[0])
            assert not eigen._above(blocks[0], svds[1])
    assert ties >= 8 and 0.0 in least


def test_a_block_whose_gram_overflows_gets_its_svd():
    # ||M||_F^2 is not finite, so nothing is proved and the SVD decides
    big = np.diag([1e200, 2e200]).astype(complex)
    assert not eigen._above(big, 1.0)
    assert smallest_singular_value([np.eye(2), big]) == 1.0
    assert smallest_singular_value([big, 3e199 * np.eye(2)]) == 3e199


@pytest.mark.parametrize("formulation", ["dtn", "pml", "ls"])
@pytest.mark.parametrize("problem", ["slab", "air_cavity", "bump"])
def test_block_singular_values_equal_the_full_t(problem, formulation):
    disc = discretize(RunConfig(problem=problem, formulation=formulation, degree=6,
                                initial_cell_size=0.25, d=2.0))
    op = disc.operator
    assert [b.parity for b in op.blocks] == ["even", "odd"]
    if formulation == "ls":
        # K(k) at every node, so not the right half of a mirror
        geometry = _kernel_geometry(op, op.space.node_coords, op.cuts, mirror=False)
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
    pairs = solve_dtn(mats)
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

    cfg = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=5.0)
    pml_space = build_space(build_mesh((-5, 5), [-3, -2, -1, 0.5, 2, 3], 0.5), 3,
                            BoundaryCondition.DIRICHLET_BOTH_ENDS)
    pml = assemble_pml(pml_space, medium, cfg)
    assert [b.parity for b in pml.blocks] == [None]
    lam = np.linalg.eig(np.linalg.solve(pml.m_tilde, pml.a_tilde))[0]
    expected = sorted((complex(k) for k in np.sqrt(lam)), key=lambda k: (k.real, k.imag))
    assert [pr.k for pr in solve_pml(pml)] == expected

    ctx = build_ls_context(medium, 6, 0.25)
    assert [b.parity for b in ctx.blocks] == [None]
    (t,) = collocation_matrix(ctx, 1.0 - 0.3j)
    geometry = _kernel_geometry(ctx, ctx.space.node_coords, ctx.cuts)
    np.testing.assert_array_equal(t, np.eye(ctx.space.dof_count) - geometry.matrix(1.0 - 0.3j))


def test_odd_dtn_block_keeps_its_smallest_eigenvalue():
    mats = discretize(RunConfig(**_ORACLE_DTN["air_cavity"], formulation="dtn")).operator
    pairs = solve_dtn(mats)
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
    # every eigenvalue but one static mode, and the mirror of each pair off the
    # imaginary axis
    assert len(pairs) == 2 * mats.a.shape[0] - 1 - sum(pr.k.real > 0 for pr in pairs)


def _is_static(pair):
    """Whether the pair's vector is the constant, the static mode's: a check on the
    vector, independent of |k| and of the solver, which drops that mode by its k."""
    vec = pair.vector
    return abs(np.sum(vec)) >= (1.0 - 1e-8) * np.sqrt(vec.size) * np.linalg.norm(vec)


def _in(k, window):
    re_min, re_max, im_min, im_max = window
    return re_min <= k.real <= re_max and im_min <= k.imag <= im_max


_WINDOWED_DTN = [
    ("slab", 8, 0.25, 1.0, (0.0, 4.0, -2.0, 0.0)),
    ("slab", 10, 0.125, 1.0, (0.0, 10.0, -1.0, 0.0)),
    ("air_cavity", 8, 0.25, 2.0, (0.0, 13.5, -2.0, 0.0)),
    ("air_cavity", 14, 0.25, 2.0, (0.0, 13.5, -2.0, 0.0)),
    ("air_cavity", 16, 0.25, 2.0, (0.0, 13.5, -2.0, 0.0)),
    ("air_cavity", 16, 0.125, 2.0, (0.0, 13.5, -2.0, 0.0)),
    ("air_cavity", 16, 0.25, 2.0, (2.0, 9.0, -1.5, -0.2)),  # k = 0 outside the contour
    # k = 0 inside the contour, outside the window: its root is computed but not returned
    ("air_cavity", 16, 0.25, 2.0, (0.05, 4.0, -1.0, -0.05)),
    ("air_cavity", 16, 0.25, 2.0, (-3.0, 6.0, -2.0, 0.0)),  # reaches Re k < 0
    ("bump", 12, 0.5, 1.5, (0.0, 11.0, -1.5, 0.0)),
]


@pytest.mark.parametrize("problem, p, h, d, window", _WINDOWED_DTN)
def test_windowed_dtn_solve_matches_the_companion_in_the_window(problem, p, h, d, window):
    mats = discretize(RunConfig(problem=problem, formulation="dtn", degree=p,
                                initial_cell_size=h, d=d)).operator
    expected = [pr for pr in solve_dtn(mats) if _in(pr.k, window)]
    assert expected
    if (problem, p, h) == ("slab", 10, 0.125):
        # a contour there under-resolves one block, which the companion then solves
        assert len(expected) == 13
    for seed in range(10):
        pairs = solve_dtn(mats, window=window, rng=seed)
        assert len(pairs) == len(expected), seed
        assert [pr.parity for pr in pairs] == [pr.parity for pr in expected], seed
        for mine, other in zip(pairs, expected):
            assert abs(mine.k - other.k) <= 1e-10 * (1.0 + abs(other.k)), seed
        assert np.max(_dtn_backward_errors(mats, pairs)) <= 1e-13, seed
        # no pair is the static mode: it was dropped when the window holds k = 0, and
        # otherwise no other pair was dropped in its place, as the counts agree
        assert not any(_is_static(pr) for pr in pairs), seed


def test_windowed_dtn_keeps_the_axis_mode_on_the_axis():
    # 0 - 0.8949i lies on the window's Re k = 0 edge: a root that came back without
    # a mirror partner is set on the axis and polished in real arithmetic
    mats = discretize(RunConfig(problem="air_cavity", formulation="dtn", degree=16,
                                initial_cell_size=0.25, d=2.0)).operator
    for seed in range(10):
        pairs = solve_dtn(mats, window=(0.0, 13.5, -2.0, 0.0), rng=seed)
        axis = min(pairs, key=lambda pr: abs(pr.k + 0.8948801287j))
        assert abs(axis.k + 0.8948801287j) < 1e-9, seed
        assert axis.k.real == 0.0 and axis.parity == "even", seed
        assert np.all(axis.vector.imag == 0.0), seed


def _assert_same_pairs(pairs, expected):
    assert [pr.k for pr in pairs] == [pr.k for pr in expected]
    assert [pr.parity for pr in pairs] == [pr.parity for pr in expected]
    for mine, other in zip(pairs, expected):
        np.testing.assert_array_equal(mine.vector, other.vector)


def _count_companion_calls(monkeypatch):
    """The sizes of the blocks handed to the companion from now on."""
    calls = []
    companion = eigen._dtn_companion

    def counted(a, *args):
        calls.append(a.shape[0])
        return companion(a, *args)

    monkeypatch.setattr(eigen, "_dtn_companion", counted)
    return calls


def test_windowed_dtn_falls_back_to_the_companion_bit_for_bit(monkeypatch):
    # p = 2 blocks of 5 and 4 DOFs, narrower than the probe
    slab = discretize(RunConfig(problem="slab", formulation="dtn", degree=2,
                                initial_cell_size=0.5, d=1.0)).operator
    cavity = discretize(RunConfig(problem="air_cavity", formulation="dtn", degree=16,
                                  initial_cell_size=0.25, d=2.0)).operator
    # a full E couples every DOF, more than the probe has columns
    wide = _slab_dtn_mats(8, 0.25)
    full = DtnMatrices(a=wide.a, m=wide.m, e=wide.e + 0.3, space=wide.space,
                       blocks=parity_blocks(wide.space, False))
    assert wide.a.shape[0] > eigen._DTN_PROBE
    cases = [(slab, (0.0, 4.0, -2.0, 0.0)), (full, (0.0, 4.0, -2.0, 0.0)),
             # no width with Re k >= 0: the axis roots alone
             (cavity, (-2.0, 0.0, -2.0, 0.0))]
    for mats, window in cases:
        expected = [pr for pr in solve_dtn(mats) if _in(pr.k, window)]
        assert expected
        _assert_same_pairs(solve_dtn(mats, window=window, rng=0), expected)

    # unrefined vectors against a backward error no vector meets: the window holds
    # one root, 1.5955 - 0.3951i of the even block, and only that block is handed
    # to the companion, as the odd block's contour holds no root to check
    calls = _count_companion_calls(monkeypatch)
    window = (1.0, 2.0, -0.6, -0.2)
    expected = [pr for pr in solve_dtn(cavity) if _in(pr.k, window)]
    assert [pr.parity for pr in expected] == ["even"]
    calls.clear()
    assert len(solve_dtn(cavity, window=window, rng=0)) == 1 and calls == []
    with monkeypatch.context() as patch:
        patch.setattr(eigen, "_REFINE_STEPS", 0)
        patch.setattr(eigen, "_BACKWARD_ERROR", 0.0)
        _assert_same_pairs(solve_dtn(cavity, window=window, rng=0), expected)
    assert calls == [next(block.size for block in cavity.blocks if block.parity == "even")]

    # eight nodes under-resolve both blocks' contours: halving them moves the
    # eigenvalues inside by 0.16 and 0.28 of the contour's size
    monkeypatch.setattr(eigen, "_DTN_NODES", 8)
    window = (0.0, 13.5, -2.0, 0.0)
    expected = [pr for pr in solve_dtn(cavity) if _in(pr.k, window)]
    _assert_same_pairs(solve_dtn(cavity, window=window, rng=0), expected)


def _raising(exc):
    def stub(*args):
        raise exc("stub")
    return stub


def _one_root_without_partner(contour_block):
    """One root at 0.3 + i Im(centre): its mirror lies inside the contour, with no
    partner, and 0.3 is far off the axis."""
    def stub(moments, term, cfg):
        _, rank, change = contour_block(moments, term, cfg)
        return (np.array([complex(0.3, cfg.center.imag)]), None), rank, change
    return stub


def _without_the_static_root(contour_block):
    """The roots but the one at k = 0, which the block that holds the constants
    must return once."""
    def stub(moments, term, cfg):
        inside, rank, change = contour_block(moments, term, cfg)
        keep = np.abs(inside[0]) > 1e-6
        return (inside[0][keep], inside[1][:, keep]), rank, change
    return stub


def _zero_product(mat, z):
    return np.zeros((mat.shape[0],) + z.shape[1:], dtype=np.result_type(mat, z))


@pytest.mark.parametrize("name, stub, handed", [
    # one step settles the odd block's roots but not the even block's; with no steps
    # the backward error check would send both blocks to the companion as well
    ("_POLISH_STEPS", lambda _: 1, ("even",)),
    ("_woodbury", lambda _: _raising(FloatingPointError), ("even", "odd")),
    ("_woodbury", lambda _: _raising(np.linalg.LinAlgError), ("even", "odd")),
    ("_contour_block", _one_root_without_partner, ("even", "odd")),
    ("_contour_block", _without_the_static_root, ("even",)),
    # c0 = c1 = c2 = q = 0: the errstate raises at q / c2
    ("_real_product", lambda _: _zero_product, ("even", "odd")),
], ids=["polish-does-not-settle", "woodbury-overflows", "woodbury-singular",
        "missing-partner", "no-static-root", "zero-rayleigh-quotient"])
def test_each_windowed_dtn_fallback_gives_the_companion_bit_for_bit(monkeypatch, name, stub,
                                                                    handed):
    cavity = discretize(RunConfig(problem="air_cavity", formulation="dtn", degree=16,
                                  initial_cell_size=0.25, d=2.0)).operator
    window = (0.0, 13.5, -2.0, 0.0)
    companion = [pr for pr in solve_dtn(cavity) if _in(pr.k, window)]
    contour = solve_dtn(cavity, window=window, rng=0)
    calls = _count_companion_calls(monkeypatch)
    monkeypatch.setattr(eigen, name, stub(getattr(eigen, name)))
    pairs = solve_dtn(cavity, window=window, rng=0)
    assert calls == [block.size for block in cavity.blocks if block.parity in handed]
    for parity in ("even", "odd"):
        _assert_same_pairs([pr for pr in pairs if pr.parity == parity],
                           [pr for pr in (companion if parity in handed else contour)
                            if pr.parity == parity])


# the windowed runs of CI: dtn-cavity's configuration and the bump's window
_CI_WINDOWS = [("air_cavity", 16, 0.25, 2.0, (0.0, 13.5, -2.0, 0.0)),
               ("bump", 12, 0.5, 1.5, (0.0, 11.0, -1.5, 0.0))]


def test_windowed_dtn_solves_every_block_on_its_contour(monkeypatch):
    # the companion's pairs are correct too, so only a count shows that a block
    # which the contour should solve was handed to the companion instead
    calls = _count_companion_calls(monkeypatch)
    for problem, p, h, d, window in _CI_WINDOWS:
        mats = discretize(RunConfig(problem=problem, formulation="dtn", degree=p,
                                    initial_cell_size=h, d=d)).operator
        for seed in range(10):
            assert solve_dtn(mats, window=window, rng=seed), (problem, seed)
            assert calls == [], (problem, seed)


def test_windowed_dtn_solves_a_one_block_medium_on_its_contour(monkeypatch):
    # one block whose E has two nonzero rows; the first window holds k = 0, whose
    # root the contour drops before the polish, which meets a pole of the reduction there
    mats = assemble_dtn(build_space(build_mesh((-2.0, 2.0), [-1.0, 0.5], 0.25), 16),
                        _off_centre_slab())
    assert [b.parity for b in mats.blocks] == [None]
    unwindowed = solve_dtn(mats)
    calls = _count_companion_calls(monkeypatch)
    for window in [(0.0, 8.0, -1.5, 0.0), (1.0, 8.0, -1.5, -0.1)]:
        expected = [pr for pr in unwindowed if _in(pr.k, window)]
        assert expected
        for seed in range(5):
            pairs = solve_dtn(mats, window=window, rng=seed)
            assert calls == [], (window, seed)
            assert len(pairs) == len(expected), (window, seed)
            for mine, other in zip(pairs, expected):
                assert abs(mine.k - other.k) <= 1e-10 * (1.0 + abs(other.k)), (window, seed)
            assert np.max(_dtn_backward_errors(mats, pairs)) <= 1e-13, (window, seed)
            assert not any(_is_static(pr) for pr in pairs), (window, seed)


def test_windowed_dtn_drops_the_static_root_before_the_polish(monkeypatch):
    polished = []
    polish = eigen._rayleigh_polish

    def recorded(ks, *args):
        polished.append(ks.copy())
        return polish(ks, *args)

    monkeypatch.setattr(eigen, "_rayleigh_polish", recorded)
    for problem, p, h, d, window in _CI_WINDOWS:
        mats = discretize(RunConfig(problem=problem, formulation="dtn", degree=p,
                                    initial_cell_size=h, d=d)).operator
        for seed in range(10):
            polished.clear()
            assert solve_dtn(mats, window=window, rng=seed), (problem, seed)
            assert polished, (problem, seed)
            # the contour's tolerance is 1.05e-4 on the cavity's window, 8.6e-5 on the bump's
            assert all(np.all(np.abs(ks) > 1e-4) for ks in polished), (problem, seed)


def test_windowed_dtn_backward_errors_stay_at_the_rounding_floor():
    # each vector comes from the bordered system solved in the eigh basis and refined
    # on (A, E, M); a dense LU of that system gave at most 1.3e-16 here
    for problem, p, h, d, window in _CI_WINDOWS:
        mats = discretize(RunConfig(problem=problem, formulation="dtn", degree=p,
                                    initial_cell_size=h, d=d)).operator
        for seed in range(10):
            pairs = solve_dtn(mats, window=window, rng=seed)
            assert pairs, (problem, seed)
            assert np.max(_dtn_backward_errors(mats, pairs)) <= 1e-14, (problem, seed)


def test_windowed_dtn_needs_an_rng():
    mats = _slab_dtn_mats(3, 0.5)
    with pytest.raises(TypeError, match="rng"):
        solve_dtn(mats, window=(0.0, 4.0, -2.0, 0.0))
