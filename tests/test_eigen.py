"""Companion/generalized eigensolvers, Newton iteration, contour integration."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg

from helmres import (BoundaryCondition, ContourConfig, EigenPair,
                     NewtonConvergenceError, PmlConfig, ProbeTooSmallError,
                     assemble_dtn, assemble_pml, build_ls_context,
                     build_mesh, build_space, canonical_fourth_quadrant,
                     collocation_matrix, newton_root, slab_dtn_eigenvalues,
                     slab_profile, smallest_singular_value, solve_contour,
                     solve_dtn, solve_pml)

K1 = math.pi / 4 - 1j * math.log(3.0) / 4


def _slab_dtn_mats(p, h, d=1.0):
    med = slab_profile(2.0, 1.0)
    bps = [-1.0, 1.0] if d > 1.0 else []
    mesh = build_mesh((-d, d), bps, h)
    space = build_space(mesh, p, BoundaryCondition.NONE)
    return assemble_dtn(space, med)


def test_eigenpair_normalizes_vector():
    pair = EigenPair(k=1.0 + 0j, vector=np.array([3.0, 4.0]), formulation="dtn",
                     lambda_raw=0j)
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        EigenPair(k=1.0 + 0j, vector=np.zeros(2), formulation="dtn", lambda_raw=0j)


def test_contour_config_validation():
    with pytest.raises(ValueError):
        ContourConfig(center=0j, radius=0.0)
    with pytest.raises(ValueError):
        ContourConfig(center=0j, radius=1.0, quadrature_nodes=4)
    with pytest.raises(ValueError):
        ContourConfig(center=0j, radius=1.0, probe_columns=0)
    cfg = ContourConfig(center=1.0 + 0j, radius=2.0, radius_im=0.5)
    assert cfg.contains(1.0 + 0.49j)
    assert not cfg.contains(1.0 + 0.51j)


def test_quadratic_pencil_residuals():
    mats = _slab_dtn_mats(4, 0.5)
    pairs, _ = solve_dtn(mats)
    assert pairs
    na = np.linalg.norm(mats.a, 2)
    ne = np.linalg.norm(mats.e, 2)
    nm = np.linalg.norm(mats.m, 2)
    for pr in pairs:
        lam = pr.lambda_raw
        res = (mats.a + lam * mats.e + lam**2 * mats.m) @ pr.vector
        assert np.linalg.norm(res) <= 1e-10 * (na + abs(lam) * ne + abs(lam) ** 2 * nm)


def test_pencil_eigenvalue_count():
    mats = _slab_dtn_mats(3, 0.5)
    pairs, diag = solve_dtn(mats)
    n = mats.a.shape[0]
    assert diag.pencil_size == 2 * n
    assert len(pairs) + diag.dropped_huge == 2 * n


def test_spectrum_symmetric_about_imaginary_axis():
    pairs, _ = solve_dtn(_slab_dtn_mats(4, 0.5))
    ks = np.array([pr.k for pr in pairs])
    for k in ks:
        if abs(k.real) < 1e-6:
            continue
        mirror = -np.conj(k)
        assert np.min(np.abs(ks - mirror)) <= 1e-8 * (1.0 + abs(k))


def test_slab_eigenvalue_high_order():
    pairs = canonical_fourth_quadrant(solve_dtn(_slab_dtn_mats(10, 0.125))[0])
    ks = np.array([pr.k for pr in pairs])
    assert np.min(np.abs(ks - K1)) < 1e-8


def test_canonical_fourth_quadrant():
    mats = _slab_dtn_mats(3, 0.5)
    pairs, _ = solve_dtn(mats)
    canon = canonical_fourth_quadrant(pairs)
    assert all(pr.k.real >= 0 for pr in canon)
    # reflection preserves the quadratic residual
    for pr in canon[:5]:
        lam = pr.lambda_raw
        res = (mats.a + lam * mats.e + lam**2 * mats.m) @ pr.vector
        assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(mats.a, 2)
    # duplicates merge to one representative
    twice = canonical_fourth_quadrant(pairs + pairs)
    assert len(twice) == len(canon)


def test_pml_pencil_residuals_and_count():
    med = slab_profile(2.0, 1.0)
    cfg = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=5.0)
    mesh = build_mesh((-5, 5), [-3, -2, -1, 1, 2, 3], 0.5)
    space = build_space(mesh, 3, BoundaryCondition.DIRICHLET_BOTH_ENDS)
    mats = assemble_pml(space, med, cfg)
    pairs, diag = solve_pml(mats)
    assert diag.pencil_size == space.dof_count
    assert len(pairs) + diag.dropped_huge == space.dof_count
    na = np.linalg.norm(mats.a_tilde, 2)
    nm = np.linalg.norm(mats.m_tilde, 2)
    for pr in pairs:
        res = (mats.a_tilde - pr.lambda_raw * mats.m_tilde) @ pr.vector
        assert np.linalg.norm(res) <= 1e-10 * (na + abs(pr.lambda_raw) * nm)
        assert pr.k.real >= 0 and pr.k.imag <= 0
        assert pr.k**2 == pytest.approx(pr.lambda_raw)


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
    t_fun = lambda z: np.diag([z - 1.0, z + 2.0])
    cfg = ContourConfig(center=1.0 + 0j, radius=0.5, probe_columns=2)
    pairs = solve_contour(t_fun, cfg, rng=0)
    assert len(pairs) == 1
    assert abs(pairs[0].k - 1.0) < 1e-12


def test_contour_empty_region():
    t_fun = lambda z: np.diag([z - 1.0, z + 2.0])
    cfg = ContourConfig(center=10.0 + 0j, radius=0.5, probe_columns=2)
    assert solve_contour(t_fun, cfg, rng=0) == []


def test_contour_probe_saturation():
    t_fun = lambda z: (z - 1.0) * np.eye(4)
    cfg = ContourConfig(center=1.0 + 0j, radius=0.5, probe_columns=3)
    with pytest.raises(ProbeTooSmallError):
        solve_contour(t_fun, cfg, rng=0)


def test_contour_warns_when_under_resolved():
    # pole close to the contour: 8 trapezoid nodes cannot resolve the moments
    t_fun = lambda z: np.diag([z - 1.0, z + 1e6])
    cfg = ContourConfig(center=1.4 + 0j, radius=0.45, quadrature_nodes=8,
                        probe_columns=2)
    with pytest.warns(RuntimeWarning, match="moments"):
        solve_contour(t_fun, cfg, rng=0)


def test_contour_matches_closed_form_on_integral_formulation():
    ctx = build_ls_context(slab_profile(2.0, 1.0), 8, 0.25)
    cfg = ContourConfig(center=K1, radius=0.3, probe_columns=8)
    pairs = solve_contour(lambda z: collocation_matrix(ctx, z), cfg, rng=0)
    refs = slab_dtn_eigenvalues(2.0, 1.0, 6).values
    inside = [k for k in refs if cfg.contains(k)]
    assert len(pairs) == len(inside) == 1
    assert abs(pairs[0].k - K1) < 1e-7


def test_smallest_singular_value():
    assert smallest_singular_value(np.eye(3)) == pytest.approx(1.0)
    assert smallest_singular_value(np.diag([3.0, 1e-7])) == pytest.approx(1e-7)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    assert smallest_singular_value(q) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        smallest_singular_value(np.empty((0, 0)))
    with pytest.raises(ValueError):
        smallest_singular_value(np.array([[np.nan, 0.0], [0.0, 1.0]]))
