"""DtN/PML pencil solves against a QZ oracle, Newton iteration, contour integration."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg

from helmres import (BoundaryCondition, ContourConfig, DtnMatrices, EigenPair,
                     NewtonConvergenceError, PmlConfig, ProbeTooSmallError,
                     assemble_dtn, assemble_pml, build_ls_context,
                     build_mesh, build_space, canonical_fourth_quadrant,
                     collocation_matrix, newton_root, reference_table,
                     slab_dtn_eigenvalues, slab_profile, smallest_singular_value,
                     solve_contour, solve_dtn, solve_pml)
from helmres.cli import RunConfig, discretize

K1 = math.pi / 4 - 1j * math.log(3.0) / 4


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
        lam = -1j * pr.k
        res = (mats.a + lam * mats.e + lam**2 * mats.m) @ pr.vector
        assert np.linalg.norm(res) <= 1e-10 * (na + abs(lam) * ne + abs(lam) ** 2 * nm)


def test_pencil_eigenvalue_count():
    mats = _slab_dtn_mats(3, 0.5)
    pairs, diag = solve_dtn(mats)
    n = mats.a.shape[0]
    assert diag.pencil_size == 2 * n
    assert len(pairs) + diag.dropped == 2 * n


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
        lam = -1j * pr.k
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
    mats = discretize(RunConfig(formulation="dtn", **_ORACLE_DTN[name])).mats
    pairs, _ = solve_dtn(mats)
    ks = np.array([pr.k for pr in pairs])
    oracle = _qz_dtn_ks(mats)
    oracle = np.delete(oracle, np.argmin(np.abs(oracle)))  # the static mode k = 0
    # large-|k| eigenvalues are ill-conditioned and legitimately differ
    for mine, other in ((ks, oracle), (oracle, ks)):
        for k in mine[np.abs(mine) < 15]:
            assert np.min(np.abs(other - k)) <= 1e-9 * (1.0 + abs(k))
    assert np.max(_dtn_backward_errors(mats, pairs)) <= 1e-13


def test_dtn_rejects_indefinite_mass():
    mats = _slab_dtn_mats(2, 0.5)
    bad = DtnMatrices(a=mats.a, m=-mats.m, e=mats.e, space=mats.space)
    with pytest.raises(ValueError, match="DtN mass matrix"):
        solve_dtn(bad)


@pytest.mark.parametrize("sigma0", [5.0, 50.0])
def test_pml_eigenpairs_match_qz_oracle(sigma0):
    mats = discretize(RunConfig(problem="air_cavity", formulation="pml", degree=10,
                                initial_cell_size=0.5, d=2.0, x_c=3.0, ell=5.0,
                                sigma0=sigma0)).mats
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


@pytest.mark.filterwarnings("ignore:contour moments")
@pytest.mark.parametrize("name", sorted(_REPORTED))
def test_reported_pairs_solve_t_at_the_reported_k(name):
    disc = discretize(RunConfig(problem="air_cavity", **_REPORTED[name]))
    pairs, _ = disc.solve()
    assert pairs
    mats = disc.mats
    if name == "dtn":
        norms = [np.linalg.norm(x, 2) for x in (mats.a, mats.e, mats.m)]
        scale = lambda k: norms[0] + abs(k) * norms[1] + abs(k) ** 2 * norms[2]
    elif name == "pml":
        norms = [np.linalg.norm(x, 2) for x in (mats.a_tilde, mats.m_tilde)]
        scale = lambda k: norms[0] + abs(k) ** 2 * norms[1]
    else:
        scale = lambda k: np.linalg.norm(disc.t(k), 2)
    worst = max(np.linalg.norm(disc.t(pr.k) @ pr.vector) / scale(pr.k) for pr in pairs)
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
