"""Dense matrix assembly for all three formulations."""

import math

import numpy as np
import pytest
import scipy.linalg

from helmres import (BoundaryCondition, PmlConfig, air_filled_cavity_profile,
                     assemble_dtn, assemble_pml, assemble_resonator_mass,
                     build_mesh, build_space, bump_profile, slab_profile)


def _space(domain, breakpoints, h, p, bc=BoundaryCondition.NONE):
    return build_space(build_mesh(domain, breakpoints, h), p, bc)


def test_single_linear_element_matrices():
    d = 1.5
    med = slab_profile(1.0, d)  # n == 1, interfaces sit on the domain ends
    space = _space((-d, d), [], 2 * d, 1)
    mats = assemble_dtn(space, med)
    np.testing.assert_allclose(mats.a, np.array([[1, -1], [-1, 1]]) / (2 * d), atol=1e-14)
    np.testing.assert_allclose(mats.e, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(mats.m, (2 * d / 6) * np.array([[2, 1], [1, 2]]), atol=1e-14)


def test_mass_row_sums_partition_of_unity():
    med = slab_profile(1.0, 1.0)
    space = _space((-2, 2), [], 0.5, 3)
    mats = assemble_dtn(space, med)
    assert mats.m.sum() == pytest.approx(4.0, rel=1e-13)


def test_boundary_matrix_rank_two():
    med = slab_profile(2.0, 1.0)
    space = _space((-2, 2), [-1, 1], 0.5, 4)
    mats = assemble_dtn(space, med)
    s = scipy.linalg.svdvals(mats.e)
    assert s[0] > 0
    assert np.all(s[2:] <= 1e-14 * s[0])


def test_piecewise_constant_mass_patch():
    # exact integrals via a much larger rule; default order must already match
    med = air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5))
    space = _space((-2, 2), [-1.5, -1, 1, 1.5], 0.5, 3)
    mats = assemble_dtn(space, med)
    exact = assemble_dtn(space, med, quad_order=4 * 3 + 2)
    scale = np.abs(exact.m).max()
    assert np.abs(mats.m - exact.m).max() <= 1e-13 * scale
    assert np.abs(mats.a - exact.a).max() <= 1e-13 * np.abs(exact.a).max()


def test_quadrature_doubling_stability():
    space = _space((-2, 2), [-1, 1], 0.5, 3)
    med = slab_profile(2.0, 1.0)
    base = assemble_dtn(space, med)
    fine = assemble_dtn(space, med, quad_order=2 * (3 + 3))
    assert np.abs(base.m - fine.m).max() <= 1e-12 * np.abs(base.m).max()

    bump = bump_profile()
    bspace = _space((-1.5, 1.5), [-1, 1], 0.5, 3)
    bbase = assemble_dtn(bspace, bump)
    bfine = assemble_dtn(bspace, bump, quad_order=2 * (3 + 3))
    assert np.abs(bbase.m - bfine.m).max() <= 1e-10 * np.abs(bbase.m).max()


def test_dtn_rejections():
    med = slab_profile(2.0, 1.0)
    with pytest.raises(ValueError, match="aligned"):
        assemble_dtn(_space((-2, 2), [], 0.75, 2), med)
    with pytest.raises(ValueError, match="essential"):
        assemble_dtn(_space((-2, 2), [-1, 1], 0.5, 2,
                            BoundaryCondition.DIRICHLET_BOTH_ENDS), med)
    with pytest.raises(ValueError, match="support"):
        assemble_dtn(_space((-0.5, 0.5), [], 0.25, 2), med)


_PML = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=5.0)
_PML_BPS = [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]


def test_pml_matrices_complex_symmetric():
    med = slab_profile(2.0, 1.0)
    space = _space((-5, 5), _PML_BPS, 0.5, 3, BoundaryCondition.DIRICHLET_BOTH_ENDS)
    mats = assemble_pml(space, med, _PML)
    np.testing.assert_allclose(mats.a_tilde, mats.a_tilde.T, atol=1e-14)
    np.testing.assert_allclose(mats.m_tilde, mats.m_tilde.T, atol=1e-14)


def test_pml_reduces_to_laplacian_for_vanishing_absorption():
    weak = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=1e-300)
    med = slab_profile(1.0, 1.0)
    space = _space((-5, 5), _PML_BPS, 0.5, 4, BoundaryCondition.DIRICHLET_BOTH_ENDS)
    mats = assemble_pml(space, med, weak)
    assert np.abs(mats.a_tilde.imag).max() <= 1e-250
    assert np.abs(mats.m_tilde.imag).max() <= 1e-250
    lam = np.sort(scipy.linalg.eigvals(mats.a_tilde.real, mats.m_tilde.real).real)
    exact = (np.arange(1, 5) * np.pi / 10.0) ** 2
    np.testing.assert_allclose(lam[:4], exact, rtol=1e-8)


def test_pml_plateau_scaling():
    # dofs interior to a cell beyond x_c receive contributions from that cell
    # alone, so their entries show the constant-alpha scaling exactly
    med = slab_profile(1.0, 1.0)
    space = _space((-5, 5), _PML_BPS, 0.5, 4, BoundaryCondition.DIRICHLET_BOTH_ENDS)
    flat = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=1e-300)
    stretched = assemble_pml(space, med, _PML)
    plain = assemble_pml(space, med, flat)
    last = space.mesh.n_cells - 1  # (4.5, 5), fully beyond x_c
    interior = space.cell_dofs(last)[1:-1]
    ix = np.ix_(interior, interior)
    alpha = 1.0 + 5.0j
    np.testing.assert_allclose(stretched.a_tilde[ix], plain.a_tilde[ix] / alpha,
                               rtol=1e-12)
    np.testing.assert_allclose(stretched.m_tilde[ix], plain.m_tilde[ix] * alpha,
                               rtol=1e-12)


def test_pml_rejections():
    med = slab_profile(2.0, 1.0)
    with pytest.raises(ValueError, match="Dirichlet"):
        assemble_pml(_space((-5, 5), _PML_BPS, 0.5, 2), med, _PML)
    with pytest.raises(ValueError, match="aligned"):
        bad = _space((-5, 5), [-1.0, 1.0], 0.4, 2, BoundaryCondition.DIRICHLET_BOTH_ENDS)
        assemble_pml(bad, med, _PML)


def test_resonator_mass_single_element():
    space = _space((0.0, 0.7), [], 0.7, 1)
    mass = assemble_resonator_mass(space)
    np.testing.assert_allclose(mass.m, (0.7 / 6) * np.array([[2, 1], [1, 2]]),
                               atol=1e-15)


def test_resonator_mass_spd_and_total():
    space = _space((-1.5, 1.5), [-1, 1], 0.25, 5)
    mass = assemble_resonator_mass(space)
    assert mass.m.sum() == pytest.approx(3.0, rel=1e-13)
    np.linalg.cholesky(mass.m)  # SPD witness

