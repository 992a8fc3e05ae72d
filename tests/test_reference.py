"""Closed-form, Newton-refined, and tabulated reference eigenvalues."""

import cmath
import math

import numpy as np
import pytest

from helmres import (DegenerateRelationError, PmlConfig, air_filled_cavity_profile,
                     critical_angle, general_dtn_relation_residual, layered_solutions,
                     newton_root, reference_table, slab_dtn_eigenvalues,
                     slab_pml_eigenvalues)

_B, _GAMMA, _ETA = 1.5, math.sqrt(3.5), math.sqrt(2.5)
_CFG = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=5.0)


def test_slab_closed_form_values():
    refs = slab_dtn_eigenvalues(2.0, 1.0, 3)
    vals = refs.values
    assert vals[0] == pytest.approx(-0.274653072167027j, abs=1e-12)
    assert vals[1] == pytest.approx(0.785398163397448 - 0.274653072167027j, abs=1e-12)
    # the decay rate does not depend on the mode number
    np.testing.assert_allclose(vals.imag, vals[0].imag)
    assert refs.provenance == "closed_form"


def test_slab_values_satisfy_relation():
    eta, a = 2.0, 1.0
    refl2 = ((eta - 1) / (eta + 1)) ** 2
    for k in slab_dtn_eigenvalues(eta, a, 8).values:
        assert abs(cmath.exp(-4j * eta * k * a) - refl2) < 1e-12


def test_slab_rejects_unit_index():
    with pytest.raises(ValueError):
        slab_dtn_eigenvalues(1.0, 1.0, 3)


def test_pml_artifact_family_closed_form():
    refs = slab_pml_eigenvalues(1.0, _CFG, m_max=3)
    assert refs.provenance == "closed_form"
    vals = refs.values
    # beta + a = 5 + 12.5i at these parameters
    for m, k in zip((1, 2, 3), vals):
        assert k == pytest.approx(m * math.pi / (2 * (5 + 12.5j)), abs=1e-14)
    assert vals[0] == pytest.approx(0.0433323125 - 0.1083307812j, abs=1e-9)
    assert vals[1] == pytest.approx(0.0866646249 - 0.2166615623j, abs=1e-9)
    assert vals[2] == pytest.approx(0.1299969374 - 0.3249923435j, abs=1e-9)


def test_pml_family_angle_constant_near_critical_line():
    # every family member shares arg k = -arg(beta + a), a fixed angle a
    # little above the critical line; it does not drift with the index
    family = slab_pml_eigenvalues(1.0, _CFG, m_max=6).values
    angles = np.angle(family)
    assert np.max(np.abs(angles - angles[0])) < 1e-13
    assert abs(angles[0] - critical_angle(_CFG)) < 0.1
    assert angles[0] > critical_angle(_CFG)


def test_pml_family_continuous_at_unit_index():
    family = slab_pml_eigenvalues(1.0, _CFG, m_max=3).values
    perturbed = slab_pml_eigenvalues(1.0 + 1e-8, _CFG, seeds=family).values
    assert len(perturbed) == 3
    for k, kp in zip(family, perturbed):
        assert abs(k - kp) < 1e-5


def test_pml_roots_approach_closed_form_with_absorption():
    targets = slab_dtn_eigenvalues(2.0, 1.0, 4).values
    gaps = []
    for sigma0 in (5.0, 10.0, 20.0):
        cfg = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=sigma0)
        roots = slab_pml_eigenvalues(2.0, cfg, m_max=4).values
        gaps.append(max(np.min(np.abs(roots - t)) for t in targets))
    assert gaps[0] > gaps[1] > gaps[2]


def test_pml_newton_skips_a_seed_that_fails_with_a_warning():
    # at Im k = -50 the determinant overflows, so Newton stops at the seed
    with pytest.warns(RuntimeWarning, match=r"seed \(1-50j\) failed to converge"):
        refs = slab_pml_eigenvalues(2.0, _CFG, seeds=[0.8 - 0.3j, 1.0 - 50j])
    alone = slab_pml_eigenvalues(2.0, _CFG, seeds=[0.8 - 0.3j])
    assert refs.values.tolist() == alone.values.tolist()


@pytest.mark.parametrize("seed", [20 - 20j, 5 + 100j, 1 - 50j])
def test_pml_newton_skips_a_seed_whose_determinant_overflows(seed):
    # exp(-4 i eta k a) overflows a float far from the real axis
    with pytest.warns(RuntimeWarning, match=r"failed to converge"):
        refs = slab_pml_eigenvalues(2.0, _CFG, seeds=[seed, 0.8 - 0.3j])
    alone = slab_pml_eigenvalues(2.0, _CFG, seeds=[0.8 - 0.3j])
    assert refs.values.tolist() == alone.values.tolist()


def test_pml_newton_deduplicates_seeds():
    refs = slab_pml_eigenvalues(2.0, _CFG, seeds=[0.8 - 0.3j, 0.8 - 0.3j])
    assert len(refs.entries) == 1


def test_general_relation_slab_consistency():
    eta, a = 2.0, 1.0

    def psi1(x, k):
        return cmath.cos(eta * k * x), -eta * k * cmath.sin(eta * k * x)

    def psi2(x, k):
        return cmath.sin(eta * k * x), eta * k * cmath.cos(eta * k * x)

    for k in slab_dtn_eigenvalues(eta, a, 4).values:
        assert abs(general_dtn_relation_residual(psi1, psi2, k, a)) < 1e-10
    with pytest.raises(DegenerateRelationError):
        general_dtn_relation_residual(psi1, psi2, 0.0, a)


def _cavity_relation():
    psi1, psi2 = layered_solutions(air_filled_cavity_profile(_B, _GAMMA, _ETA))
    return lambda k: general_dtn_relation_residual(psi1, psi2, k, _B, n0=_ETA)


def test_cavity_residual_vanishes_at_table():
    relation = _cavity_relation()
    for _, k in reference_table("air_cavity").entries:
        assert abs(relation(k)) < 1e-8


def test_newton_refinement_barely_moves_table_values():
    relation = _cavity_relation()
    for _, k in reference_table("air_cavity").entries:
        root = newton_root(relation, k, tol=1e-13)
        assert abs(root - k) < 1e-9


def test_layered_solutions_reproduce_cavity_roots():
    relation = _cavity_relation()
    for target in reference_table("air_cavity").values:
        root = newton_root(relation, target + 1e-3, tol=1e-12)
        assert abs(root - target) < 1e-9


def test_cavity_relation_off_root():
    k2 = reference_table("air_cavity").values[2]
    assert abs(_cavity_relation()(k2 + 0.1)) > 1e-3


def test_cavity_relation_conjugate_symmetry():
    relation = _cavity_relation()
    rng = np.random.default_rng(11)
    for _ in range(6):
        k = complex(rng.uniform(0, 5), rng.uniform(-1, 0))
        assert relation(-k.conjugate()) == pytest.approx(relation(k).conjugate(), rel=1e-12)


def test_layered_solutions_basic_identities():
    med = air_filled_cavity_profile(_B, _GAMMA, _ETA)
    psi1, psi2 = layered_solutions(med)
    k = 1.3 - 0.4j
    v1, d1 = psi1(0.0, k)
    v2, d2 = psi2(0.0, k)
    assert (v1, d1) == (1.0, 0.0)
    assert (v2, d2) == (0.0, 1.0)
    # inside the air core the solutions are cos(kx) and sin(kx)/k
    v, d = psi1(0.5, k)
    assert v == pytest.approx(cmath.cos(0.5 * k), rel=1e-12)
    assert d == pytest.approx(-k * cmath.sin(0.5 * k), rel=1e-12)
    # even profile: psi1 even, psi2 odd
    assert psi1(-0.8, k)[0] == pytest.approx(psi1(0.8, k)[0], rel=1e-12)
    assert psi2(-0.8, k)[0] == pytest.approx(-psi2(0.8, k)[0], rel=1e-12)


def test_tables():
    cav = reference_table("air_cavity")
    assert len(cav.entries) == 16
    assert cav.values[0] == -0.8948801287j
    assert cav.values[2] == 1.5955486049 - 0.3950551466j
    bump = reference_table("bump")
    assert len(bump.entries) == 12
    assert bump.values[1] == 1.1402018812 - 0.4825101535j
    for refs in (cav, bump):
        assert refs.provenance == "tabulated"
        assert np.all(refs.values.real >= 0)
        assert np.all(refs.values.imag < 0)
        assert np.all(np.diff(np.abs(refs.values.real)) > 0)
    with pytest.raises(ValueError):
        reference_table("unknown")


def test_nearest_lookup():
    refs = reference_table("air_cavity")
    idx, dist = refs.nearest(1.6 - 0.4j)
    assert idx == 2
    assert dist == pytest.approx(abs((1.6 - 0.4j) - refs.values[2]))
