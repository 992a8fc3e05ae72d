"""Refractive-index profiles and the absorbing-layer strength function."""

import math

import numpy as np
import pytest

from helmres import (MediumProfile, PmlConfig, air_filled_cavity_profile, bump_profile,
                     critical_angle, sigma_eval, slab_profile)


def test_slab_values():
    med = slab_profile(2.0, 1.0)
    assert med.n(0.0) == 2.0
    assert med.n(1.5) == 1.0
    assert med.n(-1.0) == 2.0
    assert med.n0 == 1.0
    assert med.breakpoints == (-1.0, 1.0)
    assert med.resonator_halfwidth == 1.0


def test_slab_unit_index_is_trivial():
    med = slab_profile(1.0, 1.0)
    x = np.linspace(-3, 3, 101)
    np.testing.assert_allclose(med.n(x), 1.0)
    np.testing.assert_allclose(med.contrast(x), 0.0)


def test_slab_validation():
    with pytest.raises(ValueError):
        slab_profile(0.5, 1.0)
    with pytest.raises(ValueError):
        slab_profile(2.0, 0.0)


def test_cavity_values():
    med = air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5))
    assert med.n(0.0) == 1.0
    assert med.n(1.2) == pytest.approx(math.sqrt(3.5))
    assert med.n(2.0) == pytest.approx(math.sqrt(2.5))
    assert med.n0 == pytest.approx(math.sqrt(2.5))
    assert med.breakpoints == (-1.5, -1.0, 1.0, 1.5)
    assert med.resonator_halfwidth == 1.5
    assert med.contrast(0.0) == pytest.approx(-1.5)
    with pytest.raises(ValueError):
        air_filled_cavity_profile(1.0, 2.0, 1.5)


@pytest.mark.parametrize("n0", [-2.0, 0.0, math.nan, math.inf])
def test_background_index_must_be_finite_and_positive(n0):
    with pytest.raises(ValueError, match="n0"):
        air_filled_cavity_profile(1.5, math.sqrt(3.5), n0)
    with pytest.raises(ValueError, match="n0"):
        MediumProfile(n=lambda x: np.ones_like(x), n0=n0, resonator_halfwidth=1.0,
                      breakpoints=())
    # an index below 1 is a background like any other
    assert air_filled_cavity_profile(1.5, math.sqrt(3.5), 0.5).n0 == 0.5


def test_bump_values():
    med = bump_profile()
    assert med.n(0.0) == 2.0
    assert med.n(0.5) == 1.75
    assert med.n(1.0) == 1.0
    assert med.n(2.0) == 1.0
    # continuous across the interface even though the slope jumps
    assert med.n(1.0 - 1e-9) == pytest.approx(1.0, abs=1e-8)
    assert med.breakpoints == (-1.0, 1.0)


def test_background_outside_resonator():
    for med in (slab_profile(2.0, 1.0),
                air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5)),
                bump_profile()):
        a = med.resonator_halfwidth
        x = np.concatenate([np.linspace(a + 1e-9, a + 10, 57),
                            -np.linspace(a + 1e-9, a + 10, 57)])
        np.testing.assert_allclose(med.n(x), med.n0, rtol=0, atol=1e-14)


def test_built_in_media_are_even_and_others_need_not_be():
    for med in (slab_profile(2.0, 1.0), slab_profile(1.0, 1.0), bump_profile(),
                air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5))):
        assert med.is_even()
    # an off-centre slab: the breakpoints are no mirror image
    off = MediumProfile(n=lambda x: np.where((x >= -1.0) & (x <= 0.5), 2.0, 1.0), n0=1.0,
                        resonator_halfwidth=1.0, breakpoints=(-1.0, 0.5))
    # mirror-image breakpoints, but a tilted index between them
    tilted = MediumProfile(n=lambda x: np.where(np.abs(x) <= 1.0, 2.0 + 0.1 * x, 1.0),
                           n0=1.0, resonator_halfwidth=1.0, breakpoints=(-1.0, 1.0))
    assert not off.is_even() and not tilted.is_even()


_CFG = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=5.0)


def test_sigma_ramp_values():
    assert sigma_eval(_CFG, 2.0) == 0.0
    assert sigma_eval(_CFG, 3.0) == pytest.approx(5.0)
    assert sigma_eval(_CFG, 2.5) == pytest.approx(2.5)  # smoothstep at t = 1/2
    assert sigma_eval(_CFG, 4.7) == pytest.approx(5.0)
    assert sigma_eval(_CFG, 1.0) == 0.0
    np.testing.assert_allclose(sigma_eval(_CFG, np.array([-2.7, 2.7])),
                               sigma_eval(_CFG, np.array([2.7, 2.7])))


def test_sigma_is_c1_at_the_joints():
    # 4-point one-sided stencils are exact for cubics, so the only error left
    # is roundoff; both one-sided slopes must agree at |x| = d and |x| = x_c
    h = 0.05
    coef = np.array([-11.0 / 6.0, 3.0, -1.5, 1.0 / 3.0])
    for joint in (_CFG.d, _CFG.x_c):
        right = sum(c * sigma_eval(_CFG, joint + i * h) for i, c in enumerate(coef)) / h
        left = -sum(c * sigma_eval(_CFG, joint - i * h) for i, c in enumerate(coef)) / h
        assert abs(right - left) < 1e-12


def test_derived_constants_match_direct_evaluation():
    for sigma0, a, d, x_c, ell in ((5.0, 1.0, 2.0, 3.0, 5.0),
                                   (10.0, 1.5, 2.0, 3.0, 5.0),
                                   (2.0, 0.5, 1.0, 2.5, 4.0)):
        cfg = PmlConfig(a=a, d=d, x_c=x_c, ell=ell, sigma0=sigma0)
        x_hat = 0.5 * (d + x_c)
        sig_ell = sigma0 * (ell - x_hat) / (ell - a)
        assert cfg.x_hat == pytest.approx(x_hat)
        assert cfg.sigma_ell == pytest.approx(sig_ell)
        n0 = 1.3
        assert cfg.beta(n0) == pytest.approx(n0 * (ell - a) * (1 + 1j * sig_ell))


def test_config_validation():
    with pytest.raises(ValueError):
        PmlConfig(a=2.0, d=1.0, x_c=3.0, ell=5.0, sigma0=5.0)
    with pytest.raises(ValueError):
        PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=0.0)


def test_critical_angle():
    # sigma_ell = 5 * 2.5 / 4 = 3.125
    assert critical_angle(_CFG) == pytest.approx(-math.atan(3.125))
    assert critical_angle(_CFG) == pytest.approx(-1.2610933822524404)
    unit = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=1.6)
    assert critical_angle(unit) == pytest.approx(-math.pi / 4)
    weak = PmlConfig(a=1.0, d=2.0, x_c=3.0, ell=5.0, sigma0=1e-12)
    assert abs(critical_angle(weak)) < 1e-12

