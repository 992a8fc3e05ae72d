"""Refractive-index profiles, the PML strength function, and derived PML constants.

A medium is a real profile n(x) that equals a constant background n0 outside
the resonator interval (-a, a).  The PML is described by its geometry
(a <= d < x_c < ell) and peak strength sigma0; the strength function sigma(x)
ramps from 0 at |x| = d to sigma0 at |x| = x_c with a C^1 cubic and stays flat
beyond, and the complex stretch is alpha(x) = 1 + i sigma(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class MediumProfile:
    """Refractive index n(x) with background n0 and resonator support (-a, a).

    ``breakpoints`` lists the coordinates where n is not smooth; meshes must
    place vertices there.  n(x) = n0 holds for |x| > a.
    """

    n: Callable[[np.ndarray], np.ndarray]
    n0: float
    resonator_halfwidth: float
    breakpoints: tuple[float, ...]

    def contrast(self, x) -> np.ndarray:
        """n(x)^2 - n0^2, the source term of the volume-integral formulation."""
        xv = np.asarray(x, dtype=float)
        return self.n(xv) ** 2 - self.n0**2


def slab_profile(eta: float, a: float) -> MediumProfile:
    """Homogeneous slab: n = eta on |x| <= a and 1 outside; n0 = 1."""
    if eta < 1:
        raise ValueError(f"slab index must satisfy eta >= 1, got {eta}")
    if a <= 0:
        raise ValueError(f"slab half-width must be positive, got {a}")

    def n(x):
        xv = np.asarray(x, dtype=float)
        return np.where(np.abs(xv) <= a, eta, 1.0)

    return MediumProfile(n=n, n0=1.0, resonator_halfwidth=a,
                         breakpoints=(-a, a))


def air_filled_cavity_profile(b: float, gamma: float, eta: float) -> MediumProfile:
    """Air core |x| <= 1 with n = 1, wall n = gamma on 1 < |x| <= b, n = eta outside.

    The background is n0 = eta, so the resonator support, in the sense of
    supp(n^2 - n0^2), is (-b, b).
    """
    if b <= 1:
        raise ValueError(f"cavity outer radius must satisfy b > 1, got {b}")

    def n(x):
        xv = np.abs(np.asarray(x, dtype=float))
        return np.where(xv <= 1.0, 1.0, np.where(xv <= b, gamma, eta))

    return MediumProfile(n=n, n0=float(eta), resonator_halfwidth=b,
                         breakpoints=(-b, -1.0, 1.0, b))


def bump_profile() -> MediumProfile:
    """Continuous bump: n = 2 - x^2 on |x| <= 1 and 1 outside; n0 = 1.

    n is continuous at +-1 but n' jumps there, so +-1 are still breakpoints.
    """

    def n(x):
        xv = np.asarray(x, dtype=float)
        return np.where(np.abs(xv) <= 1.0, 2.0 - xv**2, 1.0)

    return MediumProfile(n=n, n0=1.0, resonator_halfwidth=1.0,
                         breakpoints=(-1.0, 1.0))


@dataclass(frozen=True, eq=False)
class PmlConfig:
    """PML geometry a <= d < x_c < ell and peak strength sigma0.

    The derived constants follow the conventions

        x_hat   = (d + x_c) / 2
        sigma_l = sigma0 (ell - x_hat) / (ell - a)
        beta    = n0 (ell - a)(1 + i sigma_l)
    """

    a: float
    d: float
    x_c: float
    ell: float
    sigma0: float

    def __post_init__(self):
        if not (self.a <= self.d < self.x_c < self.ell):
            raise ValueError(
                f"need a <= d < x_c < ell, got a={self.a}, d={self.d}, x_c={self.x_c}, ell={self.ell}")
        if self.sigma0 <= 0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")

    @property
    def breakpoints(self) -> tuple[float, float, float, float]:
        """The vertices a mesh of the layer must have: where the ramp starts and ends."""
        return (-self.x_c, -self.d, self.d, self.x_c)

    @property
    def x_hat(self) -> float:
        return 0.5 * (self.d + self.x_c)

    @property
    def sigma_ell(self) -> float:
        return self.sigma0 * (self.ell - self.x_hat) / (self.ell - self.a)

    def beta(self, n0: float = 1.0) -> complex:
        return n0 * (self.ell - self.a) * (1.0 + 1j * self.sigma_ell)


def sigma_eval(cfg: PmlConfig, x) -> np.ndarray:
    """PML strength: 0 for |x| <= d, sigma0 for |x| > x_c, cubic ramp between.

    The ramp is the smoothstep sigma0 * (3 t^2 - 2 t^3) with
    t = (|x| - d)/(x_c - d), which has vanishing one-sided slope at both ends.
    """
    xv = np.abs(np.asarray(x, dtype=float))
    t = np.clip((xv - cfg.d) / (cfg.x_c - cfg.d), 0.0, 1.0)
    out = cfg.sigma0 * t * t * (3.0 - 2.0 * t)
    return out if out.ndim else float(out)


def critical_angle(cfg: PmlConfig) -> float:
    """Angle arg(1/(1 + i sigma_l)) = -atan(sigma_l) of the critical line.

    Points k in the fourth quadrant with arg k above this angle form the
    feasible search region; the angle does not depend on n0.
    """
    return -math.atan(cfg.sigma_ell)

