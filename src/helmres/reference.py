"""Ground-truth eigenvalue engines used to validate the FEM pipelines.

Closed forms exist for the homogeneous slab; a layered medium such as the
air-filled cavity has an implicit scalar relation between its fundamental
solutions, solved by Newton iteration; the bump profile has no usable closed
form, so its values are embedded as a table.  Implicit relations are
evaluated in cross-multiplied (determinant) form throughout: the raw fraction
form has spurious poles where a denominator vanishes, while the determinant
form has the same zero set without them.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .eigen import NewtonConvergenceError, newton_root
from .media import MediumProfile, PmlConfig


class DegenerateRelationError(ValueError):
    """A fundamental solution vanished; the relation carries no information."""


@dataclass(frozen=True, eq=False)
class ReferenceSet:
    """Reference eigenvalues sorted by |Re k|, all in the closed fourth quadrant.

    ``provenance`` is one of "closed_form", "newton", "tabulated".
    """

    problem: str
    entries: tuple[tuple[int, complex], ...]
    provenance: str

    def __post_init__(self):
        ordered = tuple(sorted(self.entries, key=lambda e: abs(e[1].real)))
        object.__setattr__(self, "entries", ordered)

    @property
    def values(self) -> np.ndarray:
        return np.array([k for _, k in self.entries], dtype=complex)

    def nearest(self, k: complex) -> tuple[int, float]:
        """Index and distance of the reference value closest to ``k``."""
        vals = self.values
        j = int(np.argmin(np.abs(vals - k)))
        return self.entries[j][0], float(abs(vals[j] - k))


def slab_dtn_eigenvalues(eta: float, a: float, m_max: int) -> ReferenceSet:
    """Closed-form slab resonances k_m = pi m/(2 eta a) - i ln(1/|R|)/(2 eta a).

    R = (eta-1)/(eta+1) is the reflectance; the relation they solve is
    exp(-4 i eta k a) = R^2, which has no solutions for eta = 1.
    """
    if eta <= 1:
        raise ValueError(f"the slab relation has no solutions for eta <= 1, got {eta}")
    refl = (eta - 1.0) / (eta + 1.0)
    dim = math.log(1.0 / refl) / (2.0 * eta * a)
    entries = tuple((m, complex(math.pi * m / (2.0 * eta * a), -dim))
                    for m in range(m_max + 1))
    return ReferenceSet(problem="slab", entries=entries, provenance="closed_form")


def _slab_pml_determinant(k: complex, eta: float, a: float, beta: complex) -> complex:
    # exp(-4 i eta k a) (eta + phi)^2 - (eta - phi)^2 multiplied through by
    # (1 - exp(2 i k beta))^2 so that the poles of phi drop out
    ep = cmath.exp(2j * k * beta)
    plus = eta * (1.0 - ep) + (1.0 + ep)
    minus = eta * (1.0 - ep) - (1.0 + ep)
    return cmath.exp(-4j * eta * k * a) * plus * plus - minus * minus


def slab_pml_eigenvalues(eta: float, cfg: PmlConfig, m_max: int = 8,
                         seeds=None) -> ReferenceSet:
    """Eigenvalues of the finite-PML slab problem.

    For eta = 1 the relation exp(-4 i k a) = ((1 - phi)/(1 + phi))^2 collapses:
    with E = exp(2 i k beta) one has (1 - phi)/(1 + phi) = -E, so the relation
    reads exp(4 i k (beta + a)) = 1 and the eigenvalues form the closed family

        k_m = pi m / (2 (beta + a)),  m = 1, 2, ...

    (the same family follows from the exact solution sin(k (x~ - x~(-ell)))
    in the stretched coordinate, whose Dirichlet condition quantizes
    2 k (ell + i sigma0 (ell - x_hat)) = m pi, and beta + a equals
    ell + i sigma0 (ell - x_hat) for the default length convention).
    These are exact eigenvalues of the truncated layer yet approximate no
    resonance: the slab relation without the layer has no eta = 1 solutions.

    For eta != 1 each seed (default: the closed-form slab values) is refined
    by Newton iteration on the determinant form of the relation
    exp(-4 i eta k a) = ((eta - phi)/(eta + phi))^2.  A seed whose iteration
    fails or overflows is skipped with a warning.
    """
    beta = cfg.beta()
    a = cfg.a
    if eta == 1.0:
        entries = tuple((m, math.pi * m / (2.0 * (beta + a))) for m in range(1, m_max + 1))
        return ReferenceSet(problem="slab_pml", entries=entries, provenance="closed_form")
    if seeds is None:
        seeds = slab_dtn_eigenvalues(eta, a, m_max).values
    roots = []
    for seed in seeds:
        try:
            root = newton_root(lambda k: _slab_pml_determinant(k, eta, a, beta),
                               complex(seed), tol=1e-13)
        except (NewtonConvergenceError, OverflowError) as exc:
            # far down the plane exp(-4 i eta k a) overflows a float
            warnings.warn(f"seed {seed} failed to converge: {exc}", RuntimeWarning, stacklevel=2)
            continue
        if all(abs(root - r) > 1e-10 * (1.0 + abs(root)) for r in roots):
            roots.append(root)
    entries = tuple(enumerate(sorted(roots, key=lambda z: abs(z.real))))
    return ReferenceSet(problem="slab_pml", entries=entries, provenance="newton")


def general_dtn_relation_residual(psi1, psi2, k: complex, d: float, n0: float = 1.0) -> complex:
    """Cross-multiplied outgoing-condition determinant for two fundamental solutions.

    With F+(psi) = psi'(d) - i k n0 psi(d) and F-(psi) = psi'(-d) + i k n0 psi(-d),
    an eigenvalue makes F+(psi1) F-(psi2) - F-(psi1) F+(psi2) vanish.  Each
    ``psi`` is a callable (x, k) -> (value, derivative).  The pair is rejected
    as degenerate when one of the solutions is numerically the zero function
    (value and derivative vanish at both ends; e.g. sin(eta k x) at k = 0).
    Both cross-products vanishing is NOT degeneracy: for even profiles one
    fundamental solution satisfies the outgoing condition at both ends at
    every symmetric-mode eigenvalue, which zeroes both products.
    """
    v1p, d1p = psi1(d, k)
    v2p, d2p = psi2(d, k)
    v1m, d1m = psi1(-d, k)
    v2m, d2m = psi2(-d, k)
    tol = 1e-13 * max(1.0, abs(k))
    if abs(v1p) + abs(d1p) + abs(v1m) + abs(d1m) <= tol \
            or abs(v2p) + abs(d2p) + abs(v2m) + abs(d2m) <= tol:
        raise DegenerateRelationError(f"degenerate fundamental pair at k = {k}")
    f1p = d1p - 1j * k * n0 * v1p
    f2p = d2p - 1j * k * n0 * v2p
    f1m = d1m + 1j * k * n0 * v1m
    f2m = d2m + 1j * k * n0 * v2m
    return f1p * f2m - f1m * f2p


def layered_solutions(medium: MediumProfile):
    """Fundamental solutions of psi'' + k^2 n^2 psi = 0 for piecewise-constant n.

    Returns callables psi1, psi2 with (psi, psi')(0) = (1, 0) and (0, 1),
    propagated across the interfaces by matching value and derivative.  Inside
    a layer of index n the propagator over a step s is

        psi(x0+s)  =  cos(n k s) psi(x0) + (sin(n k s)/(n k)) psi'(x0)
        psi'(x0+s) = -n k sin(n k s) psi(x0) + cos(n k s) psi'(x0)

    which stays well defined at k = 0.  Negative x is reached by mirroring
    through the origin, so the profile is assumed even (all built-in media are).
    """
    cuts = sorted(abs(b) for b in medium.breakpoints if b > 0)

    def index_at(x: float) -> complex:
        return complex(medium.n(np.array(x)))

    def solution(v0: complex, dv0: complex):
        def psi(x: float, k: complex):
            sgn = 1.0 if x >= 0 else -1.0
            xa = abs(x)
            stops = [c for c in cuts if c < xa] + [xa]
            v, dv = v0, sgn * dv0
            prev = 0.0
            for stop in stops:
                if stop > prev:
                    nloc = index_at(sgn * 0.5 * (prev + stop))
                    z = nloc * k * (stop - prev)
                    c = cmath.cos(z)
                    sn = cmath.sin(z)
                    s_over = (stop - prev) if z == 0 else sn / (nloc * k)
                    v, dv = c * v + s_over * dv, -nloc * k * sn * v + c * dv
                prev = stop
            return v, sgn * dv
        return psi

    return solution(1.0, 0.0), solution(0.0, 1.0)


# Tabulated reference eigenvalues, embedded as printed decimal strings so the
# provenance stays auditable.  Air cavity: b = 1.5, gamma = sqrt(3.5),
# eta = sqrt(2.5).  Bump: n = 2 - x^2 inside (-1, 1).
_AIR_CAVITY_TABLE = (
    ("0.0000000000", "-0.8948801287"),
    ("0.4869949494", "-0.6502632860"),
    ("1.5955486049", "-0.3950551466"),
    ("2.7503593706", "-0.5843773974"),
    ("3.3047923378", "-0.8909296467"),
    ("3.7465666834", "-0.7159810538"),
    ("4.7869777032", "-0.4021092410"),
    ("5.9689601644", "-0.5268047778"),
    ("6.6087515863", "-0.8788560394"),
    ("7.0248667636", "-0.7730423533"),
    ("7.9794721839", "-0.4166038034"),
    ("9.1753687526", "-0.4808796847"),
    ("9.9108347715", "-0.8579829521"),
    ("10.3153076002", "-0.8180915326"),
    ("11.1740110180", "-0.4393352673"),
    ("12.3746790920", "-0.4461923754"),
)

_BUMP_TABLE = (
    ("0.0000000000", "-0.4271986734"),
    ("1.1402018812", "-0.4825101535"),
    ("2.1432843061", "-0.5771518110"),
    ("3.1204984325", "-0.6473255266"),
    ("4.0868340691", "-0.7036943333"),
    ("5.0470974941", "-0.7510601464"),
    ("6.0034893253", "-0.7920181369"),
    ("6.9572111153", "-0.8281487827"),
    ("7.9089927230", "-0.8604952505"),
    ("8.8593105049", "-0.8897868318"),
    ("9.8084919100", "-0.9165558262"),
    ("10.7567710490", "-0.9412039599"),
)


def reference_table(problem: str) -> ReferenceSet:
    """The embedded high-accuracy eigenvalue tables: "air_cavity" or "bump"."""
    tables = {"air_cavity": _AIR_CAVITY_TABLE, "bump": _BUMP_TABLE}
    if problem not in tables:
        raise ValueError(f"no table for problem {problem!r}; choose from {sorted(tables)}")
    entries = tuple((j, complex(float(re), float(im)))
                    for j, (re, im) in enumerate(tables[problem]))
    return ReferenceSet(problem=problem, entries=entries, provenance="tabulated")
