"""Eigenvalue machinery shared by the three formulations.

* dense solve of the quadratic problem (lambda^2 M + lambda E + A) xi = 0 as
  the standard eigenproblem of its companion form solved against M, returning
  one member, Re k >= 0, of each exact conjugate pair of that real matrix,
* dense solve of the PML pencil At xi = lambda Mt xi as that of Mt^-1 At,
  returning every principal root k = sqrt(lambda),
* a complex Newton scalar root finder,
* a Beyn-style contour-integral solver for matrix-valued analytic T(k),
* smallest singular values for pseudospectrum maps.

Every factorization goes through numpy's LAPACK, the library that forms the
matrices, so a run loads one OpenBLAS with one thread pool.  scipy is not
imported: it would add a second OpenBLAS, whose pool contends with numpy's for
the same cores, and it takes longer to import than most runs take to solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .mesh_fe import MeshedSpace

# A0 has rank 0 when its largest singular value is at most this, and otherwise
# the rank counts the singular values above this times the largest
_RANK_TOLERANCE = 1e-10


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Eigenvalue k and its coefficient vector (2-norm 1) in the space it lives in.

    A pair carries no record of the solver that produced it: the eps filter
    tests it the same way whatever its origin.
    """

    k: complex
    vector: np.ndarray
    space: MeshedSpace | None = None

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=complex)
        nrm = np.linalg.norm(vec)
        if not np.isfinite(nrm) or nrm == 0.0:
            raise ValueError("eigenvector must be nonzero and finite")
        object.__setattr__(self, "vector", vec / nrm)


@dataclass(frozen=True, eq=False)
class ContourConfig:
    """Elliptic contour and solver knobs for the contour-integral method.

    ``radius`` is the real semi-axis; ``radius_im`` defaults to a circle.
    ``quadrature_nodes`` is even: every other node is the half rule that checks
    the moments.  ``probe_columns`` must be at least the number of eigenvalues
    expected inside, with slack so that rank saturation is detectable.
    """

    center: complex
    radius: float
    quadrature_nodes: int = 32
    probe_columns: int = 16
    radius_im: float | None = None

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"contour radius must be positive, got {self.radius}")
        if self.radius_im is not None and self.radius_im <= 0:
            raise ValueError(f"imaginary semi-axis must be positive, got {self.radius_im}")
        if self.quadrature_nodes < 8 or self.quadrature_nodes % 2:
            raise ValueError(f"need an even node count >= 8, got {self.quadrature_nodes}")
        if self.probe_columns < 1:
            raise ValueError("probe_columns must be positive")

    @property
    def semi_axes(self) -> tuple[float, float]:
        return (self.radius, self.radius_im if self.radius_im is not None else self.radius)

    def contains(self, z: complex, tol: float = 0.0) -> bool:
        rx, ry = self.semi_axes
        w = z - self.center
        return (w.real / rx) ** 2 + (w.imag / ry) ** 2 <= 1.0 + tol


class NewtonConvergenceError(RuntimeError):
    """Newton iteration failed; carries the last iterate and residual."""

    def __init__(self, message: str, last_iterate: complex, residual: float):
        super().__init__(f"{message} (last iterate {last_iterate}, |f| = {residual:.3e})")
        self.last_iterate = last_iterate
        self.residual = residual


class ProbeTooSmallError(RuntimeError):
    """Numerical rank of the zeroth contour moment saturated the probe width."""


@dataclass(frozen=True, eq=False)
class SolveDiagnostics:
    """Size of the solved eigenproblem and the eigenvalues computed but not returned.

    ``dropped`` counts the DtN static mode and one member of each conjugate
    eigenvalue pair of the real DtN companion matrix, and is 0 for the PML, so
    every computed eigenvalue is either returned or counted here.
    """

    pencil_size: int
    dropped: int


def _sorted_pairs(ks, vectors, space) -> list[EigenPair]:
    """EigenPairs of ``ks`` and the columns of ``vectors``, sorted by (Re k, Im k)."""
    pairs = [EigenPair(k=complex(k), vector=vec, space=space) for k, vec in zip(ks, vectors.T)]
    pairs.sort(key=lambda pr: (pr.k.real, pr.k.imag))
    return pairs


def solve_dtn(mats) -> tuple[list[EigenPair], SolveDiagnostics]:
    """Eigenpairs of (lambda^2 M + lambda E + A) xi = 0 with Re k >= 0, but k = 0.

    M is SPD (its Cholesky factorization checks that and is otherwise not
    used), so the problem is the real standard 2n x 2n eigenproblem
    [[0, I], [-M^-1 A, -M^-1 E]] z = lambda z with z = (xi, lambda xi), and xi
    is the top block of each eigenvector.  A finite matrix has no infinite
    eigenvalues, so all 2n are finite.  The parameter is lambda = -ik, so
    eigenvalues map back through k = i lambda.  A 1 = 0 makes lambda = 0 an
    exact, simple eigenvalue (Q'(0) = E and 1^T E 1 = 2 n0), the static mode,
    which is no resonance: the eigenvalue of smallest modulus is dropped.  The
    matrix is real, so LAPACK returns its complex eigenvalues as exact
    conjugate pairs {lambda, conj lambda}, that is {k, -conj k}; the member
    with Im lambda <= 0 (Re k >= 0) is kept and its mirror dropped, with no
    tolerance involved.  Both kinds of dropped eigenvalue are counted in the
    diagnostics.
    """
    n = mats.a.shape[0]
    try:
        np.linalg.cholesky(mats.m)
    except np.linalg.LinAlgError as exc:
        raise ValueError("the DtN mass matrix M is not symmetric positive definite") from exc
    companion = np.zeros((2 * n, 2 * n))
    companion[:n, n:] = np.eye(n)
    companion[n:, :n] = -np.linalg.solve(mats.m, mats.a)
    companion[n:, n:] = -np.linalg.solve(mats.m, mats.e)
    lam, vecs = np.linalg.eig(companion)
    keep = np.flatnonzero(lam.imag <= 0)
    keep = keep[keep != np.argmin(np.abs(lam))]
    pairs = _sorted_pairs(1j * lam[keep], vecs[:n, keep], mats.space)
    return pairs, SolveDiagnostics(pencil_size=2 * n, dropped=2 * n - len(pairs))


def solve_pml(mats) -> tuple[list[EigenPair], SolveDiagnostics]:
    """All eigenpairs of At xi = lambda Mt xi with k the principal sqrt of lambda.

    Mt has the SPD Hermitian part int n^2 phi phi (Re alpha = 1), so it is
    invertible and the pencil is solved as the standard eigenproblem of
    Mt^-1 At, which has no infinite eigenvalues.  The principal root k =
    sqrt(lambda), in the closed right half plane, is returned as it is: the
    pencil is complex, so xi is no eigenvector at conj(k), and a root with
    Im k > 0 is not reflected into the fourth quadrant.
    """
    lam, vecs = np.linalg.eig(np.linalg.solve(mats.m_tilde, mats.a_tilde))
    pairs = _sorted_pairs(np.sqrt(lam.astype(complex)), vecs, mats.space)
    return pairs, SolveDiagnostics(pencil_size=mats.a_tilde.shape[0], dropped=0)


def newton_root(f, guess: complex, tol: float = 1e-12, max_iter: int = 60) -> complex:
    """Complex Newton iteration with a central-difference derivative.

    Stops when |f| <= tol or the step falls below a machine-relative
    threshold.  The difference step is 1e-7 * max(1, |k|); complex-step
    differentiation is avoided on purpose so that f may use conjugation
    or absolute values of parameters.
    """
    z = complex(guess)
    fz = complex(f(z))
    for _ in range(max_iter):
        if abs(fz) <= tol:
            return z
        h = 1e-7 * max(1.0, abs(z))
        df = (complex(f(z + h)) - complex(f(z - h))) / (2.0 * h)
        if df == 0 or not np.isfinite(abs(df)):
            raise NewtonConvergenceError("derivative vanished or overflowed", z, abs(fz))
        step = fz / df
        z -= step
        fz = complex(f(z))
        if abs(step) <= 8 * np.finfo(float).eps * max(1.0, abs(z)):
            return z
    raise NewtonConvergenceError(f"no convergence in {max_iter} iterations", z, abs(fz))


def solve_contour(t_fun, cfg: ContourConfig, rng=None, space: MeshedSpace | None = None):
    """Beyn contour-integral eigensolver for analytic matrix functions T(z).

    Trapezoid moments on the ellipse with random probe V,

        A0 = (1/2 pi i) oint T(z)^-1 V dz,   A1 = (1/2 pi i) oint z T(z)^-1 V dz,

    then an SVD rank truncation of A0 at a relative 1e-10 reduces A1 to a
    small matrix whose eigenvalues are the T-eigenvalues inside the contour.
    Eigenvalues outside are discarded; each pair's vector lives in ``space``.
    The trapezoid rule on a closed contour converges exponentially for analytic
    integrands; a comparison against the half-node rule triggers a warning
    when the moments look unresolved.
    """
    rng = np.random.default_rng(rng)
    rx, ry = cfg.semi_axes
    nq = cfg.quadrature_nodes
    theta = 2.0 * np.pi * np.arange(nq) / nq
    zs = cfg.center + rx * np.cos(theta) + 1j * ry * np.sin(theta)
    dz = -rx * np.sin(theta) + 1j * ry * np.cos(theta)

    t0 = np.asarray(t_fun(zs[0]))
    n = t0.shape[0]
    cols = min(cfg.probe_columns, n)
    probe = rng.standard_normal((n, cols))

    a0 = np.zeros((n, cols), dtype=complex)
    a1 = np.zeros_like(a0)
    a0_half = np.zeros_like(a0)
    for j, (z, w) in enumerate(zip(zs, dz)):
        tz = t0 if j == 0 else np.asarray(t_fun(z))
        sol = np.linalg.solve(tz, probe)
        a0 += w * sol
        a1 += (w * z) * sol
        if j % 2 == 0:
            a0_half += w * sol
    a0 /= 1j * nq
    a1 /= 1j * nq

    a0_half /= 1j * (nq // 2)
    change = np.linalg.norm(a0 - a0_half) / max(np.linalg.norm(a0), 1e-300)
    if change > 1e-6 and np.linalg.norm(a0) > 1e-10:
        warnings.warn(f"contour moments changed by more than 1e-6 (relative change "
                      f"{change:.2e} in A0) when the node count was halved from {nq} "
                      f"to {nq // 2}; increase quadrature_nodes", RuntimeWarning,
                      stacklevel=2)

    u, s, wh = np.linalg.svd(a0, full_matrices=False)
    if s[0] <= _RANK_TOLERANCE:
        return []
    rank = int(np.sum(s > _RANK_TOLERANCE * s[0]))
    if rank == cols:
        raise ProbeTooSmallError(
            f"numerical rank {rank} saturated the probe width; raise probe_columns")
    ur = u[:, :rank]
    br = (ur.conj().T @ a1 @ wh[:rank].conj().T) / s[:rank]
    lam, svecs = np.linalg.eig(br)
    inside = [j for j, lam_j in enumerate(lam) if cfg.contains(complex(lam_j), tol=1e-12)]
    return _sorted_pairs(lam[inside], ur @ svecs[:, inside], space)


def smallest_singular_value(t: np.ndarray) -> float:
    """s_min of a complex matrix through a dense SVD."""
    m = np.asarray(t)
    if m.size == 0:
        raise ValueError("matrix is empty")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.svd(m, compute_uv=False)[-1])
