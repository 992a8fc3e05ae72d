"""Eigenvalue machinery shared by the three formulations.

* dense solve of the quadratic problem (lambda^2 M + lambda E + A) xi = 0 as
  the standard eigenproblem of its companion form solved against M, returning
  one member, Re k >= 0, of each exact conjugate pair of that real matrix,
* dense solve of the PML pencil At xi = lambda Mt xi as that of Mt^-1 At,
  returning every principal root k = sqrt(lambda),
* a complex Newton scalar root finder,
* a Beyn-style contour-integral solver for matrix-valued analytic T(k),
* smallest singular values for pseudospectrum maps.

Every solver works on the parity blocks of its matrices (see
:class:`~helmres.mesh_fe.ParityBlock`): one eigenproblem per block, each about
half as wide when the problem is mirror symmetric, and the block eigenvectors
unfolded into DOF vectors that are exactly even or odd.  A problem without
that symmetry is one block, the whole space.

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

    ``parity`` is "even" or "odd" when the vector is one under x -> -x, and
    None when it came from a problem solved as one block.  A pair carries no
    record of the solver that produced it: the eps filter tests it the same
    way whatever its origin.
    """

    k: complex
    vector: np.ndarray
    space: MeshedSpace | None = None
    parity: str | None = None

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

    ``pencil_size`` is summed over the parity blocks.  ``dropped`` counts the
    DtN static mode and one member of each conjugate eigenvalue pair of the
    real DtN companion matrices, and is 0 for the PML, so every computed
    eigenvalue is either returned or counted here.
    """

    pencil_size: int
    dropped: int


def _block_pairs(found, space) -> list[EigenPair]:
    """The pairs of every block, unfolded into DOF vectors, labelled with the
    block's parity and sorted by (Re k, Im k): ``found`` holds (block, ks,
    block vectors)."""
    pairs = [EigenPair(k=complex(k), vector=vec, space=space, parity=block.parity)
             for block, ks, vecs in found for k, vec in zip(ks, block.unfold(vecs).T)]
    pairs.sort(key=lambda pr: (pr.k.real, pr.k.imag))
    return pairs


def _static_mode(a: np.ndarray, pairs: list[EigenPair]) -> int | None:
    """The index of the pair that is the static mode, or None when there is none.

    The static mode is the constant vector, so there is one only when A
    annihilates the constant; it is the unit eigenvector closest in angle to
    the constant.  Odd vectors are orthogonal to the constant, so the odd
    block's eigenvalue of smallest modulus is never taken for it: that is a
    resonance like any other.
    """
    ones = np.ones(a.shape[0])
    if not pairs or np.linalg.norm(a @ ones) > 1e-10 * np.linalg.norm(a) * np.linalg.norm(ones):
        return None
    return int(np.argmax([abs(np.sum(pr.vector)) for pr in pairs]))


def solve_dtn(mats) -> tuple[list[EigenPair], SolveDiagnostics]:
    """Eigenpairs of (lambda^2 M + lambda E + A) xi = 0 with Re k >= 0, but k = 0.

    Each parity block is solved on its own.  M is SPD (its Cholesky
    factorization checks that and is otherwise not used), so a block of width
    n is the real standard 2n x 2n eigenproblem
    [[0, I], [-M^-1 A, -M^-1 E]] z = lambda z with z = (xi, lambda xi), and xi
    is the top block of each eigenvector.  A finite matrix has no infinite
    eigenvalues, so all 2n are finite.  The parameter is lambda = -ik, so
    eigenvalues map back through k = i lambda.  A 1 = 0 makes lambda = 0 an
    exact, simple eigenvalue (Q'(0) = E and 1^T E 1 = 2 n0) of the block that
    holds the constants, the static mode, which is no resonance: it is
    identified by its eigenvector (see :func:`_static_mode`) and dropped.
    Each block's matrix is real, so LAPACK returns its complex eigenvalues as
    exact conjugate pairs {lambda, conj lambda}, that is {k, -conj k}; the
    member with Im lambda <= 0 (Re k >= 0) is kept and its mirror dropped,
    with no tolerance involved.  Both kinds of dropped eigenvalue are counted
    in the diagnostics.
    """
    found, size = [], 0
    for block, (a, m, e) in zip(mats.blocks, mats.folded):
        n = a.shape[0]
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise ValueError("the DtN mass matrix M is not symmetric positive definite") from exc
        companion = np.zeros((2 * n, 2 * n))
        companion[:n, n:] = np.eye(n)
        companion[n:, :n] = -np.linalg.solve(m, a)
        companion[n:, n:] = -np.linalg.solve(m, e)
        lam, vecs = np.linalg.eig(companion)
        keep = np.flatnonzero(lam.imag <= 0)
        found.append((block, 1j * lam[keep], vecs[:n, keep]))
        size += 2 * n
    pairs = _block_pairs(found, mats.space)
    static = _static_mode(mats.a, pairs)
    if static is not None:
        del pairs[static]
    return pairs, SolveDiagnostics(pencil_size=size, dropped=size - len(pairs))


def solve_pml(mats) -> tuple[list[EigenPair], SolveDiagnostics]:
    """All eigenpairs of At xi = lambda Mt xi with k the principal sqrt of lambda.

    Mt has the SPD Hermitian part int n^2 phi phi (Re alpha = 1), so it is
    invertible, and each parity block is solved as the standard eigenproblem
    of Mt^-1 At, which has no infinite eigenvalues.  The principal root k =
    sqrt(lambda), in the closed right half plane, is returned as it is: the
    pencil is complex, so xi is no eigenvector at conj(k), and a root with
    Im k > 0 is not reflected into the fourth quadrant.
    """
    found = []
    for block, (a_tilde, m_tilde) in zip(mats.blocks, mats.folded):
        lam, vecs = np.linalg.eig(np.linalg.solve(m_tilde, a_tilde))
        found.append((block, np.sqrt(lam.astype(complex)), vecs))
    size = mats.a_tilde.shape[0]
    return _block_pairs(found, mats.space), SolveDiagnostics(pencil_size=size, dropped=0)


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


def _beyn_reduction(a0: np.ndarray, a1: np.ndarray):
    """Eigenvalues and (probe-space) eigenvectors from the moments, and the rank;
    None when A0 has rank 0."""
    u, s, wh = np.linalg.svd(a0, full_matrices=False)
    if s[0] <= _RANK_TOLERANCE:
        return None
    rank = int(np.sum(s > _RANK_TOLERANCE * s[0]))
    ur = u[:, :rank]
    lam, svecs = np.linalg.eig((ur.conj().T @ a1 @ wh[:rank].conj().T) / s[:rank])
    return lam, ur @ svecs, rank


def _half_rule_change(full, half, cfg: ContourConfig) -> float:
    """The largest distance from an eigenvalue of the full rule inside the contour
    to the nearest eigenvalue of the half rule, over the contour's size."""
    if full is None:
        return 0.0
    other = np.empty(0) if half is None else half[0]
    worst = max((np.min(np.abs(other - lam), initial=np.inf) for lam in full[0]
                 if cfg.contains(complex(lam), tol=1e-12)), default=0.0)
    return worst / max(cfg.semi_axes)


def solve_contour(t_fun, cfg: ContourConfig, blocks, rng=None,
                  space: MeshedSpace | None = None):
    """Beyn contour-integral eigensolver for analytic matrix functions T(z).

    ``t_fun(z)`` returns the list of the diagonal blocks of T(z), one per
    entry of ``blocks``, whose ``unfold`` maps block eigenvectors back into the
    DOF vectors of ``space``; a T(z) whose blocks do not match ``blocks`` in
    number and sizes is rejected.  Per block, trapezoid moments on the ellipse
    with random probe V,

        A0 = (1/2 pi i) oint T(z)^-1 V dz,   A1 = (1/2 pi i) oint z T(z)^-1 V dz,

    then an SVD rank truncation of A0 at a relative 1e-10 reduces A1 to a
    small matrix whose eigenvalues are the T-eigenvalues inside the contour.
    Eigenvalues outside are discarded.  The trapezoid rule on a closed contour
    converges geometrically for analytic integrands, so the error of the full
    rule is about the square of that of the half rule, every other node.  The
    eigenvalues of the half rule's moments are compared with the full ones
    inside the contour (Guettel & Tisseur, Acta Numer. 26, 2017, sec. 5), and
    one warning names the block where they differ most, if by more than
    sqrt(1e-10) of the contour's size.
    """
    rng = np.random.default_rng(rng)
    rx, ry = cfg.semi_axes
    nq = cfg.quadrature_nodes
    theta = 2.0 * np.pi * np.arange(nq) / nq
    zs = cfg.center + rx * np.cos(theta) + 1j * ry * np.sin(theta)
    dz = -rx * np.sin(theta) + 1j * ry * np.cos(theta)

    t0 = t_fun(zs[0])
    shapes = [t.shape for t in t0]
    if shapes != [(b.size, b.size) for b in blocks]:
        raise ValueError(f"T(z) has blocks of shapes {shapes}, but the blocks to unfold "
                         f"its eigenvectors have sizes {[b.size for b in blocks]}")
    probes = [rng.standard_normal((t.shape[0], min(cfg.probe_columns, t.shape[0]))) for t in t0]
    # per block: A0, A1 and the same moments of the half rule
    moments = [np.zeros((4,) + probe.shape, dtype=complex) for probe in probes]
    for j, (z, w) in enumerate(zip(zs, dz)):
        tz = t0 if j == 0 else t_fun(z)
        for t, probe, mom in zip(tz, probes, moments):
            sol = np.linalg.solve(t, probe)
            mom[0] += w * sol
            mom[1] += (w * z) * sol
            if j % 2 == 0:
                mom[2] += w * sol
                mom[3] += (w * z) * sol

    found, worst = [], (0.0, None)
    for block, probe, mom in zip(blocks, probes, moments):
        full = _beyn_reduction(mom[0] / (1j * nq), mom[1] / (1j * nq))
        half = _beyn_reduction(mom[2] / (1j * (nq // 2)), mom[3] / (1j * (nq // 2)))
        change = _half_rule_change(full, half, cfg)
        if change > worst[0]:
            worst = (change, block)
        if full is None:
            continue
        lam, vecs, rank = full
        if rank == probe.shape[1]:
            raise ProbeTooSmallError(
                f"numerical rank {rank} saturated the probe width; raise probe_columns")
        inside = [j for j, lam_j in enumerate(lam) if cfg.contains(complex(lam_j), tol=1e-12)]
        found.append((block, lam[inside], vecs[:, inside]))

    change, block = worst
    if change > np.sqrt(_RANK_TOLERANCE):
        name = block.parity or "single"
        warnings.warn(f"contour moments of the {name} block are under-resolved: halving the "
                      f"node count from {nq} to {nq // 2} moved the eigenvalues inside the "
                      f"contour by {change:.2e} of its size; increase quadrature_nodes",
                      RuntimeWarning, stacklevel=2)
    return _block_pairs(found, space)


def smallest_singular_value(blocks) -> float:
    """s_min of a block diagonal complex matrix given as the list of its blocks:
    the least over the blocks, through dense SVDs."""
    values = []
    for m in blocks:
        if m.size == 0:
            raise ValueError("matrix is empty")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValueError("matrix has non-finite entries")
        values.append(np.linalg.svd(m, compute_uv=False)[-1])
    if not values:
        raise ValueError("matrix is empty")
    return float(min(values))
