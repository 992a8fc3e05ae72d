"""Eigenvalue machinery shared by the three formulations.

* solve of the quadratic problem (lambda^2 M + lambda E + A) xi = 0, which
  returns one member, Re k >= 0, of each mirror pair {k, -conj k}: densely,
  every eigenvalue, as the standard eigenproblem of its companion form solved
  against M, or, given a window, only the eigenvalues inside it, by Beyn's
  contour method on the eigh reduction of T(k), a block's roots polished
  together and their vectors solved in the same reduction and refined on the
  original matrices, and with the companion as each block's fallback,
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

# A0 has rank 0 when its largest singular value is at most this times the
# largest quadrature term, the scale of its rounding noise, and otherwise the
# rank counts the singular values above this times the largest
_RANK_TOLERANCE = 1e-10

# The windowed DtN contour (see solve_dtn).  On air_cavity, p = 16, h = 0.25 and
# the window (0, 13.5, -2, 0), 128 nodes and 32 probe columns returned the 17
# window roots within 8.3e-12 of the companion's for each of 40 seeds (the
# companion's own error is 5.9e-12); the zeroth moment has rank 14 in each block,
# so 32 columns leave room to detect saturation.  The ellipse inscribed in the
# window, sqrt(2) wider, passes through its corners, and 10% more keeps every window
# root that far inside the contour, where the trapezoid rule is accurate.  Every
# root polished in two Rayleigh steps there and on the other tested windows; one
# step left a quarter of the blocks to the companion.  Each vector, solved in the
# eigh basis, is refined once: at seeds 0-9 on that window and on the bump's
# (p = 12, h = 0.5, d = 1.5, window (0, 11, -1.5, 0)) the worst 2-norm backward
# error was 2.0e-15 unrefined, 1.3e-16 after one step and 1.4e-16 after two (the
# dense bordered LU it replaces: 1.3e-16).  A block whose vector is above
# _BACKWARD_ERROR, a hundred times that, goes to the companion.
_DTN_NODES = 128
_DTN_PROBE = 32
_DTN_WIDEN = 1.1 * np.sqrt(2.0)
_POLISH_STEPS = 4
_REFINE_STEPS = 1
_BACKWARD_ERROR = 1e-14


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


def _block_pairs(found, space) -> list[EigenPair]:
    """The pairs of every block, unfolded into DOF vectors, labelled with the
    block's parity and sorted by (Re k, Im k): ``found`` holds (block, ks,
    block vectors)."""
    pairs = [EigenPair(k=complex(k), vector=vec, space=space, parity=block.parity)
             for block, ks, vecs in found for k, vec in zip(ks, block.unfold(vecs).T)]
    pairs.sort(key=lambda pr: (pr.k.real, pr.k.imag))
    return pairs


def in_window(k: complex, window, slack: float = 0.0) -> bool:
    """Whether k lies in the closed rectangle (re_min, re_max, im_min, im_max), each
    side moved out by ``slack``."""
    re_min, re_max, im_min, im_max = window
    return (re_min - slack <= k.real <= re_max + slack
            and im_min - slack <= k.imag <= im_max + slack)


def window_contour(window, widen: float, nodes: int, probe: int) -> ContourConfig | None:
    """The contour of a window: the ellipse inscribed in the window's part with
    Re k >= 0, its semi-axes times ``widen``, with ``nodes`` quadrature nodes and
    ``probe`` columns; None when that part has no width."""
    re_min, re_max, im_min, im_max = window
    re_min = max(re_min, 0.0)
    if re_min >= re_max:
        return None
    return ContourConfig(center=complex(0.5 * (re_min + re_max), 0.5 * (im_min + im_max)),
                         radius=widen * 0.5 * (re_max - re_min),
                         radius_im=widen * 0.5 * (im_max - im_min),
                         quadrature_nodes=nodes, probe_columns=probe)


def _dtn_companion(a: np.ndarray, m: np.ndarray, e: np.ndarray, static: bool):
    """Every eigenvalue k with Re k >= 0 of one block, but the static mode k = 0 when
    the block holds it (``static``), and its block vector, from the 2n x 2n companion
    matrix (see :func:`solve_dtn`)."""
    n = a.shape[0]
    companion = np.zeros((2 * n, 2 * n))
    companion[:n, n:] = np.eye(n)
    companion[n:] = -np.linalg.solve(m, np.hstack((a, e)))
    lam, vecs = np.linalg.eig(companion)
    keep = np.flatnonzero(lam.imag <= 0)
    if static:  # an exact, simple eigenvalue, so the one of least modulus
        keep = np.delete(keep, np.argmin(np.abs(lam[keep])))
    return 1j * lam[keep], vecs[:n, keep]


def _dtn_contour(a, m, e, chol, cfg: ContourConfig, window, probe, static: bool):
    """The eigenvalues k of one block in ``window``, with Re k >= 0, and their block
    vectors, by Beyn's method on the eigh-reduced T(k), without the static mode k = 0
    when the block holds it (``static``); None when the block must be solved by the
    companion (see :func:`solve_dtn`)."""
    n, cols = probe.shape
    rows = np.flatnonzero(np.any(e != 0.0, axis=1))
    if cols < cfg.probe_columns or not 0 < rows.size <= cols:
        return None
    linv = np.linalg.inv(chol)
    mu, v = np.linalg.eigh(linv @ a @ linv.T)
    w = linv.T @ v  # W^T M W = I and W^T A W = diag(mu)
    g, e_rr = w[rows].T, e[np.ix_(rows, rows)]

    # T^(z) = W^T T(z) W = D + G C G^T, D = diag(mu - z^2), C = -iz E_RR; by Woodbury
    # T^(z)^-1 P = D^-1 (P - G h) at each node, h = C (I + G^T D^-1 G C)^-1 G^T D^-1 P
    zs, weights = _ellipse_nodes(cfg)
    nq = zs.size
    dinv = 1.0 / (mu - zs[:, None] ** 2)
    h = _woodbury(dinv, -1j * zs[:, None, None] * e_rr, g, probe)
    # A0, A1 and the half rule's, each the sum over nodes of its weight times D^-1 (P - G h)
    moments = (weights @ dinv)[:, :, None] * probe
    for mom, wt in zip(moments, weights):
        coupled = ((dinv * wt[:, None]).T @ h.reshape(nq, -1)).reshape(n, rows.size, cols)
        mom -= np.sum(g[:, :, None] * coupled, axis=1)
    # the scale of their rounding: the largest term summed, each factor at its largest
    bound = np.abs(dinv) * (np.abs(probe).max(axis=1) + np.abs(h).max(axis=2) @ np.abs(g).T)
    inside, rank, change = _contour_block(moments, np.abs(weights[0]).max() * bound.max(), cfg)
    if change > np.sqrt(_RANK_TOLERANCE) or rank == cols:
        return None
    ks = np.empty(0, dtype=complex) if inside is None else inside[0]

    # the roots of a real block come in mirror pairs {k, -conj k}: keep the member with
    # Re k > 0, and take a root whose mirror is inside but has no partner as on the axis
    tol = np.sqrt(_RANK_TOLERANCE) * max(cfg.semi_axes)
    kept = []  # (k, on the axis)
    for j, k in enumerate(ks):
        mirror = -np.conj(k)
        if not cfg.contains(mirror):
            if k.real >= 0:
                kept.append((k, False))
            continue
        gap = np.abs(ks - mirror)
        gap[j] = np.inf
        if gap.min() <= tol:
            if k.real > ks[np.argmin(gap)].real:
                kept.append((k, False))
        elif abs(k.real) <= tol:
            kept.append((k, True))
        else:
            return None  # a partner the contour should have found is missing
    kept = [(k, on_axis) for k, on_axis in kept if in_window(k, window, slack=tol)]
    if static:
        zero = [j for j, (k, _) in enumerate(kept) if abs(k) <= tol]
        if len(zero) != 1:
            return None
        del kept[zero[0]]
    ks = np.array([k for k, _ in kept], dtype=complex)
    axis = np.array([on_axis for _, on_axis in kept], dtype=bool)
    polished = _rayleigh_polish(ks, axis, a, m, rows, e_rr, w, mu)
    if polished is None or np.any(np.abs(polished[0] - ks) > tol):  # one went to another root
        return None
    return polished


def _woodbury(dinv, c, g, rhs):
    """h = C (I + G^T D^-1 G C)^-1 G^T D^-1 rhs, so that (D + G C G^T)^-1 rhs =
    D^-1 (rhs - G h), at each row of ``dinv``, the diagonal of D^-1, with C the
    matching (|R|, |R|) matrix of ``c``."""
    gd = g.T * dinv[:, None, :]
    return c @ np.linalg.solve(np.eye(g.shape[1]) + gd @ g @ c, gd @ rhs)


def _real_product(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """mat @ z for a real matrix and real or complex columns: complex ones as one real
    product over the interleaved real and imaginary parts, without a complex copy of mat."""
    if not np.iscomplexobj(z):
        return mat @ z
    z = np.ascontiguousarray(z)
    return (mat @ z.view(float).reshape(len(z), -1)).view(complex)


def _rayleigh_polish(ks, axis, a, m, rows, e_rr, w, mu):
    """The roots ``ks`` of one block, polished together by the two-sided Rayleigh
    functional, and their block vectors; None when a root's steps do not settle or
    overflow, or a vector's backward error is above _BACKWARD_ERROR.

    The roots on the axis (``axis``), k = i lambda with lambda real, are polished
    in real arithmetic, so their Re k = 0 and their vectors are exactly real.  At
    lambda = -ik, x = W (mu + lambda^2)^-1 G s, with s in the kernel of
    I + lambda E_RR G^T (mu + lambda^2)^-1 G (s = 1 when E has one row), solves
    T(k) x = 0 at an eigenvalue; the next lambda is the root nearest the last of
    x^T (A + lambda E + lambda^2 M) x = 0, whose error is the square of x's, and
    each root stops at its own step.  The closed form carries the rounding of W,
    so the vector y then comes from the bordered system [[T(k), conj x], [x^H, 0]]
    [y; s] = [0; 1], regular at a simple eigenvalue however close k is to it: by
    Woodbury in the eigh basis, then refined _REFINE_STEPS times with its residual
    on (A, E, M), block elimination made stable by refinement (Govaerts, SIMAX 12,
    1991).  The backward error is Tisseur's (LAA 309, 2000), with each norm taken
    as its largest column's, a lower bound, so that the error is never understated.
    """
    am = np.vstack((a, m))
    roots, vecs = np.zeros(ks.size, dtype=complex), np.empty((a.shape[0], ks.size), dtype=complex)
    for on_axis in (True, False):
        group = axis == on_axis
        if not group.any():
            continue
        polished = _polish_group(ks[group].imag if on_axis else -1j * ks[group],
                                 am, rows, e_rr, w, mu)
        if polished is None:
            return None
        lam, vecs[:, group] = polished
        if on_axis:
            roots.imag[group] = lam
        else:
            roots[group] = 1j * lam
    return roots, vecs


def _t_times(am, rows, e_rr, lam, y):
    """(A + lambda_j E + lambda_j^2 M) y_j for each column, from one product with A
    and M stacked, E acting on its nonzero rows ``rows`` alone."""
    n = y.shape[0]
    prod = _real_product(am, y)
    ty = prod[:n] + lam * lam * prod[n:]
    ty[rows] += lam * (e_rr @ y[rows])
    return ty


def _polish_group(lam, am, rows, e_rr, w, mu):
    """:func:`_rayleigh_polish` of the roots lambda = -ik, all real or all complex:
    lambda and the vectors as columns, or None."""
    n, r = w.shape[0], lam.size
    g = w[rows].T
    x = np.empty((n, r), dtype=lam.dtype)
    active = np.arange(r)
    for _ in range(_POLISH_STEPS):
        la = lam[active]
        d = mu[:, None] + la * la
        s = np.ones((1, la.size))
        if rows.size > 1:
            cap = np.eye(rows.size) + la[:, None, None] * (e_rr @ (g.T / d.T[:, None]) @ g)
            s = np.linalg.svd(cap)[2][:, -1].conj().T
        xa = _real_product(w, (g @ s) / d)
        prod = _real_product(am, xa)
        c0, c2 = np.sum(xa * prod[:n], axis=0), np.sum(xa * prod[n:], axis=0)
        c1 = np.sum(xa[rows] * (e_rr @ xa[rows]), axis=0)
        disc = c1 * c1 - 4.0 * c2 * c0
        root = np.sqrt(disc if np.iscomplexobj(disc) else np.maximum(disc, 0.0))
        q = -0.5 * np.where((np.conj(c1) * root).real >= 0, c1 + root, c1 - root)
        if not (np.all(np.isfinite(q)) and np.all(q != 0) and np.all(np.isfinite(xa))):
            return None
        near, far = q / c2, c0 / q
        new = np.where(np.abs(near - la) <= np.abs(far - la), near, far)
        step = np.abs(new - la)
        lam[active], x[:, active] = new, xa
        # the rounding of x in W leaves steps of about 1e-12 (1 + |lambda|)
        active = active[step > 1e-10 * (1.0 + np.abs(new))]
        if not active.size:
            break
    else:
        return None

    # T^(lambda) = W^T T(k) W = D + G C G^T with D = diag(mu + lambda^2), C = lambda E_RR
    dinv, coupling = 1.0 / (mu + lam[:, None] ** 2), lam[:, None, None] * e_rr

    def reduced_solve(v):  # T^(lambda_j)^-1 v_j for each column
        return dinv.T * (v - g @ _woodbury(dinv, coupling, g, v.T[:, :, None])[:, :, 0].T)

    c = x.conj()
    c_hat = _real_product(w.T, c)
    u = reduced_solve(c_hat)
    den = np.sum(c_hat * u, axis=0)
    y, s = _real_product(w, u) / den, -1.0 / den
    for _ in range(_REFINE_STEPS):
        r1 = -(_t_times(am, rows, e_rr, lam, y) + s * c)
        r2 = 1.0 - np.sum(c * y, axis=0)
        v = reduced_solve(_real_product(w.T, r1))
        ds = (np.sum(c_hat * v, axis=0) - r2) / den
        y, s = y + _real_product(w, v - ds * u), s + ds
    norm_a, norm_m = np.linalg.norm(am.reshape(2, n, n), axis=1).max(axis=1)
    scale = norm_a + np.abs(lam) * np.linalg.norm(e_rr, axis=0).max() + np.abs(lam) ** 2 * norm_m
    error = np.linalg.norm(_t_times(am, rows, e_rr, lam, y), axis=0) / (
        scale * np.linalg.norm(y, axis=0))
    return (lam, y) if np.all(error <= _BACKWARD_ERROR) else None


def solve_dtn(mats, window=None, rng=None) -> list[EigenPair]:
    """Eigenpairs of (lambda^2 M + lambda E + A) xi = 0 with Re k >= 0, but k = 0,
    and with ``window`` (re_min, re_max, im_min, im_max) only those inside it.

    Each parity block is solved on its own.  M is SPD (its Cholesky
    factorization checks that), so a block of width n is the real standard
    2n x 2n eigenproblem [[0, I], [-M^-1 A, -M^-1 E]] z = lambda z with
    z = (xi, lambda xi), whose lower half is one solve against M with [A, E]
    as right-hand sides, and xi is the top block of each eigenvector.  A
    finite matrix has no infinite eigenvalues, so all 2n are finite.  The
    parameter is lambda = -ik, so eigenvalues map back through k = i lambda.
    A 1 = 0 makes lambda = 0 an exact, simple eigenvalue (Q'(0) = E and
    1^T E 1 = 2 n0) of the block that holds the constants, the even or the one
    block: the static mode, no resonance.  When the window holds k = 0 (or
    there is none), that block drops it before any root is polished: the
    companion its eigenvalue of least modulus, the contour its one kept root
    within the contour's tolerance of k = 0.  Each block's matrix is real, so
    LAPACK returns its complex eigenvalues as exact conjugate pairs
    {lambda, conj lambda}, that is {k, -conj k}; the member with
    Im lambda <= 0 (Re k >= 0) is kept and its mirror dropped, with no
    tolerance involved.

    Without a window every block is solved by its companion, all 2n
    eigenvalues.  With one, a block computes only the eigenvalues near the
    window, by Beyn's contour method (Beyn, LAA 436, 2012) on the ellipse that
    :func:`window_contour` places, _DTN_WIDEN times the one inscribed in the
    window's part with Re k >= 0.  With M = L L^T and L^-1 A L^-T = V diag(mu) V^T
    (eigh), W = L^-T V turns T(k) into diag(mu - k^2) - ik G E_RR G^T, where
    R are the rows of E that are not zero (one in a parity block) and
    G = W[R]^T, so Woodbury gives T^-1 at each of the _DTN_NODES nodes in
    O(n |R|) per probe column.  The moments with a probe of _DTN_PROBE
    columns drawn from ``rng`` (a seed or a numpy Generator) go through the
    same reduction, half-rule and saturation checks as :func:`solve_contour`.
    Roots come in mirror pairs {k, -conj k}: the member with Re k > 0 is kept,
    and a root whose mirror is inside the contour but came back without a
    partner is on the axis and gets Re k = 0.  The roots of a block in the
    window are polished together on its (A, M, E) by
    :func:`_rayleigh_polish`: Rayleigh steps, then each vector from the
    bordered system of T(k), solved by Woodbury in the same eigh basis and
    refined with residuals on (A, M, E), so no dense T(k) is formed or
    factored.  A block narrower than the probe, one whose E has no nonzero
    row or more than the probe has columns, and one whose contour is
    under-resolved, saturates the probe, misses a partner, holds no single
    root at k = 0 where it holds the static mode, meets a singular or
    overflowing step, does not polish to the root it started from, or
    leaves a vector with a backward error above _BACKWARD_ERROR, is solved by
    its companion instead, bit for bit as without a window.

    The pairs are sorted by (Re k, Im k).
    """
    if window is not None and rng is None:  # default_rng(None) would draw OS entropy
        raise TypeError("a windowed solve needs rng, a seed or a numpy Generator")
    contour = None if window is None else window_contour(window, _DTN_WIDEN, _DTN_NODES,
                                                         _DTN_PROBE)
    if contour is not None:
        rng = np.random.default_rng(rng)
    ones = np.ones(mats.a.shape[0])
    drop_static = ((window is None or in_window(0j, window)) and np.linalg.norm(mats.a @ ones)
                   <= 1e-10 * np.linalg.norm(mats.a) * np.linalg.norm(ones))
    found = []
    for block, (a, m, e) in zip(mats.blocks, mats.folded):
        static = drop_static and block.parity != "odd"  # odd vectors miss the constant
        n = a.shape[0]
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise ValueError("the DtN mass matrix M is not symmetric positive definite") from exc
        roots = None
        if contour is not None:
            probe = rng.standard_normal((n, min(_DTN_PROBE, n)))
            # a node or a polished root that meets a pole of the reduction exactly
            # overflows: the companion then solves the block
            try:
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    roots = _dtn_contour(a, m, e, chol, contour, window, probe, static)
            except (np.linalg.LinAlgError, FloatingPointError):
                roots = None
        found.append((block, *(_dtn_companion(a, m, e, static) if roots is None else roots)))
    pairs = _block_pairs(found, mats.space)
    if window is not None:
        pairs = [pr for pr in pairs if in_window(pr.k, window)]
    return pairs


def solve_pml(mats) -> list[EigenPair]:
    """All eigenpairs of At xi = lambda Mt xi with k the principal sqrt of lambda,
    sorted by (Re k, Im k).

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
    return _block_pairs(found, mats.space)


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


def _beyn_reduction(a0: np.ndarray, a1: np.ndarray, term: float):
    """Eigenvalues and (probe-space) eigenvectors from the moments, and the rank;
    None when A0 has rank 0 against ``term``, the largest quadrature term."""
    u, s, wh = np.linalg.svd(a0, full_matrices=False)
    if s[0] <= _RANK_TOLERANCE * term:
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


def _ellipse_nodes(cfg: ContourConfig):
    """The trapezoid nodes z_j on the contour and the (4, nodes) weights of the
    moments A0, A1 and the half rule's: dz/dtheta and z dz/dtheta at each node,
    then both at every other node and zero at the rest."""
    nq = cfg.quadrature_nodes
    rx, ry = cfg.semi_axes
    theta = 2.0 * np.pi * np.arange(nq) / nq
    zs = cfg.center + rx * np.cos(theta) + 1j * ry * np.sin(theta)
    dz = -rx * np.sin(theta) + 1j * ry * np.cos(theta)
    half = np.arange(nq) % 2 == 0
    return zs, np.stack((dz, dz * zs, dz * half, dz * zs * half))


def _contour_block(moments, term: float, cfg: ContourConfig):
    """One block's step from its moment sums sum_j dz_j z_j^p T(z_j)^-1 V, p = 0, 1,
    over all the contour's nodes and over every other node, to the eigenvalues
    inside the contour and their probe-space vectors (None for a zeroth moment of
    rank 0), the rank, and the half rule's change (see :func:`solve_contour`)."""
    nq = cfg.quadrature_nodes
    full = _beyn_reduction(moments[0] / (1j * nq), moments[1] / (1j * nq), term)
    half = _beyn_reduction(moments[2] / (1j * (nq // 2)), moments[3] / (1j * (nq // 2)), term)
    change = _half_rule_change(full, half, cfg)
    if full is None:
        return None, 0, change
    lam, vecs, rank = full
    inside = [j for j, lam_j in enumerate(lam) if cfg.contains(complex(lam_j), tol=1e-12)]
    return (lam[inside], vecs[:, inside]), rank, change


def solve_contour(t_fun, cfg: ContourConfig, blocks, rng,
                  space: MeshedSpace | None = None):
    """Beyn contour-integral eigensolver for analytic matrix functions T(z).

    ``t_fun(z)`` returns the list of the diagonal blocks of T(z), one per
    entry of ``blocks``, whose ``unfold`` maps block eigenvectors back into the
    DOF vectors of ``space``; a T(z) whose blocks do not match ``blocks`` in
    number and sizes is rejected.  Per block, trapezoid moments on the ellipse
    with a random probe V drawn from ``rng`` (a seed or a numpy Generator, so that
    equal inputs give bit-identical output),

        A0 = (1/2 pi i) oint T(z)^-1 V dz,   A1 = (1/2 pi i) oint z T(z)^-1 V dz,

    then an SVD rank truncation of A0 at a relative 1e-10 reduces A1 to a
    small matrix whose eigenvalues are the T-eigenvalues inside the contour.
    Eigenvalues outside are discarded.  A block has none inside when the
    largest singular value of A0 is at most 1e-10 of the largest quadrature
    term, max_j |w_j| max |T(z_j)^-1 V|: rounding at that scale is all that a
    contour without eigenvalues leaves in A0.  The trapezoid rule on a closed
    contour converges geometrically for analytic integrands, so the error of
    the full rule is about the square of that of the half rule, every other
    node.  The eigenvalues of the half rule's moments are compared with the
    full ones inside the contour (Guettel & Tisseur, Acta Numer. 26, 2017,
    sec. 5), and one warning names the block where they differ most, if by
    more than sqrt(1e-10) of the contour's size.
    """
    if rng is None:  # default_rng(None) would draw fresh entropy from the OS
        raise TypeError("rng must be a seed or a numpy Generator, not None")
    rng = np.random.default_rng(rng)
    nq = cfg.quadrature_nodes
    zs, weights = _ellipse_nodes(cfg)

    sizes = [b.size for b in blocks]
    probes = [rng.standard_normal((n, min(cfg.probe_columns, n))) for n in sizes]
    # per block: A0, A1 and the same moments of the half rule
    moments = [np.zeros((4,) + probe.shape, dtype=complex) for probe in probes]
    peaks = [0.0] * len(probes)  # per block: the largest entry of any T(z_j)^-1 V
    for z, wts in zip(zs, weights.T):
        tz = t_fun(z)
        shapes = [t.shape for t in tz]
        if shapes != [(n, n) for n in sizes]:
            raise ValueError(f"T(z) has blocks of shapes {shapes}, but the blocks to unfold "
                             f"its eigenvectors have sizes {sizes}")
        for b, (t, probe, mom) in enumerate(zip(tz, probes, moments)):
            sol = np.linalg.solve(t, probe)
            peaks[b] = max(peaks[b], float(np.abs(sol).max()))
            mom += wts[:, None, None] * sol

    found, worst = [], (0.0, None)
    for block, probe, mom, peak in zip(blocks, probes, moments, peaks):
        term = float(np.abs(weights[0]).max()) * peak
        inside, rank, change = _contour_block(mom, term, cfg)
        if change > worst[0]:
            worst = (change, block)
        if inside is None:
            continue
        if rank == probe.shape[1]:
            name = block.parity or "single"
            hint = (f"the probe of {rank} columns is narrower than the {name} block of "
                    f"{block.size} DOFs, so use a smaller window or raise probe_columns"
                    if rank < block.size else
                    f"the probe spans the {name} block of {block.size} DOFs, so use a "
                    "smaller window or a finer mesh")
            raise ProbeTooSmallError(f"numerical rank {rank} saturated the probe width; {hint}")
        found.append((block, *inside))

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
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        values.append(np.linalg.svd(m, compute_uv=False)[-1])
    if not values:
        raise ValueError("matrix is empty")
    return float(min(values))
