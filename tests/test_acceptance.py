"""End-to-end acceptance checks, one verdict line per numbered check.

Each test prints "acceptance N <label>: PASS/FAIL (measured ...)" so a log
scrape shows every check at its stated tolerance even outside pytest -v.
"""

import dataclasses
import math
import time
import warnings

import numpy as np

from helmres import (BoundaryCondition, ContourConfig, air_filled_cavity_profile,
                     assemble_dtn, build_ls_context, build_mesh, build_space,
                     collocation_matrix, filter_epsilon, filter_epsilons, pseudospectrum,
                     reference_table, slab_dtn_eigenvalues, slab_pml_eigenvalues,
                     slab_profile, solve_contour, solve_dtn)
from helmres.cli import RunConfig, discretize

_CAVITY = air_filled_cavity_profile(1.5, math.sqrt(3.5), math.sqrt(2.5))
_CAVITY_TABLE = reference_table("air_cavity").values
_SLAB = slab_profile(2.0, 1.0)
_SLAB_REFS = slab_dtn_eigenvalues(2.0, 1.0, m_max=8).values


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_1_cavity_spectrum_recovered_after_filtering():
    disc = discretize(RunConfig(problem="air_cavity", formulation="dtn", degree=20,
                                initial_cell_size=0.125, d=2.0))
    pairs = disc.solve()
    assert disc.operator.space.dof_count == 641
    windowed = [p for p in pairs if 0 <= p.k.real <= 13.5 and -2 <= p.k.imag <= 0]
    ctx = build_ls_context(_CAVITY, 20, 0.125)
    kept = np.array([p.k for p in windowed
                     if filter_epsilon(ctx, p).epsilon < 1e-4])
    worst = max(np.abs(kept - t).min() for t in _CAVITY_TABLE)
    _verdict(1, "air-cavity eigenvalues within 1e-7 after keeping eps < 1e-4",
             worst < 1e-7, f"{len(kept)} kept, worst distance {worst:.3e}")


def test_1_windowed_cavity_spectrum_recovered_after_filtering():
    # acceptance 1's check on the windowed DtN path of every CLI run with --window:
    # the contour's pairs and their polished vectors must pass the filter too
    window = (0.0, 13.5, -2.0, 0.0)
    disc = discretize(RunConfig(problem="air_cavity", formulation="dtn", degree=16,
                                initial_cell_size=0.25, d=2.0, window=window))
    pairs = disc.solve()
    epsilons = filter_epsilons(disc.ls_context, pairs)
    kept = np.array([p.k for p, eps in zip(pairs, epsilons) if eps < 1e-4])
    re_min, re_max, im_min, im_max = window
    table = [t for t in _CAVITY_TABLE if re_min <= t.real <= re_max and im_min <= t.imag <= im_max]
    assert table
    worst = max(np.abs(kept - t).min() for t in table)
    _verdict(1, "windowed air-cavity eigenvalues within 1e-7 after keeping eps < 1e-4",
             worst < 1e-7, f"{len(kept)} of {len(pairs)} kept, worst distance {worst:.3e}")


def test_2_bump_spectrum_recovered():
    disc = discretize(RunConfig(problem="bump", formulation="dtn", degree=20,
                                initial_cell_size=0.125, d=1.5))
    pairs = disc.solve()
    assert disc.operator.space.dof_count == 481
    ks = np.array([p.k for p in pairs])
    worst = max(np.abs(ks - t).min() for t in reference_table("bump").values)
    _verdict(2, "bump eigenvalues within 1e-7 of the reference set",
             worst < 1e-7, f"worst distance {worst:.3e}")


def test_3_slab_error_decays_under_p_refinement():
    errors = {m: [] for m in range(6)}
    for degree in range(2, 13):
        pairs = discretize(RunConfig(problem="slab", formulation="dtn", degree=degree,
                                     initial_cell_size=0.5, d=1.0)).solve()
        ks = np.array([p.k for p in pairs])
        for m in range(6):
            errors[m].append(np.abs(ks - _SLAB_REFS[m]).min())
    factors = []
    for m, errs in errors.items():
        stop = len(errs)
        for i, e in enumerate(errs):
            if e < 1e-10:  # below the floor, roundoff owns the error
                stop = i + 1
                break
        seq = errs[:stop]
        factors.append((seq[0] / seq[-1]) ** (1.0 / (len(seq) - 1)))
    ok = min(factors) >= 3.0
    _verdict(3, "per-degree error reduction factor >= 3 down to 1e-10",
             ok, "mean factors " + ", ".join(f"{f:.1f}" for f in factors))


def test_4_slab_h_refinement_order_is_twice_the_degree():
    orders = {}
    for degree in (1, 2, 3):
        errs = []
        for level in range(4):
            pairs = discretize(RunConfig(problem="slab", formulation="dtn",
                                         degree=degree, initial_cell_size=0.5, d=1.0,
                                         refinements=level)).solve()
            ks = np.array([p.k for p in pairs])
            errs.append(np.abs(ks - _SLAB_REFS[1]).min())
        orders[degree] = math.log2(errs[0] / errs[3]) / 3.0
    ok = all(abs(orders[p] - 2 * p) <= 0.3 for p in orders)
    _verdict(4, "observed eigenvalue order 2p +- 0.3 for p = 1, 2, 3",
             ok, "orders " + ", ".join(f"p={p}: {o:.2f}" for p, o in orders.items()))


def test_5_absorbing_layer_artifacts_found_flagged_and_absent_from_dtn():
    common = dict(problem="slab", eta=1.0, degree=10, initial_cell_size=0.5, d=2.0)
    disc = discretize(RunConfig(formulation="pml", x_c=3.0, ell=5.0, sigma0=5.0, **common))
    medium = disc.medium
    family = slab_pml_eigenvalues(1.0, disc.pml, m_max=3).values
    pml_pairs = disc.solve()

    matches = []
    for target in family:
        pair = min(pml_pairs, key=lambda p: abs(p.k - target))
        matches.append((abs(pair.k - target), pair))
    worst_dist = max(d for d, _ in matches)

    ctx = build_ls_context(medium, 10, 0.5)
    eps_min = min(filter_epsilon(ctx, pair).epsilon for _, pair in matches)

    dtn_pairs = discretize(RunConfig(formulation="dtn", **common)).solve()
    nontrivial = np.array([p.k for p in dtn_pairs if abs(p.k) > 1e-8])
    gap = min(np.abs(nontrivial - target).min() for target in family)

    ok = worst_dist < 1e-3 and eps_min >= 0.5 and gap > 0.2
    _verdict(5, "layer-only eigenvalue family: found, eps >= 0.5, no DtN twin",
             ok, f"family distance {worst_dist:.1e}, min eps {eps_min:.2f}, "
                 f"DtN gap {gap:.2f}")


def test_6_filter_separates_true_modes_from_spurious_by_an_order_of_magnitude():
    disc = discretize(RunConfig(problem="air_cavity", formulation="pml", degree=10,
                                initial_cell_size=0.5, d=2.0, x_c=3.0, ell=5.0,
                                sigma0=5.0))
    pairs = disc.solve()
    angle = disc.critical_angle
    ctx = build_ls_context(_CAVITY, 10, 0.5)
    near, far = [], []
    for pair in pairs:
        dist = np.abs(_CAVITY_TABLE - pair.k).min()
        eps = filter_epsilon(ctx, pair).epsilon
        if dist < 1e-3:
            near.append(eps)
        elif dist > 0.2 and np.angle(pair.k) >= angle:
            far.append(eps)
    ok = near and far and max(near) < 1e-2 and min(far) > 1e-1
    _verdict(6, "eps < 1e-2 near references, eps > 1e-1 far from them",
             bool(ok), f"{len(near)} near (max eps {max(near):.2e}), "
                       f"{len(far)} far (min eps {min(far):.2e})")


def test_7_contour_solver_returns_exact_eigenvalue_counts():
    ctx = build_ls_context(_SLAB, 8, 0.25)
    cfg = ContourConfig(center=1.178 - 0.2747j, radius=0.55, quadrature_nodes=96)
    pairs = solve_contour(lambda z: collocation_matrix(ctx, z), cfg, rng=0,
                          space=ctx.space, blocks=ctx.blocks)
    slab_worst = max(min(abs(p.k - r) for r in _SLAB_REFS[1:3]) for p in pairs)
    slab_ok = len(pairs) == 2 and slab_worst < 1e-7

    cavity_ctx = build_ls_context(_CAVITY, 12, 0.25)
    cavity_cfg = ContourConfig(center=complex(3.19125, -0.3986), radius=1.70,
                               radius_im=0.09, quadrature_nodes=64, probe_columns=16)
    # eigenvalues sit close to this flat contour, yet the half rule finds them too
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="contour moments")
        cavity_pairs = solve_contour(lambda z: collocation_matrix(cavity_ctx, z),
                                     cavity_cfg, rng=7, space=cavity_ctx.space,
                                     blocks=cavity_ctx.blocks)
    targets = sorted(int(np.abs(_CAVITY_TABLE - p.k).argmin()) for p in cavity_pairs)
    cavity_worst = max(np.abs(_CAVITY_TABLE - p.k).min() for p in cavity_pairs)
    cavity_ok = len(cavity_pairs) == 2 and targets == [2, 6] and cavity_worst < 1e-6

    _verdict(7, "exactly the enclosed eigenvalues, at tolerance",
             slab_ok and cavity_ok,
             f"slab 2 within {slab_worst:.1e}, cavity {targets} within "
             f"{cavity_worst:.1e}")


def test_8_resolvent_grid_dips_only_at_eigenvalues():
    disc = discretize(RunConfig(problem="air_cavity", formulation="ls", degree=8,
                                initial_cell_size=0.25))
    smin = pseudospectrum(disc.operator.t, (0.0, 8.0, -1.2, 0.0), (81, 60))
    re_points, im_points = np.linspace(0.0, 8.0, 81), np.linspace(-1.2, 0.0, 60)
    re, im = np.meshgrid(re_points, im_points)
    dist = np.min(np.abs((re + 1j * im)[..., None] - _CAVITY_TABLE[None, None, :]),
                  axis=2)
    iy, ix = np.unravel_index(np.argmin(smin), smin.shape)
    cell_diag = math.hypot(re_points[1] - re_points[0], im_points[1] - im_points[0])
    gmin = smin[iy, ix]
    far_min = smin[dist > 0.3].min()
    ok = dist[iy, ix] <= cell_diag and far_min >= 100.0 * gmin
    _verdict(8, "grid minimum at an eigenvalue, 100x larger 0.3 away",
             ok, f"min {gmin:.2e} at distance {dist[iy, ix]:.2e} "
                 f"(cell diagonal {cell_diag:.2e}), far/min ratio {far_min / gmin:.0f}")


def test_9_property_suites_run_in_under_a_minute(tmp_path):
    start = time.perf_counter()

    # linearization residual: every returned pair solves the quadratic problem
    bps = [b for b in _SLAB.breakpoints if -2.0 < b < 2.0]
    space = build_space(build_mesh((-2.0, 2.0), bps, 0.25), 6, BoundaryCondition.NONE)
    mats = assemble_dtn(space, _SLAB)
    scale = (np.linalg.norm(mats.a) + np.linalg.norm(mats.e) + np.linalg.norm(mats.m))
    residual_ok = True
    for pair in solve_dtn(mats):
        lam = -1j * pair.k
        r = (mats.a + lam * mats.e + lam**2 * mats.m) @ pair.vector
        bound = 1e-10 * (np.linalg.norm(mats.a) + abs(lam) * np.linalg.norm(mats.e)
                         + abs(lam) ** 2 * np.linalg.norm(mats.m))
        residual_ok = residual_ok and np.linalg.norm(r) <= bound

    # quadrature refinement: assembled matrices already converged in rule order
    finer = assemble_dtn(space, _SLAB, quad_order=space.degree + 9)
    quad_ok = (np.linalg.norm(finer.a - mats.a) <= 1e-10 * scale
               and np.linalg.norm(finer.m - mats.m) <= 1e-10 * scale)
    ctx = build_ls_context(_SLAB, 6, 0.25)
    from helmres import EigenPair, LsContext
    rng = np.random.default_rng(5)
    probe = EigenPair(k=0.9 - 0.3j, vector=rng.standard_normal(ctx.space.dof_count),
                      space=ctx.space)
    fine_ctx = LsContext(space=ctx.space, medium=ctx.medium,
                         quad_order=2 * ctx.quad_order)
    e0 = filter_epsilon(ctx, probe).epsilon
    e1 = filter_epsilon(fine_ctx, probe).epsilon
    quad_ok = quad_ok and abs(e1 - e0) < 0.01 * e0

    # eps scalar invariance
    scaled = EigenPair(k=probe.k, vector=(2.0 + 1.5j) * probe.vector, space=ctx.space)
    eps_ok = abs(filter_epsilon(ctx, scaled).epsilon - e0) <= 1e-12 * e0

    # determinism: identical config and seed give byte-identical output files
    from helmres.cli import RunConfig, emit_outputs, run_pipeline
    base = RunConfig(problem="slab", formulation="ls", degree=6,
                     initial_cell_size=0.25, window=(0.4, 1.2, -0.5, -0.05), seed=3)
    blobs = []
    for sub in ("first", "second"):
        cfg = dataclasses.replace(base, out_dir=str(tmp_path / sub))
        emit_outputs(run_pipeline(cfg))
        blobs.append((tmp_path / sub / "eigenvalues.csv").read_bytes())
    determinism_ok = blobs[0] == blobs[1] and len(blobs[0].splitlines()) == 2

    elapsed = time.perf_counter() - start
    ok = residual_ok and quad_ok and eps_ok and determinism_ok and elapsed < 60.0
    _verdict(9, "residual, quadrature, scaling, determinism properties in < 60 s",
             ok, f"residual {residual_ok}, quadrature {quad_ok}, scaling {eps_ok}, "
                 f"determinism {determinism_ok}, {elapsed:.1f} s")
