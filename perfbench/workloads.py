"""The benchmark's workloads: CLI arguments made from a seed, and output checks.

All three run the ``air_cavity`` problem, whose reference table below
(16 resonances up to Re k ~ 12.4) is copied from the paper rather than read
from the program, so a change to the program's own table cannot make its
output pass.  Each check reads only the files the CLI wrote and raises
``CheckFailed`` when the output is wrong; it returns the accuracy facts the
benchmark reports.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import Callable

AIR_CAVITY_TABLE = tuple(complex(re, im) for re, im in (
    (0.0, -0.8948801287),
    (0.4869949494, -0.6502632860),
    (1.5955486049, -0.3950551466),
    (2.7503593706, -0.5843773974),
    (3.3047923378, -0.8909296467),
    (3.7465666834, -0.7159810538),
    (4.7869777032, -0.4021092410),
    (5.9689601644, -0.5268047778),
    (6.6087515863, -0.8788560394),
    (7.0248667636, -0.7730423533),
    (7.9794721839, -0.4166038034),
    (9.1753687526, -0.4808796847),
    (9.9108347715, -0.8579829521),
    (10.3153076002, -0.8180915326),
    (11.1740110180, -0.4393352673),
    (12.3746790920, -0.4461923754),
))

# Acceptance-style tolerances.
TABLE_MATCH = 1e-7        # a table entry counts as recovered within this distance
DTN_KEEP_EPS = 1e-4       # acceptance 1: pairs kept by the filter
NEAR_DIST, FAR_DIST = 1e-3, 0.2   # acceptance 6: near / far split by table distance
NEAR_MAX_EPS, FAR_MIN_EPS = 1e-2, 1e-1

FILTER_WINDOW = (0.0, 13.5, -2.0, 0.0)
LS_WINDOW = (0.0, 8.0, -1.2, 0.0)
LS_GRID = (12, 9)
LS_SHIFT = (0.1, 0.04)    # largest seeded move of LS_WINDOW, right and down
LS_ENCLOSED = 9           # table entries inside the ellipse inscribed in LS_WINDOW


class CheckFailed(AssertionError):
    """The CLI's output does not meet the workload's correctness check."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its argv and the check of the files it writes."""

    argv: list
    check: Callable[[str], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_independent: bool
    make_op: Callable[[int, str], Op]


def read_eigenvalues(out_dir: str) -> list:
    """Rows of eigenvalues.csv as (k, eps or None, feasible)."""
    with open(f"{out_dir}/eigenvalues.csv", newline="", encoding="utf-8") as fh:
        return [(complex(float(r["re_k"]), float(r["im_k"])),
                 float(r["epsilon"]) if r["epsilon"] else None,
                 r["feasible"] == "true")
                for r in csv.DictReader(fh)]


def read_grid(out_dir: str) -> list:
    """Rows of pseudospectrum.csv as (k, s_min)."""
    with open(f"{out_dir}/pseudospectrum.csv", newline="", encoding="utf-8") as fh:
        return [(complex(float(r["re_k"]), float(r["im_k"])), float(r["smin"]))
                for r in csv.DictReader(fh)]


def _distance(z: complex, points) -> float:
    return min((abs(z - p) for p in points), default=math.inf)


def _in_window(k: complex, window) -> bool:
    re_min, re_max, im_min, im_max = window
    return re_min <= k.real <= re_max and im_min <= k.imag <= im_max


def _in_ellipse(k: complex, window) -> bool:
    """Inside the ellipse the CLI inscribes in ``window`` for its contour."""
    re_min, re_max, im_min, im_max = window
    cx, cy = 0.5 * (re_min + re_max), 0.5 * (im_min + im_max)
    rx, ry = 0.5 * (re_max - re_min), 0.5 * (im_max - im_min)
    return ((k.real - cx) / rx) ** 2 + ((k.imag - cy) / ry) ** 2 <= 1.0


def _digits(worst: float) -> float:
    return -math.log10(max(worst, 1e-16))


def _worst_table_distance(targets, computed) -> float:
    """Table -> computed direction: every target must have a computed neighbour."""
    if not targets:
        raise CheckFailed("no table entry lies in the workload's region")
    return max(_distance(t, computed) for t in targets)


def _filter_argv(formulation_args: list, out_dir: str) -> list:
    return (["filter", "--problem", "air_cavity"] + formulation_args
            + ["--window", *map(repr, FILTER_WINDOW), "--out", out_dir])


def check_dtn(out_dir: str) -> dict:
    """Acceptance 1's test: every table entry in the window has a kept pair within 1e-7.

    The CSV's ref_dist column is not used: it measures computed -> table,
    which reports large distances for true modes past the table's last entry.
    """
    rows = read_eigenvalues(out_dir)
    kept = [k for k, eps, _ in rows if eps is not None and eps < DTN_KEEP_EPS]
    targets = [t for t in AIR_CAVITY_TABLE if _in_window(t, FILTER_WINDOW)]
    worst = _worst_table_distance(targets, kept)
    if worst > TABLE_MATCH:
        raise CheckFailed(f"{len(kept)} kept pairs; worst table distance {worst:.3e}")
    return {"ref_digits": _digits(worst), "pairs": len(rows), "kept": len(kept)}


def check_pml(out_dir: str) -> dict:
    """Acceptance 6's split: eps < 1e-2 near the table, eps > 1e-1 far from it."""
    rows = read_eigenvalues(out_dir)
    near, far = [], []
    for k, eps, feasible in rows:
        if eps is None:
            raise CheckFailed(f"pair {k} was not filtered")
        dist = _distance(k, AIR_CAVITY_TABLE)
        if dist < NEAR_DIST:
            near.append(eps)
        elif dist > FAR_DIST and feasible:
            far.append(eps)
    if not near or not far:
        raise CheckFailed(f"{len(near)} near and {len(far)} far pairs")
    if max(near) >= NEAR_MAX_EPS or min(far) <= FAR_MIN_EPS:
        raise CheckFailed(f"near max eps {max(near):.3e}, far min eps {min(far):.3e}")
    targets = [t for t in AIR_CAVITY_TABLE if _in_window(t, FILTER_WINDOW)]
    worst = _worst_table_distance(targets, [k for k, _, _ in rows])
    return {"ref_digits": _digits(worst), "pairs": len(rows), "near": len(near),
            "far": len(far), "filter_gap_decades": math.log10(min(far) / max(near))}


def check_ls(out_dir: str, window) -> dict:
    """The contour returns exactly the enclosed table entries; the grid dips at one."""
    ks = [k for k, _, _ in read_eigenvalues(out_dir)]
    enclosed = [t for t in AIR_CAVITY_TABLE if _in_ellipse(t, window)]
    worst = _worst_table_distance(enclosed, ks)
    stray = max((_distance(k, enclosed) for k in ks), default=0.0)
    if len(ks) != len(enclosed) or worst > TABLE_MATCH or stray > TABLE_MATCH:
        raise CheckFailed(f"{len(ks)} pairs for {len(enclosed)} enclosed entries; "
                          f"worst {worst:.3e}, stray {stray:.3e}")

    grid = read_grid(out_dir)
    nx, ny = LS_GRID
    if len(grid) != nx * ny:
        raise CheckFailed(f"grid has {len(grid)} points, expected {nx * ny}")
    re_min, re_max, im_min, im_max = window
    cell_diag = math.hypot((re_max - re_min) / (nx - 1), (im_max - im_min) / (ny - 1))
    kmin, _ = min(grid, key=lambda row: row[1])
    if _distance(kmin, AIR_CAVITY_TABLE) > cell_diag:
        raise CheckFailed(f"grid minimum at {kmin} is more than a cell diagonal "
                          f"({cell_diag:.3e}) from every table entry")
    return {"ref_digits": _digits(worst), "pairs": len(ks)}


def _dtn_op(seed: int, out_dir: str) -> Op:
    argv = _filter_argv(["--formulation", "dtn", "--p", "16", "--h", "0.25", "--d", "2"],
                        out_dir)
    return Op(argv, check_dtn)


def _pml_op(seed: int, out_dir: str) -> Op:
    argv = _filter_argv(["--formulation", "pml", "--p", "10", "--h", "0.5", "--d", "2",
                         "--xc", "3", "--ell", "5", "--sigma0", "5"], out_dir)
    return Op(argv, check_pml)


def ls_window(seed: int) -> tuple:
    """LS_WINDOW moved right by up to 0.1 and down by up to 0.04, under a grid cell.

    The window also places the contour, so the offset keeps the contour clear
    of the table entries next to it.  Entry 0 and the mirror images of the
    entries lie just left of the ellipse, and moving left by 0.1 or more costs
    over two digits of accuracy.  Entry 10 lies just right of it and stays
    outside for these offsets, so the same 9 entries are enclosed.
    """
    rng = random.Random(seed)
    re_min, re_max, im_min, im_max = LS_WINDOW
    dx = rng.random() * LS_SHIFT[0]
    dy = -rng.random() * LS_SHIFT[1]
    return (re_min + dx, re_max + dx, im_min + dy, im_max + dy)


def _ls_op(seed: int, out_dir: str) -> Op:
    window = ls_window(seed)
    enclosed = sum(_in_ellipse(t, window) for t in AIR_CAVITY_TABLE)
    if enclosed != LS_ENCLOSED:
        raise ValueError(f"seed {seed} puts {enclosed} table entries in the contour")
    argv = ["solve", "--problem", "air_cavity", "--formulation", "ls", "--p", "8",
            "--h", "0.25", "--window", *map(repr, window),
            "--pseudo", *map(str, LS_GRID), "--seed", str(seed % 2**32), "--out", out_dir]
    return Op(argv, lambda out: check_ls(out, window))


WORKLOADS = {w.name: w for w in (
    Workload("dtn-cavity", "quadratic DtN pencil, 514x514 QZ about half a call; "
             "little LS kernel work", True, _dtn_op),
    Workload("pml-cavity", "PML linear pencil with 47 windowed pairs; the eps filter "
             "dominates and the pencil is complex symmetric", True, _pml_op),
    Workload("ls-cavity", "LS contour solve, filter and 12x9 s_min grid; collocation "
             "kernel dominates, no pencil", False, _ls_op),
)}
