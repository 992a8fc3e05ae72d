"""End-to-end pipelines and the command-line interface.

A run is configured by a :class:`RunConfig`, executed by
:func:`run_pipeline` (discretize, solve, window, filter, match against
references, optional s_min grid), and persisted by :func:`emit_outputs`.
:func:`discretize` is the one place a configuration becomes a mesh, matrices
and a matrix function T(k).  Subcommands:

    solve           full pipeline, writes eigenvalues.csv and run.json
    filter          pipeline with the pseudomode filter forced on, prints a
                    true/spurious classification at a report-time threshold
    pseudospectrum  s_min grid over a k-rectangle, writes pseudospectrum.csv
    reference       emits a reference eigenvalue set as CSV + JSON
    convergence     sweeps p or h and reports observed eigenvalue-error orders

Configuration may come from a JSON file (--config); explicit flags override
file values, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from .assembly import DtnMatrices, PmlMatrices, assemble_dtn, assemble_pml
from .eigen import ContourConfig, EigenPair, canonical_fourth_quadrant, solve_contour, \
    solve_dtn, solve_pml
from .lippmann import FilterReport, LsContext, NoResonatorSupportError, PseudospectrumGrid, \
    build_ls_context, collocation_matrix, filter_epsilon, pseudospectrum, write_grid_csv
from .media import MediumProfile, PmlConfig, air_filled_cavity_profile, bump_profile, \
    critical_angle, slab_profile
from .mesh_fe import BoundaryCondition, MeshedSpace, build_mesh, build_space
from .reference import ReferenceSet, reference_table, slab_dtn_eigenvalues

_PROBLEMS = ("slab", "air_cavity", "bump")
_FORMULATIONS = ("dtn", "pml", "ls")


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; carries the stage name and the original cause."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"pipeline stage '{stage}' failed: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run.  JSON round-trips exactly."""

    problem: str
    formulation: str
    degree: int = 4
    initial_cell_size: float = 0.25
    refinements: int = 0
    d: float = 2.0
    sigma0: float = 5.0
    x_c: float = 3.0
    ell: float = 5.0
    window: tuple[float, float, float, float] | None = None
    apply_filter: bool = True
    pseudo_resolution: tuple[int, int] | None = None
    out_dir: str = "out"
    seed: int = 0
    eta: float | None = None
    epsilon_threshold: float = 1e-2

    def __post_init__(self):
        if self.problem not in _PROBLEMS:
            raise ValueError(f"problem must be one of {_PROBLEMS}, got {self.problem!r}")
        if self.formulation not in _FORMULATIONS:
            raise ValueError(
                f"formulation must be one of {_FORMULATIONS}, got {self.formulation!r}")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.initial_cell_size <= 0:
            raise ValueError("initial_cell_size must be positive")
        if self.refinements < 0:
            raise ValueError("refinements must be >= 0")
        if self.window is not None:
            object.__setattr__(self, "window", tuple(float(v) for v in self.window))
            re_min, re_max, im_min, im_max = self.window
            if not (re_min < re_max and im_min < im_max):
                raise ValueError(f"window must satisfy re_min < re_max and "
                                 f"im_min < im_max, got {self.window}")
        if self.pseudo_resolution is not None:
            object.__setattr__(self, "pseudo_resolution",
                               tuple(int(v) for v in self.pseudo_resolution))
            if min(self.pseudo_resolution) < 1:
                raise ValueError("pseudo_resolution entries must be >= 1")
        if self.epsilon_threshold <= 0:
            raise ValueError("epsilon_threshold must be positive")
        if self.problem == "bump" and self.eta is not None:
            raise ValueError("eta must be unset for bump: its profile has no index parameter")

    def to_json_dict(self) -> dict:
        raw = dataclasses.asdict(self)
        for key in ("window", "pseudo_resolution"):
            if raw[key] is not None:
                raw[key] = list(raw[key])
        return raw

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        kwargs = dict(data)
        for key in ("window", "pseudo_resolution"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass(frozen=True, eq=False)
class ReportRow:
    index: int
    k: complex
    epsilon: float | None
    feasible: bool
    ref_index: int | None
    ref_distance: float | None


@dataclass(frozen=True, eq=False)
class RunReport:
    """Pipeline result: one row per windowed eigenvalue, with metadata."""

    config: RunConfig
    rows: tuple
    dof_count: int
    pencil_size: int | None
    elapsed_seconds: float
    grid: PseudospectrumGrid | None


def _problem_eta(cfg: RunConfig) -> float:
    if cfg.eta is not None:
        return cfg.eta
    return {"slab": 2.0, "air_cavity": math.sqrt(2.5)}[cfg.problem]


def medium_for(cfg: RunConfig) -> MediumProfile:
    if cfg.problem == "slab":
        return slab_profile(_problem_eta(cfg), 1.0)
    if cfg.problem == "air_cavity":
        return air_filled_cavity_profile(1.5, math.sqrt(3.5), _problem_eta(cfg))
    return bump_profile()


def reference_for(cfg: RunConfig, medium: MediumProfile) -> ReferenceSet | None:
    """The reference set of the medium actually solved, or None when there is none.

    Closed form for the slab; the tables otherwise, the air_cavity one only at
    the eta = sqrt(2.5) it was computed for.
    """
    if cfg.problem == "slab":
        eta = _problem_eta(cfg)
        if eta <= 1.0:
            return None  # no closed-form resonances to compare against
        return slab_dtn_eigenvalues(eta, medium.resonator_halfwidth, m_max=40)
    if cfg.problem == "air_cavity" and abs(_problem_eta(cfg) - math.sqrt(2.5)) > 1e-12:
        return None
    return reference_table(cfg.problem)


@dataclass(frozen=True, eq=False)
class Discretization:
    """One RunConfig as a medium, its reference set, and the matrix function T(k).

    ``mats`` holds the DtN or PML matrices and is None for ls.  The LS context
    is built on first use, so a run builds it at most once, and only when the
    contour, the filter or the grid needs it.
    """

    config: RunConfig
    medium: MediumProfile
    pml: PmlConfig | None
    critical_angle: float | None
    mats: DtnMatrices | PmlMatrices | None
    reference: ReferenceSet | None

    @functools.cached_property
    def ls_context(self) -> LsContext:
        cfg = self.config
        return build_ls_context(self.medium, cfg.degree, cfg.initial_cell_size,
                                cfg.refinements)

    @property
    def space(self) -> MeshedSpace:
        return self.ls_context.space if self.mats is None else self.mats.space

    def t(self, k: complex) -> np.ndarray:
        """T(k), singular exactly at the eigenvalues k.

        ls: I - K(k);  dtn: A + lambda E + lambda^2 M at lambda = -ik;
        pml: At - k^2 Mt.
        """
        if self.mats is None:
            return collocation_matrix(self.ls_context, k)
        if self.config.formulation == "dtn":
            lam = -1j * k
            return self.mats.a + lam * self.mats.e + lam**2 * self.mats.m
        return self.mats.a_tilde - k**2 * self.mats.m_tilde

    def solve(self) -> tuple[list[EigenPair], int | None]:
        """Eigenpairs sorted by Re k, and the pencil size (None for the contour).

        dtn and pml pairs are reduced to the fourth quadrant; ls solves on the
        ellipse inscribed in the window with a probe seeded by ``seed``.
        """
        cfg = self.config
        if self.mats is not None:
            solver = solve_dtn if cfg.formulation == "dtn" else solve_pml
            pairs, diag = solver(self.mats)
            return canonical_fourth_quadrant(pairs), diag.pencil_size
        if cfg.window is None:
            raise ValueError("the ls formulation needs --window to place its contour")
        space = self.ls_context.space
        re_min, re_max, im_min, im_max = cfg.window
        contour = ContourConfig(
            center=complex(0.5 * (re_min + re_max), 0.5 * (im_min + im_max)),
            radius=0.5 * (re_max - re_min),
            radius_im=0.5 * (im_max - im_min),
            quadrature_nodes=64,
            probe_columns=min(24, space.dof_count),
        )
        rng = np.random.default_rng(cfg.seed)
        return solve_contour(self.t, contour, rng, formulation="ls", space=space), None


def discretize(cfg: RunConfig) -> Discretization:
    """The medium, reference set and, for dtn and pml, the mesh and matrices of a run."""
    medium = medium_for(cfg)
    reference = reference_for(cfg, medium)
    if cfg.formulation == "ls":
        return Discretization(cfg, medium, None, None, None, reference)
    if cfg.formulation == "pml":
        pml = PmlConfig(a=medium.resonator_halfwidth, d=cfg.d, x_c=cfg.x_c,
                        ell=cfg.ell, sigma0=cfg.sigma0)
        half, bc = cfg.ell, BoundaryCondition.DIRICHLET_BOTH_ENDS
        extra = (-cfg.x_c, -cfg.d, cfg.d, cfg.x_c)
    else:
        pml, half, bc, extra = None, cfg.d, BoundaryCondition.NONE, ()
    bps = [b for b in medium.breakpoints + extra if -half < b < half]
    mesh = build_mesh((-half, half), bps, cfg.initial_cell_size, cfg.refinements)
    space = build_space(mesh, cfg.degree, bc)
    if pml is None:
        return Discretization(cfg, medium, None, None, assemble_dtn(space, medium), reference)
    return Discretization(cfg, medium, pml, critical_angle(pml),
                          assemble_pml(space, medium, pml), reference)


def _stage(name: str, fn, *args):
    """fn(*args), with any failure raised as a PipelineStageError of stage ``name``."""
    try:
        return fn(*args)
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def _window_stage(cfg: RunConfig, pairs):
    if cfg.window is None:
        return list(pairs)
    re_min, re_max, im_min, im_max = cfg.window
    return [p for p in pairs
            if re_min <= p.k.real <= re_max and im_min <= p.k.imag <= im_max]


def _filter_stage(disc: Discretization, pairs) -> list[FilterReport]:
    ctx, angle = disc.ls_context, disc.critical_angle
    reports = []
    for pair in pairs:
        try:
            reports.append(filter_epsilon(ctx, pair, critical_angle=angle))
        except NoResonatorSupportError:
            # nothing lives on the resonator, so it cannot be a resonance mode
            feasible = True if angle is None else bool(np.angle(pair.k) >= angle)
            reports.append(FilterReport(k=pair.k, epsilon=float("inf"),
                                        feasible=feasible, formulation=pair.formulation))
    return reports


def _report_stage(disc: Discretization, pairs, reports) -> list[ReportRow]:
    rows = []
    for j, pair in enumerate(pairs):
        eps = reports[j].epsilon if reports else None
        feasible = reports[j].feasible if reports else True
        if disc.reference is not None:
            idx, dist = disc.reference.nearest(pair.k)
        else:
            idx, dist = None, None
        rows.append(ReportRow(index=j, k=pair.k, epsilon=eps, feasible=feasible,
                              ref_index=idx, ref_distance=dist))
    return rows


def _grid_stage(disc: Discretization) -> PseudospectrumGrid:
    cfg = disc.config
    if cfg.window is None or cfg.pseudo_resolution is None:
        raise ValueError("pseudospectrum needs both --window and --pseudo")
    return pseudospectrum(disc.t, cfg.window, cfg.pseudo_resolution, cfg.formulation)


def run_pipeline(cfg: RunConfig) -> RunReport:
    """discretize -> solve -> window -> filter -> match references -> s_min grid.

    The grid stage runs only when ``cfg.pseudo_resolution`` is set.
    """
    start = time.perf_counter()
    disc = _stage("setup", discretize, cfg)
    pairs, pencil = _stage("solve", disc.solve)
    pairs = _stage("window", _window_stage, cfg, pairs)
    reports = _stage("filter", _filter_stage, disc, pairs) if cfg.apply_filter else None
    rows = _stage("report", _report_stage, disc, pairs, reports)
    grid = (_stage("pseudospectrum", _grid_stage, disc)
            if cfg.pseudo_resolution is not None else None)
    return RunReport(config=cfg, rows=tuple(rows), dof_count=disc.space.dof_count,
                     pencil_size=pencil, elapsed_seconds=time.perf_counter() - start,
                     grid=grid)


def _fmt(value) -> str:
    # adding 0.0 turns -0.0 into 0.0, so a signed zero is written as 0
    return "" if value is None else f"{value + 0.0:.12g}"


def emit_outputs(report: RunReport) -> list[str]:
    """Write eigenvalues.csv, run.json, and pseudospectrum.csv when the report has a grid.

    CSV content is a pure function of config + seed, byte-identical across
    runs; timing stays out of every emitted file for that reason.
    """
    import os

    cfg = report.config
    os.makedirs(cfg.out_dir, exist_ok=True)
    written = []

    path = os.path.join(cfg.out_dir, "eigenvalues.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("j,re_k,im_k,epsilon,feasible,ref_match,ref_dist\n")
        for row in report.rows:
            feasible = "true" if row.feasible else "false"
            ref_match = "" if row.ref_index is None else str(row.ref_index)
            fh.write(f"{row.index},{_fmt(row.k.real)},{_fmt(row.k.imag)},"
                     f"{_fmt(row.epsilon)},{feasible},{ref_match},"
                     f"{_fmt(row.ref_distance)}\n")
    written.append(path)

    path = os.path.join(cfg.out_dir, "run.json")
    payload = {
        "config": cfg.to_json_dict(),
        "versions": {
            "helmres": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)

    if report.grid is not None:
        path = os.path.join(cfg.out_dir, "pseudospectrum.csv")
        write_grid_csv(report.grid, path, parameters=cfg.to_json_dict())
        written.append(path)
    return written


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]  # accept a previously emitted run.json
    return RunConfig.from_json_dict(data)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="JSON config file; flags override it")
    sub.add_argument("--problem", choices=_PROBLEMS, default=None)
    sub.add_argument("--formulation", choices=_FORMULATIONS, default=None)
    sub.add_argument("--p", type=int, default=None, help="polynomial degree")
    sub.add_argument("--h", type=float, default=None, help="initial cell size")
    sub.add_argument("--ref", type=int, default=None, help="uniform refinements")
    sub.add_argument("--sigma0", type=float, default=None, help="absorption strength")
    sub.add_argument("--d", type=float, default=None, help="truncation half width")
    sub.add_argument("--xc", type=float, default=None, help="absorption onset")
    sub.add_argument("--ell", type=float, default=None, help="outer half width")
    sub.add_argument("--eta", type=float, default=None, help="refractive index parameter")
    sub.add_argument("--window", type=float, nargs=4, default=None,
                     metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    sub.add_argument("--filter", action=argparse.BooleanOptionalAction, default=None,
                     help="apply the pseudomode filter")
    sub.add_argument("--threshold", type=float, default=None,
                     help="epsilon classification threshold (reporting only)")
    sub.add_argument("--pseudo", type=int, nargs=2, default=None, metavar=("NX", "NY"))
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="probe RNG seed")


_FLAG_TO_FIELD = {
    "problem": "problem", "formulation": "formulation", "p": "degree",
    "h": "initial_cell_size", "ref": "refinements", "sigma0": "sigma0", "d": "d",
    "xc": "x_c", "ell": "ell", "eta": "eta", "window": "window", "filter": "apply_filter",
    "threshold": "epsilon_threshold", "pseudo": "pseudo_resolution", "out": "out_dir",
    "seed": "seed",
}


def build_config(args: argparse.Namespace) -> RunConfig:
    """File values (if any) overlaid by explicit flags, on top of defaults.

    An unreadable file or an invalid configuration fails as stage ``config``.
    """
    values: dict = {}
    if args.config is not None:
        values.update(_stage("config", load_config, args.config).to_json_dict())
    for flag, field_name in _FLAG_TO_FIELD.items():
        given = getattr(args, flag, None)
        if given is not None:
            values[field_name] = tuple(given) if isinstance(given, list) else given
    if "problem" not in values or "formulation" not in values:
        raise SystemExit("error: --problem and --formulation are required "
                         "(directly or via --config)")
    return _stage("config", RunConfig.from_json_dict, values)


def _print_report(report: RunReport, threshold: float | None = None) -> None:
    cfg = report.config
    size = f"pencil {report.pencil_size}" if report.pencil_size else "contour"
    print(f"# {cfg.problem} / {cfg.formulation}: {len(report.rows)} eigenvalue(s), "
          f"{report.dof_count} dofs ({size}), {report.elapsed_seconds:.2f}s")
    for row in report.rows:
        parts = [f"k[{row.index}] = {row.k.real:+.12g} {row.k.imag:+.12g}j"]
        if row.epsilon is not None:
            parts.append(f"eps = {row.epsilon:.3e}")
            if threshold is not None:
                label = "true" if (row.epsilon < threshold and row.feasible) else "spurious"
                parts.append(label)
        if not row.feasible:
            parts.append("infeasible")
        if row.ref_distance is not None:
            parts.append(f"ref[{row.ref_index}] dist {row.ref_distance:.3e}")
        print("  " + "  ".join(parts))


def _cmd_solve(args: argparse.Namespace) -> int:
    report = run_pipeline(build_config(args))
    for path in emit_outputs(report):
        print(f"wrote {path}")
    _print_report(report)
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    cfg = dataclasses.replace(build_config(args), apply_filter=True)
    report = run_pipeline(cfg)
    emit_outputs(report)
    _print_report(report, threshold=cfg.epsilon_threshold)
    return 0


def _cmd_pseudospectrum(args: argparse.Namespace) -> int:
    import os

    cfg = build_config(args)
    disc = _stage("setup", discretize, cfg)
    grid = _stage("pseudospectrum", _grid_stage, disc)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "pseudospectrum.csv")
    write_grid_csv(grid, path, parameters=cfg.to_json_dict())
    print(f"wrote {path} ({grid.nx} x {grid.ny}, min smin = {grid.values.min():.3e})")
    return 0


def _cmd_reference(args: argparse.Namespace) -> int:
    import os

    cfg = build_config(args)
    medium = medium_for(cfg)
    refs = reference_for(cfg, medium)
    if refs is None:
        raise SystemExit(f"error: no reference set for problem {cfg.problem!r} "
                         f"with eta = {_problem_eta(cfg)}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "reference.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("j,re_k,im_k\n")
        for j, k in refs.entries:
            fh.write(f"{j},{k.real:.12g},{k.imag:.12g}\n")
    json_path = os.path.join(cfg.out_dir, "reference.json")
    payload = {
        "problem": refs.problem,
        "provenance": refs.provenance,
        "entries": [[j, k.real, k.imag] for j, k in refs.entries],
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} and {json_path} ({len(refs.entries)} values, "
          f"{refs.provenance})")
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    medium = medium_for(cfg)
    refs = reference_for(cfg, medium)
    if refs is None:
        raise SystemExit("error: convergence study needs a reference set")
    target = _stage("config", refs.values.__getitem__, args.target)
    print(f"# target k = {target.real:+.12g} {target.imag:+.12g}j "
          f"(reference index {args.target})")

    def error_at(degree: int, refinements: int) -> float:
        sub = dataclasses.replace(cfg, degree=degree, refinements=refinements,
                                  apply_filter=False, pseudo_resolution=None)
        report = run_pipeline(sub)
        if not report.rows:
            return float("nan")
        return min(abs(row.k - target) for row in report.rows)

    if args.sweep == "p":
        errors = []
        for degree in range(args.start, args.stop + 1):
            err = error_at(degree, cfg.refinements)
            note = ""
            if errors and errors[-1] > 0 and err > 0:
                note = f"  factor = {errors[-1] / err:.2f}"
            print(f"p = {degree:2d}  err = {err:.6e}{note}")
            errors.append(err)
    else:
        errors = []
        for level in range(args.levels):
            err = error_at(cfg.degree, cfg.refinements + level)
            note = ""
            if errors and errors[-1] > 0 and err > 0:
                note = f"  order = {math.log2(errors[-1] / err):.2f}"
            h_eff = cfg.initial_cell_size / 2 ** (cfg.refinements + level)
            print(f"h = {h_eff:.6g}  err = {err:.6e}{note}")
            errors.append(err)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="helmres",
        description="Scattering resonances of the 1D Helmholtz operator: "
                    "three formulations, a spurious-solution filter, "
                    "pseudospectra, and reference eigenvalues.")
    parser.add_argument("--version", action="version", version=f"helmres {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, fn, blurb in (
            ("solve", _cmd_solve, "run the full pipeline and write outputs"),
            ("filter", _cmd_filter, "solve, filter, and classify eigenpairs"),
            ("pseudospectrum", _cmd_pseudospectrum, "compute an s_min grid"),
            ("reference", _cmd_reference, "emit reference eigenvalues"),
            ("convergence", _cmd_convergence, "sweep p or h and report error orders")):
        sub = subs.add_parser(name, help=blurb)
        _add_common_flags(sub)
        sub.set_defaults(handler=fn)
        if name == "convergence":
            sub.add_argument("--sweep", choices=("p", "h"), default="p")
            sub.add_argument("--target", type=int, default=0,
                             help="reference index to track")
            sub.add_argument("--start", type=int, default=2, help="first degree (p sweep)")
            sub.add_argument("--stop", type=int, default=8, help="last degree (p sweep)")
            sub.add_argument("--levels", type=int, default=3,
                             help="refinement levels (h sweep)")

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
