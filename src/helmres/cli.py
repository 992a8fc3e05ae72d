"""End-to-end pipelines and the command-line interface.

A run is configured by a :class:`RunConfig`, whose field annotations are
its type checks, executed by :func:`run_pipeline` (discretize, solve, window,
filter, match against references, optional s_min grid over the configured
window), and persisted by :func:`emit_outputs`.  Each eigenvalue is one
:class:`ReportRow`, whose fields are the columns of eigenvalues.csv.
:func:`discretize` is the one place a configuration becomes a mesh and an
operator: the DtN or PML matrices, or the LS context.  Each operator gives its
matrix function T(k) as ``t(k)``, the list of its parity blocks, (even, odd)
for the built-in media, which are all even, and every solve, contour and
grid runs on them.

This module owns the output format: every file a command writes goes through
one CSV writer, with one rule for every cell (a string as given, a bool as
true/false, None as empty, a number with 12 significant digits and a signed
zero as 0), and one JSON writer (indented, sorted keys).  A failed write
is reported as pipeline stage ``output``.  Subcommands:

    solve           full pipeline, writes eigenvalues.csv and run.json, labels
                    each filtered pair true or spurious at --threshold
    filter          solve with the pseudomode filter on by default
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
import os
import sys
import time
import typing
from dataclasses import dataclass

import numpy as np

from . import __version__
from .assembly import DtnMatrices, PmlMatrices, assemble_dtn, assemble_pml
from .eigen import EigenPair, in_window, solve_contour, solve_dtn, solve_pml, window_contour
from .lippmann import LsContext, build_ls_context, filter_epsilons, pseudospectrum
from .media import MediumProfile, PmlConfig, air_filled_cavity_profile, bump_profile, \
    critical_angle, slab_profile
from .mesh_fe import BoundaryCondition, build_mesh, build_space
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
    """Everything needed to reproduce a run.  JSON round-trips exactly, and each
    value, from a flag or from json.load, must fit its field's annotation."""

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
        for name, hint in _FIELD_HINTS.items():
            value = getattr(self, name)
            if not _conforms(value, hint):
                raise ValueError(f"{name} must be {self.__annotations__[name]} (no bool as "
                                 f"a number, floats finite), got {value!r}")
            if name in _FLOAT_FIELDS and value is not None:
                object.__setattr__(self, name, float(value))  # a JSON 1 echoes as 1.0
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
            object.__setattr__(self, "pseudo_resolution", tuple(self.pseudo_resolution))
            if min(self.pseudo_resolution) < 1:
                raise ValueError("pseudo_resolution entries must be >= 1")
            if self.window is None:
                raise ValueError("pseudo_resolution needs a window: the grid spans it")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epsilon_threshold <= 0:
            raise ValueError("epsilon_threshold must be positive")
        if self.problem == "bump" and self.eta is not None:
            raise ValueError("eta must be unset for bump: its profile has no index parameter")

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        extra = set(data) - {f.name for f in dataclasses.fields(cls)}
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**data)


def _conforms(value, hint) -> bool:
    """Whether ``value`` (from json.load or argparse) fits the type ``hint``: a
    bool is no number, and a float may be given as an int but must be finite."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # a fixed length, given as a list in JSON
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_conforms, value, args)))
    if args:  # X | None
        return any(_conforms(value, arg) for arg in args)
    if isinstance(value, bool):  # a Python bool is an int
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, hint)


# resolved once: typing.get_type_hints evaluates every annotation string on each call
_FIELD_HINTS = typing.get_type_hints(RunConfig)
# the fields annotated float or float | None, whose ints are stored as floats
_FLOAT_FIELDS = {name for name, hint in _FIELD_HINTS.items()
                 if float in (hint, *typing.get_args(hint))}


@dataclass(frozen=True, eq=False)
class ReportRow:
    """One row of eigenvalues.csv: the fields are its columns, in order."""

    j: int
    re_k: float
    im_k: float
    epsilon: float | None
    feasible: bool
    ref_match: int | None
    ref_dist: float | None
    parity: str | None


@dataclass(frozen=True, eq=False)
class RunReport:
    """Pipeline result: one row per windowed eigenvalue, with metadata.

    ``blocks`` lists the (parity, size) of each block the problem was solved on;
    ``grid`` is the s_min array over ``config.window`` at ``config.pseudo_resolution``.
    """

    config: RunConfig
    rows: tuple
    dof_count: int
    elapsed_seconds: float
    grid: np.ndarray | None
    blocks: tuple


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
    """One RunConfig as a medium, its reference set, and the operator whose
    matrix function T(k) the run solves.

    ``operator`` is the run's :class:`DtnMatrices`, :class:`PmlMatrices` or
    :class:`LsContext`; each gives T(k) as ``operator.t(k)``, the list of its
    diagonal blocks, one per ``operator.blocks``, and is singular exactly at
    the eigenvalues k.  The filter's LS context is the operator of an ls run;
    otherwise it is built on first use, so a run builds it at most once, and
    only when the filter or the grid needs it.
    """

    config: RunConfig
    medium: MediumProfile
    pml: PmlConfig | None
    operator: DtnMatrices | PmlMatrices | LsContext
    reference: ReferenceSet | None

    @functools.cached_property
    def ls_context(self) -> LsContext:
        if isinstance(self.operator, LsContext):
            return self.operator
        return _ls_context(self.config, self.medium)

    @property
    def critical_angle(self) -> float | None:
        """The angle of the PML critical line, None without a PML."""
        return None if self.pml is None else critical_angle(self.pml)

    def solve(self) -> list[EigenPair]:
        """Eigenpairs sorted by (Re k, Im k).

        The matrix sets return every pair their solver returns, all with
        Re k >= 0; the DtN solver is given the window and ``seed``, and
        computes only the pairs inside the window.  An LS context is solved on
        the ellipse inscribed in the window's part with Re k >= 0, with 64
        nodes and 24 probe columns, placed by :func:`~helmres.eigen.window_contour`
        as the DtN contour is: the mirror image -conj k of each pair there is
        one too, and a window with no such part has no pairs.  Both contours
        draw one probe per block, in block order, from ``seed``.
        """
        op, cfg = self.operator, self.config
        if isinstance(op, DtnMatrices):
            return solve_dtn(op, window=cfg.window, rng=cfg.seed)
        if isinstance(op, PmlMatrices):
            return solve_pml(op)
        if cfg.window is None:
            raise ValueError("the ls formulation needs --window to place its contour")
        contour = window_contour(cfg.window, 1.0, 64, 24)
        if contour is None:
            return []
        return solve_contour(op.t, contour, op.blocks, cfg.seed, space=op.space)


def _ls_context(cfg: RunConfig, medium: MediumProfile) -> LsContext:
    return build_ls_context(medium, cfg.degree, cfg.initial_cell_size, cfg.refinements)


def discretize(cfg: RunConfig) -> Discretization:
    """The medium, reference set and operator of a run: the one place that reads
    ``cfg.formulation``."""
    medium = medium_for(cfg)
    reference = reference_for(cfg, medium)
    if cfg.formulation == "ls":
        return Discretization(cfg, medium, None, _ls_context(cfg, medium), reference)
    if cfg.formulation == "pml":
        pml = PmlConfig(a=medium.resonator_halfwidth, d=cfg.d, x_c=cfg.x_c,
                        ell=cfg.ell, sigma0=cfg.sigma0)
        half, bc, extra = cfg.ell, BoundaryCondition.DIRICHLET_BOTH_ENDS, pml.breakpoints
    else:
        pml, half, bc, extra = None, cfg.d, BoundaryCondition.NONE, ()
    bps = [b for b in medium.breakpoints + extra if -half < b < half]
    mesh = build_mesh((-half, half), bps, cfg.initial_cell_size, cfg.refinements)
    space = build_space(mesh, cfg.degree, bc)
    if pml is None:
        return Discretization(cfg, medium, None, assemble_dtn(space, medium), reference)
    return Discretization(cfg, medium, pml, assemble_pml(space, medium, pml), reference)


def _stage(name: str, fn, *args):
    """fn(*args), with any failure raised as a PipelineStageError of stage ``name``."""
    try:
        return fn(*args)
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def _window_stage(cfg: RunConfig, pairs):
    if cfg.window is None:
        return list(pairs)
    return [p for p in pairs if in_window(p.k, cfg.window)]


def _filter_stage(disc: Discretization, pairs) -> list[float]:
    """eps of every pair, from one batched call; inf where the filter cannot test it."""
    return filter_epsilons(disc.ls_context, pairs).tolist()


def _report_stage(disc: Discretization, pairs, epsilons) -> list[ReportRow]:
    """One row per pair; feasibility is decided by k alone, eps computed or not."""
    angle, refs = disc.critical_angle, disc.reference
    return [ReportRow(j, p.k.real, p.k.imag, None if epsilons is None else epsilons[j],
                      angle is None or bool(np.angle(p.k) >= angle),
                      *(refs.nearest(p.k) if refs is not None else (None, None)), p.parity)
            for j, p in enumerate(pairs)]


def _grid_stage(disc: Discretization) -> np.ndarray:
    cfg = disc.config
    if cfg.pseudo_resolution is None:  # a config with it has a window
        raise ValueError("pseudospectrum needs both --window and --pseudo")
    return pseudospectrum(disc.operator.t, cfg.window, cfg.pseudo_resolution)


def run_pipeline(cfg: RunConfig) -> RunReport:
    """discretize -> solve -> window -> filter -> match references -> s_min grid.

    The grid stage runs only when ``cfg.pseudo_resolution`` is set.
    """
    start = time.perf_counter()
    disc = _stage("setup", discretize, cfg)
    pairs = _stage("solve", disc.solve)
    pairs = _stage("window", _window_stage, cfg, pairs)
    epsilons = _stage("filter", _filter_stage, disc, pairs) if cfg.apply_filter else None
    rows = _stage("report", _report_stage, disc, pairs, epsilons)
    grid = (_stage("pseudospectrum", _grid_stage, disc)
            if cfg.pseudo_resolution is not None else None)
    op = disc.operator
    return RunReport(config=cfg, rows=tuple(rows), dof_count=op.space.dof_count,
                     elapsed_seconds=time.perf_counter() - start,
                     grid=grid, blocks=tuple((b.parity, b.size) for b in op.blocks))


def _fmt(value) -> str:
    """One CSV cell: a string as given, a bool as true/false, None as empty, and
    a number with 12 significant digits."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    # adding 0.0 turns -0.0 into 0.0, so a signed zero is written as 0
    return f"{value + 0.0:.12g}"


def _write_csv(path: str, columns, rows) -> None:
    """A line of ``columns`` names, then one per row, each cell through :func:`_fmt`."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for line in (columns, *rows):
            fh.write(",".join(map(_fmt, line)) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_grid_csv(smin: np.ndarray, path, cfg: RunConfig) -> None:
    """The s_min array of :func:`pseudospectrum` over ``cfg.window`` at
    ``cfg.pseudo_resolution`` as "re_k,im_k,smin" rows (row-major, Re k fastest),
    plus a JSON sidecar that records the run's formulation and configuration."""
    path = str(path)
    re_min, re_max, im_min, im_max = cfg.window
    nx, ny = cfg.pseudo_resolution
    _write_csv(path, ("re_k", "im_k", "smin"),
               ((re, im, smin[iy, ix]) for iy, im in enumerate(np.linspace(im_min, im_max, ny))
                for ix, re in enumerate(np.linspace(re_min, re_max, nx))))
    _write_json(path + ".json", {
        "region": list(cfg.window),
        "resolution": list(cfg.pseudo_resolution),
        "formulation": cfg.formulation,
        "parameters": cfg.to_json_dict(),
    })


def emit_outputs(report: RunReport) -> list[str]:
    """Write eigenvalues.csv, run.json, and pseudospectrum.csv when the report has a grid.

    eigenvalues.csv has one column per :class:`ReportRow` field, named and
    ordered as the fields; its last, ``parity``, is even or odd, empty when
    the problem was solved as one block.  run.json records the parity and
    size of each block.  CSV content is a pure function of
    config + seed, byte-identical across runs; timing stays out of every
    emitted file for that reason.
    """
    cfg = report.config
    path = os.path.join(cfg.out_dir, "eigenvalues.csv")
    _write_csv(path, [f.name for f in dataclasses.fields(ReportRow)],
               map(dataclasses.astuple, report.rows))
    written = [path]

    path = os.path.join(cfg.out_dir, "run.json")
    _write_json(path, {
        "blocks": [{"parity": parity, "size": size} for parity, size in report.blocks],
        "config": cfg.to_json_dict(),
        "versions": {
            "helmres": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    })
    written.append(path)

    if report.grid is not None:
        path = os.path.join(cfg.out_dir, "pseudospectrum.csv")
        write_grid_csv(report.grid, path, cfg)
        written.append(path)
    return written


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "config" in data:
        data = data["config"]  # accept a previously emitted run.json
    if not isinstance(data, dict):
        raise ValueError(f"a config file must hold a JSON object, got {type(data).__name__}")
    return RunConfig.from_json_dict(data)


def _common_flags() -> argparse.ArgumentParser:
    """--config, and one flag per RunConfig field but ``apply_filter``, stored under
    the field's name: the parent parser of every subcommand.  Its actions are
    shared, so each subcommand adds --filter itself, whose default ``filter``
    sets."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file; flags override it")
    common.add_argument("--problem", choices=_PROBLEMS, default=None)
    common.add_argument("--formulation", choices=_FORMULATIONS, default=None)
    common.add_argument("--p", dest="degree", type=int, default=None, help="polynomial degree")
    common.add_argument("--h", dest="initial_cell_size", type=float, default=None,
                        help="initial cell size")
    common.add_argument("--ref", dest="refinements", type=int, default=None,
                        help="uniform refinements")
    common.add_argument("--sigma0", type=float, default=None, help="absorption strength")
    common.add_argument("--d", type=float, default=None, help="truncation half width")
    common.add_argument("--xc", dest="x_c", type=float, default=None, help="absorption onset")
    common.add_argument("--ell", type=float, default=None, help="outer half width")
    common.add_argument("--eta", type=float, default=None, help="refractive index parameter")
    common.add_argument("--window", type=float, nargs=4, default=None,
                        metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    common.add_argument("--threshold", dest="epsilon_threshold", type=float, default=None,
                        help="epsilon classification threshold (reporting only)")
    common.add_argument("--pseudo", dest="pseudo_resolution", type=int, nargs=2, default=None,
                        metavar=("NX", "NY"))
    common.add_argument("--out", dest="out_dir", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="probe RNG seed for the ls and the windowed dtn contours")
    return common


def build_config(args: argparse.Namespace) -> RunConfig:
    """File values (if any) overlaid by explicit flags, on top of defaults.

    An unreadable file or an invalid configuration fails as stage ``config``.
    """
    values: dict = {}
    if args.config is not None:
        values.update(_stage("config", load_config, args.config).to_json_dict())
    for field in dataclasses.fields(RunConfig):
        given = getattr(args, field.name, None)
        if given is not None:
            values[field.name] = given
    if "problem" not in values or "formulation" not in values:
        raise SystemExit("error: --problem and --formulation are required "
                         "(directly or via --config)")
    return _stage("config", RunConfig.from_json_dict, values)


def _print_report(report: RunReport) -> None:
    """One line per row; a row with eps is labelled at ``epsilon_threshold``."""
    cfg = report.config
    print(f"# {cfg.problem} / {cfg.formulation}: {len(report.rows)} eigenvalue(s), "
          f"{report.dof_count} dofs, {report.elapsed_seconds:.2f}s")
    for row in report.rows:
        # adding 0.0 turns -0.0 into 0.0, as in the CSV files
        parts = [f"k[{row.j}] = {row.re_k + 0.0:+.12g} {row.im_k + 0.0:+.12g}j"]
        if row.epsilon is not None:
            parts.append(f"eps = {row.epsilon:.3e}")
            label = "true" if row.epsilon < cfg.epsilon_threshold and row.feasible else "spurious"
            parts.append(label)
        if not row.feasible:
            parts.append("infeasible")
        if row.ref_dist is not None:
            parts.append(f"ref[{row.ref_match}] dist {row.ref_dist:.3e}")
        print("  " + "  ".join(parts))


def _cmd_solve(args: argparse.Namespace) -> int:
    report = run_pipeline(build_config(args))
    for path in _stage("output", emit_outputs, report):
        print(f"wrote {path}")
    _print_report(report)
    return 0


def _cmd_pseudospectrum(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    disc = _stage("setup", discretize, cfg)
    smin = _stage("pseudospectrum", _grid_stage, disc)
    path = os.path.join(cfg.out_dir, "pseudospectrum.csv")
    _stage("output", write_grid_csv, smin, path, cfg)
    nx, ny = cfg.pseudo_resolution
    print(f"wrote {path} ({nx} x {ny}, min smin = {smin.min():.3e})")
    return 0


def _required_reference(cfg: RunConfig) -> ReferenceSet:
    """The reference set of the configured medium; an invalid medium fails as stage
    ``setup``, and a medium without a reference set exits."""
    refs = _stage("setup", lambda: reference_for(cfg, medium_for(cfg)))
    if refs is None:
        raise SystemExit(f"error: no reference set for problem {cfg.problem!r} "
                         f"with eta = {_problem_eta(cfg)}")
    return refs


def _cmd_reference(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    refs = _required_reference(cfg)
    entries = [(j, k.real, k.imag) for j, k in enumerate(refs.values.tolist())]
    csv_path = os.path.join(cfg.out_dir, "reference.csv")
    _stage("output", _write_csv, csv_path, ("j", "re_k", "im_k"), entries)
    json_path = os.path.join(cfg.out_dir, "reference.json")
    _stage("output", _write_json, json_path, {
        "problem": refs.problem, "provenance": refs.provenance, "entries": entries})
    print(f"wrote {csv_path} and {json_path} ({len(refs.values)} values, "
          f"{refs.provenance})")
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    refs = _required_reference(cfg)
    if not 0 <= args.target < len(refs.values):
        raise PipelineStageError("config", IndexError(
            f"--target must be a reference index from 0 to {len(refs.values) - 1}, "
            f"got {args.target}"))
    target = refs.values[args.target]

    # (label, degree, refinements) per step, and how successive errors compare
    if args.sweep == "p":
        steps = [(f"p = {p:2d}", p, cfg.refinements) for p in range(args.start, args.stop + 1)]
        rate_name, rate = "factor", lambda ratio: ratio
    else:
        steps = [(f"h = {cfg.initial_cell_size / 2 ** r:.6g}", cfg.degree, r)
                 for r in range(cfg.refinements, cfg.refinements + args.levels)]
        rate_name, rate = "order", math.log2
    if not steps:
        raise PipelineStageError("config", ValueError(
            "the sweep has no steps: need --start <= --stop (p) or --levels >= 1 (h)"))
    print(f"# target k = {target.real:+.12g} {target.imag:+.12g}j "
          f"(reference index {args.target})")
    previous = math.nan  # compares false, so the first step has no rate
    for label, degree, refinements in steps:
        sub = _stage("config", lambda: dataclasses.replace(
            cfg, degree=degree, refinements=refinements, apply_filter=False,
            pseudo_resolution=None))
        rows = run_pipeline(sub).rows
        err = min((abs(complex(r.re_k, r.im_k) - target) for r in rows), default=math.nan)
        note = f"  {rate_name} = {rate(previous / err):.2f}" if previous > 0 and err > 0 else ""
        print(f"{label}  err = {err:.6e}{note}")
        previous = err
    return 0


def _parser() -> argparse.ArgumentParser:
    """The command line: five subcommands on the flags of :func:`_common_flags`."""
    parser = argparse.ArgumentParser(
        prog="helmres",
        description="Scattering resonances of the 1D Helmholtz operator: "
                    "three formulations, a spurious-solution filter, "
                    "pseudospectra, and reference eigenvalues.")
    parser.add_argument("--version", action="version", version=f"helmres {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()
    for name, fn, blurb in (
            ("solve", _cmd_solve, "run the full pipeline and write outputs"),
            ("filter", _cmd_solve, "solve with the pseudomode filter on by default"),
            ("pseudospectrum", _cmd_pseudospectrum, "compute an s_min grid"),
            ("reference", _cmd_reference, "emit reference eigenvalues"),
            ("convergence", _cmd_convergence, "sweep p or h and report error orders")):
        sub = subs.add_parser(name, help=blurb, parents=[common])
        sub.add_argument("--filter", dest="apply_filter", action=argparse.BooleanOptionalAction,
                         default=None, help="apply the pseudomode filter")
        sub.set_defaults(handler=fn)
        if name == "filter":  # a flag default: beats a config file, loses to --no-filter
            sub.set_defaults(apply_filter=True)
        if name == "convergence":
            sub.add_argument("--sweep", choices=("p", "h"), default="p")
            sub.add_argument("--target", type=int, default=0,
                             help="reference index to track")
            sub.add_argument("--start", type=int, default=2, help="first degree (p sweep)")
            sub.add_argument("--stop", type=int, default=8, help="last degree (p sweep)")
            sub.add_argument("--levels", type=int, default=3,
                             help="refinement levels (h sweep)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
