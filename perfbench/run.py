#!/usr/bin/env python3
"""Closed-loop benchmark of the helmres command line.

    python3 perfbench/run.py --workload dtn-cavity --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  One client calls ``helmres.cli.main(argv)`` in this process; the
next call starts only after the previous one has written its files.  Each
call's output is checked against the paper's reference values outside the
timed region, and ``eigenvalues.csv`` must be byte-identical across the calls
of a run.  A new call starts while the run's elapsed time plus the median
call time fits in ``--seconds``; every run makes at least one call.

Times are scaled to a reference machine speed.  A fixed calibration kernel
that uses no helmres code runs before the first call and after each call, and
each call's wall time is multiplied by ``CAL_REF_S`` over the mean of the
kernel times on either side of it (see ``Calibration``).  The setup spawns are
scaled the same way.  Unscaled medians are printed and kept in the result set.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls and reports per-layer metrics from spans recorded
around the calls into each module (see ``spans.py``).  The last line of
standard output is one JSON object; the lines before it give quartiles and
sample counts, and ``perfbench/out/`` keeps the full result set, the machine
record and, for traced runs, every span.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings

from spans import ROOT, Tracer
from workloads import WORKLOADS, CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
CAL_REF_S = 0.2   # calibration kernel seconds at the reference speed
BLAS_THREADS = 1
TRUE_EPS = 1e-2   # the CLI's default --threshold: eps below it marks a true mode
CONTOUR_WARNING = "contour moments"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> None:
    """One OpenBLAS thread; must run before numpy is imported.

    On a 2-core Xeon shared with other processes, a second thread made no
    workload faster, made ls-cavity about 20% slower, and made calls several
    times slower whenever another process held the other core.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)


def pin_cpu() -> int:
    """Keep this process and the interpreters it spawns on one CPU; return that CPU.

    The calibration kernel then measures the CPU the timed step runs on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Calibration:
    """Machine speed, from a fixed kernel timed between the measured steps.

    On a 2-core Xeon VM shared with other tenants, the same CLI call ran up to
    1.8 times slower for stretches of seconds to minutes, with no steal time
    reported, so medians of 35 s runs spread by a quarter or more.  The kernel
    does in equal parts what the workloads spend their time in: LAPACK on a
    small dense complex matrix, complex exponentials over an array and a
    plain Python loop (dense), and a Python loop of numpy calls on arrays of a
    dozen entries, like the LS kernel's per-cell and per-point loops (loop).

    Over 36 s windows of calls, the median of wall time over kernel time
    spread by 5% to 8% on each workload, where the median wall time spread
    by 15% to 43%.  The dense half alone left pml-cavity at 15%, and the loop
    half alone left ls-cavity at 12%.  The kernel uses only numpy, so a
    change to helmres cannot move it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((150, 150)) + 1j * rng.standard_normal((150, 150))
        self._phases = rng.standard_normal(200_000)
        self._small = rng.standard_normal(12)
        self._weights = rng.standard_normal((12, 8))
        self.times = []
        self._last = self.measure()

    def measure(self) -> float:
        import numpy as np

        start = time.perf_counter()
        for _ in range(2):
            np.linalg.eigvals(self._matrix)
        for _ in range(3):
            np.exp(1j * self._phases)
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(15_000):
            total = total + np.exp(0.5j * self._small) @ self._weights
        seconds = time.perf_counter() - start
        self.times.append(seconds)
        return seconds

    def scale(self) -> float:
        """Reference over current speed, from the kernel runs on either side of a step.

        Call it right after the step; the kernel run it makes is the next step's "before".
        """
        before, self._last = self._last, self.measure()
        return CAL_REF_S / (0.5 * (before + self._last))


def measure_setup(src: str, calibration: Calibration) -> tuple:
    """Seconds for fresh interpreters to import helmres.cli, wall and scaled.

    One unrecorded warm-up spawn comes first.
    """
    env = dict(os.environ, PYTHONPATH=src)
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import helmres.cli"], env=env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=120)
        seconds = time.perf_counter() - start
        wall.append(seconds)
        scaled.append(seconds * calibration.scale())
    return wall[1:], scaled[1:]


def _openblas_threads() -> dict:
    """Effective thread count of each OpenBLAS that numpy and scipy loaded."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        for lib_path in glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*"):
            lib = ctypes.CDLL(lib_path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[f"{pkg.__name__}:{os.path.basename(lib_path)}"] = fn()
                    break
    return found


def machine_record(nproc: int, cpu_pinned: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = {pkg.__name__: pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
            for pkg in (numpy, scipy)}
    return {
        "nproc": nproc,
        "cpu_pinned": cpu_pinned,
        "cpu": cpu,
        "blas": {name: f"{b.get('name')} {b.get('version')}" for name, b in blas.items()},
        "blas_threads_setting": BLAS_THREADS,
        "blas_threads_effective": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_cli(cli, argv: list):
    """One timed CLI call: (seconds, error or None, warnings raised)."""
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.main(argv)
            error = None if code == 0 else f"exit code {code}"
        except (Exception, SystemExit):  # a failing call is counted; the loop goes on
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    return seconds, error, list(caught)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(summary: dict, op_seconds: float, contour_warnings: int) -> dict:
    """The per-layer metrics of one traced call."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def attr_max(names, key):
        return max((a[key] for n in names for a in get(n, "attrs") or () if key in a),
                   default=0)

    def per_call_ms(name):
        calls = get(name, "calls")
        return 1e3 * get(name, "s") / calls if calls else 0.0

    filtered = [a["epsilon"] for a in get("lippmann.filter_epsilon", "attrs") or ()]
    covered = sum(v["self_s"] for name, v in summary.items() if name != ROOT)
    return {
        "eigen.solve_dtn.s": get("eigen.solve_dtn", "s"),
        "eigen.solve_pml.s": get("eigen.solve_pml", "s"),
        "eigen.pencil_size": attr_max(("eigen.solve_dtn", "eigen.solve_pml"), "pencil_size"),
        "eigen.solve_contour.self_s": get("eigen.solve_contour", "self_s"),
        "eigen.solve_contour.warnings": contour_warnings,
        "eigen.smallest_singular_value.s": get("eigen.smallest_singular_value", "s"),
        "eigen.smallest_singular_value.calls": get("eigen.smallest_singular_value", "calls"),
        "lippmann.filter_epsilon.s": get("lippmann.filter_epsilon", "s"),
        "lippmann.filter_epsilon.calls": get("lippmann.filter_epsilon", "calls"),
        "lippmann.filter_epsilon.ms_per_call": per_call_ms("lippmann.filter_epsilon"),
        "lippmann.filter_true_ratio":
            sum(e < TRUE_EPS for e in filtered) / len(filtered) if filtered else 0.0,
        "lippmann.apply_kernel.s": get("lippmann.apply_kernel", "s"),
        "lippmann.collocation_matrix.s": get("lippmann.collocation_matrix", "s"),
        "lippmann.collocation_matrix.calls": get("lippmann.collocation_matrix", "calls"),
        "lippmann.collocation_matrix.ms_per_call": per_call_ms("lippmann.collocation_matrix"),
        "lippmann.pseudospectrum.self_s": get("lippmann.pseudospectrum", "self_s"),
        "lippmann.build_ls_context.s": get("lippmann.build_ls_context", "s"),
        "lippmann.build_ls_context.calls": get("lippmann.build_ls_context", "calls"),
        "mesh_fe.build_mesh.calls": get("mesh_fe.build_mesh", "calls"),
        "mesh_fe.build_space.s": get("mesh_fe.build_space", "s"),
        "mesh_fe.dofs": attr_max(("mesh_fe.build_space",), "dofs"),
        "assembly.assemble_dtn.s": get("assembly.assemble_dtn", "s"),
        "assembly.assemble_pml.s": get("assembly.assemble_pml", "s"),
        "assembly.assemble_resonator_mass.calls":
            get("assembly.assemble_resonator_mass", "calls"),
        "cli.reference_for.s": get("cli.reference_for", "s"),
        "cli.run_pipeline.self_s": get("cli.run_pipeline", "self_s"),
        "cli.emit_outputs.s": get("cli.emit_outputs", "s"),
        "trace.span_coverage": covered / op_seconds,
    }


# metric unit by the last part of its name
UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ref_digits": "digits",
         "s": "s", "self_s": "s", "overhead_s": "s", "ms_per_call": "ms", "calls": "count",
         "warnings": "count", "pencil_size": "count", "dofs": "count",
         "filter_true_ratio": "ratio", "span_coverage": "ratio",
         "filter_gap_decades": "decades"}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "helmres", "cli.py")):
        print(f"error: no helmres sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pin_blas_threads()
    nproc = len(os.sched_getaffinity(0))
    cpu_pinned = pin_cpu()
    calibration = Calibration()
    setup_wall, setup_times = measure_setup(src, calibration)

    sys.path.insert(0, src)
    import helmres.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: imported helmres from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    machine = machine_record(nproc, cpu_pinned)

    out_dir = os.path.join(OUT_ROOT, args.workload)
    op = workload.make_op(args.seed, out_dir)
    tracer = Tracer()
    durations = {False: [], True: []}   # wall seconds per call
    scaled = {False: [], True: []}      # the same, scaled to the reference speed
    facts, layers, errors = [], [], []
    contour_warnings = 0
    first_csv = None
    attempted = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced:
            tracer.op = attempted
            tracer.install()
        try:
            seconds, error, caught = run_cli(cli, op.argv)
        finally:
            tracer.uninstall()
        attempted += 1
        if attempted == 1:  # one CLI invocation's peak; later calls here can only add to it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        durations[traced].append(seconds)
        scaled[traced].append(seconds * calibration.scale())
        warned = sum(issubclass(w.category, RuntimeWarning)
                     and str(w.message).startswith(CONTOUR_WARNING) for w in caught)
        contour_warnings += warned
        if traced:
            layers.append(layer_metrics(tracer.op_summary(tracer.op), seconds, warned))
        try:
            if error is not None:
                raise CheckFailed(error)
            facts.append(op.check(out_dir))
            with open(os.path.join(out_dir, "eigenvalues.csv"), "rb") as fh:
                csv_bytes = fh.read()
            if first_csv is None:
                first_csv = csv_bytes
            elif csv_bytes != first_csv:
                raise CheckFailed("eigenvalues.csv differs from the run's first call")
        except (CheckFailed, OSError, ValueError) as exc:
            errors.append(f"call {attempted}: {exc}")
        elapsed = time.perf_counter() - start
        everything = durations[False] + durations[True]
        have_all = durations[False] and (durations[True] or not args.trace)
        if have_all and elapsed + statistics.median(everything) > args.seconds:
            break

    if contour_warnings:
        print(f"# {contour_warnings} contour node-halving warning(s) in the run",
              file=sys.stderr)
    for error in errors:
        print(f"# FAILED {error}", file=sys.stderr)

    if args.trace:
        samples = {name: [layer[name] for layer in layers] for name in layers[0]}
        samples["trace.run_s"] = scaled[True]
        samples["trace.overhead_s"] = [statistics.median(scaled[True])
                                       - statistics.median(scaled[False])]
        samples["lippmann.filter_gap_decades"] = [f.get("filter_gap_decades", 0.0)
                                                  for f in facts]
    else:
        samples = {"run_s": scaled[False], "setup_s": setup_times,
                   "peak_rss_mb": [peak_rss_mb],
                   "ref_digits": [f["ref_digits"] for f in facts]}
    metrics = {}
    for name, values in samples.items():
        values = values or [0.0]
        q1, median, q3 = quartiles(values)
        print(f"# {name}: median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
        metrics[name] = {"value": median, "unit": UNITS[name.rsplit(".", 1)[-1]]}
    for name, values in (("wall run_s", durations[False]), ("wall trace.run_s", durations[True]),
                         ("wall setup_s", setup_wall), ("calibration_s", calibration.times)):
        if values:
            q1, median, q3 = quartiles(values)
            print(f"# {name} (unscaled): median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"n {len(values)}")
    print(f"# machine: {json.dumps(machine, sort_keys=True)}")
    if workload.seed_independent:
        print(f"# {workload.name} has no random input; the seed does not change it")

    result = {"correct": not errors, "attempted": attempted,
              "failed": len(errors), "metrics": metrics}
    os.makedirs(OUT_ROOT, exist_ok=True)
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seed_independent": workload.seed_independent, "seconds": args.seconds,
              "trace": args.trace, "argv": op.argv, "machine": machine,
              "cal_ref_s": CAL_REF_S, "calibration_s": calibration.times,
              "durations": {"untraced": durations[False], "traced": durations[True]},
              "scaled_durations": {"untraced": scaled[False], "traced": scaled[True]},
              "setup_s": setup_times, "setup_wall_s": setup_wall, "facts": facts, "errors": errors,
              "contour_warnings": contour_warnings, "result": result,
              "spans": [s.as_dict() for s in tracer.spans]}
    path = os.path.join(OUT_ROOT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
