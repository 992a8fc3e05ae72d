"""Pipeline configuration, output files, and the command-line entry point."""

import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from helmres import assemble_dtn, solve_dtn, solve_pml
from helmres import cli
from helmres.cli import (PipelineStageError, ReportRow, RunConfig, RunReport, discretize,
                         emit_outputs, load_config, main, run_pipeline)
from helmres.eigen import smallest_singular_value
from helmres.media import MediumProfile

K1 = math.pi / 4 - 1j * math.log(3.0) / 4

_SLAB_DTN = dict(problem="slab", formulation="dtn", degree=2,
                 initial_cell_size=0.5, d=1.0, window=(0.0, 4.0, -2.0, 0.0))
_CAVITY_DTN = dict(problem="air_cavity", formulation="dtn", degree=14,
                   initial_cell_size=0.25, d=2.0, window=(0.0, 12.5, -1.0, 0.0))
_SLAB_PML = dict(problem="slab", formulation="pml", degree=2,
                 initial_cell_size=0.5, d=1.0, x_c=2.0, ell=4.0, sigma0=5.0,
                 window=(0.0, 4.0, -2.0, 0.0))
# the air_cavity discretizations of the benchmark's dtn and pml workloads
_BENCH_DTN = dict(problem="air_cavity", formulation="dtn", degree=16,
                  initial_cell_size=0.25, d=2.0)
_BENCH_PML = dict(problem="air_cavity", formulation="pml", degree=10,
                  initial_cell_size=0.5, d=2.0, x_c=3.0, ell=5.0, sigma0=5.0)


def test_config_validation():
    with pytest.raises(ValueError, match="problem"):
        RunConfig(problem="cube", formulation="dtn")
    with pytest.raises(ValueError, match="formulation"):
        RunConfig(problem="slab", formulation="fdtd")
    with pytest.raises(ValueError, match="degree"):
        RunConfig(problem="slab", formulation="dtn", degree=0)
    with pytest.raises(ValueError, match="initial_cell_size"):
        RunConfig(problem="slab", formulation="dtn", initial_cell_size=0.0)
    with pytest.raises(ValueError, match="refinements"):
        RunConfig(problem="slab", formulation="dtn", refinements=-1)
    with pytest.raises(ValueError, match="window"):
        RunConfig(problem="slab", formulation="dtn", window=(1, 0, -1, 0))
    with pytest.raises(ValueError, match="pseudo_resolution"):
        RunConfig(problem="slab", formulation="dtn", pseudo_resolution=(0, 2))
    with pytest.raises(ValueError, match="epsilon_threshold"):
        RunConfig(problem="slab", formulation="dtn", epsilon_threshold=0.0)
    with pytest.raises(ValueError, match="eta"):
        RunConfig(problem="bump", formulation="dtn", eta=3.0)
    with pytest.raises(ValueError, match="seed"):
        RunConfig(problem="slab", formulation="dtn", seed=-1)


def test_config_json_round_trip():
    cfg = RunConfig(problem="air_cavity", formulation="pml", degree=6,
                    window=(0, 3, -1, 0), pseudo_resolution=(5, 4), seed=11)
    text = json.dumps(cfg.to_json_dict())
    assert RunConfig.from_json_dict(json.loads(text)) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_json_dict({"problem": "slab", "formulation": "dtn",
                                  "polynomial_order": 3})


def test_truncated_halfspace_modes_survive_filter():
    report = run_pipeline(RunConfig(**_SLAB_DTN))
    assert len(report.rows) == 5
    eps = [row.epsilon for row in report.rows]
    assert max(eps) <= 0.5
    assert min(eps) < 1e-3
    assert all(row.feasible for row in report.rows)


def test_absorbing_layer_artifacts_are_flagged():
    report = run_pipeline(RunConfig(**_SLAB_PML))
    eps = [row.epsilon for row in report.rows]
    assert max(eps) > 0.5      # layer artifacts fill the window
    assert min(eps) < 0.2      # while the physical modes still pass


def test_pml_feasibility_does_not_depend_on_the_filter():
    # the window reaches below the critical line, so some rows are infeasible
    cfg = RunConfig(**{**_SLAB_PML, "window": (0.0, 4.0, -20.0, 0.0)})
    angle = discretize(cfg).critical_angle
    filtered, unfiltered = (run_pipeline(dataclasses.replace(cfg, apply_filter=on)).rows
                            for on in (True, False))
    assert ([complex(row.re_k, row.im_k) for row in filtered]
            == [complex(row.re_k, row.im_k) for row in unfiltered])
    assert all(row.epsilon is None for row in unfiltered)
    assert [row.feasible for row in filtered] == [row.feasible for row in unfiltered]
    infeasible = [row.j for row in filtered if not row.feasible]
    assert infeasible
    assert infeasible == [row.j for row in filtered
                          if np.angle(complex(row.re_k, row.im_k)) < angle]


def test_cavity_pipeline_matches_reference():
    report = run_pipeline(RunConfig(**_CAVITY_DTN))
    assert len(report.rows) >= 8
    assert all(row.ref_dist < 1e-6 for row in report.rows)
    assert all(row.epsilon < 1e-2 for row in report.rows)


@pytest.mark.parametrize("config", [_SLAB_DTN, _CAVITY_DTN], ids=["slab", "air_cavity"])
def test_dtn_solve_drops_the_static_mode(config):
    # A 1 = 0, so k = 0 is an eigenvalue of every DtN quadratic but no resonance;
    # rounding puts it on either side of a window's Im k = 0 edge
    mats = discretize(RunConfig(**config)).operator
    pairs = solve_dtn(mats)
    assert min(abs(pr.k) for pr in pairs) >= 1e-8
    # every eigenvalue of the 2n companion but the static mode, and the mirror of
    # each pair off the imaginary axis
    assert len(pairs) == 2 * mats.a.shape[0] - 1 - sum(pr.k.real > 0 for pr in pairs)


def test_dtn_map_dips_at_the_static_mode():
    # T_dtn(0) is singular: the static mode that solve_dtn drops is still in the map,
    # so a DtN pseudospectrum dips at k = 0 where the PML map does not
    dtn = discretize(RunConfig(**{**_SLAB_DTN, "degree": 4}))
    pml = discretize(RunConfig(**{**_SLAB_PML, "degree": 4}))
    assert smallest_singular_value(dtn.operator.t(0.0)) < 1e-12
    assert smallest_singular_value(pml.operator.t(0.0)) > 1e-3


@pytest.mark.parametrize("config", [_BENCH_DTN, _BENCH_PML], ids=["dtn", "pml"])
def test_solve_returns_every_pair_the_solver_does_not_drop(config):
    disc = discretize(RunConfig(**config))
    solver = solve_dtn if config["formulation"] == "dtn" else solve_pml
    assert [pr.k for pr in disc.solve()] == [pr.k for pr in solver(disc.operator)]


def test_deep_pml_window_reports_every_eigenvalue_of_the_qz_oracle():
    # the layer modes come as near-degenerate pairs, and both members are reported
    cfg = RunConfig(**_BENCH_PML, window=(0.0, 13.5, -20.0, 0.0), apply_filter=False)
    mats = discretize(cfg).operator
    eigvals = pytest.importorskip("scipy.linalg").eigvals
    oracle = np.sqrt(eigvals(mats.a_tilde, mats.m_tilde).astype(complex))
    re_min, re_max, im_min, im_max = cfg.window
    inside = [k for k in oracle if re_min <= k.real <= re_max and im_min <= k.imag <= im_max]
    assert len(run_pipeline(cfg).rows) == len(inside)


# the benchmark's dtn-cavity call, which gives no --seed
_DTN_CAVITY_ARGV = ["filter", "--problem", "air_cavity", "--formulation", "dtn", "--p", "16",
                    "--h", "0.25", "--d", "2", "--window", "0.0", "13.5", "-2.0", "0.0"]


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().strip().splitlines()[1:]]


def test_dtn_cavity_rows_hardly_depend_on_the_seed(tmp_path):
    # the windowed DtN contour draws its probe from --seed, but the rows are polished
    # roots: the benchmark counts the call as seed-independent
    runs = []
    for seed in range(10):
        out = tmp_path / str(seed)
        assert main([*_DTN_CAVITY_ARGV, "--seed", str(seed), "--out", str(out)]) == 0
        runs.append(_csv_rows(out / "eigenvalues.csv"))
    first = runs[0]
    assert len(first) == 17
    for rows in runs[1:]:
        assert len(rows) == len(first)
        for row, other in zip(rows, first):
            assert row[4:6] == other[4:6] and row[7] == other[7]  # feasible, ref, parity
            k, k0 = (complex(float(r[1]), float(r[2])) for r in (row, other))
            assert abs(k - k0) <= 1e-10
            assert abs(float(row[3]) - float(other[3])) <= 1e-10


def test_windowed_slab_dtn_rows_are_the_companions(monkeypatch):
    # the p = 2 blocks are narrower than the probe, so the companion solves them
    windowed = run_pipeline(RunConfig(**_SLAB_DTN)).rows
    monkeypatch.setattr(cli, "solve_dtn", lambda op, window, rng: solve_dtn(op))
    unwindowed = run_pipeline(RunConfig(**_SLAB_DTN)).rows
    assert windowed and list(map(dataclasses.astuple, windowed)) \
        == list(map(dataclasses.astuple, unwindowed))


def test_main_reports_an_indefinite_dtn_mass_as_a_solve_error(tmp_path, capsys, monkeypatch):
    def flipped_mass(space, medium):
        mats = assemble_dtn(space, medium)
        return dataclasses.replace(mats, m=-mats.m)

    monkeypatch.setattr("helmres.cli.assemble_dtn", flipped_mass)
    rc = main(["solve", "--problem", "slab", "--formulation", "dtn", "--p", "2",
               "--h", "0.5", "--d", "1", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "pipeline stage 'solve' failed" in err and "DtN mass matrix" in err


def test_air_cavity_reference_only_at_the_tabulated_eta():
    cfg = RunConfig(problem="air_cavity", formulation="dtn", degree=4, initial_cell_size=0.5,
                    d=2.0, eta=2.0, window=(0.0, 4.0, -2.0, 0.0), apply_filter=False)
    report = run_pipeline(cfg)
    assert report.rows
    assert all(row.ref_match is None and row.ref_dist is None for row in report.rows)


def test_signed_zero_is_written_as_zero(tmp_path):
    # the purely imaginary resonance comes out of the pencil with Re k = -0.0
    cfg = RunConfig(problem="air_cavity", formulation="dtn", degree=4, initial_cell_size=0.5,
                    d=2.0, window=(0.0, 4.0, -2.0, 0.0), apply_filter=False,
                    out_dir=str(tmp_path))
    emit_outputs(run_pipeline(cfg))
    lines = (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()
    fields = [f for line in lines[1:] for f in line.split(",")]
    assert "0" in fields[1::8]
    assert "-0" not in fields


def test_console_report_prints_signed_zero_as_zero(tmp_path, capsys):
    # the run of test_signed_zero_is_written_as_zero, through the command line
    assert main(["solve", "--problem", "air_cavity", "--formulation", "dtn", "--p", "4",
                 "--h", "0.5", "--d", "2", "--window", "0", "4", "-2", "0", "--no-filter",
                 "--out", str(tmp_path)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  k[")]
    assert rows[0].startswith("  k[0] = +0 -0.89")
    assert not [line for line in rows if "-0 " in line]


def test_grid_signed_zero_is_written_as_zero(tmp_path):
    assert main(["pseudospectrum", "--problem", "slab", "--formulation", "dtn", "--p", "2",
                 "--h", "0.5", "--d", "1", "--window", "-0", "1", "-1", "-0",
                 "--pseudo", "2", "2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "pseudospectrum.csv").read_text().strip().splitlines()
    fields = [f for line in lines[1:] for f in line.split(",")]
    assert fields[0::3] == ["0", "1", "0", "1"]
    assert fields[1::3] == ["-1", "-1", "0", "0"]


def test_outputs_are_deterministic(tmp_path):
    base = RunConfig(problem="slab", formulation="ls", degree=6,
                     initial_cell_size=0.25, window=(0.4, 1.2, -0.5, -0.05),
                     seed=3, pseudo_resolution=(2, 2))
    texts = []
    for sub in ("a", "b"):
        cfg = dataclasses.replace(base, out_dir=str(tmp_path / sub))
        emit_outputs(run_pipeline(cfg))
        texts.append(((tmp_path / sub / "eigenvalues.csv").read_bytes(),
                      (tmp_path / sub / "pseudospectrum.csv").read_bytes()))
    assert texts[0] == texts[1]
    lines = texts[0][0].decode().strip().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert complex(float(fields[1]), float(fields[2])) == pytest.approx(K1, abs=1e-12)


def test_empty_window_writes_header_only(tmp_path):
    cfg = RunConfig(**{**_SLAB_DTN, "window": (10.0, 11.0, -2.0, -0.001)},
                    out_dir=str(tmp_path))
    report = run_pipeline(cfg)
    assert report.rows == ()
    emit_outputs(report)
    assert (tmp_path / "eigenvalues.csv").read_text() \
        == "j,re_k,im_k,epsilon,feasible,ref_match,ref_dist,parity\n"


# windows without eigenvalues, where the rounding of the contour moments
# exceeds 1e-10 but not 1e-10 of their largest quadrature term
@pytest.mark.parametrize("problem, window", [
    ("slab", ["0", "4", "0.5", "1.5"]),
    ("bump", ["0", "4", "0.2", "1"]),
])
def test_empty_ls_window_writes_header_only(tmp_path, problem, window):
    assert main(["solve", "--problem", problem, "--formulation", "ls", "--p", "4",
                 "--h", "0.5", "--window", *window, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "eigenvalues.csv").read_text() \
        == "j,re_k,im_k,epsilon,feasible,ref_match,ref_dist,parity\n"


def test_ls_window_across_the_axis_reports_each_mode_once():
    # the contour is placed on the window's part with Re k >= 0: on the whole window
    # it enclosed the mirror image -conj k of each mode as well, and reported it as a
    # row of its own, far from every table entry
    cfg = RunConfig(problem="air_cavity", formulation="ls", degree=8, initial_cell_size=0.25,
                    window=(-3.0, 3.0, -1.2, 0.2), apply_filter=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = run_pipeline(cfg).rows
    ks = [complex(row.re_k, row.im_k) for row in rows]
    assert len(ks) == 3 and all(k.real >= 0 for k in ks), ks
    assert all(abs(k + np.conj(other)) > 1e-6 for k, other in itertools.combinations(ks, 2))
    assert all(row.ref_dist <= 1e-9 for row in rows)
    # a window with no width right of the axis has no pairs
    assert run_pipeline(dataclasses.replace(cfg, window=(-3.0, 0.0, -1.2, 0.2))).rows == ()


def test_wide_ls_window_asks_for_a_smaller_window(tmp_path, capsys):
    # the CLI fixes the probe at 24 columns, narrower than the even block of 49 DOFs
    rc = main(["solve", "--problem", "air_cavity", "--formulation", "ls", "--p", "8",
               "--h", "0.25", "--window", "0", "40", "-1.5", "0", "--no-filter",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "pipeline stage 'solve' failed" in err
    assert "the probe of 24 columns is narrower than the even block of 49 DOFs" in err
    assert "smaller window" in err
    assert not (tmp_path / "eigenvalues.csv").exists()


def test_eigenvalues_csv_format(tmp_path):
    cfg = RunConfig(**_SLAB_DTN, out_dir=str(tmp_path))
    written = emit_outputs(run_pipeline(cfg))
    assert [p.rsplit("/", 1)[-1] for p in written] == ["eigenvalues.csv", "run.json"]
    lines = (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "j,re_k,im_k,epsilon,feasible,ref_match,ref_dist,parity"
    for j, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert len(fields) == 8
        assert fields[0] == str(j)
        for numeric in fields[1:4] + fields[6:7]:
            assert f"{float(numeric):.12g}" == numeric  # 12 significant digits
        assert fields[4] in ("true", "false")
        int(fields[5])  # reference index column
        assert fields[7] in ("even", "odd")  # the slab is even
    # the modes alternate in parity, starting from the even fundamental
    assert [line.split(",")[7] for line in lines[1:]] == ["even", "odd"] * 2 + ["even"]


def test_eigenvalues_csv_columns_are_the_report_row_fields(tmp_path):
    rows = (ReportRow(0, -0.0, -0.5, None, False, None, None, None),
            ReportRow(1, 1.25, -0.0, 0.5, True, 2, 1e-13, "odd"))
    emit_outputs(RunReport(config=RunConfig(**_SLAB_DTN, out_dir=str(tmp_path)), rows=rows,
                           dof_count=0, elapsed_seconds=0.0, grid=None, blocks=()))
    lines = (tmp_path / "eigenvalues.csv").read_text().splitlines()
    assert lines[0].split(",") == [f.name for f in dataclasses.fields(ReportRow)]
    # a bool as true/false, None as empty, a signed zero as 0
    assert lines[1:] == ["0,0,-0.5,,false,,,", "1,1.25,0,0.5,true,2,1e-13,odd"]


def test_run_json_round_trips_through_load_config(tmp_path):
    cfg = RunConfig(**_SLAB_DTN, out_dir=str(tmp_path))
    emit_outputs(run_pipeline(cfg))
    payload = json.loads((tmp_path / "run.json").read_text())
    assert set(payload) == {"blocks", "config", "versions"}
    n = run_pipeline(cfg).dof_count
    assert payload["blocks"] == [{"parity": "even", "size": (n + 1) // 2},
                                 {"parity": "odd", "size": n // 2}]
    assert set(payload["versions"]) == {"helmres", "numpy", "python"}
    assert load_config(str(tmp_path / "run.json")) == cfg
    # an ls run with a grid: the tuple fields and the seed go through JSON too, and
    # its rerun from run.json writes the same files
    cfg = RunConfig(problem="slab", formulation="ls", degree=4, initial_cell_size=0.5,
                    window=(0.0, 4.0, -2.0, 0.0), pseudo_resolution=(3, 3), seed=7,
                    out_dir=str(tmp_path / "ls"))
    emit_outputs(run_pipeline(cfg))
    assert load_config(str(tmp_path / "ls" / "run.json")) == cfg
    assert main(["solve", "--config", str(tmp_path / "ls" / "run.json"),
                 "--out", str(tmp_path / "rerun")]) == 0
    for name in ("eigenvalues.csv", "pseudospectrum.csv"):
        assert (tmp_path / "rerun" / name).read_bytes() == (tmp_path / "ls" / name).read_bytes()


def test_a_float_field_given_as_a_json_integer_echoes_as_its_flag_does(tmp_path):
    # "d": 1 in a config file and --d 1 are the same run, so run.json must say so
    # byte for byte: the two configs compared equal, but the file echoed "d": 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"problem": "slab", "formulation": "dtn", "degree": 2,
                                    "initial_cell_size": 0.5, "d": 1, "sigma0": 5,
                                    "window": [0, 4, -2, 0]}))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "file")]) == 0
    assert main(["solve", "--problem", "slab", "--formulation", "dtn", "--p", "2", "--h", "0.5",
                 "--d", "1", "--sigma0", "5", "--window", "0", "4", "-2", "0",
                 "--out", str(tmp_path / "flags")]) == 0
    texts = []
    for out in ("file", "flags"):
        payload = json.loads((tmp_path / out / "run.json").read_text())
        assert payload["config"].pop("out_dir") == str(tmp_path / out)
        texts.append(json.dumps(payload, sort_keys=True))
    assert texts[0] == texts[1]
    assert '"d": 1.0' in texts[0] and '"sigma0": 5.0' in texts[0]


def test_main_solve_writes_outputs(tmp_path, capsys):
    rc = main(["solve", "--problem", "slab", "--formulation", "dtn", "--p", "2",
               "--h", "0.5", "--d", "1", "--window", "0", "4", "-2", "0",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "eigenvalues.csv").exists()
    assert (tmp_path / "run.json").exists()
    out = capsys.readouterr().out
    assert "slab / dtn" in out and "eigenvalue(s)" in out


def test_main_filter_classifies(tmp_path, capsys):
    rc = main(["filter", "--problem", "slab", "--formulation", "pml", "--p", "2",
               "--h", "0.5", "--d", "1", "--xc", "2", "--ell", "4",
               "--window", "0", "4", "-2", "0", "--threshold", "0.5",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert " spurious" in out and " true" in out


def test_main_solve_labels_rows_at_the_threshold_like_filter(tmp_path, capsys):
    argv = ["--problem", "slab", "--formulation", "pml", "--p", "2", "--h", "0.5", "--d", "1",
            "--xc", "2", "--ell", "4", "--window", "0", "4", "-2", "0", "--threshold", "0.5"]
    printed = {}
    for command in ("solve", "filter"):
        assert main([command, *argv, "--out", str(tmp_path / command)]) == 0
        printed[command] = [line for line in capsys.readouterr().out.splitlines()
                            if line.startswith("  k[")]
    assert printed["solve"] == printed["filter"]
    labels = set()
    for line in printed["solve"]:
        eps, label = line.split("eps = ")[1].split()[:2]
        labels.add(label)
        assert label == ("true" if float(eps) < 0.5 and "infeasible" not in line
                         else "spurious")
    assert labels == {"true", "spurious"}


def test_main_filter_overrides_the_config_file_but_not_no_filter(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_SLAB_DTN, "window": list(_SLAB_DTN["window"]),
                                    "apply_filter": False}))
    for flags, filtered in (([], True), (["--no-filter"], False)):
        out = tmp_path / f"out-{filtered}"
        assert main(["filter", "--config", str(cfg_path), *flags, "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["config"]["apply_filter"] is filtered
        rows = (out / "eigenvalues.csv").read_text().strip().splitlines()[1:]
        assert rows and all(bool(row.split(",")[3]) is filtered for row in rows)


def test_pair_without_resonator_support_gets_infinite_eps(tmp_path, capsys, monkeypatch):
    # the filter gives inf for the second row's pair, in the order the rows are filtered
    real, calls = cli.filter_epsilons, []

    def no_support_for_the_second_pair(ctx, pairs):
        calls.append(pairs)
        eps = real(ctx, pairs)
        eps[1] = math.inf
        return eps

    monkeypatch.setattr(cli, "filter_epsilons", no_support_for_the_second_pair)
    assert main(["filter", "--problem", "slab", "--formulation", "dtn", "--p", "2",
                 "--h", "0.5", "--d", "1", "--window", "0", "4", "-2", "0",
                 "--out", str(tmp_path)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  k[")]
    assert "eps = inf  spurious" in printed[1]
    assert all("eps = inf" not in line for j, line in enumerate(printed) if j != 1)
    rows = [line.split(",") for line in
            (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()[1:]]
    assert [row[3] == "inf" for row in rows] == [j == 1 for j in range(len(rows))]
    assert [len(pairs) for pairs in calls] == [len(rows)]  # one call for the whole run


# unwindowed PML runs whose deepest pairs reach Im k = -80 (h = 0.5) and -223 (h = 0.25)
_DEEP_PML_FILTER = ["filter", "--problem", "air_cavity", "--formulation", "pml", "--p", "16",
                    "--d", "2", "--xc", "3", "--ell", "5", "--sigma0", "5"]


def _rows_near(path, k):
    """The rows of eigenvalues.csv within 1e-2 of k, once no row has eps = nan."""
    rows = _csv_rows(path)
    assert rows and all(row[3] != "nan" for row in rows)
    return [row for row in rows if abs(complex(float(row[1]), float(row[2])) - k) < 1e-2]


def test_filter_scales_a_kernel_whose_square_overflows(tmp_path):
    # K(k)u is finite at this even/odd pair, but its quadratic form overflowed to
    # inf - inf, which wrote eps = nan
    assert main([*_DEEP_PML_FILTER, "--h", "0.5", "--out", str(tmp_path)]) == 0
    pair = _rows_near(tmp_path / "eigenvalues.csv", 33.286 - 79.987j)
    assert sorted(row[7] for row in pair) == ["even", "odd"]
    assert all(1e150 < float(row[3]) < math.inf for row in pair)
    assert [f"{float(row[3]):.1e}" for row in pair] == ["5.9e+163"] * 2


def test_filter_gives_an_overflowing_kernel_infinite_eps(tmp_path):
    # K(k)u overflows at this twin pair, which failed the whole run
    assert main([*_DEEP_PML_FILTER, "--h", "0.25", "--out", str(tmp_path)]) == 0
    pair = _rows_near(tmp_path / "eigenvalues.csv", 288.779 - 223.196j)
    assert sorted(row[7] for row in pair) == ["even", "odd"]
    assert all(row[3] == "inf" for row in pair)


def test_console_report_labels_rows_below_the_critical_line(tmp_path, capsys):
    # the window of test_pml_feasibility_does_not_depend_on_the_filter
    assert main(["solve", "--problem", "slab", "--formulation", "pml", "--p", "2", "--h", "0.5",
                 "--d", "1", "--xc", "2", "--ell", "4", "--window", "0", "4", "-20", "0",
                 "--no-filter", "--out", str(tmp_path)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  k[")]
    rows = [line.split(",") for line in
            (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()[1:]]
    assert len(printed) == len(rows)
    labelled = ["infeasible" in line for line in printed]
    assert any(labelled) and not all(labelled)
    assert labelled == [row[4] == "false" for row in rows]


def test_main_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_SLAB_DTN, "window": list(_SLAB_DTN["window"])}))
    rc = main(["solve", "--config", str(cfg_path), "--p", "3",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    stored = json.loads((tmp_path / "out" / "run.json").read_text())["config"]
    assert stored["degree"] == 3
    assert stored["initial_cell_size"] == 0.5  # file value survives


def test_main_reference_emits_tables(tmp_path, capsys):
    rc = main(["reference", "--problem", "air_cavity", "--formulation", "dtn",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "reference.csv").read_text().strip().splitlines()
    assert lines[0] == "j,re_k,im_k"
    assert len(lines) == 1 + 16
    payload = json.loads((tmp_path / "reference.json").read_text())
    assert payload["problem"] == "air_cavity"
    assert payload["provenance"] == "tabulated"
    assert len(payload["entries"]) == 16


def test_main_reference_rejects_eta_without_reference(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["reference", "--problem", "air_cavity", "--formulation", "dtn",
              "--eta", "2", "--out", str(tmp_path)])
    assert info.value.code not in (0, None)
    assert not (tmp_path / "reference.csv").exists()


def test_main_pseudospectrum_writes_grid(tmp_path):
    rc = main(["pseudospectrum", "--problem", "slab", "--formulation", "dtn",
               "--p", "2", "--h", "0.5", "--d", "1",
               "--window", "0", "1", "-1", "-0.5", "--pseudo", "3", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "pseudospectrum.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 6
    assert (tmp_path / "pseudospectrum.csv.json").exists()


def test_deep_plane_ls_grid_writes_finite_s_min(tmp_path):
    # T(k) forms e^{+ikny} as 1/e^{-ikny} on the right half of its mirror pieces: an
    # over- or underflow there must stay inside the grid down to Im k = -30.  The
    # values themselves are rounding, so only their count and finiteness are pinned
    assert main(["pseudospectrum", "--problem", "air_cavity", "--formulation", "ls",
                 "--p", "4", "--h", "0.5", "--window", "0", "6", "-30", "-10",
                 "--pseudo", "4", "3", "--out", str(tmp_path)]) == 0
    smin = [float(row[2]) for row in _csv_rows(tmp_path / "pseudospectrum.csv")]
    assert len(smin) == 12 and all(math.isfinite(s) for s in smin)


def test_pseudospectrum_and_solve_write_the_same_grid(tmp_path):
    flags = ["--problem", "air_cavity", "--formulation", "ls", "--p", "4", "--h", "0.5",
             "--window", "0", "6", "-2", "0", "--pseudo", "4", "3", "--seed", "2"]
    grids, sidecars = [], []
    for command in ("pseudospectrum", "solve"):
        out = tmp_path / command
        assert main([command, *flags, "--out", str(out)]) == 0
        grids.append((out / "pseudospectrum.csv").read_bytes())
        sidecar = json.loads((out / "pseudospectrum.csv.json").read_text())
        assert sidecar["parameters"].pop("out_dir") == str(out)
        sidecars.append(sidecar)
    assert grids[0] == grids[1]
    assert sidecars[0] == sidecars[1]


def test_pseudospectrum_names_the_k_where_t_overflows(tmp_path, capsys):
    rc = main(["pseudospectrum", "--problem", "air_cavity", "--formulation", "ls",
               "--p", "4", "--h", "0.5", "--window", "0", "8", "-300", "-250",
               "--pseudo", "3", "3", "--out", str(tmp_path)])
    assert rc == 1
    assert ("pipeline stage 'pseudospectrum' failed: T(k) at k = 0-300j: matrix has "
            "non-finite entries" in capsys.readouterr().err)


def test_ref_match_and_convergence_target_index_the_reference_csv(tmp_path, capsys):
    flags = ["--problem", "air_cavity", "--formulation", "dtn", "--p", "10", "--h", "0.25",
             "--d", "2", "--window", "0", "13.5", "-2", "0"]
    assert main(["solve", *flags, "--out", str(tmp_path / "solve")]) == 0
    assert main(["reference", *flags, "--out", str(tmp_path / "ref")]) == 0
    refs = [complex(float(re), float(im)) for _, re, im in
            (line.split(",") for line in
             (tmp_path / "ref" / "reference.csv").read_text().splitlines()[1:])]
    rows = [line.split(",") for line in
            (tmp_path / "solve" / "eigenvalues.csv").read_text().splitlines()[1:]]
    assert len(rows) >= 8
    for row in rows:
        k, j, dist = complex(float(row[1]), float(row[2])), int(row[5]), float(row[6])
        # both k are written to 12 significant digits
        assert abs(abs(k - refs[j]) - dist) <= 1e-11 * (1.0 + abs(k))
        assert j == min(range(len(refs)), key=lambda i: abs(k - refs[i]))
    j = int(rows[-1][5])
    capsys.readouterr()
    assert main(["convergence", *flags, "--sweep", "p", "--start", "4", "--stop", "4",
                 "--target", str(j)]) == 0
    target = capsys.readouterr().out.splitlines()[0]
    assert target == (f"# target k = {refs[j].real:+.12g} {refs[j].imag:+.12g}j "
                      f"(reference index {j})")


def test_main_convergence_reports_factors(capsys):
    rc = main(["convergence", "--problem", "slab", "--formulation", "dtn",
               "--h", "0.5", "--d", "1", "--sweep", "p", "--start", "2",
               "--stop", "4", "--target", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "# target k" in out
    assert out.count("factor") == 2


def test_main_convergence_rejects_a_negative_target(capsys):
    # a negative index would silently track an entry counted from the end
    rc = main(["convergence", "--problem", "slab", "--formulation", "dtn",
               "--h", "0.5", "--d", "1", "--sweep", "p", "--start", "2",
               "--stop", "3", "--target", "-1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "pipeline stage 'config' failed" in captured.err
    assert "# target k" not in captured.out


def test_main_rejects_ls_without_window(capsys):
    rc = main(["solve", "--problem", "slab", "--formulation", "ls",
               "--p", "3", "--h", "0.5"])
    assert rc == 1
    assert "pipeline stage 'solve' failed" in capsys.readouterr().err


def test_main_grid_errors_are_stage_errors(tmp_path, capsys):
    # a grid without --window or --pseudo
    rc = main(["pseudospectrum", "--problem", "slab", "--formulation", "dtn", "--p", "2",
               "--h", "0.5", "--d", "1", "--out", str(tmp_path)])
    assert rc == 1
    assert "pipeline stage 'pseudospectrum' failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "pseudospectrum"])
def test_a_grid_without_a_window_fails_as_config_before_any_output(tmp_path, capsys, command):
    out = tmp_path / "out"
    rc = main([command, "--problem", "air_cavity", "--formulation", "dtn", "--p", "16",
               "--h", "0.25", "--pseudo", "3", "3", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "pipeline stage 'config' failed" in err and "pseudo_resolution" in err
    assert not out.exists()


@pytest.mark.parametrize("text, got", [
    ("5", "int"),
    ('"abc"', "str"),
    ('{"config": 3, "problem": "slab"}', "int"),
], ids=["number", "string", "config-number"])
def test_main_rejects_a_config_file_that_is_no_json_object(tmp_path, capsys, text, got):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "pipeline stage 'config' failed" in err
    assert f"a JSON object, got {got}" in err


@pytest.mark.parametrize("command", ["solve", "filter", "pseudospectrum", "reference"])
def test_main_output_errors_are_stage_errors(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main([command, "--problem", "slab", "--formulation", "dtn", "--p", "2",
               "--h", "0.5", "--d", "1", "--window", "0", "4", "-2", "0",
               "--pseudo", "2", "2", "--out", str(blocker / "out")])
    assert rc == 1
    assert "pipeline stage 'output' failed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "bump", "--formulation", "dtn", "--eta", "3"],
    ["solve", "--problem", "slab", "--formulation", "dtn", "--window", "1", "0", "-1", "0"],
    ["convergence", "--problem", "air_cavity", "--formulation", "dtn", "--target", "99"],
    ["reference", "--problem", "slab", "--formulation", "dtn", "--eta", "0.5"],
    ["convergence", "--problem", "slab", "--formulation", "dtn", "--eta", "0.5"],
    ["solve", "--problem", "slab", "--formulation", "ls", "--window", "0", "4", "-2", "0",
     "--seed", "-1"],
    ["convergence", "--problem", "slab", "--formulation", "dtn", "--h", "0.5", "--d", "1",
     "--sweep", "p", "--start", "0", "--stop", "1"],
    ["convergence", "--problem", "slab", "--formulation", "dtn", "--h", "0.5", "--d", "1",
     "--sweep", "p", "--start", "5", "--stop", "2"],
    ["convergence", "--problem", "slab", "--formulation", "dtn", "--h", "0.5", "--d", "1",
     "--sweep", "h", "--levels", "0"],
    # a grid without --window
    ["solve", "--problem", "slab", "--formulation", "dtn", "--p", "2", "--h", "0.5", "--d", "1",
     "--pseudo", "3", "3"],
])
def test_main_reports_config_errors(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "eigenvalues.csv").exists()


@pytest.mark.parametrize("flags, config", [
    (["--eta", "nan"], None),
    (["--eta", "inf"], None),
    (["--h", "nan"], None),
    (["--d", "inf"], None),
    (["--sigma0", "nan"], None),
    (["--xc=-inf"], None),
    (["--ell", "nan"], None),
    (["--threshold", "nan"], None),
    (["--window", "0", "4", "-2", "inf"], None),
    ([], {"eta": math.nan}),
    ([], {"initial_cell_size": math.inf}),
    ([], {"epsilon_threshold": math.nan}),
    ([], {"window": [0.0, math.inf, -2.0, 0.0]}),
], ids=["eta-nan", "eta-inf", "h-nan", "d-inf", "sigma0-nan", "xc-minus-inf", "ell-nan",
        "threshold-nan", "window-inf", "json-eta-nan", "json-h-inf", "json-threshold-nan",
        "json-window-inf"])
def test_main_rejects_non_finite_numbers_as_config_errors(tmp_path, capsys, flags, config):
    # argparse's float() reads nan and inf, json.load its NaN and Infinity literals
    argv = ["filter", "--problem", "slab", "--formulation", "dtn", "--p", "4", "--d", "1",
            "--window", "0", "4", "-2", "0", *flags]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"problem": "slab", "formulation": "dtn", "degree": 4,
                                    "d": 1.0, "window": [0.0, 4.0, -2.0, 0.0], **config}))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        argv = ["filter", "--config", str(path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert "pipeline stage 'config' failed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [
    {"degree": True},
    {"degree": 2.5},
    {"refinements": 1.5},
    {"seed": 1.5},
    {"apply_filter": "false"},
    {"pseudo_resolution": [2.7, 3]},
    {"window": ["0", "4", "-2", "0"]},
    {"d": True},
    {"out_dir": 5},
    # [] fits no annotation, so every field, a later one too, must reject it itself
    *({f.name: []} for f in dataclasses.fields(RunConfig)),
], ids=["degree-bool", "degree-float", "refinements-float", "seed-float",
        "apply_filter-string", "pseudo-float", "window-strings", "d-bool", "out_dir-int",
        *(f"{f.name}-list" for f in dataclasses.fields(RunConfig))])
def test_main_rejects_mistyped_config_values(tmp_path, capsys, monkeypatch, config):
    # json.load gives any JSON value; each of these once ran, or failed only at a later stage
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"problem": "slab", "formulation": "ls", "degree": 2, "d": 1.0,
                                "window": [0.0, 4.0, -2.0, 0.0], "out_dir": "out", **config}))
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "pipeline stage 'config' failed" in err and f"{next(iter(config))} must be" in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("eta", ["-2", "0"])
def test_main_rejects_a_background_index_that_is_not_positive(tmp_path, capsys, eta):
    # n0 = -2 made the DtN condition incoming and found no eigenvalue; n0 = 0 failed
    # at stage solve with a mass matrix that was not positive definite
    rc = main(["filter", "--problem", "air_cavity", "--formulation", "dtn", "--p", "4",
               "--h", "0.5", f"--eta={eta}", "--window", "0", "4", "-2", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "pipeline stage 'setup' failed" in err and "n0" in err
    assert main(["filter", "--problem", "air_cavity", "--formulation", "dtn", "--p", "4",
                 "--h", "0.5", "--eta=0.5", "--window", "0", "4", "-2", "0",
                 "--out", str(tmp_path / "out")]) == 0


# each RunConfig field's flag, the words given after it, and the value it stores
_RUN_CONFIG_FLAGS = {
    "problem": ("--problem", ["bump"], "bump"),
    "formulation": ("--formulation", ["ls"], "ls"),
    "degree": ("--p", ["3"], 3),
    "initial_cell_size": ("--h", ["0.125"], 0.125),
    "refinements": ("--ref", ["2"], 2),
    "d": ("--d", ["1.5"], 1.5),
    "sigma0": ("--sigma0", ["4"], 4.0),
    "x_c": ("--xc", ["2.5"], 2.5),
    "ell": ("--ell", ["6"], 6.0),
    "window": ("--window", ["0", "4", "-2", "0"], [0.0, 4.0, -2.0, 0.0]),
    "apply_filter": ("--no-filter", [], False),
    "pseudo_resolution": ("--pseudo", ["3", "2"], [3, 2]),
    "out_dir": ("--out", ["o"], "o"),
    "seed": ("--seed", ["7"], 7),
    "eta": ("--eta", ["2"], 2.0),
    "epsilon_threshold": ("--threshold", ["0.5"], 0.5),
}


@pytest.mark.parametrize("command", ["solve", "filter", "pseudospectrum", "reference",
                                     "convergence"])
def test_every_subcommand_takes_every_run_config_flag(command):
    # the flags come from one parent parser; filter's default for --filter stays its own
    assert set(_RUN_CONFIG_FLAGS) == {field.name for field in dataclasses.fields(RunConfig)}
    parser = cli._parser()
    defaults = vars(parser.parse_args([command]))
    assert defaults["apply_filter"] is (True if command == "filter" else None)
    for dest in {"config", *_RUN_CONFIG_FLAGS} - {"apply_filter"}:
        assert defaults[dest] is None, dest
    for dest, (flag, words, value) in _RUN_CONFIG_FLAGS.items():
        assert getattr(parser.parse_args([command, flag, *words]), dest) == value, flag
    assert parser.parse_args([command, "--filter"]).apply_filter is True
    assert parser.parse_args([command, "--config", "c.json"]).config == "c.json"
    extra = {"sweep": "p", "target": 0, "start": 2, "stop": 8, "levels": 3}
    if command == "convergence":
        assert {name: defaults[name] for name in extra} == extra
    else:
        assert not set(extra) & set(defaults)


def test_main_requires_problem_and_formulation():
    with pytest.raises(SystemExit):
        main(["solve", "--p", "2"])


def test_pipeline_stage_error_carries_stage():
    cfg = RunConfig(problem="slab", formulation="ls", degree=3,
                    initial_cell_size=0.5)
    with pytest.raises(PipelineStageError) as info:
        run_pipeline(cfg)
    assert info.value.stage == "solve"


def test_pml_near_degenerate_pairs_come_out_even_and_odd():
    # acceptance 6's configuration: the layer modes come as near-degenerate pairs,
    # which one solve of the whole pencil returned as mixtures of the two parities
    disc = discretize(RunConfig(**_BENCH_PML))
    pairs = disc.solve()
    for pr in pairs:
        sign = {"even": 1.0, "odd": -1.0}[pr.parity]
        np.testing.assert_array_equal(pr.vector[::-1], sign * pr.vector)
    ks = np.array([pr.k for pr in pairs])
    close = [(i, j) for i in range(len(ks)) for j in range(i)
             if abs(ks[i] - ks[j]) <= 1e-9 * (1.0 + abs(ks[i]))]
    assert len(close) >= 25  # 30 with OpenBLAS on x86-64
    assert all({pairs[i].parity, pairs[j].parity} == {"even", "odd"} for i, j in close)


def test_a_medium_that_is_not_even_leaves_the_parity_column_empty(tmp_path, monkeypatch):
    off_centre = MediumProfile(n=lambda x: np.where((x >= -1.0) & (x <= 0.5), 2.0, 1.0),
                               n0=1.0, resonator_halfwidth=1.0, breakpoints=(-1.0, 0.5))
    monkeypatch.setattr(cli, "medium_for", lambda cfg: off_centre)
    cfg = RunConfig(**_SLAB_DTN, out_dir=str(tmp_path))
    report = run_pipeline(cfg)
    emit_outputs(report)
    rows = (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()[1:]
    assert rows and all(row.split(",")[7] == "" for row in rows)
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["blocks"] == [{"parity": None, "size": report.dof_count}]
