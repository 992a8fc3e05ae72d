"""Module layering: imports point down the stack, file I/O and formulation names
stay in the command-line module, where only ``discretize`` reads the formulation,
contours are placed and windows applied in ``eigen`` alone, the package runs on
numpy alone, and a DtN run does not load ``numpy.ma``."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from helmres.cli import RunConfig, discretize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "helmres"
# README's "Modules, bottom to top"
ORDER = ("mesh_fe", "media", "assembly", "eigen", "reference", "lippmann", "cli")
FORMULATION_NAMES = {"dtn", "pml", "ls"}
# the contour placement and the window filter, whose one home is eigen
WINDOW_HELPERS = {"window_contour", "in_window"}
# np.unique imports numpy.ma on first use, and np.union1d goes through it (mesh_fe's
# sorted_union replaces both); np.add.at is the unbuffered scatter that assembly's
# two passes replace
SLOW_NUMPY_CALLS = {"np.add.at", "np.unique", "np.union1d"}
# one small slab run of each formulation, a dtn and a pml grid, and a sweep: every
# operator's T(k) runs without scipy (the ls one in the solve --pseudo run)
NUMPY_ONLY_RUNS = (
    ["filter", "--problem", "slab", "--formulation", "dtn", "--p", "4", "--h", "0.5",
     "--d", "1", "--window", "0", "4", "-2", "0"],
    ["filter", "--problem", "slab", "--formulation", "pml", "--p", "4", "--h", "0.5",
     "--d", "1", "--xc", "2", "--ell", "4", "--window", "0", "4", "-2", "0"],
    ["solve", "--problem", "slab", "--formulation", "ls", "--p", "4", "--h", "0.5",
     "--window", "0", "4", "-2", "0", "--pseudo", "3", "3"],
    ["pseudospectrum", "--problem", "slab", "--formulation", "dtn", "--p", "4", "--h", "0.5",
     "--d", "1", "--window", "0", "4", "-2", "0", "--pseudo", "3", "3"],
    ["pseudospectrum", "--problem", "slab", "--formulation", "pml", "--p", "4", "--h", "0.5",
     "--d", "1", "--xc", "2", "--ell", "4", "--window", "0", "4", "-2", "0", "--pseudo", "3", "3"],
    ["sweep", "--problem", "slab", "--formulation", "dtn", "--p", "2", "--h", "0.5", "--d", "1",
     "--window", "0", "4", "-2", "0", "--over", "h", "--steps", "2"],
)
# None in sys.modules makes every import of scipy raise ModuleNotFoundError
_NUMPY_ONLY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None
from helmres.cli import main
print(json.dumps([main([*argv, "--out", out]) for argv, out in json.loads(sys.argv[1])]))
"""


def _tree(module):
    return ast.parse((SRC / module).read_text(encoding="utf-8"))


def _helmres_imports(tree) -> set:
    """The helmres modules a module imports; names taken from the package itself
    (``from . import __version__``) are no module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.update([node.module.split(".")[0]] if node.module
                         else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("helmres."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("helmres."))
    return found & set(ORDER)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "cli.py"))
def test_only_cli_does_file_io(module):
    tree = _tree(module)
    opens = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"]
    json_imports = [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Import) and any(a.name == "json" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "json"]
    assert opens == [] and json_imports == []


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py") == sorted(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_imports_point_down_the_stack(module):
    below = set(ORDER[:ORDER.index(module)])
    assert _helmres_imports(_tree(module + ".py")) <= below


@pytest.mark.parametrize("module", [m for m in ORDER if m != "cli"])
def test_only_cli_names_formulations(module):
    names = [(node.lineno, node.value) for node in ast.walk(_tree(module + ".py"))
             if isinstance(node, ast.Constant) and node.value in FORMULATION_NAMES]
    assert names == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "eigen.py"))
def test_only_eigen_places_contours_or_applies_windows(module):
    calls = [(node.lineno, ast.unparse(node.func)) for node in ast.walk(_tree(module))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in WINDOW_HELPERS]
    assert calls == []


@pytest.mark.parametrize("module", [m for m in ORDER if m != "cli"])
def test_only_cli_takes_or_stores_a_formulation(module):
    """A label that arrives as a parameter or is kept in a class field is no string
    constant, so the check above misses it."""
    tree = _tree(module + ".py")
    names = [(node.lineno, node.arg) for node in ast.walk(tree) if isinstance(node, ast.arg)]
    names += [(stmt.lineno, stmt.target.id) for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for stmt in node.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert [(line, name) for line, name in names if name == "formulation"] == []


def test_only_discretize_names_a_formulation():
    """The formulation is decided once: after ``discretize`` a run works on its
    operator, so no other code in the command-line module names one."""
    tree = _tree("cli.py")
    allowed = set()
    for node in tree.body:
        if (isinstance(node, ast.FunctionDef) and node.name == "discretize"
                or isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_FORMULATIONS"]):
            allowed.update(map(id, ast.walk(node)))
    names = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in FORMULATION_NAMES
             and id(node) not in allowed]
    assert names == []


def test_an_ls_run_has_one_ls_context():
    disc = discretize(RunConfig(problem="slab", formulation="ls", degree=2,
                                initial_cell_size=0.5))
    assert disc.ls_context is disc.operator


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))


def test_cli_runs_without_scipy(tmp_path):
    runs = [(argv, str(tmp_path / str(i))) for i, argv in enumerate(NUMPY_ONLY_RUNS)]
    # the interpreter does not read pyproject.toml's filterwarnings, so it is given the policy
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                           _NUMPY_ONLY_SCRIPT, json.dumps(runs)],
                          env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(NUMPY_ONLY_RUNS), proc.stderr


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_imports_scipy(module):
    """At any depth, function bodies included: scipy is a test oracle only."""
    found = [node.lineno for node in ast.walk(_tree(module))
             if isinstance(node, ast.Import)
             and any(a.name.split(".")[0] == "scipy" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.level == 0
             and (node.module or "").split(".")[0] == "scipy"]
    assert found == []


def test_importing_the_cli_leaves_scipy_unloaded():
    # run where scipy is installed, so that an import of it would succeed
    pytest.importorskip("scipy")
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, helmres.cli; print('scipy' in sys.modules)"],
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_calls_unique_union_or_add_at(module):
    found = [(node.lineno, ast.unparse(node.func)) for node in ast.walk(_tree(module))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).replace("numpy.", "np.") in SLOW_NUMPY_CALLS]
    assert found == []


def test_a_dtn_solve_leaves_numpy_ma_unloaded(tmp_path):
    argv = ["solve", "--problem", "air_cavity", "--formulation", "dtn", "--p", "4", "--h", "0.5",
            "--d", "2", "--window", "0", "6", "-2", "0", "--out", str(tmp_path)]
    script = ("import io, json, sys, contextlib; from helmres.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(json.loads(sys.argv[1]))\n"
              "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
