"""Module layering: imports point down the stack, file I/O and formulation names
stay in the command-line module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "helmres"
# README's "Modules, bottom to top"
ORDER = ("mesh_fe", "media", "assembly", "eigen", "reference", "lippmann", "cli")
FORMULATION_NAMES = {"dtn", "pml", "ls"}


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
