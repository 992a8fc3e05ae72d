"""Only the command-line module reads or writes files."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "helmres"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "cli.py"))
def test_only_cli_does_file_io(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    opens = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"]
    json_imports = [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Import) and any(a.name == "json" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "json"]
    assert opens == [] and json_imports == []
