"""Modules of the library reach each other through public names only, so a
private name can change with its own module and nowhere else."""

import ast
from pathlib import Path

import retinassl

PACKAGE = Path(retinassl.__file__).parent


def test_no_module_imports_a_private_name_of_a_sibling():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "retinassl":
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found, found


def test_the_library_raises_only_its_own_errors():
    # a stray ValueError or KeyError would escape the CLI's exit codes
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    library = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = library | ({"SystemExit"} if path.name == "cli.py" else set())
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name) and target.id not in allowed:
                found.append(f"{path.name}:{node.lineno} raises {target.id}")
    assert not found, found
