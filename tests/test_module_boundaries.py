"""Modules of the library reach each other through public names only, so a
private name can change with its own module and nowhere else."""

import ast
from pathlib import Path

import retinassl
from retinassl.configio import _valid_keys

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


def test_settable_values_do_not_grow():
    # a ratchet: each count is at most its value when it was last lowered,
    # so a new knob changes this test, where a review sees it
    fields = defaults = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).split("(")[0] in ("dataclass", "dataclasses.dataclass")
                    for d in node.decorator_list):
                fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults += len(node.args.defaults)
                defaults += sum(d is not None for d in node.args.kw_defaults)
    counts = {"config keys": len(_valid_keys()), "dataclass fields": fields,
              "parameters with defaults": defaults}
    limits = {"config keys": 39, "dataclass fields": 84, "parameters with defaults": 39}
    assert all(counts[k] <= limits[k] for k in limits), (counts, limits)
