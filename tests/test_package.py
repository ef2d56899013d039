"""The package's public names and what importing it costs."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import virann

#: scipy subpackages a fresh ``import virann, virann.cli`` may load:
#: ``linalg`` for ``expm``, and ``version``, which scipy imports itself
ALLOWED_SCIPY = {"linalg", "version"}


def test_import_loads_no_scipy_subpackage_beyond_linalg():
    # a fresh interpreter, since this one has scipy.integrate loaded already
    src = str(Path(virann.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, virann, virann.cli\n"
            "print(' '.join(sorted({m.split('.')[1] for m in sys.modules\n"
            "                       if m.startswith('scipy.')})))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = {sub for sub in out.split() if not sub.startswith("_")}
    extra = ", ".join(f"scipy.{sub}" for sub in sorted(loaded - ALLOWED_SCIPY))
    assert not extra, f"import virann, virann.cli loads {extra}"


def test_all_names_public_objects_not_modules():
    assert virann.__all__
    for name in virann.__all__:
        obj = getattr(virann, name)
        assert not isinstance(obj, types.ModuleType), name


def _names_read(path: Path) -> set[str]:
    """Names a file loads, reads as attributes or imports, each outside the
    body of a def or class of the same name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.update({node.id} - inside)
        elif isinstance(node, ast.Attribute):
            found.update({node.attr} - inside)
        elif isinstance(node, ast.alias):
            found.update({node.name} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def test_every_public_name_is_used_outside_the_tests():
    # a name that only tests call belongs in the tests
    pkg = Path(virann.__file__).resolve().parent
    files = [p for p in pkg.glob("*.py") if p.name != "__init__.py"]
    files += (pkg.parents[1] / "perfbench").rglob("*.py")
    used = set().union(*map(_names_read, files))
    unused = sorted(set(virann.__all__) - used)
    assert not unused, f"public names with no caller outside the tests: {unused}"
