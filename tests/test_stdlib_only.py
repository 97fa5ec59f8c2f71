"""The package runs on the standard library alone, and every name it
exports resolves."""

import ast
import sys
from pathlib import Path

import leibniz_complex

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leibniz_complex"


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_exported_name_resolves():
    exported = leibniz_complex.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(leibniz_complex, name)] == []
    namespace = {}
    exec("from leibniz_complex import *", namespace)
    assert set(exported) <= set(namespace)
