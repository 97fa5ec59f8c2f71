"""Only `cochains.py` knows how a cochain stores its entries.

The nested `components` layout {k: {(es, fs): SymPoly}} is read and
written in `cochains.py` alone: other modules read entries through
`cochains.entries` and `Cochain.value`, and build computed cochains as
streams of terms into `cochains.scatter`. `Cochain(degree, nvars,
components)` checks its input and is left to cochains from outside. The
other private slots are read and written in `cochains.py` alone too: the
free part (`_free`), the context that marked a cochain valid and whose
free-datum store writes it (`_valid_in`), the cached hash and extent, and
`_views`, what the operators read of a cochain as an operand
(`cochains.operand_view`). Only the marks `_valid_over` and
`_representable_over` are read elsewhere, and a validity mark is written
in `cochains.py` alone (`cochains.mark_valid`), so `_valid_over` and
`_valid_in` always name one algebra.
"""

import ast
from pathlib import Path

from leibniz_complex.cochains import Cochain

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leibniz_complex"
SHARED = {"degree", "nvars", "_valid_over", "_representable_over"}
LAYOUT = sorted(set(Cochain.__slots__) - SHARED)
MARKS = {"_valid_over", "_valid_in"}


def layout_uses(tree):
    """(line, what) for each read or write of a `LAYOUT` slot, each store
    to a validity mark (`MARKS`) and each `Cochain(...)` call given
    components, in one module's syntax tree."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (node.attr in LAYOUT or (
                node.attr in MARKS and not isinstance(node.ctx, ast.Load))):
            uses.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Cochain" and (len(node.args) > 2 or any(
                    kw.arg in ("components", None) for kw in node.keywords)):
                uses.append((node.lineno, "Cochain(..., components)"))
    return sorted(uses)


def test_only_cochains_reads_or_writes_the_components_layout():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "cochains.py" in modules
    outside = [f"{path.name}:{line}: {what}" for path in modules if path.name != "cochains.py"
               for line, what in layout_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert outside == []


def test_the_layout_covers_every_private_slot():
    assert LAYOUT == ["_extent", "_free", "_hash", "_valid_in", "_views", "components"]


def test_the_scan_sees_each_kind_of_use():
    source = ("omega.components[0]\n"
              "omega.components = {}\n"
              "Cochain(1, 2, {0: table})\n"
              "cochains.Cochain(1, 2, components=comps)\n"
              "Cochain(1, 2, **kwargs)\n"
              "Cochain.zero(1, 2)\n"
              "Cochain(1, 2)\n"
              "omega._views\n"
              "omega._free\n"
              "omega._valid_in\n"
              "omega._valid_over\n"
              "omega._valid_over = ctx.algebra\n"
              "omega._valid_over, omega._valid_in = ctx.algebra, ctx\n"
              "del omega._valid_over\n"
              "omega._representable_over = ctx.algebra\n")
    assert [line for line, _ in layout_uses(ast.parse(source))] == [
        1, 2, 3, 4, 5, 8, 9, 10, 12, 13, 13, 14]
