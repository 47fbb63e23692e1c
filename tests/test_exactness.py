"""No float ever decides a verdict: a scan of the package source.

The scan finds every float or complex literal, every call of float(),
round() or complex(), and every true division (`/` and `/=`).  The engine
computes on ints and Fractions only, so the one allowed hit is the path
join `out_dir / ...` of `cli.cmd_sweep`.
"""

import ast
from pathlib import Path
from typing import List, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "adapted_pairs"
INEXACT_CALLS = ("float", "round", "complex")


def inexact_nodes(tree: ast.AST) -> List[Tuple[str, str]]:
    """(enclosing function, what) for each inexact node of tree, in source
    order; a division is named by its left operand."""
    hits = []

    def visit(node: ast.AST, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            hits.append((func, f"literal {node.value!r}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in INEXACT_CALLS
        ):
            hits.append((func, f"call {node.func.id}()"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            hits.append((func, f"{ast.unparse(node.left)} / ..."))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            hits.append((func, f"{ast.unparse(node.target)} /= ..."))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return hits


def test_the_package_source_has_no_inexact_arithmetic():
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "verify.py" in paths
    hits = [
        (path.name, func, what)
        for path in paths
        for func, what in inexact_nodes(ast.parse(path.read_text()))
    ]
    assert hits == [("cli.py", "cmd_sweep", "out_dir / ...")]


@pytest.mark.parametrize(
    "source,hit",
    [
        ("x = 0.5", ("<module>", "literal 0.5")),
        ("x = 2j", ("<module>", "literal 2j")),
        ("def f(x):\n    return float(x)", ("f", "call float()")),
        ("y = round(x)", ("<module>", "call round()")),
        ("y = complex(x)", ("<module>", "call complex()")),
        ("def g(a, b):\n    return a / b", ("g", "a / ...")),
        ("a /= b", ("<module>", "a /= ...")),
    ],
)
def test_the_scan_finds_each_inexact_node(source, hit):
    assert inexact_nodes(ast.parse(source)) == [hit]


@pytest.mark.parametrize(
    "source", ["y = a // b", "y = Fraction(1, 2)", "y = int(x)", "y = f'{t:6.2f}'"]
)
def test_the_scan_passes_exact_code(source):
    assert inexact_nodes(ast.parse(source)) == []
