"""No float ever decides a verdict: a scan of the package source.

The scan finds every float or complex literal, every call of float(),
round() or complex(), and every true division (`/` and `/=`).  The engine
computes on ints only, its rationals being (num, den) int pairs, so the
one allowed hit is the path join `out_dir / ...` of `cli.cmd_sweep`.  A
second scan finds every import of `fractions` and every use of the name
`Fraction`, which the package has none of: a `verify` process then loads
neither `fractions` nor the `decimal` and `numbers` modules it imports.
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


def fraction_nodes(tree: ast.AST) -> List[str]:
    """What names `fractions` or `Fraction` in tree, in walk order: an
    import, a name, an attribute or a string that is exactly one of them
    (as `importlib.import_module` takes)."""
    names = ("fractions", "Fraction")
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hits += [f"import {a.name}" for a in node.names if a.name in names]
        elif isinstance(node, ast.ImportFrom) and node.module in names:
            hits.append(f"from {node.module} import")
        elif isinstance(node, ast.Name) and node.id in names:
            hits.append(f"name {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in names:
            hits.append(f"attribute {node.attr}")
        elif isinstance(node, ast.Constant) and node.value in names:
            hits.append(f"string {node.value!r}")
    return hits


def test_the_package_source_has_no_fraction():
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "linalg.py" in paths
    hits = [
        (path.name, what)
        for path in paths
        for what in fraction_nodes(ast.parse(path.read_text()))
    ]
    assert hits == []


@pytest.mark.parametrize(
    "source,hits",
    [
        ("import fractions", ["import fractions"]),
        ("from fractions import Fraction", ["from fractions import"]),
        ("y = Fraction(1, 2)", ["name Fraction"]),
        (
            "import fractions as f\ny = f.Fraction(1)",
            ["import fractions", "attribute Fraction"],
        ),
        ("def f() -> 'x':\n    d: Dict[int, Fraction] = {}", ["name Fraction"]),
        ("m = import_module('fractions')", ["string 'fractions'"]),
    ],
)
def test_the_fraction_scan_finds_each_use(source, hits):
    assert fraction_nodes(ast.parse(source)) == hits


@pytest.mark.parametrize(
    "source",
    ['"""Fraction-free elimination."""', "y = _rational(1, 2)", "fraction = (1, 2)"],
)
def test_the_fraction_scan_passes_int_pairs_and_prose(source):
    assert fraction_nodes(ast.parse(source)) == []
