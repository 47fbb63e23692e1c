"""Exact certificates for adapted pairs of truncated maximal parabolics.

Supported: types B and D (even node, plus the even-rank extremal node and
its mirror), E6 at the outer nodes, and E7 at the third node.  See
`adapted_pairs.verify.run_case` for the full pipeline and `adapted_pairs.cli`
for the command line.

The names below are resolved on first access (PEP 562), so importing the
package, or rendering a stored certificate through the command line, does
not load the verification engine.
"""

from importlib import import_module as _import_module

__all__ = [
    "OutOfScopeError",
    "build_case",
    "build_root_system",
    "in_scope_cases",
    "run_case",
]

_HOME = {
    "OutOfScopeError": "construction",
    "build_case": "construction",
    "in_scope_cases": "construction",
    "build_root_system": "roots",
    "run_case": "verify",
}


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value
