"""Serializable certificates: every check outcome with exact rational data.

Rationals are stored as {"num", "den"} pairs and roots as integer vectors in
the simple-root basis, so a certificate survives JSON round-tripping without
loss and an independent checker can re-validate it.  All set listings are
ordered lexicographically by coefficient vector, which makes certificates
byte-deterministic.  This module is the writer and needs the engine; the
reader (`json.loads`, then `cli._rat`, which reads a rational back as two
ints) lives in `cli`, next to `report`.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Dict, List, Sequence, Union

from .bounds import bound_multiples
from .roots import Root
from .verify import CaseResult

SCHEMA_VERSION = 1


def _rat(x: Union[int, Fraction]) -> Dict[str, int]:
    """{"num", "den"} of an int or a Fraction, which hold both in lowest
    terms."""
    return {"num": x.numerator, "den": x.denominator}


def _root_list(roots: Sequence[Root]) -> List[List[int]]:
    """Coefficient vectors in sorted order; a root's code sorts like its
    coefficients (`RootSystem.code`)."""
    return [list(r.coeffs) for r in sorted(roots, key=attrgetter("code"))]


def certificate_dict(result: CaseResult) -> dict:
    cand = result.candidate
    pair = result.pair
    cert = {
        "schema": SCHEMA_VERSION,
        "case": {"family": cand.family, "rank": cand.n, "s": cand.s},
        "S": {
            "plus": _root_list(cand.S_plus),
            "minus": _root_list(cand.S_minus),
            "mixed": _root_list(cand.S_mixed),
        },
        "gamma_sets": [
            {"centre": list(g.coeffs), "members": _root_list(cand.gamma_sets[g])}
            for g in sorted(cand.gamma_sets, key=attrgetter("code"))
        ],
        "T": _root_list(cand.T),
        "T_star": _root_list(cand.T_star),
        "h": {
            "coroot_coeffs": [
                {"alpha": idx, "value": _rat(val)}
                for idx, val in sorted(pair.h_coroot_coeffs.items())
            ],
        },
        "eigenvalues": [
            {"gamma": list(g.coeffs), "value": _rat(pair.eigenvalues[g])}
            for g in sorted(pair.eigenvalues, key=attrgetter("code"))
        ],
        "degrees": [_rat(d) for d in pair.degrees],
        "bounds": {
            "lower_multiples_of_varpi_s": [
                _rat(m) for m in bound_multiples(cand, result.lower)
            ],
            "improved_multiples_of_varpi_s": [
                _rat(m) for m in bound_multiples(cand, result.improved)
            ],
        },
        "checks": {
            "basis_det": _rat(result.basis.determinant),
            "heisenberg_ok": result.heisenberg.ok,
            "classification_ok": result.classification.ok,
            "classification_counts": {
                k: result.classification.counts[k]
                for k in sorted(result.classification.counts)
            },
            "nondegeneracy_det": _rat(result.nondegeneracy.determinant),
            "nondegeneracy_monomial_degree": result.nondegeneracy.monomial_degree,
            "regularity_rank": result.regularity.rank,
            "regularity_rank_augmented": result.regularity.rank_augmented,
            "dim_p": result.regularity.dim_p,
            "T_size_vs_index": result.t_size_vs_index,
            "eigenvalues_match_closed_form": result.eigenvalues_match,
            "bounds_coincide": result.bounds_coincide,
            "bounds_match_closed_form": result.bounds_expected_match,
        },
        "verdict": "pass" if result.verdict else "fail",
        "first_failing_check": result.first_failing,
    }
    return cert


def to_json(cert: dict) -> str:
    """The bytes of json.dumps(cert, indent=2, sort_keys=True) + "\n",
    written directly: with indent, json runs its pure-Python encoder.  A
    certificate holds only dicts with str keys, lists, ints, bools, None
    and strs (escaped to ASCII, as json does); anything else raises
    TypeError."""
    parts: List[str] = []
    _write(cert, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write(obj, newline: str, emit) -> None:
    """Emit obj as json.dumps does with indent=2 and sort_keys=True, at the
    nesting whose line break and indent is newline."""
    kind = type(obj)
    if kind is str:
        emit(encode_basestring_ascii(obj))
    elif kind is int:
        emit(int.__repr__(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif kind is dict:
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"certificate key {key!r} is not a str")
            emit(sep)
            emit(encode_basestring_ascii(key))
            emit(": ")
            _write(obj[key], inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif kind is list:
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        if all([type(item) is int for item in obj]):
            # a root's coefficient vector: one join for the whole list
            body = ("," + inner).join(map(int.__repr__, obj))
            emit("[" + inner + body + newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            emit(sep)
            _write(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    else:
        raise TypeError(f"{kind.__name__} does not belong in a certificate")
