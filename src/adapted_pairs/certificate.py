"""Serializable certificates: every check outcome with exact rational data.

Rationals, (num, den) int pairs in the engine and ints for determinants,
are stored as {"num", "den"} objects and roots as integer vectors in the
simple-root basis, so a certificate survives JSON round-tripping without
loss and an independent checker can re-validate it.  The case data holds
root codes; each is written as its coefficient vector, and all set listings
are ordered by code, which is the lexicographic order of the coefficient
vectors, so certificates are byte-deterministic.  This module is the writer
and needs the engine; the reader (`json.loads`, then `cli._rat`, which
reads a rational back as two ints) lives in `cli`, next to `report`.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Tuple

from .verify import CaseResult

SCHEMA_VERSION = 1


def _rat(num: int, den: int = 1) -> Dict[str, int]:
    """{"num", "den"} of num / den, in lowest terms: an engine rational
    spread into the call, or an int."""
    return {"num": num, "den": den}


def _root_list(root: dict, codes: Iterable[int]) -> List[List[int]]:
    """The coefficient vectors of the roots of these codes, root being
    `RootSystem.by_code`, in sorted order: codes sort like coefficients."""
    return [list(root[c]) for c in sorted(codes)]


def certificate_dict(result: CaseResult) -> dict:
    cand = result.candidate
    pair = result.pair
    root = cand.system.by_code
    cert = {
        "schema": SCHEMA_VERSION,
        "case": {"family": cand.family, "rank": cand.n, "s": cand.s},
        "S": {
            "plus": _root_list(root, cand.S_plus),
            "minus": _root_list(root, cand.S_minus),
            "mixed": _root_list(root, cand.S_mixed),
        },
        "gamma_sets": [
            {"centre": list(root[g]), "members": _root_list(root, members)}
            for g, members in sorted(cand.gamma_sets.items())
        ],
        "T": _root_list(root, cand.T),
        "T_star": _root_list(root, cand.T_star),
        "h": {
            "coroot_coeffs": [
                {"alpha": idx, "value": _rat(*val)}
                for idx, val in sorted(pair.h_coroot_coeffs.items())
            ],
        },
        "eigenvalues": [
            {"gamma": list(root[g]), "value": _rat(*pair.eigenvalues[g])}
            for g in sorted(pair.eigenvalues)
        ],
        "degrees": [_rat(*d) for d in pair.degrees],
        "bounds": {
            "lower_multiples_of_varpi_s": [_rat(*m) for m in result.lower_multiples],
            "improved_multiples_of_varpi_s": [
                _rat(*m) for m in result.improved_multiples
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


# The text of each root vector at each nesting, (coefficients, line break
# and indent) -> text: the certificates of a system list mostly the same
# vectors.  Emptied whenever the texts it holds would pass _VECTOR_CHARS
# characters, so its memory stays bounded at any rank.
_VECTOR_TEXT: Dict[Tuple[Tuple[int, ...], str], str] = {}
_VECTOR_CHARS = 1 << 20
_vector_chars = 0
_INT = {int}
_LIST = {list}
_RATIONAL = {"den", "num"}


def _vector_text(vec: list, newline: str) -> str:
    """The text of a nonempty list of ints at the nesting whose line break
    and indent is newline, rendered on a miss of `_VECTOR_TEXT`.  The
    caller checks the types: a bool or float can equal an int."""
    global _vector_chars
    key = (tuple(vec), newline)
    text = _VECTOR_TEXT.get(key)
    if text is None:
        inner = newline + "  "
        text = "[" + inner + ("," + inner).join(map(int.__repr__, vec)) + newline + "]"
        if _vector_chars + len(text) > _VECTOR_CHARS:
            _VECTOR_TEXT.clear()
            _vector_chars = 0
        _VECTOR_TEXT[key] = text
        _vector_chars += len(text)
    return text


def _quote(text: str) -> str:
    """The JSON string of text, as json.dumps writes it with ensure_ascii.
    json's escaper leaves printable ASCII (' '..'~') other than '"' and
    '\\' as it is, so only a text with another character loads json."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


# The text of each dict key with its ": ", key -> text: a certificate has
# a few dozen short keys, so one lookup per key replaces a quote.  Keys of
# up to _KEY_LENGTH characters are kept, up to _KEY_COUNT of them.
_KEY_TEXT: Dict[str, str] = {}
_KEY_COUNT = 1 << 10
_KEY_LENGTH = 64


def _key_text(key) -> str:
    """The text of a dict key and its ": ", rendered on a miss of
    `_KEY_TEXT`; a key that is not a str raises TypeError."""
    if type(key) is not str:
        raise TypeError(f"certificate key {key!r} is not a str")
    text = _quote(key) + ": "
    if len(key) <= _KEY_LENGTH and len(_KEY_TEXT) < _KEY_COUNT:
        _KEY_TEXT[key] = text
    return text


def to_json(cert: dict) -> str:
    """The bytes of json.dumps(cert, indent=2, sort_keys=True) + "\n",
    written directly: with indent, json runs its pure-Python encoder.  A
    certificate holds only dicts with str keys, lists, ints, bools, None
    and strs (escaped to ASCII, as json does); anything else raises
    TypeError.  Root vectors, lists of them and {"den", "num"} rationals
    take direct paths, each vector's text rendered once (`_VECTOR_TEXT`),
    and so does each key (`_KEY_TEXT`).  json is loaded only to escape a
    str that needs it (`_quote`)."""
    parts: List[str] = []
    _write(cert, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write(obj, newline: str, emit) -> None:
    """Emit obj as json.dumps does with indent=2 and sort_keys=True, at the
    nesting whose line break and indent is newline."""
    kind = type(obj)
    if kind is str:
        emit(_quote(obj))
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
        if obj.keys() == _RATIONAL:
            den, num = obj["den"], obj["num"]
            if type(den) is int and type(num) is int:
                emit(f'{{{inner}"den": {den!r},{inner}"num": {num!r}{newline}}}')
                return
        get = _KEY_TEXT.get
        sep = "{" + inner
        for key in sorted(obj):
            emit(sep + (get(key) or _key_text(key)))
            _write(obj[key], inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif kind is list:
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, obj))
        if kinds == _INT:
            emit(_vector_text(obj, newline))
            return
        vectors = kinds == _LIST and all(obj)
        if vectors and set(map(type, chain.from_iterable(obj))) == _INT:
            # a list of root vectors: one join of their texts
            get = _VECTOR_TEXT.get
            texts = [get((tuple(v), inner)) or _vector_text(v, inner) for v in obj]
            emit("[" + inner + ("," + inner).join(texts) + newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            emit(sep)
            _write(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    else:
        raise TypeError(f"{kind.__name__} does not belong in a certificate")
