"""The certificate writer: `to_json` writes the bytes of
json.dumps(cert, indent=2, sort_keys=True) + "\\n"."""

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adapted_pairs.certificate as certificate
from adapted_pairs.certificate import certificate_dict, emit_json, to_json
from adapted_pairs.construction import in_scope_cases
from adapted_pairs.roots import build_root_system
from adapted_pairs.verify import run_case


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_to_json_matches_json_dumps_on_every_rank_10_certificate():
    for case in in_scope_cases(10):
        cert = certificate_dict(run_case(*case))
        assert to_json(cert) == _reference(cert), case


# every kind of character json's ASCII escaper changes, as keys and values
ESCAPED = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\xe9", "\u2028", "\U0001f600",
           "\ud800", 'pass "quoted" a\\b\tc\x7f\xe9\U0001f600']
# each string from one alphabet: ASCII, with its controls, DEL, '"' and
# '\\'; every code point; or every escaped character above with printable
# ASCII, so escaped and plain characters mix within one string.  Drawing
# each character from a choice of two alphabets is several times slower.
MIXED = sorted(set("".join(ESCAPED)) | set(map(chr, range(0x20, 0x7F))))
text = st.one_of(
    st.text(st.characters(max_codepoint=127), max_size=12),
    st.text(st.characters(), max_size=12),
    st.text(st.sampled_from(MIXED), max_size=12),
)
near_1e17 = st.integers(-4, 4).flatmap(
    lambda d: st.sampled_from([10**17 + d, -(10**17) - d])
)
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), near_1e17, text
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.dictionaries(text, inner, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(text, values, max_size=6))
@example({c: c for c in ESCAPED})
@example({"plain": ESCAPED, "nested": [{c: [c]} for c in ESCAPED]})
def test_to_json_matches_json_dumps_on_generated_data(obj):
    expected = _reference(obj)
    assert to_json(obj) == expected
    # the text streamed into a file is the same, byte for byte
    stream = io.BytesIO()
    emit_json(obj, lambda piece: stream.write(piece.encode()))
    assert stream.getvalue() == expected.encode()


def test_to_json_empty_containers():
    obj = {"a": [], "b": {}, "c": [[], {}], "d": [{"e": []}]}
    assert to_json(obj) == _reference(obj)
    assert to_json({}) == "{}\n"


@pytest.mark.parametrize("bad", [{"x": 1.5}, {"x": (1, 2)}, {1: 2}, {"x": {3: 4}}])
def test_to_json_rejects_what_a_certificate_does_not_hold(bad):
    with pytest.raises(TypeError):
        to_json(bad)


def _empty_memo(monkeypatch):
    monkeypatch.setattr(certificate, "_VECTOR_TEXT", {})
    monkeypatch.setattr(certificate, "_vector_chars", 0)


def test_to_json_is_the_same_cold_warm_and_after_the_memo_empties(monkeypatch):
    certs = [certificate_dict(run_case(*case)) for case in (("B", 8, 4), ("D", 8, 4))]
    expected = [_reference(cert) for cert in certs]
    _empty_memo(monkeypatch)
    assert [to_json(cert) for cert in certs] == expected  # cold
    assert certificate._VECTOR_TEXT
    assert [to_json(cert) for cert in certs] == expected  # warm
    # a bound that empties the memo many times within one certificate
    _empty_memo(monkeypatch)
    monkeypatch.setattr(certificate, "_VECTOR_CHARS", 300)
    assert [to_json(cert) for cert in certs] == expected


def test_the_vector_memo_stays_within_its_bound(monkeypatch):
    # every root vector of B40 at two nestings holds more text than the
    # bound: the memo empties and never holds more than the bound
    _empty_memo(monkeypatch)
    sys = build_root_system("B", 40)
    vectors = [list(sys.by_code[r]) for r in sorted(sys.by_code)]
    emptied = False
    for k in range(0, len(vectors), 100):
        for obj in ({"v": vectors[k:k + 100]}, {"w": {"v": vectors[k:k + 100]}}):
            before = len(certificate._VECTOR_TEXT)
            assert to_json(obj) == _reference(obj)
            held = sum(map(len, certificate._VECTOR_TEXT.values()))
            assert held == certificate._vector_chars <= certificate._VECTOR_CHARS
            emptied |= len(certificate._VECTOR_TEXT) < before
    assert emptied


def test_the_key_memo_keeps_short_keys_up_to_its_count(monkeypatch):
    monkeypatch.setattr(certificate, "_KEY_TEXT", {})
    monkeypatch.setattr(certificate, "_KEY_COUNT", 3)
    obj = {"A" * 65: 1, "a": 2, "b": 3, "c": 4, "d": {"e": 5}}
    for _ in range(2):
        assert to_json(obj) == _reference(obj)
    assert certificate._KEY_TEXT == {k: f'"{k}": ' for k in "abc"}


@pytest.mark.parametrize("obj", [{"x": [1, True]}, {"x": [[1, 2], [False, 2]]}])
def test_a_vector_that_equals_a_memoised_one_is_written_as_it_is(obj):
    # True == 1, so only int vectors reach the memo: a bool is written as
    # json writes it
    to_json({"x": [[1, 2], [1, 2]], "y": [1, 1]})
    assert to_json(obj) == _reference(obj)


def test_a_float_that_equals_a_memoised_int_is_refused():
    to_json({"x": [[1, 2]]})
    with pytest.raises(TypeError):
        to_json({"x": [[1.0, 2]]})
