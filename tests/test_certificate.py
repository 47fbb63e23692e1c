"""The certificate writer: `to_json` writes the bytes of
json.dumps(cert, indent=2, sort_keys=True) + "\\n"."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapted_pairs.certificate import certificate_dict, to_json
from adapted_pairs.construction import in_scope_cases
from adapted_pairs.verify import run_case


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_to_json_matches_json_dumps_on_every_rank_10_certificate():
    for case in in_scope_cases(10):
        cert = certificate_dict(run_case(*case))
        assert to_json(cert) == _reference(cert), case


ascii_text = st.text(alphabet=st.characters(max_codepoint=127), max_size=12)
near_1e17 = st.integers(-4, 4).flatmap(
    lambda d: st.sampled_from([10**17 + d, -(10**17) - d])
)
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), near_1e17, ascii_text
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.dictionaries(ascii_text, inner, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(ascii_text, values, max_size=6))
def test_to_json_matches_json_dumps_on_generated_data(obj):
    assert to_json(obj) == _reference(obj)


def test_to_json_empty_containers():
    obj = {"a": [], "b": {}, "c": [[], {}], "d": [{"e": []}]}
    assert to_json(obj) == _reference(obj)
    assert to_json({}) == "{}\n"


@pytest.mark.parametrize("bad", [{"x": 1.5}, {"x": (1, 2)}, {1: 2}, {"x": {3: 4}}])
def test_to_json_rejects_what_a_certificate_does_not_hold(bad):
    with pytest.raises(TypeError):
        to_json(bad)
