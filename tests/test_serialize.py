from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonforge import MatrixFileError, serialize
from noonforge.serialize import RawNumber

from oracles import reference_dumps

# Keys and strings with escapes, controls and non-ASCII characters.
_TEXT = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f é€😀 '), max_size=6)
_LEAVES = st.one_of(
    st.builds(serialize.fixed, st.floats(-1e4, 1e4), st.integers(0, 6)),
    st.decimals(allow_nan=False, allow_infinity=False, places=4),
    st.integers(min_value=-10 ** 20, max_value=10 ** 20),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    _TEXT,
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(payload=_PAYLOADS)
def test_dumps_matches_the_reference_emitter(payload):
    assert serialize.dumps(payload) == reference_dumps(payload)


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": []}, [[], {}], {"rows": [{}]}, [[[]]],
    {"n": Decimal("1.50"), "x": RawNumber("0.000000"), "s": "µ\"\\", "b": False},
    {1: "int key", "nested": {"deep": [1, [2, {"k": None}]]}},
])
def test_dumps_matches_the_reference_emitter_on_edge_cases(payload):
    assert serialize.dumps(payload) == reference_dumps(payload)


class _Text(str):
    pass


class _Number(float):
    pass


def test_leaf_subclasses_take_their_base_token():
    payload = [_Text('"q"'), _Number(0.5), RawNumber("1.0"), True, 3]
    assert serialize.dumps(payload) == reference_dumps(payload) == \
        '["\\"q\\"", 0.5, 1.0, true, 3]\n'


@pytest.mark.parametrize("payload", [
    {1, 2}, [1, object()], {"a": {"b": [b"bytes"]}}, [complex(1, 2)],
])
def test_unsupported_leaf_raises_type_error_in_both(payload):
    with pytest.raises(TypeError, match="cannot serialize"):
        serialize.dumps(payload)
    with pytest.raises(TypeError, match="cannot serialize"):
        reference_dumps(payload)


def test_nesting_past_the_recursion_limit_is_a_matrix_file_error():
    with pytest.raises(MatrixFileError, match="invalid JSON"):
        serialize.loads("[" * 3000 + "]" * 3000)
