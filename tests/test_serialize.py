import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonforge import MatrixFileError, serialize
from noonforge.evolve import evolve_state
from noonforge.fock import state_from_spec
from noonforge.serialize import RawNumber

from oracles import reference_dumps


class _Text(str):
    pass


class _Number(float):
    pass


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
# Table rows: 1-6 dicts on one key tuple. Keys may hold "%" (a template
# directive if left unescaped) or be ints. Cells are drawn either from exact
# RawNumber and str, which the row template takes when no column mixes them,
# or from every leaf, str subclasses included, which sends the list down the
# general walk; so does a last row with its keys reversed.
_ROW_KEYS = st.lists(st.one_of(_TEXT, st.sampled_from(["%", "%s", "a%%b"]),
                               st.integers(-3, 3)), unique=True, max_size=4)
_TEMPLATE_CELLS = st.one_of(st.builds(serialize.fixed, st.floats(-1e4, 1e4),
                                      st.integers(0, 6)), _TEXT)
_ANY_CELLS = st.one_of(_TEMPLATE_CELLS, _TEXT.map(_Text), _LEAVES)


@st.composite
def _row_lists(draw):
    keys = draw(_ROW_KEYS)
    cells = draw(st.sampled_from([_TEMPLATE_CELLS, _ANY_CELLS]))
    rows = draw(st.lists(st.lists(cells, min_size=len(keys), max_size=len(keys)),
                         min_size=1, max_size=6))
    orders = [keys] * len(rows)
    if draw(st.booleans()):
        orders[-1] = keys[::-1]
    return [dict(zip(order, row)) for order, row in zip(orders, rows)]


_ROW_LISTS = _row_lists()
_PAYLOADS = st.recursive(
    st.one_of(_LEAVES, _ROW_LISTS),
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


@settings(max_examples=200, deadline=None)
@given(rows=_ROW_LISTS, level=st.integers(0, 3))
def test_row_lists_match_the_reference_emitter(rows, level):
    payload = rows
    for _ in range(level):
        payload = {"rows": payload}
    assert serialize.dumps(payload) == reference_dumps(payload)


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": []}, [[], {}], {"rows": [{}]}, [[[]]],
    {"rows": [{}, {}]}, [{"%": "%s", "%s": RawNumber("1.5")}, {"%": "x", "%s": RawNumber("2")}],
    [{1: "a"}, {True: "b"}], [{1: "a"}, {1.0: "b"}], [{"k": "a"}, {_Text("k"): "b"}],
    [{"a": RawNumber("1"), "b": "x"}, {"b": "y", "a": RawNumber("2")}],
    [{"a": RawNumber("1")}, {"a": "one"}], [{"a": RawNumber("1")}, {"a": _Text("one")}],
    [{"a": RawNumber("1")}, {"a": 1.5}], [{"a": RawNumber("1")}, ["a"]],
    {"n": Decimal("1.50"), "x": RawNumber("0.000000"), "s": "µ\"\\", "b": False},
    {1: "int key", "nested": {"deep": [1, [2, {"k": None}]]}},
])
def test_dumps_matches_the_reference_emitter_on_edge_cases(payload):
    assert serialize.dumps(payload) == reference_dumps(payload)


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


def _reference_fixed(value, places):
    """fixed by one format call per value: negative zero folded after formatting."""
    text = f"{value:.{places}f}"
    if text[0] == "-" and float(text) == 0.0:
        text = f"{0.0:.{places}f}"
    return text


# -4e-7 and -5e-7 round to -0 at 6 places (-5e-7 is just below the tie), -0.5 to
# -0 and -2.5 to -2 at none
_EDGE_FLOATS = [-0.0, 0.0, -4e-7, -5e-7, 4e-7, -0.5, 0.5, -2.5, -1.5, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e300, -1e300, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("places", range(7))
def test_fixed_column_matches_one_format_per_value_on_edge_values(places):
    column = serialize.fixed_column(_EDGE_FLOATS, places)
    assert column == [serialize.fixed(v, places) for v in _EDGE_FLOATS] \
        == [_reference_fixed(v, places) for v in _EDGE_FLOATS]
    assert {type(token) for token in column} == {RawNumber}
    assert "-" not in column[0] + column[1]  # -0.0 and 0.0 print alike
    assert column[-3:] == ["inf", "-inf", "nan"]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS),
                                 st.integers(-10 ** 6, 10 ** 6)), max_size=20),
       places=st.integers(0, 6))
def test_fixed_column_matches_one_format_per_value(values, places):
    column = serialize.fixed_column(values, places)
    assert column == [serialize.fixed(v, places) for v in values] \
        == [_reference_fixed(v, places) for v in values]
    assert all(type(token) is RawNumber for token in column)


def test_a_table_renders_in_a_constant_number_of_container_calls(operator_ii, monkeypatch):
    payload = evolve_state(operator_ii, state_from_spec("16,0,0,0")[1]).to_payload()
    assert len(payload["amplitudes"]) == 969
    calls = []
    container = serialize._container

    def counted(value, level):
        calls.append(level)
        return container(value, level)

    monkeypatch.setattr(serialize, "_container", counted)
    text = serialize.dumps(payload)
    assert calls == [0, 1]  # the payload and its row list, none per row
    assert text == reference_dumps(payload)
