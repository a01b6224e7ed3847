"""JSON text helpers with exact control over number tokens.

The matrix files and ``--json`` reports must round-trip decimal strings
bit-exactly and be byte-identical across runs, so numbers are emitted as
pre-formatted tokens instead of going through ``repr(float)``.

Tables are rendered in bulk. ``fixed_column`` formats a whole column of numbers
with one ``%`` operation and folds negative zero on the text once; ``fixed`` is
its one-value case. ``dumps`` renders a non-empty list of plain dicts that share
one key order, every key an exact ``str`` or ``int`` and each column all exact
``RawNumber`` or all exact ``str``, through one ``%`` template whose key tokens
are encoded once. Any other container takes the general walk, which gives the
same text.
"""

from __future__ import annotations

import json
from decimal import Decimal
from itertools import chain
from json.encoder import encode_basestring_ascii

from .errors import MatrixFileError


class RawNumber(str):
    """A string that is emitted verbatim as a JSON number token."""


def fixed_column(values, places: int) -> list[RawNumber]:
    """Each value with `places` decimals, the whole column in one ``%`` operation.

    A value that rounds to zero prints without a sign: "-" can only start a
    token, so the one negative-zero token is replaced on the joined text.
    """
    values = tuple(values)
    zero = f"{0.0:.{places}f}\n"
    text = ((f"%.{places}f\n" * len(values)) % values).replace("-" + zero, zero)
    return list(map(RawNumber, text.splitlines()))


def fixed(value: float, places: int) -> RawNumber:
    """Format one float with a fixed number of decimals, as fixed_column does."""
    return fixed_column((value,), places)[0]


def sci(value: float) -> RawNumber:
    """Scientific-notation token with six digits after the point."""
    if float(value) == 0.0:
        value = 0.0
    return RawNumber(f"{value:.6e}")


def _reject_constant(token: str):
    raise MatrixFileError(f"invalid JSON: {token} is not a JSON number")


def loads(text: str):
    """Parse standard JSON with floats preserved as Decimal.

    Python's json also reads the tokens NaN, Infinity and -Infinity, which
    dumps would then write back out as text no JSON reader accepts. Nesting past
    the recursion limit, or an integer past the int digit limit, is invalid too.
    """
    try:
        return json.loads(text, parse_float=Decimal, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # json.JSONDecodeError is a ValueError
        raise MatrixFileError(f"invalid JSON: {exc}") from exc


# The token of each leaf type, keyed by exact type. A subclass (np.float64 is
# a float) takes the first type it is an instance of, in this order:
# RawNumber before str.
_TOKENS = {
    RawNumber: str,
    bool: lambda value: "true" if value else "false",
    int: str,
    Decimal: str,
    float: repr,
    str: encode_basestring_ascii,
    type(None): lambda value: "null",
}


def _token(value) -> str | None:
    """The JSON token of a leaf; None for a dict, list or tuple."""
    make = _TOKENS.get(type(value))
    if make is not None:
        return make(value)
    if isinstance(value, (dict, list, tuple)):
        return None
    for kind, make in _TOKENS.items():
        if isinstance(value, kind):
            return make(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _row_list(rows: list, level: int) -> str | None:
    """A non-empty list of table rows as JSON text, or None if it is not one.

    Rows are plain dicts with one key order, every key an exact str or int
    (so equal keys print equal), and each column all exact RawNumber or all
    exact str. Each row is one line of the template, so the text is _container's.
    """
    if set(map(type, rows)) != {dict}:
        return None
    keys = list(rows[0])
    names = list(chain.from_iterable(rows))
    if names != keys * len(rows) or not set(map(type, names)) <= {str, int}:
        return None
    width = len(keys)
    cells = list(chain.from_iterable(map(dict.values, rows)))
    for j in range(width):
        column = cells[j::width]
        kinds = set(map(type, column))
        if kinds == {str}:
            cells[j::width] = map(encode_basestring_ascii, column)
        elif kinds != {RawNumber}:
            return None
    row = "{" + ", ".join(encode_basestring_ascii(str(k)).replace("%", "%%") + ": %s"
                          for k in keys) + "}"
    pad = "\n" + "  " * (level + 1)
    template = "[" + pad + ("," + pad).join([row] * len(rows)) + "\n" + "  " * level + "]"
    return template % tuple(cells)


def _container(value, level: int) -> str:
    """A dict, list or tuple as JSON text; each child's token is computed once.

    A container whose children are all leaves stays on one line; any other
    puts each child on its own line, indented two spaces per level. A list
    of table rows is rendered by _row_list's template.
    """
    if type(value) is list and value:
        text = _row_list(value, level)
        if text is not None:
            return text
    tokens, flat = [], True
    for child in value.values() if isinstance(value, dict) else value:
        token = _token(child)
        if token is None:
            token, flat = _container(child, level + 1), False
        tokens.append(token)
    if isinstance(value, dict):
        opener, closer = "{", "}"
        tokens = [f"{encode_basestring_ascii(str(k))}: {t}" for k, t in zip(value, tokens)]
    else:
        opener, closer = "[", "]"
    if flat:
        return opener + ", ".join(tokens) + closer
    pad = "\n" + "  " * (level + 1)
    return opener + pad + ("," + pad).join(tokens) + "\n" + "  " * level + closer


def dumps(value) -> str:
    """Render a payload as deterministic JSON text (two-space indent, trailing newline)."""
    token = _token(value)
    return (_container(value, 0) if token is None else token) + "\n"
