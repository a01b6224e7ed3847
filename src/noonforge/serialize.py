"""JSON text helpers with exact control over number tokens.

The matrix files and ``--json`` reports must round-trip decimal strings
bit-exactly and be byte-identical across runs, so numbers are emitted as
pre-formatted tokens instead of going through ``repr(float)``.
"""

from __future__ import annotations

import json
from decimal import Decimal
from json.encoder import encode_basestring_ascii

from .errors import MatrixFileError


class RawNumber(str):
    """A string that is emitted verbatim as a JSON number token."""


def fixed(value: float, places: int) -> RawNumber:
    """Format a float with a fixed number of decimals (negative zero folded)."""
    text = f"{value:.{places}f}"
    if text[0] == "-" and float(text) == 0.0:
        text = f"{0.0:.{places}f}"
    return RawNumber(text)


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


def _container(value, level: int) -> str:
    """A dict, list or tuple as JSON text; each child's token is computed once.

    A container whose children are all leaves stays on one line; any other
    puts each child on its own line, indented two spaces per level.
    """
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
