"""JSON text helpers with exact control over number tokens.

The matrix files and ``--json`` reports must round-trip decimal strings
bit-exactly and be byte-identical across runs, so numbers are emitted as
pre-formatted tokens instead of going through ``repr(float)``.
"""

from __future__ import annotations

import json
from decimal import Decimal

from .errors import MatrixFileError


class RawNumber(str):
    """A string that is emitted verbatim as a JSON number token."""


def fixed(value: float, places: int) -> RawNumber:
    """Format a float with a fixed number of decimals (negative zero folded)."""
    text = f"{value:.{places}f}"
    if float(text) == 0.0:
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
    dumps would then write back out as text no JSON reader accepts.
    """
    try:
        return json.loads(text, parse_float=Decimal, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"invalid JSON: {exc}") from exc


def _scalar(value) -> str | None:
    if isinstance(value, RawNumber):
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    return None


def _is_simple(value) -> bool:
    if isinstance(value, dict):
        return all(_scalar(v) is not None for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_scalar(v) is not None for v in value)
    return False


def _emit(value, level: int) -> str:
    token = _scalar(value)
    if token is not None:
        return token
    pad = "  " * (level + 1)
    close = "  " * level
    if isinstance(value, dict):
        items = [f"{json.dumps(str(k))}: {_emit(v, level + 1)}"
                 for k, v in value.items()]
        if _is_simple(value):
            return "{" + ", ".join(items) + "}"
        return "{\n" + ",\n".join(pad + it for it in items) + "\n" + close + "}"
    if isinstance(value, (list, tuple)):
        items = [_emit(v, level + 1) for v in value]
        if _is_simple(value):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(pad + it for it in items) + "\n" + close + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    """Render a payload as deterministic JSON text (two-space indent, trailing newline)."""
    return _emit(value, 0) + "\n"
