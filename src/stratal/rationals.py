"""The grammar of outside text: integers, exact rationals in their "p/q"
interchange form, and JSON documents.

Every reader of a key, spec, option or entry goes through these functions,
and each takes the error class its caller raises. Integer text is canonical
decimal, as `str(int)` writes it: "0", or an optional "-" and digits with no
leading zero; canonical text longer than the interpreter's limit on integer
text is refused by a message naming that limit. Every rational that crosses
a file or report boundary is a "p/q" string with q > 0; floats are never
accepted. A JSON document may not repeat a key within one object, and a
file is read as UTF-8. A message repeats at most a bounded prefix of the
value it refuses.
"""

import json
import sys
from fractions import Fraction

from .errors import ConfigurationError, SpaceFormatError

_ECHO = 40  # characters of a rejected value that a message repeats


def _shown(value):
    """The repr of a rejected value for a message, cut to a bounded prefix."""
    shown = repr(value)
    return shown if len(shown) <= _ECHO else shown[:_ECHO] + "..."


def _decimal(text):
    """The int that `text` writes in canonical decimal, or None. Canonical
    text longer than the interpreter's limit on integer text
    (`sys.get_int_max_str_digits`) is an integer too long to read: it raises
    ValueError naming its length and the limit."""
    try:
        value = int(text)
    except (TypeError, ValueError):
        digits = text.removeprefix("-") if isinstance(text, str) else ""
        if digits.isascii() and digits.isdigit() and not digits.startswith("0"):
            raise ValueError(f"{len(digits)} digits, more than the limit of "
                             f"{sys.get_int_max_str_digits()} for integer text") from None
        return None
    return value if str(value) == text else None


def parse_int(text, what, error=SpaceFormatError) -> int:
    """An int (not a bool) as it is, or canonical decimal text; anything else
    raises `error` naming `what` ("skeleton level", ...) and the input."""
    if type(text) is int:
        return text
    try:
        value = _decimal(text)
    except ValueError as exc:
        raise error(f"{what} {_shown(text)} has {exc}") from None
    if value is None:
        raise error(f"{what} {_shown(text)} is not an integer")
    return value


def parse_rational(text, what=None, error=SpaceFormatError) -> Fraction:
    """Parse "p/q" with q > 0 (or bare integer text, or an int that is not a
    bool) into a Fraction; a Fraction is returned unchanged. Anything else
    raises `error`, its message prefixed with `what` when one is given."""
    if isinstance(text, Fraction):
        return text
    if type(text) is int:
        return Fraction(text)
    if isinstance(text, float):
        problem = f"floats are not accepted as rationals: {text!r}"
    elif not isinstance(text, str):
        problem = f"not a rational: {_shown(text)}"
    else:
        num, slash, den = text.partition("/")
        try:
            p, q = _decimal(num), (_decimal(den) if slash else 1)
        except ValueError as exc:
            problem = f"rational {_shown(text)} has a part of {exc}"
        else:
            if p is not None and q is not None and q > 0:
                return Fraction(p, q)
            problem = f"malformed rational {_shown(text)}"
    raise error(f"{what}: {problem}" if what else problem)


def parse_weight(x, what, error=ConfigurationError) -> Fraction:
    """A metric weight: a positive rational read by `parse_rational`, so
    never a float or a bool. Anything else raises `error`, whose message
    starts with `what` ("cone weight", ...)."""
    c = parse_rational(x, what, error)
    # a Fraction's denominator is positive, so its numerator carries the sign
    if c.numerator <= 0:
        raise error(f"{what} must be positive")
    return c


def format_rational(x) -> str:
    """Canonical "p/q" form, denominator always explicit."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _unique_keys(pairs):
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


def read_text(path, what, error):
    """The text of the file at `path`, read as UTF-8. A file that cannot be
    read or is not UTF-8 raises `error`, whose message names it as `what`
    ("space file", ...)."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_json(text, error):
    """A JSON document whose objects repeat no key; malformed text or a
    repeated key raises `error`. Only objects pass through the key check, so
    a document made mostly of lists pays nothing for it."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise error(str(exc)) from None
