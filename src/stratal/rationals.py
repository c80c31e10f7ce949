"""Exact rationals and their "p/q" interchange form.

Every rational that crosses a file or report boundary is a "p/q" string;
floats are never accepted.
"""

from fractions import Fraction

from .errors import ConfigurationError, SpaceFormatError


def parse_rational(text) -> Fraction:
    """Parse "p/q" (or a bare integer string / int, not a bool) into a Fraction;
    a Fraction is returned unchanged."""
    if isinstance(text, Fraction):
        return text
    if type(text) is int:
        return Fraction(text)
    if isinstance(text, float):
        raise SpaceFormatError(f"floats are not accepted as rationals: {text!r}")
    if not isinstance(text, str):
        raise SpaceFormatError(f"not a rational: {text!r}")
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpaceFormatError(f"malformed rational {text!r}") from exc
    raise SpaceFormatError(f"malformed rational {text!r}")


def parse_weight(x, what) -> Fraction:
    """A metric weight: a positive rational read by `parse_rational`, so
    never a float or a bool. Anything else raises ConfigurationError, whose
    message starts with `what` ("cone weight", ...)."""
    try:
        c = parse_rational(x)
    except SpaceFormatError as exc:
        raise ConfigurationError(f"{what}: {exc}") from None
    if c <= 0:
        raise ConfigurationError(f"{what} must be positive")
    return c


def format_rational(x) -> str:
    """Canonical "p/q" form, denominator always explicit."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"
