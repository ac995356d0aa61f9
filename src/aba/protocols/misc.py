"""Shared-randomness agreement over a 64-bit fixed-point value domain.

A communication-free protocol for the "never output a unanimous honest
input" property on a huge value space: all parties read the same shared
uniform value s; a party whose own input equals s never terminates, every
other party outputs s. Non-termination requires an exact 64-bit collision,
so runs terminate almost surely, and the output can never equal a value all
honest parties hold.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..errors import ConfigError
from ..simnet import Decide
from .base import Machine

SCALE = 1 << 64


# the decimal exponent of a Fraction literal, "1e-5" or "2.5E+1_0"
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def fixed_point_of(text) -> int:
    """Parses a decimal in [0, 1) or a 0x-prefixed raw value into the 64-bit
    fixed-point grid (value = numerator / 2**64); text it cannot parse
    raises ConfigError. So does a decimal exponent larger in magnitude than
    the text's length plus 20, read before `Fraction` would expand it: such
    a text is 0, at least 1, or below 10**-20 < 2**-64, the grid's step."""
    try:
        if isinstance(text, str) and text.startswith("0x"):
            value = int(text, 16)
        else:
            literal = str(text)
            exponent = _EXPONENT.search(literal)
            if exponent and abs(int(exponent.group(1))) > len(literal) + 20:
                raise ConfigError(f"fixed-point input exponent is out of range: {text!r}")
            frac = Fraction(literal)
            if not (0 <= frac < 1):
                raise ConfigError(f"fixed-point input must lie in [0, 1), got {text!r}")
            value = (frac.numerator * SCALE) // frac.denominator
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"fixed-point input is not a number: {text!r}") from None
    if not (0 <= value < SCALE):
        raise ConfigError(f"fixed-point value out of range: {text!r}")
    return value


def fixed_point_label(value: int) -> str:
    return f"0x{value:016x}"


class SharedRandomBaStar(Machine):
    """Output the shared random value unless it equals the own input."""

    TAPE_TAG = "ba-star"

    def on_start(self, ctx, value):
        own = fixed_point_of(value)
        shared = ctx.shared_uniform64(self.TAPE_TAG)
        if own == shared:
            return []
        return [Decide(fixed_point_label(shared))]
