"""Arbitrary-precision arithmetic contract shared by all other modules.

Every numeric operation in this package runs against an mpmath working
precision carried by a PrecisionContext.  Contexts are immutable and safe
to share; precision is per-run, not per-value.
"""

import re
from dataclasses import dataclass

import mpmath as mp

MIN_DIGITS = 30

# optional sign, digits with optional ".", optional exponent; no locale
_DECIMAL_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?$")


class ArithError(ValueError):
    pass


@dataclass(frozen=True)
class PrecisionContext:
    decimal_digits: int
    unit_roundoff: mp.mpf
    identity_tol: mp.mpf

    def workdps(self, extra=0):
        """mpmath context manager at the working precision (+extra digits)."""
        return mp.workdps(self.decimal_digits + extra)


def make_context(decimal_digits):
    """Build a PrecisionContext; decimal_digits must be at least 30."""
    decimal_digits = int(decimal_digits)
    if decimal_digits < MIN_DIGITS:
        raise ArithError(
            f"decimal_digits must be >= {MIN_DIGITS}, got {decimal_digits}"
            " (lower precision cannot support high-degree tableau conditioning)")
    with mp.workdps(decimal_digits + 10):
        unit_roundoff = mp.mpf(10) ** (-decimal_digits)
        identity_tol = mp.mpf(10) ** (-decimal_digits + 10)
    return PrecisionContext(decimal_digits, unit_roundoff, identity_tol)


def parse_decimal(s, ctx):
    """Parse a plain decimal string to a working-precision real."""
    if not isinstance(s, str) or not _DECIMAL_RE.match(s.strip()):
        raise ArithError(f"malformed decimal string: {s!r}")
    with ctx.workdps(5):
        return mp.mpf(s.strip())


def format_decimal(x, ctx):
    """Format a real with all decimal_digits significant digits.

    Two guard digits keep parse(format(x)) within unit_roundoff of x.
    """
    with ctx.workdps(5):
        return mp.nstr(mp.mpf(x), ctx.decimal_digits + 2)
