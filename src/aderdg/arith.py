"""Arbitrary-precision arithmetic contract shared by all other modules.

Every numeric operation in this package runs against an mpmath working
precision carried by a PrecisionContext.  Contexts are immutable and safe
to share; precision is per-run, not per-value.
"""

import re
from dataclasses import dataclass, field

import mpmath as mp

MIN_DIGITS = 30

# optional sign, digits with optional ".", optional exponent; no locale
_DECIMAL_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?$")


class ArithError(ValueError):
    pass


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision; the tolerances follow from decimal_digits."""
    decimal_digits: int
    unit_roundoff: mp.mpf = field(init=False)
    identity_tol: mp.mpf = field(init=False)

    def __post_init__(self):
        d = self.decimal_digits
        if d < MIN_DIGITS:
            raise ArithError(
                f"decimal_digits must be >= {MIN_DIGITS}, got {d}"
                " (lower precision cannot support high-degree tableau conditioning)")
        # frozen, so the derived fields go past the generated __setattr__
        with mp.workdps(d + 10):
            object.__setattr__(self, "unit_roundoff", mp.mpf(10) ** (-d))
            object.__setattr__(self, "identity_tol", mp.mpf(10) ** (-d + 10))

    def workdps(self, extra=0):
        """mpmath context manager at the working precision (+extra digits)."""
        return mp.workdps(self.decimal_digits + extra)


def make_context(decimal_digits):
    """Build a PrecisionContext; decimal_digits must be at least 30."""
    return PrecisionContext(int(decimal_digits))


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
