"""The flop/s parser as it stood when it scaled in ``decimal``: the oracle
of the differential test of :func:`parascale.units.parse_flops`.

``parse_flops`` is kept as it was.  ``decimal`` works in a 28-digit
context, so on a literal of more than 28 significant digits this copy can
round twice (once to 28 digits, once to a float) where the package's
parser rounds once; the differential test stays within 17 digits.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation

from parascale.units import PREFIX_EXP


def parse_flops(text: str) -> float:
    """Parse a flop/s value with an optional prefix suffix, e.g. '0.1254E'.

    A bare number is taken as flop/s.  The prefix letter is case-sensitive
    except that lowercase 'k' is accepted.  Scaling happens in decimal so
    '0.1254E' parses to exactly the float the literal 0.1254e18 denotes.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty flop/s value")
    suffix = s[-1].upper() if s[-1] in ("k",) else s[-1]
    if suffix in PREFIX_EXP and suffix != "":
        exp, body = PREFIX_EXP[suffix], s[:-1]
    else:
        exp, body = 0, s
    try:
        value = float(Decimal(body) * Decimal(10) ** exp)
    except InvalidOperation:
        raise ValueError(f"cannot parse flop/s value {text!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"flop/s value must be finite, got {text!r}")
    return value
