"""Unit-prefix handling for flop/s values at the I/O boundary."""

from __future__ import annotations

import math

#: Power-of-ten exponent of each unit prefix accepted on the command line
#: and in CSV headers, smallest first; 10.0 ** exponent is the multiplier.
PREFIX_EXP = {"": 0, "K": 3, "M": 6, "G": 9, "T": 12, "P": 15, "E": 18}


def parse_flops(text: str) -> float:
    """Parse a flop/s value with an optional prefix suffix, e.g. '0.1254E'.

    A bare number is taken as flop/s.  The prefix letter is case-sensitive
    except that lowercase 'k' is accepted.  The prefix's power of ten is
    added to the literal's exponent, so '0.1254E' parses to exactly the
    float the literal 0.1254e18 denotes, rounded once.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty flop/s value")
    exp = PREFIX_EXP.get("K" if s[-1] == "k" else s[-1], 0)  # 0: no prefix
    body = s[:-1].strip() if exp else s
    try:
        value = float(body)
        if exp and math.isfinite(value):
            mantissa, _, power = body.lower().partition("e")
            value = float(f"{mantissa}e{int(power or 0) + exp}")
    except ValueError:
        raise ValueError(f"cannot parse flop/s value {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"flop/s value must be finite, got {text!r}")
    return value


def format_flops(value: float, prefix: str | None = None) -> str:
    """Render a flop/s value as e.g. '0.00586 Eflop/s'.

    With ``prefix=None`` the largest prefix keeping the mantissa >= 1 is
    chosen; pass 'G', 'P' or 'E' to force one.
    """
    if prefix is None:
        prefix = next((p for p in reversed(PREFIX_EXP)
                       if abs(value) >= 10.0 ** PREFIX_EXP[p]), "")
    if prefix not in PREFIX_EXP:
        raise ValueError(f"unknown unit prefix {prefix!r}")
    scaled = value / 10.0 ** PREFIX_EXP[prefix]
    return f"{scaled:.6g} {prefix}flop/s"
