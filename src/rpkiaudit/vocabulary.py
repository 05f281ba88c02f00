"""The names more than one stage shares: artifact enums, the ASN reader, the
coverage class rule and the 6-decimal rule for fractions.

A leaf: it imports nothing from the package, so a stage child that needs one
of these names loads no other library module for it.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from fractions import Fraction

MAX_ASN = 2**32 - 1


class ValidationState(str, enum.Enum):  # a member equals its text, as artifacts hold it
    VALID = "valid"
    INVALID = "invalid"
    NOT_FOUND = "notfound"


class Variant(str, enum.Enum):  # a member equals its text, as artifacts hold it
    BASE = "base"
    WWW = "www"


class CoverageClass(str, enum.Enum):  # a member equals its text, as artifacts hold it
    NONE = "none"
    PARTIAL = "partial"
    FULL = "full"
    NO_DATA = "nodata"


def coverage_class(valid: int, invalid: int, notfound: int) -> CoverageClass:
    """The class of a domain whose distinct pairs have these validation-state counts."""
    if not valid + invalid + notfound:
        return CoverageClass.NO_DATA
    if not notfound:
        return CoverageClass.FULL
    if not valid + invalid:
        return CoverageClass.NONE
    return CoverageClass.PARTIAL


class ResolutionStatus(str, enum.Enum):  # a member equals its text, as artifacts hold it
    OK = "ok"
    NXDOMAIN = "nxdomain"
    SERVFAIL = "servfail"
    TIMEOUT = "timeout"
    EMPTY = "empty"


def parse_decimal(text: str) -> int:
    """The int of a text of ASCII digits; ValueError when it is anything else."""
    if not (text.isascii() and text.isdigit()):  # int() would take "+7", " 7", "7_0" or "٧"
        raise ValueError(f"not a decimal: {text!r}")
    return int(text)


def parse_asn(text: str) -> int:
    """The ASN of a decimal text, "AS" prefix optional; ValueError when it is none."""
    digits = text.strip()
    if digits[:2].upper() == "AS":
        digits = digits[2:]
    asn = parse_decimal(digits)
    if asn > MAX_ASN:
        raise ValueError(f"ASN {asn} out of range")
    return asn


def plain_asn(value: object) -> int:
    """``value`` when it is a plain ASN: an int, never a bool or an AS_SET, in 0..MAX_ASN."""
    if type(value) is not int:
        raise TypeError(f"origin_asn must be a plain ASN, not {value!r}")
    if not 0 <= value <= MAX_ASN:
        raise ValueError(f"ASN {value} out of range")
    return value


# Floats appear only when serializing, at 6 decimal places.


def fraction_to_float(value: Optional[Fraction]) -> Optional[float]:
    return None if value is None else round(float(value), 6)


def covered_share(covered: int, total: int) -> float:
    """``fraction_to_float(Fraction(covered, total))``, 0.0 for no pairs, with no Fraction:
    int true division is correctly rounded, as ``float(Fraction)`` is."""
    return round(covered / total, 6) if total else 0.0


def format_fraction(value: Optional[Fraction]) -> str:
    return "" if value is None else f"{float(value):.6f}"
