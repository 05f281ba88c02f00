"""Route-origin validation of prefix/origin pairs against ROA payloads.

Consumes validated ROA exports (relying-party tool output) and classifies
each PrefixOriginPair as valid, invalid or not-found: a pair is valid iff
some covering ROA authorizes its origin AS at its prefix length, not-found
iff no ROA covers the prefix at all, invalid otherwise.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from typing import Iterable, Union

from ._prefix_index import WIDTH, IPNetwork, Prefix, PrefixIndex, Prefixed, parse_decimal
from ._prefix_index import parse_prefix
from .diagnostics import Diagnostics
from .rib_store import MAX_ASN, PrefixOriginPair, parse_asn

TRUST_ANCHORS = frozenset({"afrinic", "apnic", "arin", "lacnic", "ripe"})


class RoaFormat(enum.Enum):
    CSV = "csv"
    JSON = "json"


class ValidationState(enum.Enum):
    VALID = "valid"
    INVALID = "invalid"
    NOT_FOUND = "notfound"


class RoaPayload(Prefixed):
    """One validated ROA payload, keyed by (version, net, plen, asn, maxLength, TA)."""

    __slots__ = ("asn", "max_length", "trust_anchor")

    def __init__(self, asn: int, prefix: Prefix, max_length: int, trust_anchor: str = "other"):
        if not 0 <= asn <= MAX_ASN:
            raise ValueError(f"ASN {asn} out of range")
        self._keyed(prefix, asn, max_length, trust_anchor)
        if not self.plen <= max_length <= WIDTH[self.version]:
            raise ValueError(f"maxLength {max_length} out of range for a /{self.plen}")
        self.asn, self.max_length, self.trust_anchor = asn, max_length, trust_anchor


def _parse_asn_field(raw: Union[str, int]) -> int:
    if type(raw) is int:  # a JSON true is not AS 1
        raw = str(raw)
    if not isinstance(raw, str):
        raise TypeError(f"ASN {raw!r} is neither a number nor text")
    return parse_asn(raw)


def _normalize_ta(raw: object) -> str:
    if raw is None:
        return "other"
    ta = str(raw).strip().lower()
    return ta if ta in TRUST_ANCHORS else "other"


def _payload_from_fields(
    asn_field, prefix_field, maxlen_field, ta_field
) -> RoaPayload:
    asn = _parse_asn_field(asn_field)
    version, net, plen = parse_prefix(str(prefix_field).strip())
    if maxlen_field is None or (isinstance(maxlen_field, str) and not maxlen_field.strip()):
        max_length = plen  # absent maxLength: exact-prefix ROA
    else:
        max_length = parse_decimal(str(maxlen_field).strip())
    return RoaPayload(asn, (version, net, plen), max_length, _normalize_ta(ta_field))


def load_roas(
    text: str,
    fmt: RoaFormat = RoaFormat.CSV,
    diag: Diagnostics | None = None,
) -> set[RoaPayload]:
    """Load validated ROA payloads from csv or json export text.

    Rows violating the maxLength invariant (or otherwise unparseable) could
    not have come from a correct relying-party validator; they are rejected
    and counted.  An empty result is a warning, not an error: validation
    then yields NotFound everywhere.
    """
    diag = diag if diag is not None else Diagnostics()
    payloads: set[RoaPayload] = set()
    if fmt is RoaFormat.CSV:
        rows = list(csv.reader(io.StringIO(text)))
        if rows and rows[0] and rows[0][0].strip().upper() == "ASN":
            rows = rows[1:]  # header line
        for row in rows:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if not 2 <= len(row) <= 4:
                diag.count("malformed_roa_rows")
                continue
            fields = row + [None] * (4 - len(row))
            try:
                payloads.add(_payload_from_fields(*fields[:4]))
            except (ValueError, TypeError):
                diag.count("malformed_roa_rows")
    else:
        try:
            doc = json.loads(text) if text.strip() else []
        except json.JSONDecodeError:
            diag.count("malformed_roa_rows")
            doc = []
        if not isinstance(doc, list):
            diag.count("malformed_roa_rows")
            doc = []
        for obj in doc:
            try:
                payloads.add(
                    _payload_from_fields(
                        obj["asn"],
                        obj["prefix"],
                        obj.get("maxLength"),
                        obj.get("ta"),
                    )
                )
            except (ValueError, TypeError, KeyError):
                diag.count("malformed_roa_rows")

    if not payloads:
        diag.warn("empty_roa_set", "no ROA payloads loaded; everything validates NotFound")
    return payloads


class RoaIndex:
    """Prefix-keyed ROA lookup: covering(p) = ROAs whose prefix contains p."""

    def __init__(self) -> None:
        self._index = PrefixIndex()

    def covering(self, prefix: IPNetwork) -> set[RoaPayload]:
        return set().union(
            *self._index.covering(prefix.version, int(prefix.network_address), prefix.prefixlen)
        )


def build_roa_index(roas: Iterable[RoaPayload]) -> RoaIndex:
    index = RoaIndex()
    for roa in roas:
        index._index.add(roa.version, roa.net, roa.plen, roa)
    return index


def validate(pair: PrefixOriginPair, index: RoaIndex) -> ValidationState:
    """Three-state route origin validation of one prefix/origin pair.

    NotFound iff no ROA covers the prefix; Valid iff a covering ROA names
    the pair's origin (AS0 never authorizes) and its maxLength admits the
    prefix length; Invalid otherwise.
    """
    if not isinstance(pair.origin_asn, int):
        # AS_SET-originated pairs are excluded upstream; reaching here is a bug.
        raise TypeError("validate() requires a plain-ASN origin")
    covering = index._index.covering(pair.version, pair.net, pair.plen)
    if not covering:
        return ValidationState.NOT_FOUND
    origin, plen = pair.origin_asn, pair.plen
    for roas in covering:
        for roa in roas:
            if roa.asn == origin and origin != 0 and plen <= roa.max_length:
                return ValidationState.VALID
    return ValidationState.INVALID
