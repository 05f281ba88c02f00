"""Route-origin validation of prefix/origin pairs against ROA payloads.

Consumes validated ROA exports (relying-party tool output) and classifies
each prefix/origin pair as valid, invalid or not-found: a pair is valid iff
some covering ROA authorizes its origin AS at its prefix length, not-found
iff no ROA covers the prefix at all, invalid otherwise.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from typing import Iterable, Iterator, Union

from ._prefix_index import WIDTH, IPNetwork, Prefix, PrefixIndex, Prefixed, parse_prefix
from .diagnostics import Diagnostics
from .vocabulary import ValidationState, parse_asn, parse_decimal, plain_asn

TRUST_ANCHORS = frozenset({"afrinic", "apnic", "arin", "lacnic", "ripe"})


class RoaFormat(enum.Enum):
    CSV = "csv"
    JSON = "json"


# One payload as the decoder yields it: (version, net, plen, asn, maxLength, TA)
RoaFields = tuple[int, int, int, int, int, str]

_TRUST_ANCHOR = {ta: ta for ta in TRUST_ANCHORS}  # one string per TA, shared by every payload


class RoaPayload(Prefixed):
    """One validated ROA payload, keyed by (version, net, plen, asn, maxLength, TA)."""

    __slots__ = ("asn", "max_length", "trust_anchor")

    def __init__(self, asn: int, prefix: Prefix, max_length: int, trust_anchor: str = "other"):
        self._keyed(prefix, plain_asn(asn), max_length, trust_anchor)
        if not self.plen <= max_length <= WIDTH[self.version]:
            raise ValueError(f"maxLength {max_length} out of range for a /{self.plen}")
        self.asn, self.max_length, self.trust_anchor = asn, max_length, trust_anchor


def _parse_asn_field(raw: Union[str, int]) -> int:
    if type(raw) is int:  # a JSON true is not AS 1
        raw = str(raw)
    if not isinstance(raw, str):
        raise TypeError(f"ASN {raw!r} is neither a number nor text")
    return parse_asn(raw)


def _fields(row) -> RoaFields | None:
    """The payload of a row (asn, prefix[, maxLength[, TA]]); None when the row is malformed."""
    if row is None or not 2 <= len(row) <= 4:
        return None
    asn_field, prefix_field, maxlen_field, ta_field = (*row, None, None)[:4]
    try:
        asn = _parse_asn_field(asn_field)
        version, net, plen = parse_prefix(str(prefix_field).strip())
        if maxlen_field is None or (isinstance(maxlen_field, str) and not maxlen_field.strip()):
            max_length = plen  # absent maxLength: exact-prefix ROA
        else:
            max_length = parse_decimal(str(maxlen_field).strip())
    except (ValueError, TypeError):
        return None
    if not plen <= max_length <= WIDTH[version]:
        return None
    ta = "other" if ta_field is None else _TRUST_ANCHOR.get(str(ta_field).strip().lower(), "other")
    return version, net, plen, asn, max_length, ta


def _csv_rows(lines: Iterable[str]) -> Iterator[list[str] | None]:
    """The rows of csv lines but a header and blank lines; None for a row the csv module
    cannot read (a field over its size limit, a bare CR): it resumes at the next line."""
    rows = csv.reader(lines)
    first = True
    while True:
        try:
            row = next(rows)
        except StopIteration:
            return
        except csv.Error:
            row = None
        header = first and row and row[0].strip().upper() == "ASN"
        first = False
        if row is None or (row and not header and (len(row) > 1 or row[0].strip())):
            yield row


def _json_rows(text: str) -> Iterator[tuple | None]:
    """(asn, prefix, maxLength, TA) of each object of a json array; None once for
    a document that is no array, and for each item that is no such object."""
    try:
        doc = json.loads(text) if text.strip() else []
    except (ValueError, RecursionError):  # a syntax error, a 4,300-digit number, deep nesting
        doc = None
    if not isinstance(doc, list):
        yield None
        return
    for obj in doc:
        try:
            yield obj["asn"], obj["prefix"], obj.get("maxLength"), obj.get("ta")
        except (TypeError, KeyError):  # not an object, or one without asn or prefix
            yield None


def roa_fields(
    export: Union[str, Iterable[str]],
    fmt: RoaFormat = RoaFormat.CSV,
    diag: Diagnostics | None = None,
) -> Iterator[RoaFields]:
    """The payloads of a ROA export: a csv export's lines, read one at a time, or
    a json export's text.

    Rows violating the maxLength invariant (or otherwise unparseable) could
    not have come from a correct relying-party validator; they are skipped
    and counted.  No payload at all is a warning, not an error: validation
    then yields NotFound everywhere.
    """
    diag = diag if diag is not None else Diagnostics()
    decoded = 0
    for row in _csv_rows(export) if fmt is RoaFormat.CSV else _json_rows(export):
        fields = _fields(row)
        if fields is None:
            diag.count("malformed_roa_rows")
        else:
            decoded += 1
            yield fields
    if not decoded:
        diag.warn("empty_roa_set", "no ROA payloads loaded; everything validates NotFound")


def load_roas(
    text: str, fmt: RoaFormat = RoaFormat.CSV, diag: Diagnostics | None = None
) -> set[RoaPayload]:
    """Validated ROA payloads of a csv or json export text; roa_fields' checks and counters."""
    export = io.StringIO(text) if fmt is RoaFormat.CSV else text
    return {
        RoaPayload(asn, (version, net, plen), max_length, ta)
        for version, net, plen, asn, max_length, ta in roa_fields(export, fmt, diag)
    }


class RoaIndex:
    """Prefix-keyed ROA lookup: covering(p) = ROAs whose prefix contains p.

    Each prefix keeps its distinct (asn, maxLength, TA) triples; payload
    objects are built only when ``covering`` is asked.
    """

    def __init__(self) -> None:
        self._index = PrefixIndex()

    def __len__(self) -> int:
        """Number of distinct payloads."""
        return len(self._index)

    def add(self, version: int, net: int, plen: int, asn: int, max_length: int, ta: str) -> None:
        self._index.add(version, net, plen, (asn, max_length, ta))

    def state(self, version: int, net: int, plen: int, asn: int) -> ValidationState:
        """Three-state route origin validation of the prefix net/plen originated by ``asn``.

        NotFound iff no ROA covers the prefix; Valid iff a covering ROA names
        the origin (AS0 never authorizes) and its maxLength admits the prefix
        length; Invalid otherwise.  The ASN must pass ``plain_asn``.
        """
        plain_asn(asn)
        covering = self._index.covering(version, net, plen)
        if not covering:
            return ValidationState.NOT_FOUND
        for _net, _plen, triples in covering:
            for roa_asn, max_length, _ta in triples:
                if roa_asn == asn and asn != 0 and plen <= max_length:
                    return ValidationState.VALID
        return ValidationState.INVALID

    def covering(self, prefix: IPNetwork) -> set[RoaPayload]:
        v, net, plen = prefix.version, int(prefix.network_address), prefix.prefixlen
        return {
            RoaPayload(asn, (v, n, p), max_length, ta)
            for n, p, triples in self._index.covering(v, net, plen)
            for asn, max_length, ta in triples
        }


def build_roa_index(roas: Iterable[RoaPayload]) -> RoaIndex:
    index = RoaIndex()
    for roa in roas:
        index.add(roa.version, roa.net, roa.plen, roa.asn, roa.max_length, roa.trust_anchor)
    return index


def validate(pair: Prefixed, index: RoaIndex) -> ValidationState:
    """``RoaIndex.state`` of a prefix/origin pair: a ``rib_store.PrefixOriginPair``."""
    return index.state(pair.version, pair.net, pair.plen, pair.origin_asn)
