"""Route-origin validation of prefix/origin pairs against ROA payloads.

Consumes validated ROA exports (relying-party tool output) and classifies
each prefix/origin pair as valid, invalid or not-found: a pair is valid iff
some covering ROA authorizes its origin AS at its prefix length, not-found
iff no ROA covers the prefix at all, invalid otherwise.
"""

from __future__ import annotations

import csv
import enum
import itertools
import json
import re
from typing import Iterable, Iterator, Union

from ._prefix_index import WIDTH, Prefix, PrefixIndex, Prefixed, parse_prefix
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


class ExportFault(ValueError):
    """A json export that is not one whole array: none of its payloads may load."""


_JSON_SPACE = re.compile(r"[ \t\n\r]*")  # the whitespace json allows between tokens
# what follows an array item: the array's end, or a comma and the space before the next item
_AFTER_ITEM = re.compile(r"[ \t\n\r]*(?:(\])|,[ \t\n\r]*)")
_decode_item = json.JSONDecoder().raw_decode
_MARGIN = 16  # characters from the end of the text read where a token may be cut short


def _cut_short(exc: ValueError, text: str) -> bool:
    """Whether the fault ``exc`` in ``text`` may be its end cutting a token short."""
    if isinstance(exc, json.JSONDecodeError):
        # an unterminated string is reported where it starts
        return exc.msg.startswith("Unterminated string") or exc.pos >= len(text) - _MARGIN
    # a number over int's digit limit may prove a float once its fraction or exponent is read
    return text[-1] in "0123456789.eE+-"


def _json_rows(pieces: Iterable[str]) -> Iterator[tuple | None]:
    """(asn, prefix, maxLength, TA) of each object of the json array the text
    ``pieces`` spell, or None for an item that is no such object, decoded one item
    at a time.

    A document that ``str.strip`` leaves empty has no items.  One that
    ``json.loads`` would reject, or read as no array, raises ExportFault once the
    items before its fault are yielded; the text after the fault is still read.
    """
    pieces = iter(pieces)
    buf, pos, eof = "", 0, False

    def fill() -> None:
        """Drop the text decoded; add at least as much text again as is left, or all there is."""
        nonlocal buf, pos, eof
        buf, pos = buf[pos:], 0
        want = max(len(buf), 1)
        for piece in pieces:
            buf += piece
            want -= len(piece)
            if want <= 0:
                break
        else:
            eof = True

    def fault() -> ExportFault:
        for _ in pieces:  # so that bytes of it that are not UTF-8 still raise
            pass
        return ExportFault("the export is not one json array")

    odd_space = False  # json.loads allows only its own whitespace before the array
    for buf in pieces:
        start = len(buf) - len(buf.lstrip())
        odd_space = odd_space or bool(buf[:start].strip(" \t\n\r"))
        if start < len(buf):
            buf = buf[start:]
            break
    else:
        return
    if odd_space or buf[0] != "[":
        raise fault()
    pos = 1
    while (pos := _JSON_SPACE.match(buf, pos).end()) == len(buf) and not eof:  # type: ignore
        fill()
    if buf[pos : pos + 1] == "]":
        pos += 1
    else:
        while True:
            try:
                obj, end = _decode_item(buf, pos)
            except RecursionError:
                raise fault() from None
            except ValueError as exc:
                if eof or not _cut_short(exc, buf):
                    raise fault() from None
                fill()
                continue
            after = _AFTER_ITEM.match(buf, end)
            # the item is whole once what follows it is read: a number may run on past the text
            if not eof and (end + _MARGIN > len(buf) if after is None else after.end() == len(buf)):
                fill()
                continue
            if after is None:
                raise fault()
            try:
                row = obj["asn"], obj["prefix"], obj.get("maxLength"), obj.get("ta")
            except (TypeError, KeyError):  # not an object, or one without asn or prefix
                row = None
            yield row
            pos = after.end()
            if after.lastindex:  # the "]"
                break
    for rest in itertools.chain((buf[pos:],), pieces):
        if rest.strip(" \t\n\r"):  # data after the array
            raise fault()


_NO_PAYLOADS = "no ROA payloads loaded; everything validates NotFound"


def roa_fields(
    export: Iterable[str],
    fmt: RoaFormat = RoaFormat.CSV,
    diag: Diagnostics | None = None,
) -> Iterator[RoaFields]:
    """The payloads of a ROA export, as read: a csv export's lines, or the text of a
    json export in pieces of any size.

    Rows violating the maxLength invariant (or otherwise unparseable) could
    not have come from a correct relying-party validator; they are skipped
    and counted.  No payload at all is a warning, not an error: validation
    then yields NotFound everywhere.  A json document that faults counts as
    one malformed row, whatever its items counted, and raises ExportFault: the
    payloads it yielded before must not load.
    """
    diag = diag if diag is not None else Diagnostics()
    before = diag.get("malformed_roa_rows")
    decoded = 0
    try:
        for row in _csv_rows(export) if fmt is RoaFormat.CSV else _json_rows(export):
            fields = _fields(row)
            if fields is None:
                diag.count("malformed_roa_rows")
            else:
                decoded += 1
                yield fields
    except ExportFault:
        diag.counters["malformed_roa_rows"] = before + 1
        diag.warn("empty_roa_set", _NO_PAYLOADS)
        raise
    if not decoded:
        diag.warn("empty_roa_set", _NO_PAYLOADS)


class RoaIndex:
    """Prefix-keyed ROA lookup for ``state``: each prefix keeps the distinct
    (asn, maxLength, TA) triples of its payloads, and no payload object."""

    def __init__(self) -> None:
        self._index = PrefixIndex()

    def __len__(self) -> int:
        """Number of distinct payloads."""
        return len(self._index)

    @classmethod
    def load(
        cls, export: Iterable[str], fmt: RoaFormat = RoaFormat.CSV, diag: Diagnostics | None = None
    ) -> "RoaIndex":
        """The index of an export's payloads, added as ``roa_fields`` yields them; an
        empty index for a json document that faults."""
        index = cls()
        try:
            for fields in roa_fields(export, fmt, diag):
                index.add(*fields)
        except ExportFault:
            return cls()
        return index

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


def build_roa_index(roas: Iterable[RoaPayload]) -> RoaIndex:
    index = RoaIndex()
    for roa in roas:
        index.add(roa.version, roa.net, roa.plen, roa.asn, roa.max_length, roa.trust_anchor)
    return index


def validate(pair: Prefixed, index: RoaIndex) -> ValidationState:
    """``RoaIndex.state`` of a prefix/origin pair: a ``rib_store.PrefixOriginPair``."""
    return index.state(pair.version, pair.net, pair.plen, pair.origin_asn)
