"""BGP RIB ingestion: MRT TABLE_DUMP_V2 and text dumps into a prefix index.

One decoder per format yields integer routes, which PrefixTrie indexes as
they stream in.  The trie answers "all covering prefixes and their origin
ASes" for any address; origin is the rightmost AS-path element, with
AS_SET-terminated paths marked and kept out of the analysis set.
"""

from __future__ import annotations

import gzip
import io
import ipaddress
import struct
from collections import defaultdict
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional, Union

from ._prefix_index import WIDTH, IPAddress, IPNetwork, Prefix, PrefixIndex, Prefixed
from ._prefix_index import network, parse_address, parse_prefix
from .diagnostics import Diagnostics
from .errors import BadMagicError, EmptyPathError, NotUtf8Error
from .vocabulary import parse_asn, plain_asn

# An AS path is a flat segment tuple: plain ints for AS_SEQUENCE members,
# frozensets for AS_SET segments.
AsPath = tuple[Union[int, frozenset[int]], ...]

# (version, network int, prefix length, origin or None for a terminal
# AS_SET, AS path or None when the MRT decoder was not asked for paths)
Route = tuple[int, int, int, Optional[int], Optional[AsPath]]

# MRT record types (RFC 6396); anything else in the first header means the
# stream is not MRT at all.
_MRT_TYPES = frozenset({11, 12, 13, 16, 17, 32, 33, 48, 49})
_MRT_HEADER = struct.Struct(">4xHHI")
_TABLE_DUMP_V2 = 13
_PEER_INDEX_TABLE = 1
# RIB subtype -> (version, bytes before an entry's attributes).  An entry is
# peer index (2), originated time (4), attribute length (2); the RFC 8050
# ADD-PATH subtypes add a 4-byte path identifier before the length.
_RIB_SUBTYPES = {
    2: (4, 8),  # RIB_IPV4_UNICAST
    4: (6, 8),  # RIB_IPV6_UNICAST
    8: (4, 12),  # RIB_IPV4_UNICAST_ADDPATH
    10: (6, 12),  # RIB_IPV6_UNICAST_ADDPATH
}

_SEGMENT_TYPES = frozenset({1, 2, 3, 4})  # AS_SET, AS_SEQUENCE, AS_CONFED_{SEQUENCE,SET}
_SEQUENCES = frozenset({2, 3})  # AS_SEQUENCE, AS_CONFED_SEQUENCE

_ATTR_AS_PATH = 2


class _Malformed(Exception):
    pass


@dataclass(frozen=True, slots=True)
class RibEntry:
    prefix: IPNetwork
    as_path: AsPath
    # Rightmost-path origin; None marks an AS_SET-terminated path (RFC 6472
    # deprecates those, so they never become PrefixOriginPairs).
    origin: int | None


class PrefixOriginPair(Prefixed):
    """A prefix and the plain ASN originating it, keyed by (version, net, plen, origin)."""

    __slots__ = ("origin_asn",)

    def __init__(self, prefix: Prefix, origin_asn: int) -> None:
        self._keyed(prefix, plain_asn(origin_asn))
        self.origin_asn = origin_asn


def origin_from_path(as_path: AsPath) -> int | None:
    """Rightmost-ASN origin of a path; None when the path ends in an AS_SET."""
    if not as_path:
        raise EmptyPathError("AS path has no segments")
    last = as_path[-1]
    if isinstance(last, frozenset):
        return None
    return int(last)


# ---------------------------------------------------------------------------
# MRT TABLE_DUMP_V2 decoding


_GZIP_MAGIC = b"\x1f\x8b"


class _Unread(io.RawIOBase):
    """A raw stream that gives back ``head`` before it reads on in ``stream``."""

    def __init__(self, head: bytes, stream: IO[bytes]) -> None:
        self._head, self._stream = head, stream

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:  # type: ignore[override]
        if not self._head:
            return self._stream.readinto(buffer)  # type: ignore[attr-defined]
        size = min(len(buffer), len(self._head))
        buffer[:size], self._head = self._head[:size], self._head[size:]
        return size


def mrt_routes(
    stream: io.BufferedReader, diag: Diagnostics | None = None, with_paths: bool = False
) -> Iterator[Route]:
    """Routes of the TABLE_DUMP_V2 RIB records of an MRT stream (gzip sniffed), read
    one record at a time from a buffered binary stream.

    BadMagicError is raised at once when the stream is not MRT at all; a stream
    that is not gzip is then left unread.  Unsupported types/subtypes, truncated
    records and inconsistent AS_PATH attributes skip the whole record and are
    counted (mrt_skipped_records plus a per-reason key).
    """
    diag = diag if diag is not None else Diagnostics()
    if stream.peek(2)[:2] == _GZIP_MAGIC:
        # buffered, so the many small record reads stay out of GzipFile.read
        stream = io.BufferedReader(gzip.GzipFile(fileobj=stream))  # type: ignore
    header = stream.peek(12)[:12]
    if not header:
        raise BadMagicError("empty stream is not an MRT file")
    if len(header) < 12:
        raise BadMagicError("stream shorter than an MRT record header")
    mtype = _MRT_HEADER.unpack(header)[0]
    if mtype not in _MRT_TYPES:
        raise BadMagicError(f"type {mtype} is not an MRT record type")
    return _mrt_records(stream, diag, with_paths)


def _mrt_records(stream: IO[bytes], diag: Diagnostics, with_paths: bool):
    read = stream.read
    while header := read(12):
        if len(header) < 12:
            diag.count("mrt_skipped_records")
            diag.count("mrt_truncated")
            return
        mtype, subtype, length = _MRT_HEADER.unpack(header)
        body = read(length)
        if len(body) < length:
            diag.count("mrt_skipped_records")
            diag.count("mrt_truncated")
            return
        if mtype != _TABLE_DUMP_V2:
            diag.count("mrt_skipped_records")
            diag.count("mrt_unsupported_type")
            continue
        if subtype == _PEER_INDEX_TABLE:
            continue  # peer details are irrelevant to origin extraction
        layout = _RIB_SUBTYPES.get(subtype)
        if layout is None:
            diag.count("mrt_skipped_records")
            diag.count("mrt_unsupported_subtype")
            continue
        version, entry_header = layout
        try:
            net, plen, routes = _rib_record(body, WIDTH[version], entry_header, with_paths)
        except _Malformed:
            diag.count("mrt_skipped_records")
            diag.count("mrt_malformed_path")
            continue
        for origin, path in routes:
            yield version, net, plen, origin, path


def _rib_record(body: bytes, width: int, entry_header: int, with_paths: bool) -> tuple:
    size = len(body)
    if size < 5:
        raise _Malformed
    plen = body[4]  # after the 4-byte sequence number
    if plen > width:
        raise _Malformed
    end = 5 + (plen + 7) // 8
    if size < end + 2:
        raise _Malformed
    shift = width - plen
    # trailing pad bits are irrelevant per RFC 6396
    net = int.from_bytes(body[5:end], "big") << (width - 8 * (end - 5)) >> shift << shift
    count = body[end] << 8 | body[end + 1]
    off = end + 2
    routes = []
    for _ in range(count):
        attrs = off + entry_header
        if attrs > size:
            raise _Malformed
        off = attrs + (body[attrs - 2] << 8 | body[attrs - 1])
        if off > size:
            raise _Malformed
        routes.append(_path_origin(_as_path_attr(body, attrs, off), with_paths))
    if off != size:
        raise _Malformed
    return net, plen, routes


def _as_path_attr(body: bytes, off: int, end: int) -> bytes:
    """Value of the first AS_PATH attribute in body[off:end], all attributes checked."""
    path = None
    while off < end:
        if off + 3 > end:
            raise _Malformed
        if body[off] & 0x10:  # extended length
            if off + 4 > end:
                raise _Malformed
            value = off + 4
            stop = value + (body[off + 2] << 8 | body[off + 3])
        else:
            value = off + 3
            stop = value + body[off + 2]
        if stop > end:
            raise _Malformed
        if body[off + 1] == _ATTR_AS_PATH and path is None:
            path = body[value:stop]
        off = stop
    if path is None:
        raise _Malformed
    return path


def _path_origin(data: bytes, with_path: bool) -> tuple[Optional[int], Optional[AsPath]]:
    # RFC 6396 mandates 4-byte ASNs in TABLE_DUMP_V2 paths, but 2-byte
    # encodings exist in the wild; accept whichever consumes the attribute
    # exactly, preferring 4-byte.  An empty path is malformed.
    end = len(data)
    for as_size in (4, 2) if end else ():
        off = last = 0
        while off + 2 <= end and data[off] in _SEGMENT_TYPES and data[off + 1]:
            last = off
            off += 2 + data[off + 1] * as_size
        if off == end:
            origin = None
            if data[last] in _SEQUENCES:
                origin = int.from_bytes(data[end - as_size :], "big")
            return origin, _decode_path(data, as_size) if with_path else None
    raise _Malformed


def _decode_path(data: bytes, as_size: int) -> AsPath:
    off = 0
    segs: list[int | frozenset[int]] = []
    while off < len(data):
        stype = data[off]
        end = off + 2 + data[off + 1] * as_size
        asns = [
            int.from_bytes(data[i : i + as_size], "big")
            for i in range(off + 2, end, as_size)
        ]
        off = end
        if stype in _SEQUENCES:
            segs.extend(asns)
        else:
            segs.append(frozenset(asns))
    return tuple(segs)


# ---------------------------------------------------------------------------
# Text RIB decoding ("prefix|as_path" lines)


def text_routes(stream: IO[bytes], diag: Diagnostics | None = None) -> Iterator[Route]:
    """Decode the "prefix|as_path" lines of a binary stream, one line at a time;
    "{a,b}" denotes an AS_SET segment.

    Routes match mrt_routes output; malformed lines (bad prefix, host bits
    set, bad ASN) are skipped and counted.  A line that is not UTF-8 raises
    NotUtf8Error, placed in the stream as decoding it whole would place it.
    """
    diag = diag if diag is not None else Diagnostics()
    offset = 0
    for raw in stream:
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise NotUtf8Error(exc, offset) from None
        offset += len(raw)
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) != 2:
            diag.count("malformed_lines")
            continue
        try:
            version, net, plen = parse_prefix(parts[0].strip())  # host bits are an error
            path = _parse_text_path(parts[1])
        except (ValueError, _Malformed):
            diag.count("malformed_lines")
            continue
        yield version, net, plen, origin_from_path(path), path


def _parse_text_path(text: str) -> AsPath:
    tokens = text.split()
    if not tokens:
        raise _Malformed
    path: list[int | frozenset[int]] = []
    for tok in tokens:
        if tok.startswith("{") and tok.endswith("}"):
            members = frozenset(parse_asn(t) for t in tok[1:-1].split(","))
            if not members:
                raise _Malformed
            path.append(members)
        else:
            path.append(parse_asn(tok))
    return tuple(path)


def read_routes(stream: IO[bytes], diag: Diagnostics | None = None) -> Iterator[Route]:
    """Routes of a RIB dump read as it streams from a binary stream: MRT (gzip
    sniffed) when it is MRT, else UTF-8 text.

    The format is sniffed with ``peek``, never a seek, so a pipe is read as a file
    is.  A pipe may hand over fewer bytes at a time than a sniff needs, so the first
    12 are read in full and given back first.
    """
    head = stream.read(12)
    stream = io.BufferedReader(_Unread(head, stream))
    gzipped = head[:2] == _GZIP_MAGIC
    try:
        return mrt_routes(stream, diag)
    except BadMagicError:
        # A gzip dump that is not MRT is text that fails at its second byte, 0x8b,
        # as it does read whole; GzipFile has read past it, so decode the magic alone.
        return text_routes(io.BytesIO(_GZIP_MAGIC) if gzipped else stream, diag)


def parse_mrt(data: bytes, diag: Diagnostics | None = None) -> list[RibEntry]:
    """RibEntry list of mrt_routes, with AS paths; same checks and counters."""
    routes = mrt_routes(io.BufferedReader(io.BytesIO(data)), diag, with_paths=True)
    return [
        RibEntry(network(version, net, plen), path, origin)  # type: ignore[arg-type]
        for version, net, plen, origin, path in routes
    ]


# ---------------------------------------------------------------------------
# Prefix index of prefix/origin pairs

_NO_PAIRS: frozenset[PrefixOriginPair] = frozenset()


class PrefixTrie:
    """Index answering all-covering-prefix queries.

    Origins are stored as ints, a lone origin bare in the shared prefix index.
    ``origin_keys`` answers a lookup with the (version, net, plen, origin)
    keys of the covering routes, read straight off the index: it builds no
    object and keeps nothing, so a trie used only through it holds the index
    alone.  That is the map stage's path.

    ``covering`` answers with PrefixOriginPairs and memoises.  The prefixes
    that cover an address are nested, so the longest one fixes the answer: a
    prefix's memo is the frozenset of pairs of every stored prefix covering
    it, and a lookup returns the memo of the longest prefix that matches.
    Memos live in side tables, one per family and length keyed like the index
    by ``net >> (width - plen)``, and are built on a lookup, for the prefix it
    hits and those covering it; a stored prefix that no lookup lands in has
    none.
    """

    def __init__(self) -> None:
        self._index = PrefixIndex()
        # per family: plen -> {net >> (width - plen): memo}
        self._memos: dict[int, defaultdict[int, dict[int, frozenset[PrefixOriginPair]]]] = {
            4: defaultdict(dict), 6: defaultdict(dict)
        }
        self.as_set_count = 0

    def __len__(self) -> int:
        return len(self._index)

    def add_routes(self, routes: Iterable[Route], diag: Diagnostics | None = None) -> None:
        """Index every non-AS_SET route; AS_SET routes only bump a counter.

        Every memo is then dropped, as a new prefix changes those of the
        longer prefixes it covers.
        """
        diag = diag if diag is not None else Diagnostics()
        add = self._index.add
        for version, net, plen, origin, _path in routes:
            if origin is None:
                self.as_set_count += 1
                diag.count("as_set_entries")
            else:
                add(version, net, plen, origin)
        for tables in self._memos.values():
            tables.clear()

    def _memo(self, version: int, net: int, plen: int) -> frozenset[PrefixOriginPair]:
        """The memo of a stored prefix, built with those of the prefixes covering it."""
        tables, width = self._memos[version], WIDTH[version]
        pairs = _NO_PAIRS
        for covering_net, covering_plen, origins in self._index.covering(version, net, plen):
            table = tables[covering_plen]
            key = covering_net >> (width - covering_plen)
            memo = table.get(key)
            if memo is None:  # shortest first: each memo extends the last
                prefix = version, covering_net, covering_plen
                memo = pairs.union([PrefixOriginPair(prefix, o) for o in origins])
                table[key] = memo
            pairs = memo
        return pairs

    def covering(self, version: int, addr: int) -> frozenset[PrefixOriginPair]:
        found = self._index.longest(version, addr)
        if found is None:
            return _NO_PAIRS
        plen, key = found
        memo = self._memos[version][plen].get(key)
        if memo is None:
            memo = self._memo(version, key << (WIDTH[version] - plen), plen)
        return memo

    def origin_keys(self, version: int, addr: int) -> list[tuple[int, int, int, int]]:
        """(version, net, plen, origin) of every stored route whose prefix contains
        the address, shortest prefix first; nothing is built for the trie or kept."""
        return self._index.item_keys(version, addr)

    def pairs(self) -> set[PrefixOriginPair]:
        return set().union(*(self._memo(*entry[:3]) for entry in self._index))


def build_trie(
    entries: Iterable[RibEntry], diag: Diagnostics | None = None
) -> PrefixTrie:
    """Index every non-AS_SET entry; AS_SET entries only bump a counter.

    Every memo is built before the trie is returned, so no lookup builds one.
    """
    trie = PrefixTrie()
    trie.add_routes(
        (
            (e.prefix.version, int(e.prefix.network_address), e.prefix.prefixlen, e.origin, None)
            for e in entries
        ),
        diag,
    )
    trie.pairs()  # builds every memo
    return trie


def covering_pairs(
    ip: Union[str, IPAddress], trie: PrefixTrie
) -> frozenset[PrefixOriginPair]:
    """Every (prefix, origin) in the trie whose prefix contains the address.

    The set is shared with the trie's memo, not copied per lookup.
    """
    if isinstance(ip, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
        return trie.covering(ip.version, int(ip))
    return trie.covering(*parse_address(ip))  # text; anything else is a TypeError
