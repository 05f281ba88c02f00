"""Hand-rolled MRT TABLE_DUMP_V2 byte builder (RFC 6396 field layout).

Test-side encoder kept independent of the parser under test: every field
is packed explicitly at its documented offset.
"""

import ipaddress
import struct

TABLE_DUMP_V2 = 13
PEER_INDEX_TABLE = 1
RIB_IPV4_UNICAST = 2
RIB_IPV4_MULTICAST = 3
RIB_IPV6_UNICAST = 4
RIB_IPV4_UNICAST_ADDPATH = 8  # RFC 8050
RIB_IPV4_MULTICAST_ADDPATH = 9
RIB_IPV6_UNICAST_ADDPATH = 10

AS_SET = 1
AS_SEQUENCE = 2


def mrt_record(mtype: int, subtype: int, body: bytes, ts: int = 0) -> bytes:
    return struct.pack(">IHHI", ts, mtype, subtype, len(body)) + body


def peer_index_table(peer_asns=(64500,)) -> bytes:
    body = struct.pack(">I", 0x0A0A0A0A)  # collector BGP id
    body += struct.pack(">H", 0)  # view name length (empty)
    body += struct.pack(">H", len(peer_asns))
    for asn in peer_asns:
        # peer type 0x02: IPv4 address + 4-byte AS
        body += struct.pack(">B", 0x02)
        body += struct.pack(">I", 0x0B0B0B0B)  # peer BGP id
        body += bytes([192, 0, 2, 1])  # peer IP
        body += struct.pack(">I", asn)
    return mrt_record(TABLE_DUMP_V2, PEER_INDEX_TABLE, body)


def path_segment(stype: int, asns, as_size: int = 4) -> bytes:
    data = struct.pack(">BB", stype, len(asns))
    fmt = ">I" if as_size == 4 else ">H"
    for asn in asns:
        data += struct.pack(fmt, asn)
    return data


def as_path_attr(segments: bytes, extended: bool = False) -> bytes:
    flags = 0x40 | (0x10 if extended else 0)
    if extended:
        return struct.pack(">BBH", flags, 2, len(segments)) + segments
    return struct.pack(">BBB", flags, 2, len(segments)) + segments


def origin_attr() -> bytes:
    # BGP ORIGIN attribute (type 1), value IGP; padding to prove the parser
    # walks past non-AS_PATH attributes.
    return struct.pack(">BBBB", 0x40, 1, 1, 0)


def rib_entry(attrs: bytes, peer_index: int = 0, originated: int = 0) -> bytes:
    return struct.pack(">HIH", peer_index, originated, len(attrs)) + attrs


def rib_entry_addpath(attrs: bytes, path_id: int, peer_index: int = 0) -> bytes:
    """RFC 8050 entry: a 4-byte path identifier sits after the originated time."""
    return struct.pack(">HIIH", peer_index, 0, path_id, len(attrs)) + attrs


def rib_record(prefix: str, entries: list[bytes], seq: int = 0, addpath: bool = False) -> bytes:
    network = ipaddress.ip_network(prefix)
    v6 = network.version == 6
    plen = network.prefixlen
    octets = (plen + 7) // 8
    packed = int(network.network_address).to_bytes(16 if v6 else 4, "big")[:octets]
    body = struct.pack(">IB", seq, plen) + packed
    body += struct.pack(">H", len(entries)) + b"".join(entries)
    if addpath:
        subtype = RIB_IPV6_UNICAST_ADDPATH if v6 else RIB_IPV4_UNICAST_ADDPATH
    else:
        subtype = RIB_IPV6_UNICAST if v6 else RIB_IPV4_UNICAST
    return mrt_record(TABLE_DUMP_V2, subtype, body)


def simple_rib(prefix: str, path, as_size: int = 4, extended: bool = False) -> bytes:
    """One prefix, one entry, path given as ints and set-tuples."""
    segments = b""
    sequence: list[int] = []
    for element in path:
        if isinstance(element, (set, frozenset, tuple)) and not isinstance(element, int):
            if sequence:
                segments += path_segment(AS_SEQUENCE, sequence, as_size)
                sequence = []
            segments += path_segment(AS_SET, sorted(element), as_size)
        else:
            sequence.append(element)
    if sequence:
        segments += path_segment(AS_SEQUENCE, sequence, as_size)
    attrs = origin_attr() + as_path_attr(segments, extended)
    return rib_record(prefix, [rib_entry(attrs)])
