import gzip
import io
import ipaddress
import random

import pytest

import mrt_builder as mb
from rpkiaudit._prefix_index import network
from rpkiaudit.diagnostics import Diagnostics
from rpkiaudit.errors import BadMagicError, EmptyPathError
from rpkiaudit.rib_store import (
    PrefixOriginPair,
    RibEntry,
    build_trie,
    covering_pairs,
    origin_from_path,
    parse_asn,
    parse_mrt,
    text_routes,
)


def text_rib(text, diag=None):
    """The RibEntry of each route ``text_routes`` reads from a text dump."""
    routes = text_routes(io.BytesIO(text.encode("utf-8")), diag)
    return [RibEntry(network(v, net, plen), path, origin) for v, net, plen, origin, path in routes]


def scan_covering(entries, ip):
    """Linear-scan oracle: all (prefix, origin) pairs containing ip."""
    ip = ipaddress.ip_address(ip)
    out = set()
    for e in entries:
        if e.origin is None:
            continue
        if e.prefix.version == ip.version and ip in e.prefix:
            out.add((e.prefix, e.origin))
    return out


def as_tuples(pairs):
    return {(p.prefix, p.origin_asn) for p in pairs}


class TestOriginFromPath:
    def test_rightmost_sequence_asn(self):
        assert origin_from_path((64496, 64497, 64498)) == 64498

    def test_terminal_as_set_is_marker(self):
        assert origin_from_path((64496, frozenset({64497}))) is None

    def test_empty_path_raises(self):
        with pytest.raises(EmptyPathError):
            origin_from_path(())


class TestParseTextRib:
    def test_sequence_origin(self):
        entries = text_rib("10.0.0.0/8|64496 64497")
        assert entries == [
            RibEntry(ipaddress.ip_network("10.0.0.0/8"), (64496, 64497), 64497)
        ]

    def test_terminal_set(self):
        entries = text_rib("10.0.0.0/8|64496 {64497,64498}")
        assert entries[0].origin is None
        assert entries[0].as_path == (64496, frozenset({64497, 64498}))

    def test_host_bits_malformed(self):
        diag = Diagnostics()
        assert text_rib("10.0.0.1/8|64496", diag) == []
        assert diag.get("malformed_lines") == 1

    def test_comments_and_blanks_ignored(self):
        entries = text_rib("# rib\n\n203.0.113.0/24|64500\n")
        assert len(entries) == 1

    @pytest.mark.parametrize(
        "line",
        ["no pipe", "10.0.0.0/8|", "10.0.0.0/8|notanasn", "x/8|1", "10.0.0.0/8|1|2",
         "10.0.0.0/8|65000 6_5001", "10.0.0.0/8|{1,+2}", "10.0.0.0/8|4294967296"],
    )
    def test_malformed_lines_counted(self, line):
        diag = Diagnostics()
        assert text_rib(line, diag) == []
        assert diag.get("malformed_lines") == 1

    def test_as_prefixed_path(self):
        assert text_rib("10.0.0.0/8|AS64496 as64497")[0].as_path == (64496, 64497)

    def test_v6_line(self):
        entries = text_rib("2001:db8::/32|64496 64499")
        assert entries[0].prefix == ipaddress.ip_network("2001:db8::/32")
        assert entries[0].origin == 64499


class TestParseAsn:
    @pytest.mark.parametrize(
        "text, asn",
        [("0", 0), ("64496", 64496), ("AS64496", 64496), ("as64496", 64496),
         (" AS4294967295 ", 2**32 - 1)],
    )
    def test_decimal_with_optional_as(self, text, asn):
        assert parse_asn(text) == asn

    @pytest.mark.parametrize(
        "text", ["", "AS", "ASX", "AS 1", "1_0", "+7", "-1", "\u0665", "6 5", "4294967296"]
    )
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_asn(text)


class TestParseMrt:
    def test_single_v4_record(self):
        # 93.184.216.0/24 via path [3320, 15133]; rightmost ASN is the origin.
        data = mb.peer_index_table() + mb.simple_rib("93.184.216.0/24", [3320, 15133])
        entries = parse_mrt(data)
        assert entries == [
            RibEntry(ipaddress.ip_network("93.184.216.0/24"), (3320, 15133), 15133)
        ]

    def test_as_set_terminal_marks_origin(self):
        data = mb.simple_rib("198.51.100.0/24", [3320, {64500, 64501}])
        entries = parse_mrt(data)
        assert entries[0].origin is None
        assert entries[0].as_path == (3320, frozenset({64500, 64501}))

    def test_empty_file_bad_magic(self):
        with pytest.raises(BadMagicError):
            parse_mrt(b"")

    def test_garbage_bad_magic(self):
        with pytest.raises(BadMagicError):
            parse_mrt(b"this is not an mrt stream at all.....")

    def test_truncated_record_skipped_and_counted(self):
        good = mb.simple_rib("93.184.216.0/24", [3320, 15133])
        truncated = mb.mrt_record(mb.TABLE_DUMP_V2, mb.RIB_IPV4_UNICAST, b"\x00" * 40)[:20]
        diag = Diagnostics()
        entries = parse_mrt(good + truncated, diag)
        assert len(entries) == 1
        assert diag.get("mrt_skipped_records") == 1
        assert diag.get("mrt_truncated") == 1

    def test_two_byte_asn_path(self):
        data = mb.simple_rib("203.0.113.0/24", [3320, 15133], as_size=2)
        entries = parse_mrt(data)
        assert entries[0].origin == 15133

    def test_four_byte_only_asn(self):
        data = mb.simple_rib("203.0.113.0/24", [3320, 4_200_000_001])
        assert parse_mrt(data)[0].origin == 4_200_000_001

    def test_extended_length_attribute(self):
        data = mb.simple_rib("203.0.113.0/24", [64496, 64497], extended=True)
        assert parse_mrt(data)[0].origin == 64497

    def test_v6_record(self):
        data = mb.simple_rib("2001:db8:42::/48", [6939, 64511])
        entries = parse_mrt(data)
        assert entries[0].prefix == ipaddress.ip_network("2001:db8:42::/48")
        assert entries[0].origin == 64511

    def test_multiple_entries_one_prefix(self):
        attrs_a = mb.origin_attr() + mb.as_path_attr(
            mb.path_segment(mb.AS_SEQUENCE, [100, 200])
        )
        attrs_b = mb.origin_attr() + mb.as_path_attr(
            mb.path_segment(mb.AS_SEQUENCE, [100, 300])
        )
        data = mb.rib_record("192.0.2.0/24", [mb.rib_entry(attrs_a), mb.rib_entry(attrs_b)])
        entries = parse_mrt(data)
        assert [e.origin for e in entries] == [200, 300]

    def test_unsupported_subtype_counted(self):
        other = mb.mrt_record(mb.TABLE_DUMP_V2, mb.RIB_IPV4_MULTICAST, b"\x00" * 8)
        good = mb.simple_rib("192.0.2.0/24", [64500])
        diag = Diagnostics()
        entries = parse_mrt(other + good, diag)
        assert len(entries) == 1
        assert diag.get("mrt_unsupported_subtype") == 1
        assert diag.get("mrt_skipped_records") == 1

    def test_addpath_records_v4_and_v6(self):
        # RFC 8050: two paths for one v4 prefix, told apart by path identifier
        def attrs(*path):
            return mb.origin_attr() + mb.as_path_attr(mb.path_segment(mb.AS_SEQUENCE, path))

        data = (
            mb.peer_index_table()
            + mb.rib_record(
                "192.0.2.0/24",
                [
                    mb.rib_entry_addpath(attrs(100, 200), path_id=1),
                    mb.rib_entry_addpath(attrs(100, 300), path_id=2),
                ],
                addpath=True,
            )
            + mb.rib_record(
                "2001:db8:7::/48", [mb.rib_entry_addpath(attrs(6939, 64511), 7)], addpath=True
            )
            + mb.mrt_record(mb.TABLE_DUMP_V2, mb.RIB_IPV4_MULTICAST_ADDPATH, b"\x00" * 8)
        )
        diag = Diagnostics()
        entries = parse_mrt(data, diag)
        assert entries == [
            RibEntry(ipaddress.ip_network("192.0.2.0/24"), (100, 200), 200),
            RibEntry(ipaddress.ip_network("192.0.2.0/24"), (100, 300), 300),
            RibEntry(ipaddress.ip_network("2001:db8:7::/48"), (6939, 64511), 64511),
        ]
        assert diag.as_dict() == {"mrt_skipped_records": 1, "mrt_unsupported_subtype": 1}

    def test_addpath_entry_without_path_id_is_malformed(self):
        # a plain entry inside an ADD-PATH record is 4 bytes short
        attrs = mb.as_path_attr(mb.path_segment(mb.AS_SEQUENCE, [64500]))
        data = mb.rib_record("192.0.2.0/24", [mb.rib_entry(attrs)], addpath=True)
        diag = Diagnostics()
        assert parse_mrt(data, diag) == []
        assert diag.get("mrt_malformed_path") == 1

    def test_low_v6_prefix_stays_v6(self):
        data = mb.simple_rib("::/0", [64500]) + mb.simple_rib("::/8", [64501])
        assert [str(e.prefix) for e in parse_mrt(data)] == ["::/0", "::/8"]

    def test_malformed_path_skips_record(self):
        # attribute claims more segment ASNs than bytes present in any width
        bad_attr = bytes([0x40, 2, 5]) + bytes([mb.AS_SEQUENCE, 9, 0])
        data = mb.rib_record("192.0.2.0/24", [mb.rib_entry(bad_attr)])
        good = mb.simple_rib("198.51.100.0/24", [64500])
        diag = Diagnostics()
        entries = parse_mrt(data + good, diag)
        assert [str(e.prefix) for e in entries] == ["198.51.100.0/24"]
        assert diag.get("mrt_malformed_path") == 1

    def test_gzip_sniffed(self):
        data = mb.simple_rib("93.184.216.0/24", [3320, 15133])
        entries = parse_mrt(gzip.compress(data))
        assert entries[0].origin == 15133

    def test_prefix_pad_bits_masked(self):
        # /20 prefix needs 3 octets; set junk in the low 4 pad bits
        import struct

        body = struct.pack(">IB", 0, 20) + bytes([10, 0, 0x1F])
        attrs = mb.as_path_attr(mb.path_segment(mb.AS_SEQUENCE, [64500]))
        body += struct.pack(">H", 1) + mb.rib_entry(attrs)
        data = mb.mrt_record(mb.TABLE_DUMP_V2, mb.RIB_IPV4_UNICAST, body)
        assert parse_mrt(data)[0].prefix == ipaddress.ip_network("10.0.16.0/20")


class TestTrie:
    def test_empty_trie_lookup(self):
        trie = build_trie([])
        assert covering_pairs("10.0.0.1", trie) == set()

    def test_duplicate_pairs_deduplicated(self):
        net = ipaddress.ip_network("10.0.0.0/8")
        entries = [
            RibEntry(net, (1, 64500), 64500),
            RibEntry(net, (2, 64500), 64500),
        ]
        trie = build_trie(entries)
        assert len(trie) == 1
        assert covering_pairs("10.1.2.3", trie) == {PrefixOriginPair(net, 64500)}

    def test_all_covering_not_just_longest(self):
        entries = text_rib("10.0.0.0/8|1\n10.0.0.0/16|2")
        trie = build_trie(entries)
        assert as_tuples(covering_pairs("10.0.0.1", trie)) == {
            (ipaddress.ip_network("10.0.0.0/8"), 1),
            (ipaddress.ip_network("10.0.0.0/16"), 2),
        }
        assert covering_pairs("11.0.0.1", trie) == set()

    def test_default_route_covers_everything(self):
        entries = text_rib("0.0.0.0/0|3\n203.0.113.0/24|9")
        trie = build_trie(entries)
        found = as_tuples(covering_pairs("8.8.8.8", trie))
        assert (ipaddress.ip_network("0.0.0.0/0"), 3) in found

    def test_as_set_entries_counted_not_indexed(self):
        diag = Diagnostics()
        entries = text_rib("10.0.0.0/8|1 {2,3}\n10.0.0.0/8|4")
        trie = build_trie(entries, diag)
        assert trie.as_set_count == 1
        assert diag.get("as_set_entries") == 1
        assert as_tuples(covering_pairs("10.0.0.1", trie)) == {
            (ipaddress.ip_network("10.0.0.0/8"), 4)
        }

    def test_moas_pairs_kept_separately(self):
        entries = text_rib("192.0.2.0/24|1 100\n192.0.2.0/24|2 200")
        trie = build_trie(entries)
        assert {p.origin_asn for p in covering_pairs("192.0.2.7", trie)} == {100, 200}

    def test_family_isolation(self):
        entries = text_rib("0.0.0.0/0|4\n::/0|6")
        trie = build_trie(entries)
        assert {p.origin_asn for p in covering_pairs("192.0.2.1", trie)} == {4}
        assert {p.origin_asn for p in covering_pairs("2001:db8::1", trie)} == {6}

    def test_host_route_lookup(self):
        entries = text_rib("192.0.2.55/32|7")
        trie = build_trie(entries)
        assert {p.origin_asn for p in covering_pairs("192.0.2.55", trie)} == {7}
        assert covering_pairs("192.0.2.54", trie) == set()

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(6811)
        entries = []
        for _ in range(2000):
            plen = rng.randint(4, 28)
            net_int = rng.getrandbits(32) & ~((1 << (32 - plen)) - 1)
            prefix = ipaddress.ip_network((net_int, plen))
            path = (rng.randint(1, 65000), rng.randint(1, 65000))
            entries.append(RibEntry(prefix, path, path[-1]))
        trie = build_trie(entries)
        scan_set = {(e.prefix, e.origin) for e in entries}
        assert len(trie) == len(scan_set)
        probes = [ipaddress.IPv4Address(rng.getrandbits(32)) for _ in range(300)]
        probes += [e.prefix.network_address + 1 for e in entries[:300] if e.prefix.prefixlen < 31]
        for ip in probes:
            assert as_tuples(covering_pairs(ip, trie)) == scan_covering(entries, ip)

    def test_format_equivalence_mrt_vs_text(self):
        mrt_bytes = (
            mb.peer_index_table()
            + mb.simple_rib("10.0.0.0/8", [100, 200])
            + mb.simple_rib("10.0.0.0/16", [100, 300])
            + mb.simple_rib("2001:db8::/32", [100, 400])
            + mb.simple_rib("198.51.100.0/24", [100, {500, 501}])
        )
        text = (
            "10.0.0.0/8|100 200\n"
            "10.0.0.0/16|100 300\n"
            "2001:db8::/32|100 400\n"
            "198.51.100.0/24|100 {500,501}\n"
        )
        trie_a = build_trie(parse_mrt(mrt_bytes))
        trie_b = build_trie(text_rib(text))
        assert trie_a.pairs() == trie_b.pairs()
        assert trie_a.as_set_count == trie_b.as_set_count == 1
        for ip in ("10.0.0.1", "10.1.0.1", "2001:db8::5", "198.51.100.9"):
            assert covering_pairs(ip, trie_a) == covering_pairs(ip, trie_b)
