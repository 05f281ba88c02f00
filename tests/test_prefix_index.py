"""The per-length prefix index against a linear scan, in both families."""

import ipaddress
import random

import pytest

from rpkiaudit import rib_store
from rpkiaudit._prefix_index import PrefixIndex
from rpkiaudit.diagnostics import Diagnostics
from rpkiaudit.rib_store import (
    PrefixOriginPair,
    PrefixTrie,
    build_trie,
    covering_pairs,
    parse_text_rib,
    text_routes,
)

V4_LENGTHS = [0, 8, 16, 19, 20, 22, 24, 32]
V6_LENGTHS = [0] + list(range(28, 49)) + [64, 128]  # /28-/48 and /64: 22 lengths


def random_prefix(rng, version, plen, near=None):
    width = 32 if version == 4 else 128
    bits = rng.getrandbits(width) if near is None else near
    return bits >> (width - plen) << (width - plen) if plen else 0


def random_table(rng, version, lengths, count):
    """(net, plen, item) rows: nested prefixes, repeats and several items per prefix."""
    width = 32 if version == 4 else 128
    anchors = [rng.getrandbits(width) for _ in range(12)]
    rows = []
    for _ in range(count):
        plen = rng.choice(lengths)
        net = random_prefix(rng, version, plen, rng.choice(anchors + [None]))
        for _ in range(rng.choice([1, 1, 1, 2, 3])):  # MOAS: several items on one prefix
            rows.append((net, plen, rng.choice([64496, 64497, 64498, 4_200_000_000])))
    rows += rows[:10]  # exact repeats are stored once
    return rows


def scan(rows, version, net, plen):
    width = 32 if version == 4 else 128
    out = {}
    for pnet, pplen, item in rows:
        if pplen <= plen and (net >> (width - pplen) if pplen else 0) == (
            pnet >> (width - pplen) if pplen else 0
        ):
            out.setdefault((pnet, pplen), set()).add(item)
    return out


@pytest.mark.parametrize("version,lengths", [(4, V4_LENGTHS), (6, V6_LENGTHS)])
def test_index_matches_linear_scan(version, lengths):
    rng = random.Random(version)
    width = 32 if version == 4 else 128
    rows = random_table(rng, version, lengths, 400)
    index = PrefixIndex()
    for net, plen, item in rows:
        index.add(version, net, plen, item)
    other = 6 if version == 4 else 4
    index.add(other, 0, 0, "other family")

    assert len(index) == len({(n, p, i) for n, p, i in rows}) + 1
    queries = [(rng.getrandbits(width), width) for _ in range(300)]  # addresses
    queries += [(net | rng.getrandbits(width - plen) if plen < width else net, width)
                for net, plen, _ in rng.sample(rows, 200)]
    queries += [(random_prefix(rng, version, plen, net), plen)  # prefixes
                for net, _, _ in rng.sample(rows, 200) for plen in [rng.choice(lengths)]]
    for net, plen in queries:
        expected = scan(rows, version, net, plen)
        found = index.covering(version, net, plen)
        assert {(b.net, b.plen): set(b) for b in found} == expected
        assert [b.plen for b in found] == sorted(b.plen for b in found)
        assert all(len(b) == len(set(b)) for b in found)
        if plen == width:
            longest = index.longest(version, net)
            assert (longest is None) == (not found)
            assert longest is None or longest is found[-1]


def test_out_of_range_length_rejected():
    with pytest.raises(ValueError):
        PrefixIndex().add(4, 0, 33, "x")
    with pytest.raises(ValueError):
        PrefixIndex().add(6, 0, 129, "x")


@pytest.mark.parametrize("version,lengths", [(4, V4_LENGTHS), (6, V6_LENGTHS)])
def test_streamed_trie_matches_scan_and_build_trie(version, lengths):
    """The map stage's lazy path (add_routes) and the primed build_trie agree."""
    rng = random.Random(10 + version)
    width = 32 if version == 4 else 128
    network = ipaddress.IPv4Network if version == 4 else ipaddress.IPv6Network
    address = ipaddress.IPv4Address if version == 4 else ipaddress.IPv6Address
    rows = random_table(rng, version, lengths, 300)
    text = "".join(f"{network((net, plen))}|65000 {asn}\n" for net, plen, asn in rows)
    text += f"{network((rows[0][0], rows[0][1]))}|65000 {{1,2}}\n"
    streamed = PrefixTrie()
    diag = Diagnostics()
    streamed.add_routes(text_routes(text, diag), diag)
    built = build_trie(parse_text_rib(text))
    assert diag.get("as_set_entries") == streamed.as_set_count == built.as_set_count == 1
    assert len(streamed) == len(built) == len({(n, p, a) for n, p, a in rows})
    probes = [rng.getrandbits(width) for _ in range(200)]
    probes += [net | rng.getrandbits(width - plen) if plen < width else net
               for net, plen, _ in rng.sample(rows, 200)]
    for addr in probes:
        ip = address(addr)
        expected = {
            (network((net, plen)), asn)
            for (net, plen), asns in scan(rows, version, addr, width).items()
            for asn in asns
        }
        assert {(p.prefix, p.origin_asn) for p in covering_pairs(ip, streamed)} == expected
        assert covering_pairs(ip, built) == covering_pairs(ip, streamed)
    assert streamed.pairs() == built.pairs()


def test_routes_added_after_lookups_are_seen():
    trie = PrefixTrie()
    trie.add_routes([(4, 10 << 24, 8, 64500, None), (4, 10 << 24 | 1 << 16, 16, 64501, None)])
    ip = ipaddress.IPv4Address("10.1.2.3")
    assert {p.origin_asn for p in trie.covering(ip)} == {64500, 64501}
    trie.add_routes([(4, 0, 0, 64502, None), (4, 10 << 24, 8, 64503, None)])
    assert {p.origin_asn for p in trie.covering(ip)} == {64500, 64501, 64502, 64503}


def test_streamed_trie_builds_only_what_a_lookup_lands_in(monkeypatch):
    """add_routes builds no network or pair; a lookup builds at most its chain's."""
    rng = random.Random(7)
    rows = {4: random_table(rng, 4, V4_LENGTHS[1:], 200),
            6: random_table(rng, 6, V6_LENGTHS[1:], 200)}
    routes = [(v, net, plen, asn, None) for v, table in rows.items() for net, plen, asn in table]
    built = {"networks": 0, "pairs": 0}

    def counting(cls, key):
        def make(*args, **kwargs):
            built[key] += 1
            return cls(*args, **kwargs)
        return make

    monkeypatch.setattr(ipaddress, "IPv4Network", counting(ipaddress.IPv4Network, "networks"))
    monkeypatch.setattr(ipaddress, "IPv6Network", counting(ipaddress.IPv6Network, "networks"))
    monkeypatch.setattr(rib_store, "PrefixOriginPair", counting(PrefixOriginPair, "pairs"))
    trie = PrefixTrie()
    trie.add_routes(iter(routes))
    assert len(trie) == len({(v, n, p, a) for v, n, p, a, _ in routes})
    assert built == {"networks": 0, "pairs": 0}

    for version, width, address in ((4, 32, ipaddress.IPv4Address),
                                    (6, 128, ipaddress.IPv6Address)):
        net, plen, _ = rows[version][-1]
        addr = net | rng.getrandbits(width - plen)
        chain = scan(rows[version], version, addr, width)
        before = dict(built)
        found = trie.covering(address(addr))
        assert {(int(p.prefix.network_address), p.prefix.prefixlen, p.origin_asn)
                for p in found} == {(n, p, a) for (n, p), asns in chain.items() for a in asns}
        assert 0 < built["networks"] - before["networks"] <= len(chain)
        assert built["pairs"] - before["pairs"] <= sum(map(len, chain.values()))
        again = dict(built)
        assert trie.covering(address(addr)) is found
        assert built == again
