"""The prefix text codec against ipaddress, and the per-length prefix index
against a linear scan, in both families."""

import io
import ipaddress
import random
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpkiaudit._prefix_index import (
    PrefixIndex,
    format_address,
    format_prefix,
    parse_address,
    parse_prefix,
)
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


# ---------------------------------------------------------------------------
# the codec, with ipaddress as the oracle

V4 = st.integers(0, 2**32 - 1)
V6 = st.one_of(
    st.integers(0, 2**128 - 1),
    V4.map(lambda a: 0xFFFF << 32 | a),  # IPv4-mapped
    V4,  # IPv4-compatible, :: and ::1 among them
    st.integers(0, 2**16 - 1).map(lambda a: a << 112),
)


def sometimes(values, others):
    """One of values three times in four, else one of others."""
    return st.one_of(st.sampled_from(values), st.sampled_from(values),
                     st.sampled_from(values), st.sampled_from(others))


@st.composite
def address_texts(draw, version, value):
    """A text of the address: canonical, exploded, upper case, dotted or zero-padded."""
    if version == 4:
        octets = [str(octet) for octet in value.to_bytes(4, "big")]
        at = draw(st.integers(0, 3))
        octets[at] = draw(sometimes([""], ["0", "00"])) + octets[at]
        return ".".join(octets)
    addr = ipaddress.IPv6Address(value)
    v4_tail = str(ipaddress.IPv4Address(value & 0xFFFFFFFF))
    dotted = ":".join(addr.exploded.split(":")[:6]) + ":" + v4_tail
    ntop = socket.inet_ntop(socket.AF_INET6, addr.packed)  # dotted when mapped or compatible
    return draw(st.sampled_from([addr.compressed, addr.exploded, addr.compressed.upper(),
                                 dotted, ntop]))


@st.composite
def codec_texts(draw):
    """Prefix and address texts that ipaddress accepts, or rejects for one or more reasons."""
    version = draw(st.sampled_from([4, 6]))
    width = 32 if version == 4 else 128
    value = draw(V4 if version == 4 else V6)
    plen = draw(st.one_of(st.integers(0, width), st.sampled_from([0, 32, 128] + V6_LENGTHS)))
    plen = min(plen, width)
    if draw(sometimes([True], [False])):  # else host bits are most likely set
        value = value >> (width - plen) << (width - plen)
    fullwidth = "".join(chr(0xFF10 + int(c)) for c in str(plen))
    suffixes = [f"/{plen}", f"/{plen}", "", f"/0{plen}"]
    if version == 4:
        mask = 0xFFFFFFFF ^ ((1 << (32 - plen)) - 1)
        suffixes += [f"/{ipaddress.IPv4Address(mask)}",  # netmask and hostmask
                     f"/{ipaddress.IPv4Address(~mask & 0xFFFFFFFF)}"]
    faults = ["/", f"/{fullwidth}", f"/+{plen}", f"/ {plen}", f"/{plen}_0", f"/{plen}/{plen}",
              f"/{width + 1}", f"/{ipaddress.IPv4Address(draw(V4))}"]
    scopes = [""] if version == 4 else ["", "%eth0", "%1"]
    text = (draw(address_texts(version, value)) + draw(sometimes(scopes, ["%", "%a%b", "%1"]))
            + draw(sometimes(suffixes, faults)))
    space = draw(st.sampled_from([" ", "\t", "\n"]))
    return draw(sometimes([text], [space + text, text + space]))


GARBAGE = st.text(alphabet="0123456789abcdefABCDEF:./% \t\x00\uff18g", max_size=46)


def verdict(parse, text):
    try:
        return parse(text)
    except ValueError:
        return "rejected"


def oracle_address(text):
    addr = ipaddress.ip_address(text)
    return addr.version, int(addr)


def oracle_prefix(text):
    network = ipaddress.ip_network(text)
    return network.version, int(network.network_address), network.prefixlen


def oracle_text(version, net, plen):
    network = (ipaddress.IPv4Network if version == 4 else ipaddress.IPv6Network)((net, plen))
    return str(network.network_address), str(network)


@settings(max_examples=600, deadline=None)
@given(st.one_of(codec_texts(), GARBAGE))
def test_codec_matches_ipaddress(text):
    for parse, oracle in ((parse_address, oracle_address), (parse_prefix, oracle_prefix)):
        found = verdict(parse, text)
        assert found == verdict(oracle, text)
        if found != "rejected":
            version, net = found[:2]
            plen = found[2] if len(found) == 3 else 32 if version == 4 else 128
            assert (format_address(version, net), format_prefix(version, net, plen)) == (
                oracle_text(version, net, plen)
            )


@given(st.one_of(st.integers(), st.none(), st.binary(), st.floats(), st.lists(st.text())))
def test_codec_takes_only_text(value):
    with pytest.raises(TypeError):
        parse_address(value)
    with pytest.raises(TypeError):
        parse_prefix(value)


@pytest.mark.parametrize(
    "version,plen", [(4, p) for p in V4_LENGTHS] + [(6, p) for p in V6_LENGTHS]
)
def test_codec_round_trips_every_length(version, plen):
    rng = random.Random(plen)
    width = 32 if version == 4 else 128
    for value in [0, 2**width - 1] + [rng.getrandbits(width) for _ in range(50)]:
        net = random_prefix(rng, version, plen, value)
        text = oracle_text(version, net, plen)[1]
        assert parse_prefix(text) == (version, net, plen)
        assert format_prefix(version, net, plen) == text


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
        assert {(n, p): set(items) for n, p, items in found} == expected
        assert [p for _, p, _ in found] == sorted(p for _, p, _ in found)
        assert all(len(items) == len(set(items)) for _, _, items in found)
        if plen == width:  # map's walk over an address: the same items, flat, in one list
            keys = index.item_keys(version, net)
            flat = {}
            for key_version, n, p, item in keys:
                assert key_version == version
                flat.setdefault((n, p), set()).add(item)
            assert flat == expected
            assert keys == [(version, n, p, item) for n, p, items in found for item in items]
            longest = index.longest(version, net)
            assert (longest is None) == (not found)
            if found:
                last_net, last_plen, _ = found[-1]
                assert longest == (last_plen, last_net >> (width - last_plen))


@pytest.mark.parametrize("items", [
    [(64496, 24, "ripe")],  # one tuple
    [(64496,)],  # a 1-tuple, shaped like a group of one
    [(64496, 24, "ripe"), (64497, 20, "arin")],  # two tuples
    [64496, (64496, 24, "ripe")],  # an int, then a tuple
    [(64496, 24, "ripe"), 64496, (64496, 24, "ripe")],  # a repeated tuple
], ids=["one-tuple", "one-1-tuple", "two-tuples", "int-then-tuple", "repeated-tuple"])
@pytest.mark.parametrize("version,lengths", [(4, V4_LENGTHS), (6, V6_LENGTHS)])
def test_tuple_items_match_linear_scan(version, lengths, items):
    """An item that is itself a tuple is stored and handed back as one item."""
    rng = random.Random(len(items))
    width = 32 if version == 4 else 128
    anchor = rng.getrandbits(width)
    rows = [(random_prefix(rng, version, plen, anchor), plen, item)
            for plen in lengths for item in items]
    index = PrefixIndex()
    for net, plen, item in rows:
        index.add(version, net, plen, item)

    expected = scan(rows, version, anchor, width)
    found = index.covering(version, anchor, width)
    assert {(n, p): set(stored) for n, p, stored in found} == expected
    assert [len(stored) for _, _, stored in found] == [len(set(items))] * len(lengths)
    assert index.item_keys(version, anchor) == [
        (version, n, p, item) for n, p, stored in found for item in stored
    ]
    net, plen, _ = found[-1]
    assert index.longest(version, anchor) == (plen, net >> (width - plen))
    assert {(n, p): set(stored) for _, n, p, stored in index} == expected
    assert len(index) == len(set(rows))


def test_len_counts_what_a_walk_finds():
    """len is kept as items are stored: repeats, MOAS, tuple items, adds after lookups."""
    rng = random.Random(3)
    index = PrefixIndex()

    def walked():
        return sum(len(items) for *_, items in index)

    assert len(index) == walked() == 0
    for version, lengths in ((4, V4_LENGTHS), (6, V6_LENGTHS)):
        for net, plen, asn in random_table(rng, version, lengths, 150):  # MOAS and repeats
            index.add(version, net, plen, asn)
            index.add(version, net, plen, (asn, plen, "ripe"))
            index.add(version, net, plen, (asn, plen, "ripe"))
        assert len(index) == walked()
        width = 32 if version == 4 else 128
        for _ in range(20):
            index.covering(version, rng.getrandbits(width), width)
            index.longest(version, rng.getrandbits(width))
        index.add(version, 0, 0, "after lookups")
        index.add(version, 0, 0, "after lookups")
        assert len(index) == walked()


def test_none_is_no_item():
    with pytest.raises(TypeError):
        PrefixIndex().add(4, 0, 0, None)


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
    streamed.add_routes(text_routes(io.BytesIO(text.encode()), diag), diag)
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
    assert {p.origin_asn for p in covering_pairs(ip, trie)} == {64500, 64501}
    trie.add_routes([(4, 0, 0, 64502, None), (4, 10 << 24, 8, 64503, None)])
    assert {p.origin_asn for p in covering_pairs(ip, trie)} == {64500, 64501, 64502, 64503}


@st.composite
def route_batches(draw):
    """Batches of routes on nested prefixes of a few anchors, in both families,
    and addresses near those anchors."""
    anchors = {4: draw(st.lists(V4, min_size=1, max_size=3)),
               6: draw(st.lists(V6, min_size=1, max_size=3))}
    lengths = {4: V4_LENGTHS, 6: V6_LENGTHS}  # /0, /32 and /128 among them

    def route(version):
        width = 32 if version == 4 else 128
        plen = draw(st.sampled_from(lengths[version]))
        net = draw(st.sampled_from(anchors[version])) >> (width - plen) << (width - plen)
        return version, net, plen, draw(st.sampled_from([0, 64496, 64497, 2**32 - 1])), None

    batches = [[route(draw(st.sampled_from([4, 6]))) for _ in range(draw(st.integers(1, 30)))]
               for _ in range(draw(st.integers(1, 3)))]
    addresses = [(version, draw(st.sampled_from(anchors[version])) ^ draw(st.integers(0, 255)))
                 for version in (4, 6) for _ in range(4)]
    addresses += [(version, draw(V4 if version == 4 else V6))
                  for version in (4, 6) for _ in range(2)]
    return batches, addresses


@settings(max_examples=150, deadline=None)
@given(route_batches())
def test_origin_keys_match_covering_pairs(case):
    """Map's integer lookup and the pair lookup answer alike, as routes keep coming."""
    batches, addresses = case
    trie = PrefixTrie()
    for batch in batches:
        trie.add_routes(batch)
        for version, addr in addresses:
            keys = trie.origin_keys(version, addr)
            assert len(keys) == len(set(keys))
            assert [k[2] for k in keys] == sorted(k[2] for k in keys)  # shortest first
            pairs = covering_pairs(format_address(version, addr), trie)
            assert set(keys) == {p.key for p in pairs}
            assert trie.origin_keys(version, addr) == keys


def test_streamed_trie_builds_only_what_a_lookup_lands_in(monkeypatch):
    """add_routes builds no network or pair; a lookup builds at most its chain's
    pairs, and no network."""
    rng = random.Random(7)
    rows = {4: random_table(rng, 4, V4_LENGTHS[1:], 200),
            6: random_table(rng, 6, V6_LENGTHS[1:], 200)}
    routes = [(v, net, plen, asn, None) for v, table in rows.items() for net, plen, asn in table]
    built = {"networks": 0, "pairs": 0}

    def counting(fn, key):
        def make(*args, **kwargs):
            built[key] += 1
            return fn(*args, **kwargs)
        return make

    monkeypatch.setattr(ipaddress, "IPv4Network", counting(ipaddress.IPv4Network, "networks"))
    monkeypatch.setattr(ipaddress, "IPv6Network", counting(ipaddress.IPv6Network, "networks"))
    monkeypatch.setattr(PrefixOriginPair, "_keyed", counting(PrefixOriginPair._keyed, "pairs"))
    trie = PrefixTrie()
    trie.add_routes(iter(routes))
    assert len(trie) == len({(v, n, p, a) for v, n, p, a, _ in routes})
    assert built == {"networks": 0, "pairs": 0}
    for version, width in ((4, 32), (6, 128)):  # map's lookup builds and keeps nothing
        for net, plen, _ in rows[version]:
            assert trie.origin_keys(version, net | rng.getrandbits(width - plen))
    assert built == {"networks": 0, "pairs": 0}
    assert trie._memos == {4: {}, 6: {}}  # not even an empty table

    for version, width in ((4, 32), (6, 128)):
        net, plen, _ = rows[version][-1]
        addr = net | rng.getrandbits(width - plen)
        chain = scan(rows[version], version, addr, width)
        before = dict(built)
        found = trie.covering(version, addr)
        assert built["networks"] == before["networks"]
        assert 0 < built["pairs"] - before["pairs"] <= sum(map(len, chain.values()))
        assert {(p.net, p.plen, p.origin_asn) for p in found} == {
            (n, p, a) for (n, p), asns in chain.items() for a in asns
        }
        again = dict(built)
        assert trie.covering(version, addr) is found
        assert built == again
