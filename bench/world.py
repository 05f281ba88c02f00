"""Seeded synthetic audit worlds: inputs for rpkiaudit plus their ground truth.

A world is a routing table, a VRP set, a ranked domain list and recorded DNS
answers, grown from one seed so that the same seed always gives the same
bytes.  The shapes follow real data rather than uniform draws:

- v4 is mostly /24, nested under /16-/20 aggregates, so an address has
  about 1.3-2.5 covering pairs (a uniform /8-/24 mix gives about 25);
- v6 is mostly /32-/48, nested under /28-/32 allocations;
- about 45% of pairs meet a ROA, through exact ROAs, maxLength spans,
  wrong-origin ROAs, maxLength-too-short aggregates and AS0 ROAs;
- about 25% of names sit behind a CDN chain of two or more CNAMEs and share
  a small pool of CDN prefixes; some base names are NXDOMAIN;
- about 1% of answers are special-purpose and about 1% are unreachable.

``build`` writes the input files and returns the reference inputs, which
``reference.expected_artifacts`` turns into the expected artifacts.
"""

from __future__ import annotations

import gzip
import ipaddress
import json
import random
import struct
from dataclasses import dataclass
from pathlib import Path

from reference import WIDTH, AuditInputs, Prefix

TS = 1420070400
TRUST_ANCHORS = ("afrinic", "apnic", "arin", "lacnic", "ripe")
PEER_ASNS = (3356, 174, 6939, 1299, 2914)
TRANSIT_ASNS = (3257, 6453, 6762, 7018, 1273, 5511, 6830, 9002)
CDN_OPERATORS = (
    ("AKAMAI-AS", "Akamai Technologies, Inc."),
    ("CLOUDFLARENET", "Cloudflare, Inc."),
    ("AMAZON-02", "Amazon.com, Inc."),
    ("EDGECAST", "Edgecast Inc."),
    ("LLNW", "Limelight Networks"),
)
TLDS = ("com", "net", "org", "de", "io", "co", "info", "ru", "jp", "br")
SYLLABLES = ("ka", "lo", "mi", "net", "web", "shop", "zu", "ra", "on", "tek", "via", "bit")

# v4 aggregates live in /16 blocks, v6 allocations in /28 blocks, drawn from
# public space that no special-purpose block touches.
V4_FIRST_OCTETS = tuple(range(11, 100)) + tuple(range(128, 169)) + tuple(range(173, 192))
V6_FIRST_HEXTETS = (0x2400, 0x2a10)
BLOCK_LEN = {4: 16, 6: 28}


@dataclass(frozen=True)
class Shape:
    """Sizes and mixes of one workload's world."""

    domains: int
    v4_prefixes: int
    v6_prefixes: int
    v6_lengths: dict[int, float]  # weights of nested v6 lengths
    v6_answer_share: float  # probability that a name's answers are mostly AAAA
    peers: int
    resolvers: tuple[str, ...]
    rib_format: str  # "mrt" (gzip TABLE_DUMP_V2) or "text"
    roa_format: str  # "csv" or "json"
    bin_count: int = 20
    top_n: int = 50


V4_AGGREGATE_LENGTHS = {16: 3, 17: 1, 18: 2, 19: 2, 20: 3}
V4_NESTED_LENGTHS = {21: 1, 22: 3, 23: 3, 24: 20}
V6_AGGREGATE_LENGTHS = {28: 1, 29: 2, 30: 1, 31: 1, 32: 10}
COLLECTOR_V6_LENGTHS = {33: 0.5, 36: 1, 40: 2, 44: 2, 48: 8}
# every length from /28 to /48 appears, /32 and /48 dominate, plus /64
ALL_V6_LENGTHS = {n: 1.0 for n in range(33, 48)} | {36: 2, 40: 2, 44: 2, 48: 10, 64: 1}
# a name's answer count is drawn from these
ANSWER_COUNTS = (1, 1, 1, 2, 2, 3, 4)

# Two workloads, one per kind of work: table and VRP ingest, and per-row
# work.  long-list's v6 table has every length from /28 to /48 plus /64, so
# its per-call v6 lookup figures judge an index on many 128-bit lengths.
WORKLOADS = {
    "full-table": Shape(
        domains=2_000, v4_prefixes=40_000, v6_prefixes=7_000, v6_lengths=COLLECTOR_V6_LENGTHS,
        v6_answer_share=0.15, peers=3, resolvers=("primary",), rib_format="mrt", roa_format="csv",
    ),
    "long-list": Shape(
        domains=3_000, v4_prefixes=6_000, v6_prefixes=1_500, v6_lengths=ALL_V6_LENGTHS,
        v6_answer_share=0.2, peers=1, resolvers=("primary", "verifier"), rib_format="text",
        roa_format="json",
    ),
}


@dataclass
class World:
    inputs: AuditInputs
    config: Path
    shape: dict  # stated input size, printed once per run


def _weighted(rng: random.Random, weights: dict[int, float]) -> int:
    keys = list(weights)
    return rng.choices(keys, [weights[k] for k in keys])[0]


class _Table:
    """Announced prefixes of one family, nested the way real tables are."""

    def __init__(self, rng: random.Random, ver: int, used_blocks: set[tuple[int, int]]):
        self.rng, self.ver, self.width = rng, ver, WIDTH[ver]
        self.used_blocks = used_blocks
        self.prefixes: list[Prefix] = []
        self.seen: set[Prefix] = set()
        self.origin: dict[Prefix, int] = {}

    def fresh_block(self) -> int:
        """Network integer of an unused /16 (v4) or /28 (v6) block."""
        while True:
            if self.ver == 4:
                block = (self.rng.choice(V4_FIRST_OCTETS) << 8) | self.rng.randrange(256)
            else:
                block = self.rng.randrange(V6_FIRST_HEXTETS[0] << 12, V6_FIRST_HEXTETS[1] << 12)
            if (self.ver, block) not in self.used_blocks:
                self.used_blocks.add((self.ver, block))
                return block << (self.width - BLOCK_LEN[self.ver])

    def add(self, net: int, plen: int, origin: int) -> Prefix | None:
        prefix = (self.ver, net, plen)
        if prefix in self.seen:
            return None
        self.seen.add(prefix)
        self.prefixes.append(prefix)
        self.origin[prefix] = origin
        return prefix

    def grow(self, count: int, aggregate_lengths, nested_lengths, asn) -> None:
        rng, width = self.rng, self.width
        aggregates = []
        for _ in range(max(1, count * 15 // 100) if self.ver == 4 else max(1, count * 3 // 10)):
            plen = _weighted(rng, aggregate_lengths)
            span = plen - BLOCK_LEN[self.ver]
            net = self.fresh_block() | (rng.randrange(1 << span) << (width - plen) if span else 0)
            prefix = self.add(net, plen, asn())
            if prefix:
                aggregates.append(prefix)
        standalone = [self.fresh_block() for _ in range(max(1, count // 40))]
        while len(self.prefixes) < count:
            plen = _weighted(rng, nested_lengths)
            if rng.random() < 0.75:
                _, parent, parent_len = rng.choice(aggregates)
                if parent_len >= plen:
                    continue
                origin = self.origin[(self.ver, parent, parent_len)]
                if rng.random() < 0.25:
                    origin = asn()  # a customer announcing from its provider's block
            else:
                parent, parent_len, origin = rng.choice(standalone), BLOCK_LEN[self.ver], asn()
            net = parent | (rng.randrange(1 << (plen - parent_len)) << (width - plen))
            self.add(net, plen, origin)

    def host(self, prefix: Prefix) -> int:
        _, net, plen = prefix
        host_bits = self.width - plen
        return net | (self.rng.randrange(1, 1 << host_bits) if host_bits else 0)


def _fmt_prefix(prefix: Prefix) -> str:
    ver, net, plen = prefix
    return f"{_fmt_addr(ver, net)}/{plen}"


def _fmt_addr(ver: int, value: int) -> str:
    return str(ipaddress.IPv6Address(value) if ver == 6 else ipaddress.IPv4Address(value))


# ---------------------------------------------------------------------------
# RIB encodings


def _path_bytes(path: tuple) -> bytes:
    """AS_PATH attribute, 4-byte ASNs; a trailing tuple element is an AS_SET."""
    seq = [a for a in path if isinstance(a, int)]
    data = struct.pack(">BB", 2, len(seq)) + struct.pack(f">{len(seq)}I", *seq)
    if isinstance(path[-1], tuple):
        data += struct.pack(">BB", 1, len(path[-1])) + struct.pack(f">{len(path[-1])}I", *path[-1])
    origin_attr = b"\x40\x01\x01\x00"
    return origin_attr + struct.pack(">BBB", 0x40, 2, len(data)) + data


def _mrt(routes: list[tuple[Prefix, list[tuple]]]) -> bytes:
    """TABLE_DUMP_V2 dump (RFC 6396): a peer index, then one record per prefix."""
    peers = b"".join(
        struct.pack(">BI4sI", 0x02, 0x0B000000 + i, bytes([192, 0, 2, i + 1]), asn)
        for i, asn in enumerate(PEER_ASNS)
    )
    body = struct.pack(">IHH", 0x0A0A0A0A, 0, len(PEER_ASNS)) + peers
    out = [struct.pack(">IHHI", TS, 13, 1, len(body)), body]
    for seq, ((ver, net, plen), paths) in enumerate(routes):
        octets = (plen + 7) // 8
        packed = net.to_bytes(WIDTH[ver] // 8, "big")[:octets]
        entries = []
        for peer, path in enumerate(paths):
            attrs = _path_bytes(path)
            entries.append(struct.pack(">HIH", peer, TS, len(attrs)) + attrs)
        rec = struct.pack(">IB", seq, plen) + packed + struct.pack(">H", len(entries))
        rec += b"".join(entries)
        out.append(struct.pack(">IHHI", TS, 13, 4 if ver == 6 else 2, len(rec)))
        out.append(rec)
    return gzip.compress(b"".join(out), compresslevel=6, mtime=0)


def _text_rib(routes: list[tuple[Prefix, list[tuple]]]) -> bytes:
    lines = ["# synthetic collector RIB: prefix|as_path"]
    for prefix, paths in routes:
        text = _fmt_prefix(prefix)
        for path in paths:
            tokens = [str(a) for a in path if isinstance(a, int)]
            if isinstance(path[-1], tuple):
                tokens.append("{" + ",".join(map(str, path[-1])) + "}")
            lines.append(f"{text}|{' '.join(tokens)}")
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# the world


def build(workload: str, seed: int, directory: Path) -> World:
    shape = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    next_asn = iter(rng.sample(range(1000, 400_000), 150_000))
    asn = next_asn.__next__

    used_blocks: set[tuple[int, int]] = set()
    tables = {4: _Table(rng, 4, used_blocks), 6: _Table(rng, 6, used_blocks)}
    tables[4].grow(shape.v4_prefixes, V4_AGGREGATE_LENGTHS, V4_NESTED_LENGTHS, asn)
    tables[6].grow(shape.v6_prefixes, V6_AGGREGATE_LENGTHS, shape.v6_lengths, asn)

    # CDN operators share a small pool of /24 and /48 prefixes.
    cdn_asns = [asn() for _ in CDN_OPERATORS]
    cdn_prefixes = []
    for ver, plen, count in ((4, 24, 60), (6, 48, 30)):
        table = tables[ver]
        blocks = [table.fresh_block() for _ in range(6)]
        while sum(1 for p in cdn_prefixes if p[0] == ver) < count:
            block = rng.choice(blocks)
            net = block | (rng.randrange(1 << (plen - BLOCK_LEN[ver])) << (WIDTH[ver] - plen))
            prefix = table.add(net, plen, rng.choice(cdn_asns))
            if prefix:
                cdn_prefixes.append(prefix)
    # space that is routed nowhere, for unreachable answers
    dark = {ver: [tables[ver].fresh_block() for _ in range(8)] for ver in (4, 6)}

    # Routes as collectors see them: peers, transits, MOAS and AS_SETs.
    routes = []
    rib: list[tuple[Prefix, int | None]] = []
    for ver in (4, 6):
        table = tables[ver]
        for prefix in sorted(table.prefixes):
            origin = table.origin[prefix]
            paths = []
            as_set = rng.random() < 0.001
            origins = [origin] * shape.peers
            if not as_set and rng.random() < 0.015:
                origins.append(asn())  # MOAS: one more peer sees a second origin
            for peer, last in enumerate(origins):
                transit = tuple(rng.sample(TRANSIT_ASNS, rng.randrange(3)))
                path = (PEER_ASNS[peer],) + transit + (last,) * rng.choice((1, 1, 1, 2))
                if as_set:
                    path = path[:-1] + ((origin, asn()),)
                paths.append(path)
                rib.append((prefix, None if as_set else last))
            routes.append((prefix, paths))
    rib_name = "rib.mrt.gz" if shape.rib_format == "mrt" else "rib.txt"
    encode = _mrt if shape.rib_format == "mrt" else _text_rib
    (directory / rib_name).write_bytes(encode(routes))

    roas = _roas(rng, tables, cdn_asns, asn)
    _write_roas(directory, shape.roa_format, roas)

    domains, dns = _dns(rng, shape, tables, cdn_prefixes, dark)
    (directory / "domains.csv").write_text("".join(f"{r},{n}\n" for r, n in domains))
    lines = []
    for (name, resolver), (status, chain, addrs) in dns.items():
        lines.append(
            json.dumps(
                {
                    "domain": name, "resolver": resolver, "cnames": list(chain), "status": status,
                    "a": [_fmt_addr(4, v) for ver, v in addrs if ver == 4],
                    "aaaa": [_fmt_addr(6, v) for ver, v in addrs if ver == 6], "ts": TS,
                },
                sort_keys=True,
            )
        )
    (directory / "dns.jsonl").write_text("\n".join(lines) + "\n")

    origins = {o for table in tables.values() for o in table.origin.values()}
    origins = sorted(origins - set(cdn_asns))
    registry = [f"AS{a}  ORG-{a} Example Networks {a % 97}" for a in origins]
    registry += [f"AS{a}  {h} {d}" for a, (h, d) in zip(cdn_asns, CDN_OPERATORS)]
    (directory / "as_registry.txt").write_text("\n".join(sorted(registry)) + "\n")
    labels = []
    for _, name in domains[::3]:
        chain = dns[(name, shape.resolvers[0])][1]
        labels.append(f"{name},{int((len(chain) >= 2) != (rng.random() < 0.1))}")
    (directory / "external_labels.csv").write_text("\n".join(labels) + "\n")

    bin_size = max(1, shape.domains // shape.bin_count)
    config = {
        "domain_list": str(directory / "domains.csv"),
        "dns_fixture": str(directory / "dns.jsonl"),
        "primary_resolver": shape.resolvers[0],
        "ribs": [str(directory / rib_name)],
        "roas": str(directory / f"roas.{shape.roa_format}"),
        "as_registry": str(directory / "as_registry.txt"),
        "external_labels": str(directory / "external_labels.csv"),
        "bin_size": bin_size,
        "top_n": shape.top_n,
        "output_dir": str(directory.parent / "out"),
    }
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    inputs = AuditInputs(
        domains, dns, shape.resolvers[0], rib,
        [(prefix, max_len, a) for prefix, max_len, a, _ in roas], bin_size, shape.top_n,
    )
    facts = {"rib_entries": len(rib), "vrps": len(roas)}
    for ver, table in tables.items():
        facts[f"v{ver}_prefixes"] = len(table.prefixes)
        facts[f"v{ver}_lengths"] = len({plen for _, _, plen in table.prefixes})
    return World(inputs, config_path, facts)


def _roas(rng, tables, cdn_asns, asn) -> list[tuple[Prefix, int, int, str]]:
    """VRPs for about 45% of the table, with the usual faults mixed in."""
    roas = []
    signed_cdn = set(cdn_asns[1::2])
    for ver, table in tables.items():
        width = table.width
        for prefix in table.prefixes:
            _, net, plen = prefix
            origin = table.origin[prefix]
            r = rng.random()
            if origin in cdn_asns:
                r = 0.0 if origin in signed_cdn else 1.0
            if r < 0.30:  # exact ROA; aggregates mostly span their more-specifics
                if plen <= BLOCK_LEN[ver] + 4 and rng.random() < 0.8:
                    max_len = 24 if ver == 4 else 48
                elif rng.random() < 0.1:
                    max_len = min(width, plen + rng.choice((1, 2, 4)))
                else:
                    max_len = plen
                roas.append((prefix, max_len, origin))
            elif r < 0.34:  # ROA naming another origin
                roas.append((prefix, plen, asn()))
            elif r < 0.35:  # AS0: the holder disavows every route here
                roas.append((prefix, plen, 0))
            elif r < 0.37 and plen < width:  # ROA more specific than the route
                sub = plen + 1
                roas.append(((ver, net | (rng.randrange(2) << (width - sub)), sub), sub, origin))
        for _ in range(len(table.prefixes) // 20):  # signed but unannounced space
            block = table.fresh_block()
            roas.append(((ver, block, BLOCK_LEN[ver] + 4), BLOCK_LEN[ver] + 4, asn()))
    return [(p, m, a, rng.choice(TRUST_ANCHORS)) for p, m, a in roas]


def _write_roas(directory: Path, fmt: str, roas) -> None:
    if fmt == "csv":
        lines = ["ASN,IP Prefix,Max Length,Trust Anchor"]
        lines += [f"AS{a},{_fmt_prefix(p)},{m},{ta}" for p, m, a, ta in roas]
        (directory / "roas.csv").write_text("\n".join(lines) + "\n")
    else:
        doc = [
            {"asn": f"AS{a}", "prefix": _fmt_prefix(p), "maxLength": m, "ta": ta}
            for p, m, a, ta in roas
        ]
        (directory / "roas.json").write_text(json.dumps(doc, indent=1) + "\n")


_SPECIAL_V4 = (0x7F000001, 0x0A000000, 0xC0A80000, 0xAC100000)  # 127/8, 10/8, 192.168/16, 172.16/12
_SPECIAL_V6 = (0xFE80 << 112, 0xFC00 << 112, 0x20010DB8 << 96)  # fe80::/10, fc00::/7, 2001:db8::/32


def _dns(rng, shape: Shape, tables, cdn_prefixes, dark):
    """Domain list and recorded answers; the first resolver is primary."""
    cdn_set = set(cdn_prefixes)
    routable = {ver: [p for p in t.prefixes if p not in cdn_set] for ver, t in tables.items()}
    cdn_pool = [(p[0], tables[p[0]].host(p)) for p in cdn_prefixes for _ in range(3)]

    def address(ver: int) -> tuple[int, int]:
        r = rng.random()
        if r < 0.01:
            base = rng.choice(_SPECIAL_V4 if ver == 4 else _SPECIAL_V6)
            return ver, base | rng.randrange(1, 255)
        if r < 0.02:
            return ver, rng.choice(dark[ver]) | rng.randrange(1, 1 << 12)
        return ver, tables[ver].host(rng.choice(routable[ver]))

    def answer(qname: str, kind: str) -> tuple[str, tuple[str, ...], tuple]:
        if kind == "cdn":
            op = rng.randrange(len(CDN_OPERATORS))
            chain = (f"{qname}.edge{op}.cdn.net", f"e{rng.randrange(10**6)}.a{op}.cdn.net")
            chain += (f"pop{rng.randrange(99)}.cdn{op}.net",) if rng.random() < 0.3 else ()
            return "ok", chain, tuple(rng.sample(cdn_pool, rng.choice((1, 2, 2, 4))))
        chain = (f"alias.{qname}",) if kind == "alias" else ()
        v6_first = rng.random() < shape.v6_answer_share
        count = rng.choice(ANSWER_COUNTS)
        addrs = [address(6 if v6_first else 4) for _ in range(count)]
        if rng.random() < 0.3:  # dual-stack: one answer of the other family
            addrs.append(address(4 if v6_first else 6))
        return "ok", chain, tuple(addrs)

    domains = []
    dns = {}
    for rank in range(1, shape.domains + 1):
        name = f"{''.join(rng.sample(SYLLABLES, 2))}{rank}.{rng.choice(TLDS)}"
        domains.append((rank, name))
        r = rng.random()
        kind = "cdn" if r < 0.25 else "alias" if r < 0.33 else "plain"
        base = answer(name, kind)
        if rng.random() < 0.03:
            base = ("nxdomain", (), ())
        elif rng.random() < 0.005:
            base = ("ok", (), ())  # recorded with no answers: status empty
        www_name = "www." + name
        www = answer(www_name, kind)
        if kind != "cdn" and base[0] == "ok" and base[2] and rng.random() < 0.7:
            www = ("ok", base[1], base[2])  # same hosting as the base name
        for qname, ans in ((name, base), (www_name, www)):
            for i, resolver in enumerate(shape.resolvers):
                if i and ans[2] and rng.random() < 0.05:  # a resolver that disagrees
                    ans = (ans[0], ans[1], ans[2][1:] + (address(ans[2][0][0]),))
                dns[(qname, resolver)] = ans
    return domains, dns
