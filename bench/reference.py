"""Independent reference for the analysis artifacts of an audit run.

Given the inputs of a run (domain list, recorded DNS answers, RIB entries
and validated ROA payloads, all as plain integers and strings), this module
computes the bytes that rpkiaudit must write to ``bins_{base,www}.csv``,
``cdn_bins_{base,www}.csv``, ``overlap.csv``, ``summary.json`` and
``report.csv``.  It never imports rpkiaudit: covering prefixes and ROAs are
found with a dict per present prefix length, validation follows RFC 6811
directly, and every mean is an exact ``Fraction``, in the way
``tests/gen_e2e_fixture.py`` computes the committed expectation.

``self_check`` feeds the committed 100-domain fixture through the same code.
It compares the five files of ``tests/fixtures/e2e/expected/`` byte for byte,
and checks ``report.csv`` and ``summary.json`` against what
``tests/test_cli.py`` asserts for the fixture, so a wrong reference cannot
pass a wrong program.
"""

from __future__ import annotations

import ipaddress
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WIDTH = {4: 32, 6: 128}

# RFC 6890 special-purpose blocks plus multicast, kept apart from the
# program's packaged table on purpose.
SPECIAL_PURPOSE = tuple(
    ipaddress.ip_network(block)
    for block in (
        "0.0.0.0/8", "10.0.0.0/8", "100.64.0.0/10", "127.0.0.0/8", "169.254.0.0/16",
        "172.16.0.0/12", "192.0.0.0/24", "192.0.2.0/24", "192.88.99.0/24",
        "192.168.0.0/16", "198.18.0.0/15", "198.51.100.0/24", "203.0.113.0/24",
        "224.0.0.0/4", "240.0.0.0/4", "255.255.255.255/32",
        "::/128", "::1/128", "::ffff:0:0/96", "64:ff9b::/96", "100::/64", "2001::/23",
        "2001:db8::/32", "2002::/16", "fc00::/7", "fe80::/10", "ff00::/8",
    )
)
_SPECIAL = [
    (net.version, int(net.network_address), net.prefixlen) for net in SPECIAL_PURPOSE
]

Address = tuple[int, int]  # (version, integer)
Prefix = tuple[int, int, int]  # (version, network integer, length)


def is_special(addr: Address) -> bool:
    ver, value = addr
    width = WIDTH[ver]
    return any(
        v == ver and value >> (width - plen) == net >> (width - plen)
        for v, net, plen in _SPECIAL
    )


class LengthIndex:
    """Stored prefixes of one kind, one dict per (family, prefix length)."""

    def __init__(self) -> None:
        self.tables: dict[int, dict[int, dict[int, list]]] = {4: {}, 6: {}}

    def add(self, prefix: Prefix, item) -> None:
        ver, net, plen = prefix
        table = self.tables[ver].setdefault(plen, {})
        table.setdefault(net >> (WIDTH[ver] - plen), []).append(item)

    def covering(self, ver: int, value: int, max_len: int) -> list:
        """Items of every stored prefix of length <= max_len containing value."""
        width = WIDTH[ver]
        out: list = []
        for plen, table in self.tables[ver].items():
            if plen <= max_len:
                hit = table.get(value >> (width - plen))
                if hit:
                    out.extend(hit)
        return out


@dataclass
class AuditInputs:
    """What a run feeds the program, reduced to what the artifacts depend on."""

    domains: list[tuple[int, str]]  # (rank, base name), clean and unique
    # (name, resolver) -> (status, cname chain, answer addresses)
    dns: dict[tuple[str, str], tuple[str, tuple[str, ...], tuple[Address, ...]]]
    primary: str
    rib: list[tuple[Prefix, int | None]]  # origin None: AS_SET-terminated path
    roas: list[tuple[Prefix, int, int]]  # (prefix, max length, asn)
    bin_size: int
    top_n: int


@dataclass
class Row:
    rank: int
    variant: str
    name: str
    ok: bool  # resolution status "ok" (chain label exists)
    chain: int
    prefixes: frozenset = frozenset()
    valid: int = 0
    invalid: int = 0
    notfound: int = 0

    @property
    def pairs(self) -> int:
        return self.valid + self.invalid + self.notfound

    @property
    def covered(self) -> int:
        return self.valid + self.invalid

    def coverage_class(self) -> str:
        if not self.pairs:
            return "nodata"
        if self.covered == self.pairs:
            return "full"
        return "none" if self.covered == 0 else "partial"


@dataclass
class Expected:
    artifacts: dict[str, bytes]
    rows: list[Row]
    stats: Counter


def _variants(name: str) -> list[tuple[str, str]]:
    www = "www." + name
    if name.split(".", 1)[0] == "www" or len(www) > 253:
        return [("base", name)]
    return [("base", name), ("www", www)]


def audit_rows(inputs: AuditInputs, stats: Counter) -> list[Row]:
    """One row per primary-resolver answer: covering pairs and their states.

    ``stats`` receives the input shape seen on the way: addresses per
    family, special-purpose and unreachable ones, covering pairs.
    """
    routes = LengthIndex()
    for prefix, origin in set(inputs.rib):
        if origin is not None:
            routes.add(prefix, (prefix, origin))
    vrps = LengthIndex()
    for prefix, max_len, asn in inputs.roas:
        vrps.add(prefix, (max_len, asn))

    rows = []
    for rank, name in inputs.domains:
        for variant, qname in _variants(name):
            answer = inputs.dns.get((qname, inputs.primary))
            if answer is None:
                continue
            status, chain, addresses = answer
            ok = status == "ok" and bool(addresses)
            row = Row(rank, variant, qname, ok, len(chain))
            pairs = set()
            for addr in set(addresses) if ok else ():
                stats[f"v{addr[0]}_addresses"] += 1
                if is_special(addr):
                    stats["special_purpose"] += 1
                    continue
                covering = routes.covering(addr[0], addr[1], WIDTH[addr[0]])
                stats["covering_pairs"] += len(covering)
                stats["unreachable"] += not covering
                pairs.update(covering)
            for (ver, net, plen), origin in pairs:
                state = _rov(vrps.covering(ver, net, plen), plen, origin)
                setattr(row, state, getattr(row, state) + 1)
                stats[state] += 1
            row.prefixes = frozenset(prefix for prefix, _ in pairs)
            rows.append(row)
    return rows


def _rov(covering: list[tuple[int, int]], plen: int, origin: int) -> str:
    """RFC 6811 route origin validation; AS0 payloads never authorize."""
    if not covering:
        return "notfound"
    if any(asn == origin and asn != 0 and plen <= max_len for max_len, asn in covering):
        return "valid"
    return "invalid"


def _fmt(value: Fraction | None) -> str:
    return "" if value is None else f"{float(value):.6f}"


def _float(value: Fraction | None) -> float | None:
    return None if value is None else round(float(value), 6)


def _mean(values: list[Fraction]) -> Fraction | None:
    return sum(values, Fraction(0)) / len(values) if values else None


def _bin_csv(rows: list[Row], max_rank: int, bin_size: int) -> bytes:
    lines = ["bin_lo,bin_hi,n,mean_covered,mean_valid,mean_invalid,mean_notfound,cdn_fraction"]
    members: dict[int, list[Row]] = {}
    for row in rows:
        members.setdefault((row.rank - 1) // bin_size, []).append(row)
    for index, lo in enumerate(range(1, max_rank + 1, bin_size)):
        hi = min(lo + bin_size - 1, max_rank)
        in_bin = members.get(index, [])
        data = [r for r in in_bin if r.pairs]
        means = [
            _mean([Fraction(part(r), r.pairs) for r in data])
            for part in (
                lambda r: r.covered, lambda r: r.valid, lambda r: r.invalid, lambda r: r.notfound
            )
        ]
        cdn = sum(1 for r in in_bin if r.ok and r.chain >= 2)
        cdn_fraction = Fraction(cdn, len(in_bin)) if in_bin else None
        lines.append(
            ",".join(
                [str(lo), str(hi), str(len(in_bin))] + [_fmt(m) for m in means + [cdn_fraction]]
            )
        )
    return ("\n".join(lines) + "\n").encode()


def _rates(rows: list[Row]) -> dict:
    data = [r for r in rows if r.pairs]
    total = sum(r.pairs for r in data)
    covered = sum(r.covered for r in data)
    return {
        "domains": len(rows),
        "domains_with_data": len(data),
        "total_pairs": total,
        "covered_pairs": covered,
        "domain_weighted_covered": _float(_mean([Fraction(r.covered, r.pairs) for r in data])),
        "pair_weighted_covered": _float(Fraction(covered, total) if total else None),
    }


def _report_cells(row: Row | None) -> list[str]:
    if row is None or not row.pairs:
        return ["n/a", "", ""]
    return [row.coverage_class(), str(row.covered), str(row.pairs)]


def expected_artifacts(inputs: AuditInputs) -> Expected:
    stats: Counter = Counter()
    rows = audit_rows(inputs, stats)
    if not rows:
        raise ValueError("reference: the inputs give zero resolution rows")
    max_rank = max(r.rank for r in rows)
    by_variant = {v: [r for r in rows if r.variant == v] for v in ("base", "www")}
    # Chain labels are keyed by name, as the program's label join is.
    cdn_names = {r.name for r in rows if r.ok and r.chain >= 2}
    out: dict[str, bytes] = {}
    summary: dict = {}
    for variant, series in by_variant.items():
        out[f"bins_{variant}.csv"] = _bin_csv(series, max_rank, inputs.bin_size)
        cdn_series = [r for r in series if r.name in cdn_names]
        out[f"cdn_bins_{variant}.csv"] = _bin_csv(cdn_series, max_rank, inputs.bin_size)
        summary[variant] = _rates(series)

    per_rank: dict[int, dict[str, Row]] = {}
    for row in rows:
        per_rank.setdefault(row.rank, {})[row.variant] = row
    overlap_lines = ["rank,domain,overlap"]
    overlaps = []
    for rank in sorted(per_rank):
        variants = per_rank[rank]
        if "base" not in variants:
            continue
        www = variants["www"].prefixes if "www" in variants else frozenset()
        base = variants["base"].prefixes
        union = www | base
        value = Fraction(len(www & base), len(union)) if union else None
        if value is not None:
            overlaps.append(value)
        overlap_lines.append(f"{rank},{variants['base'].name},{_fmt(value)}")
    out["overlap.csv"] = ("\n".join(overlap_lines) + "\n").encode()
    summary["overlap_mean"] = _float(_mean(overlaps))
    out["summary.json"] = (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode()

    report = ["rank,domain,www_class,www_covered,www_total,base_class,base_covered,base_total"]
    for rank in sorted(per_rank):
        variants = per_rank[rank]
        www, base = variants.get("www"), variants.get("base")
        if all(r is None or r.coverage_class() not in ("partial", "full") for r in (www, base)):
            continue
        name = base.name if base is not None else www.name[4:]
        report.append(",".join([str(rank), name] + _report_cells(www) + _report_cells(base)))
        if len(report) > inputs.top_n:
            break
    out["report.csv"] = ("\n".join(report) + "\n").encode()
    return Expected(out, rows, stats)


# ---------------------------------------------------------------------------
# committed fixture


def _address(text: str) -> Address:
    addr = ipaddress.ip_address(text)
    return addr.version, int(addr)


def _prefix(text: str) -> Prefix:
    net = ipaddress.ip_network(text)
    return net.version, int(net.network_address), net.prefixlen


def parse_text_rib(text: str) -> list[tuple[Prefix, int | None]]:
    """``prefix|as_path`` lines; a trailing ``{a,b}`` AS_SET has no origin."""
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.count("|") != 1:
            continue
        prefix_text, path = line.split("|")
        last = path.split()[-1]
        entries.append((_prefix(prefix_text.strip()), None if last.startswith("{") else int(last)))
    return entries


def load_fixture(e2e_dir: Path) -> AuditInputs:
    config = json.loads((e2e_dir / "config.json").read_text())
    domains = []
    for line in (e2e_dir / config["domain_list"]).read_text().splitlines():
        rank, name = line.split(",")
        domains.append((int(rank), name.strip().lower()))
    dns = {}
    for line in (e2e_dir / config["dns_fixture"]).read_text().splitlines():
        obj = json.loads(line)
        addresses = tuple(_address(a) for a in obj["a"] + obj["aaaa"])
        dns[(obj["domain"], obj["resolver"])] = (obj["status"], tuple(obj["cnames"]), addresses)
    rib = []
    for name in config["ribs"]:
        rib.extend(parse_text_rib((e2e_dir / name).read_text()))
    roas = []
    for line in (e2e_dir / config["roas"]).read_text().splitlines()[1:]:
        asn, prefix_text, max_len = line.split(",")[:3]
        roas.append((_prefix(prefix_text), int(max_len), int(asn.upper().removeprefix("AS"))))
    return AuditInputs(
        domains, dns, config["primary_resolver"], rib, roas, config["bin_size"], config["top_n"]
    )


# What tests/test_cli.py asserts about the fixture's report.csv and
# summary.json, which have no committed expectation.
FIXTURE_REPORT_RANKS = [1, 2, 3, 4, 5, 6, 7, 11, 12, 13]
FIXTURE_DOMAINS = 100


def self_check(e2e_dir: Path) -> list[str]:
    """Names of fixture artifacts the reference gets wrong.

    The five committed expected files must match byte for byte; report.csv
    and summary.json must show what the program's own end-to-end tests assert.
    """
    expected = expected_artifacts(load_fixture(e2e_dir)).artifacts
    committed = sorted((e2e_dir / "expected").iterdir())
    if not committed:
        return ["<no committed expectation>"]
    failed = [p.name for p in committed if expected.get(p.name) != p.read_bytes()]
    report = expected["report.csv"].decode().strip().split("\n")
    if (
        not report[0].startswith("rank,domain,")
        or [int(line.split(",")[0]) for line in report[1:]] != FIXTURE_REPORT_RANKS
        or report[4].split(",")[5:8] != ["n/a", "", ""]  # base variant never resolved
    ):
        failed.append("report.csv")
    summary = json.loads(expected["summary.json"])
    shares = [
        summary[variant][key] or 0
        for variant in ("base", "www")
        for key in ("domain_weighted_covered", "pair_weighted_covered")
    ]
    if summary["www"]["domains"] != FIXTURE_DOMAINS or not all(0 < s < 1 for s in shares):
        failed.append("summary.json")
    return failed
