import ipaddress
import json
import random
import socket
import struct
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dns_fake import reference_fixture_result, whole_file_answers
from rpkiaudit import _dnswire
from rpkiaudit.diagnostics import Diagnostics
from rpkiaudit.cli import PipelineConfig, run_stage
from rpkiaudit.dns_resolution import (
    FixtureOrderError,
    LiveResolver,
    ResolutionResult,
    ResolutionStatus,
    SpecialPurposeTable,
    apply_filter,
    check_chain,
    cross_check,
    fixture_result,
    parse_endpoint,
    replay_in_turn,
    resolve_records,
)
from rpkiaudit.errors import ChainLoopError, InsufficientResolversError


def fixture_line(domain, cnames=(), a=(), aaaa=(), status="ok", resolver="fixture", ts=0):
    return json.dumps(
        {
            "domain": domain,
            "resolver": resolver,
            "cnames": list(cnames),
            "a": list(a),
            "aaaa": list(aaaa),
            "status": status,
            "ts": ts,
        }
    )


def recorded(*lines):
    """The answer each line records, as resolve replays the lines, its names in line order."""
    names = []
    for line in lines:
        result = fixture_result(line, Diagnostics())
        if result is not None and result.domain not in names:
            names.append(result.domain)
    groups, _, _ = replay(lines, names)
    return [answer for group in groups for answer in group.values()]


class TestFixtureReplay:
    def test_akamai_style_chain_recorded(self):
        (result,) = recorded(
            fixture_line(
                "www.huffingtonpost.com",
                cnames=["www.huffingtonpost.com.edgesuite.net", "a495.g.akamai.net"],
                a=["212.201.100.136"],
            )
        )
        assert result.cname_chain == (
            "www.huffingtonpost.com.edgesuite.net",
            "a495.g.akamai.net",
        )
        assert result.addresses == addresses("212.201.100.136")
        assert result.status is ResolutionStatus.OK

    def test_plain_a_record_no_chain(self):
        (result,) = recorded(fixture_line("example.com", a=["93.184.216.34"]))
        assert result.cname_chain == ()
        assert result.status is ResolutionStatus.OK

    def test_nxdomain_has_no_addresses(self):
        (result,) = recorded(fixture_line("gone.example", status="nxdomain"))
        assert result.status is ResolutionStatus.NXDOMAIN
        assert result.addresses == frozenset()

    def test_status_conflict_drops_addresses(self):
        line = fixture_line("odd.example", a=["192.0.2.1"], status="servfail")
        [odd], _, diag = replay([line], ["odd.example"])
        assert odd["fixture"].addresses == frozenset()
        assert diag.get("fixture_status_conflicts") == 1

    def test_ok_without_addresses_becomes_empty(self):
        (result,) = recorded(fixture_line("noaddr.example", status="ok"))
        assert result.status is ResolutionStatus.EMPTY

    def test_unlisted_name_has_no_answers(self):
        groups, labels, _ = replay(
            [fixture_line("present.example", a=["192.0.2.1"])], ["absent.example"]
        )
        assert groups == [{}]
        assert labels == {"fixture"}

    def test_replay_determinism(self):
        lines = [
            fixture_line("a.example", a=["192.0.2.1", "192.0.2.2"], ts=1234),
            fixture_line("b.example", aaaa=["2001:db8::1"], resolver="google"),
        ]
        assert recorded(*lines) == recorded(*lines)

    def test_malformed_lines_counted(self):
        _, _, diag = replay(["{not json", fixture_line("ok.example", a=["192.0.2.9"])], [])
        assert diag.get("malformed_fixture_lines") == 1

    @pytest.mark.parametrize("ts", ["1_0", True, 1.9])
    def test_timestamp_must_be_a_json_integer(self, ts):
        lines = [
            fixture_line("bad.example", a=["192.0.2.9"], ts=ts),
            fixture_line("ok.example", a=["192.0.2.9"], ts=10),
        ]
        (bad, ok), labels, diag = replay(lines, ["bad.example", "ok.example"])
        assert diag.get("malformed_fixture_lines") == 1
        assert labels == {"fixture"}
        assert ok["fixture"].observed_at == 10
        assert bad == {}

    def test_resolver_ids_sorted(self, tmp_path):
        # resolve_meta.json lists the fixture's resolver labels sorted, not in line order
        (tmp_path / "domains.csv").write_text("1,x.example\n")
        lines = [fixture_line("x.example", resolver=label) for label in ("opendns", "google")]
        (tmp_path / "dns.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        cfg = PipelineConfig(domain_list=str(tmp_path / "domains.csv"),
                             dns_fixture=str(tmp_path / "dns.jsonl"), output_dir=str(out))
        assert run_stage("resolve", cfg) == 0
        meta = json.loads((out / "resolve_meta.json").read_text())
        assert meta["resolvers"] == ["google", "opendns"]


class TestFixtureFieldTypes:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("domain", 5),
            ("domain", None),
            ("domain", ["typed.example"]),
            ("resolver", None),
            ("resolver", 7),
            ("status", None),
            ("status", 1),
            ("cnames", [5]),
            ("cnames", [None]),
            ("cnames", "abc"),
            ("cnames", {"a.example": 1}),
            ("a", {"192.0.2.9": 1}),
            ("a", "192.0.2.9"),
            ("a", [1]),
            ("aaaa", [None]),
            ("aaaa", "2001:db8::1"),
        ],
    )
    def test_field_of_the_wrong_json_type_is_malformed(self, field, value):
        obj = json.loads(fixture_line("typed.example", a=["192.0.2.9"]))
        diag = Diagnostics()
        assert fixture_result(json.dumps(dict(obj, **{field: value})), diag) is None
        assert diag.as_dict() == {"malformed_fixture_lines": 1}

    def test_missing_domain_is_malformed(self):
        diag = Diagnostics()
        assert fixture_result('{"resolver": "fixture", "a": ["192.0.2.9"]}', diag) is None
        assert diag.get("malformed_fixture_lines") == 1

    @pytest.mark.parametrize("line", ["[1]", "5", '"typed.example"', "null", "{bad"])
    def test_line_that_is_not_an_object_is_malformed(self, line):
        diag = Diagnostics()
        assert fixture_result(line, diag) is None
        assert diag.get("malformed_fixture_lines") == 1

    @pytest.mark.parametrize("line", [
        "[" * 200_000 + "]" * 200_000,
        '{"domain": "typed.example", "a": ' + "[" * 200_000 + "]" * 200_000 + "}",
    ], ids=["array", "field"])
    def test_line_nested_too_deep_is_malformed(self, line):
        diag = Diagnostics()
        assert fixture_result(line, diag) is None
        assert diag.as_dict() == {"malformed_fixture_lines": 1}

    @pytest.mark.parametrize("line", ["", "   ", "\r\n", "\n"])
    def test_blank_line_is_skipped_uncounted(self, line):
        diag = Diagnostics()
        assert fixture_result(line, diag) is None
        assert diag.as_dict() == {}

    def test_well_typed_line_with_defaults(self):
        diag = Diagnostics()
        result = fixture_result('{"domain": "Typed.Example.", "a": ["192.0.2.9"]}\r\n', diag)
        assert result == ResolutionResult(
            "typed.example", "fixture", (), frozenset(addresses("192.0.2.9")),
            ResolutionStatus.OK, 0,
        )
        assert diag.as_dict() == {}

    def test_fixture_load_counts_each_mistyped_line(self):
        lines = [
            json.dumps({"domain": 5, "resolver": "fixture"}),
            json.dumps({"domain": "x.example", "resolver": None, "a": ["192.0.2.9"]}),
            json.dumps({"domain": "x.example", "cnames": "abc", "a": ["192.0.2.9"]}),
            fixture_line("x.example", a=["192.0.2.9"], resolver="google"),
        ]
        [answers], labels, diag = replay(lines, ["x.example"])
        assert diag.get("malformed_fixture_lines") == 3
        assert labels == {"google"} and list(answers) == ["google"]


E2E_FIXTURE = Path(__file__).parent / "fixtures" / "e2e" / "dns.jsonl"
FIELDS = ("domain", "resolver", "status", "cnames", "a", "aaaa", "ts")
SPLICES = ("1e999", '"\\ud800"', "true", "[[[[", '"fe80::1%eth0"')


def mutated(rng, line):
    """One seeded mutation of a fixture line: a cut, flipped characters, a spliced token
    in the text or in place of a field's value, text after or before the object, or the
    line's status or another one in another letter case."""
    kind = rng.randrange(7)
    if kind == 0:
        return line[: rng.randrange(len(line))]
    if kind == 1:
        chars = list(line)
        for _ in range(rng.randint(1, 3)):
            chars[rng.randrange(len(chars))] = rng.choice('{}[]",:.0aZ-_ \\\x00\u00e9\u212a')
        return "".join(chars)
    if kind == 2:
        at = rng.randrange(len(line))
        return line[:at] + rng.choice(SPLICES) + line[at + rng.randint(0, 8):]
    obj = json.loads(line)
    if kind == 3:
        field = rng.choice(FIELDS)
        if isinstance(obj.get(field), list) and rng.random() < 0.5:
            obj[field] = obj[field] + ["@splice@"]
        else:
            obj[field] = "@splice@"
        return json.dumps(obj).replace('"@splice@"', rng.choice(SPLICES))
    if kind == 4:
        return line + rng.choice([" {}", "x", " 1", ",", "]", "\u00a0", " \t", '"'])
    if kind == 5:
        return rng.choice(["\ufeff", "\u00a0", "[", "1 ", " "]) + line
    status = rng.choice([obj.get("status", "ok"), "nxdomain", "servfail", "timeout", "empty"])
    obj["status"] = rng.choice([status.upper(), status.title(), status.replace("k", "\u212a"),
                                status.replace("i", "\u0130")])
    return json.dumps(obj, ensure_ascii=rng.random() < 0.5)


def test_fixture_result_matches_the_plain_parser_under_mutation():
    rng = random.Random(20)
    lines = E2E_FIXTURE.read_text("utf-8").splitlines()
    fast, plain = Diagnostics(), Diagnostics()
    parsed = 0
    for _ in range(5000):
        line = mutated(rng, rng.choice(lines))
        result = fixture_result(line, fast)
        assert result == reference_fixture_result(line, plain), line
        parsed += result is not None
    assert fast.as_dict() == plain.as_dict()
    # the mutations reach both outcomes and both counters
    assert 0 < parsed < 5000
    assert fast.get("malformed_fixture_lines") and fast.get("fixture_status_conflicts")


def replay(lines, names):
    """replay_in_turn's answers at each turn of ``names`` ({} where none), labels and
    diagnostics, read to the end; a name's turns are its places in ``names``."""
    turns = {}
    for turn, name in enumerate(names):
        turns[name] = turns.get(name, ()) + (turn,)
    diag, labels = Diagnostics(), set()
    yielded = list(replay_in_turn(lines, lambda name: turns.get(name, ()), diag, labels))
    assert [turn for turn, _, _ in yielded] == sorted({turn for turn, _, _ in yielded})
    assert all(names[turn] == name for turn, name, _ in yielded)
    answered = {turn: answers for turn, _, answers in yielded}
    groups = [answered.get(turn, {}) for turn in range(len(names))]
    return groups, labels, diag


class TestReplayInTurn:
    def test_groups_follow_the_names_and_match_the_index(self):
        lines = [
            fixture_line("a.example", a=["192.0.2.1"]),
            fixture_line("a.example", a=["192.0.2.2"], resolver="google"),
            "",
            "{bad",
            fixture_line("c.example", status="nxdomain"),
        ]
        names = ["a.example", "b.example", "c.example"]
        groups, labels, diag = replay(lines, names)
        index = whole_file_answers("\n".join(lines), Diagnostics())
        assert groups == [index.get(name, {}) for name in names]
        assert [sorted(g) for g in groups] == [["fixture", "google"], [], ["fixture"]]
        assert labels == {"fixture", "google"}
        assert diag.as_dict() == {"malformed_fixture_lines": 1}

    def test_repeated_label_in_a_group_last_wins(self):
        groups, _, _ = replay(
            [
                fixture_line("a.example", a=["192.0.2.1"]),
                fixture_line("a.example", a=["192.0.2.2"]),
            ],
            ["a.example"],
        )
        assert groups[0]["fixture"].addresses == addresses("192.0.2.2")

    def test_unlisted_names_add_their_label_anywhere(self):
        groups, labels, _ = replay(
            [
                fixture_line("z.example", resolver="early"),
                fixture_line("a.example", a=["192.0.2.1"]),
                fixture_line("y.example", resolver="middle"),
                fixture_line("b.example", a=["192.0.2.1"]),
                fixture_line("x.example", resolver="late"),
            ],
            ["a.example", "b.example"],
        )
        assert [sorted(g) for g in groups] == [["fixture"], ["fixture"]]
        assert labels == {"early", "middle", "late", "fixture"}

    def test_name_listed_twice_keeps_its_answers_until_its_last_turn(self):
        names = ["x.example", "www.x.example", "y.example", "www.x.example"]
        groups, _, _ = replay(
            [
                fixture_line("x.example", a=["192.0.2.1"]),
                fixture_line("www.x.example", a=["192.0.2.2"]),
                fixture_line("y.example", a=["192.0.2.3"]),
            ],
            names,
        )
        assert groups[1] == groups[3] and sorted(groups[3]) == ["fixture"]

    @pytest.mark.parametrize(
        "order, lineno",
        [
            (["b.example", "a.example"], 2),  # shuffled
            (["a.example", "b.example", "a.example"], 3),  # a split group
            # a name listed twice, answered again after its first turn
            (["a.example", "www.a.example", "b.example", "www.a.example"], 4),
        ],
    )
    def test_answer_after_its_turn_raises(self, order, lineno):
        names = ["a.example", "www.a.example", "b.example", "www.a.example"]
        with pytest.raises(FixtureOrderError) as raised:
            replay([fixture_line(name) for name in order], names)
        assert raised.value.lineno == lineno


class TestChainChecks:
    def test_repeat_in_chain_raises(self):
        with pytest.raises(ChainLoopError):
            check_chain("a.example", ["b.example", "c.example", "b.example"])

    def test_chain_back_to_query_name_raises(self):
        with pytest.raises(ChainLoopError):
            check_chain("a.example", ["b.example", "a.example"])

    def test_over_cap_raises(self):
        with pytest.raises(ChainLoopError):
            check_chain("a.example", [f"n{i}.example" for i in range(17)])

    def test_sixteen_hops_allowed(self):
        chain = [f"n{i}.example" for i in range(16)]
        assert check_chain("a.example", chain) == tuple(chain)


def addresses(*texts):
    """(version, int) of each address text, by ipaddress."""
    return {(a.version, int(a)) for a in map(ipaddress.ip_address, texts)}


def covering_blocks(table, addr):
    """The table's blocks that contain the address, by ipaddress membership."""
    version, value = addr
    ip = (ipaddress.IPv6Address if version == 6 else ipaddress.IPv4Address)(value)
    return [block for block in block_networks(table) if ip in block]


def block_networks(table):
    return [
        (ipaddress.IPv6Network if version == 6 else ipaddress.IPv4Network)((net, plen))
        for version, net, plen in table.blocks
    ]


def kept_and_rejected(addrs, table):
    """(kept, rejected) of an Ok result's addresses through apply_filter, which
    counts each rejected address and hands back the result itself when none is."""
    res = ResolutionResult("site.example", "fixture", (), frozenset(addrs), ResolutionStatus.OK, 0)
    diag = Diagnostics()
    filtered = apply_filter(res, table, diag)
    rejected = res.addresses - filtered.addresses
    assert filtered._replace(addresses=res.addresses) == res
    assert diag.get("special_purpose_rejected") == len(rejected)
    assert (filtered is res) == (not rejected)
    return filtered.addresses, rejected


class TestSpecialPurposeFilter:
    def test_loopback_rejected_public_kept(self):
        table = SpecialPurposeTable.default()
        kept, rejected = kept_and_rejected(addresses("127.0.0.1", "212.201.100.136"), table)
        assert kept == addresses("212.201.100.136")
        assert rejected == addresses("127.0.0.1")

    def test_empty_set(self):
        assert kept_and_rejected(set(), SpecialPurposeTable.default()) == (
            frozenset(),
            frozenset(),
        )

    def test_private_and_linklocal_all_rejected(self):
        table = SpecialPurposeTable.default()
        addrs = addresses("10.0.0.1", "192.168.1.1", "fe80::1")
        kept, rejected = kept_and_rejected(addrs, table)
        assert kept == frozenset()
        assert rejected == addrs

    def test_partition_and_soundness(self):
        table = SpecialPurposeTable.default()
        addrs = addresses(
            "8.8.8.8", "203.0.113.9", "100.64.0.1", "224.0.0.5", "2001:db8::1",
            "2606:2800:220:1::1", "169.254.9.9", "93.184.216.34", "::1",
        )
        kept, rejected = kept_and_rejected(addrs, table)
        assert kept | rejected == addrs
        assert kept & rejected == frozenset()
        for addr in rejected:
            assert covering_blocks(table, addr)
        for addr in kept:
            assert not covering_blocks(table, addr)

    def test_table_from_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("# custom\n198.51.100.0/24\n2001:db8::/32  # doc\n")
        table = SpecialPurposeTable.from_lines(path.read_text().split("\n"), str(path))
        assert block_networks(table) == [
            ipaddress.ip_network("198.51.100.0/24"),
            ipaddress.ip_network("2001:db8::/32"),
        ]


def edge_addresses(table):
    """Each block's first and last address and the addresses just outside it."""
    for block in block_networks(table):
        first, last = int(block.network_address), int(block.broadcast_address)
        for value in (first - 1, first, last, last + 1):
            if 0 <= value < 2**block.max_prefixlen:
                yield block.version, value


def assert_contains_matches_membership(table):
    for addr in edge_addresses(table):
        assert table.contains(addr) == bool(covering_blocks(table, addr)), addr


def networks(network, width):
    return st.builds(
        lambda net, plen: network((net, plen), strict=False),
        st.integers(0, 2**width - 1),
        st.integers(0, width),
    )


def linear_scan(table, addr):
    """Whether some block of the table holds the address, one block at a time."""
    version, value = addr
    return any(
        v == version and value >> (width - plen) == net >> (width - plen)
        for v, net, plen in table.blocks
        for width in [32 if v == 4 else 128]
    )


class TestSpecialPurposeContains:
    """contains() against ipaddress membership at block edges, v4 and v6."""

    def test_packaged_table(self):
        assert_contains_matches_membership(SpecialPurposeTable.default())

    @pytest.mark.parametrize("lines", [
        None,  # the packaged table
        ["240.0.0.0/4", "2.0.0.0/7", "::/0"],  # a /0, a /4 and a /7
        ["0.0.0.0/0", "2000::/4", "fc00::/7"],
        ["10.0.0.0/8", "10.1.0.0/16", "fc00::/7", "fd00::/8", "2001:db8::/32"],  # nested
        ["192.0.2.0/25", "192.0.2.128/25", "2001:db8::/33", "2001:db8:8000::/33"],  # adjacent
        ["192.0.2.1/32", "192.0.2.3/32", "2001:db8::1/128", "2001:db8::3/128"],  # one apart
    ], ids=["packaged", "v6-zero", "v4-zero", "nested", "adjacent", "one-apart"])
    def test_edges_match_a_linear_scan(self, lines):
        table = SpecialPurposeTable.from_lines(lines) if lines else SpecialPurposeTable.default()
        probes = list(edge_addresses(table)) + [(4, 0), (4, 2**32 - 1), (6, 0), (6, 2**128 - 1)]
        for addr in probes:
            assert table.contains(addr) == linear_scan(table, addr), addr

    @given(
        st.lists(networks(ipaddress.IPv4Network, 32), max_size=6),
        st.lists(networks(ipaddress.IPv6Network, 128), max_size=6),
    )
    def test_custom_table(self, v4, v6):
        assert_contains_matches_membership(SpecialPurposeTable.from_lines(map(str, v4 + v6)))


def result(domain, resolver, addrs, status=ResolutionStatus.OK):
    return ResolutionResult(
        domain, resolver, (), frozenset(addresses(*addrs)), status, 0
    )


class TestCrossCheck:
    def test_identical_sets_agree(self):
        agree = cross_check(
            [
                result("x.example", "google", ["192.0.2.1"]),
                result("x.example", "opendns", ["192.0.2.1"]),
            ]
        )
        assert agree is True

    def test_differing_sets_disagree(self):
        agree = cross_check(
            [
                result("x.example", "google", ["1.2.3.4"]),
                result("x.example", "opendns", ["1.2.3.5"]),
            ]
        )
        assert agree is False

    def test_one_ok_one_timeout_insufficient(self):
        with pytest.raises(InsufficientResolversError):
            cross_check(
                [
                    result("x.example", "google", ["1.2.3.4"]),
                    result("x.example", "opendns", [], ResolutionStatus.TIMEOUT),
                ]
            )

    def test_mixed_domains_rejected(self):
        with pytest.raises(ValueError):
            cross_check(
                [
                    result("x.example", "google", ["1.2.3.4"]),
                    result("y.example", "opendns", ["1.2.3.4"]),
                ]
            )


class TestParseEndpoint:
    def test_v4_with_port(self):
        r = parse_endpoint("google=8.8.8.8:53")
        assert (r.resolver_id, r.ip, r.port) == ("google", "8.8.8.8", 53)

    def test_v4_default_port(self):
        assert parse_endpoint("g=9.9.9.9").port == 53

    def test_v6_bracketed(self):
        r = parse_endpoint("q=[2001:db8::1]:5353")
        assert (r.ip, r.port) == ("2001:db8::1", 5353)

    @pytest.mark.parametrize(
        "bad",
        [
            "nolabel", "x=", "=1.2.3.4", "x=notanip",
            # a port is ASCII digits in 1-65535
            "x=127.0.0.1:70000", "x=127.0.0.1:0", "x=127.0.0.1:+5_3", "x=127.0.0.1:",
            "x=[::1]:65536", "x=[::1]:٥٣", "x=[::1]junk",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


# ---------------------------------------------------------------------------
# live mode against a local fake DNS server

from dns_fake import FakeDnsServer, encode_name as _encode_name  # noqa: E402


@pytest.fixture
def fake_dns():
    servers = []

    def start(zones, rcode=0):
        server = FakeDnsServer(zones, rcode)
        server.start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()


class TestLiveResolver:
    def test_direct_a_and_aaaa_merge(self, fake_dns):
        server = fake_dns(
            {"example.test": {"a": ["203.0.113.10"], "aaaa": ["2001:db8::10"]}}
        )
        resolver = LiveResolver("fake", "127.0.0.1", server.port)
        res = resolve_records("example.test", resolver, timeout=2.0)
        assert res.status is ResolutionStatus.OK
        assert res.addresses == addresses("203.0.113.10", "2001:db8::10")
        assert res.cname_chain == ()

    def test_cname_chain_followed(self, fake_dns):
        server = fake_dns(
            {
                "www.site.test": {"cname": "edge.cdn.test"},
                "edge.cdn.test": {"cname": "pop7.cdn.test"},
                "pop7.cdn.test": {"a": ["203.0.113.77"]},
            }
        )
        resolver = LiveResolver("fake", "127.0.0.1", server.port)
        res = resolve_records("www.site.test", resolver, timeout=2.0)
        assert res.cname_chain == ("edge.cdn.test", "pop7.cdn.test")
        assert res.addresses == addresses("203.0.113.77")

    def test_nxdomain_status(self, fake_dns):
        server = fake_dns({}, rcode=_dnswire.RCODE_NXDOMAIN)
        resolver = LiveResolver("fake", "127.0.0.1", server.port)
        res = resolve_records("missing.test", resolver, timeout=2.0)
        assert res.status is ResolutionStatus.NXDOMAIN

    def test_servfail_status(self, fake_dns):
        server = fake_dns({}, rcode=_dnswire.RCODE_SERVFAIL)
        resolver = LiveResolver("fake", "127.0.0.1", server.port)
        res = resolve_records("broken.test", resolver, timeout=2.0)
        assert (res.status, res.addresses) == (ResolutionStatus.SERVFAIL, frozenset())

    def test_timeout_status(self):
        # nothing listens on this socket; both queries time out
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        _, port = sock.getsockname()
        sock.close()
        resolver = LiveResolver("fake", "127.0.0.1", port)
        res = resolver.resolve("unanswered.test", timeout=0.2)
        assert res.status is ResolutionStatus.TIMEOUT


class TestWireFormat:
    def test_query_roundtrip_shape(self):
        query = _dnswire.build_query(0x1234, "www.example.com", _dnswire.QTYPE_A)
        qid, flags, qd, an, ns, ar = struct.unpack(">HHHHHH", query[:12])
        assert (qid, qd, an) == (0x1234, 1, 0)
        assert flags == 0x0100

    def test_parse_compressed_answer(self):
        # response with the answer name as a pointer back to the question
        question = _encode_name("a.test") + struct.pack(">HH", 1, 1)
        answer = b"\xc0\x0c" + struct.pack(">HHIH", 1, 1, 60, 4) + bytes([192, 0, 2, 8])
        data = struct.pack(">HHHHHH", 1, 0x8180, 1, 1, 0, 0) + question + answer
        rcode, truncated, answers = _dnswire.parse_answers(data)
        assert rcode == 0 and truncated is False
        assert answers == [("a.test", 1, (4, 0xC0000208))]

    def test_pointer_loop_rejected(self):
        question = _encode_name("a.test") + struct.pack(">HH", 1, 1)
        data = struct.pack(">HHHHHH", 1, 0x8180, 1, 1, 0, 0) + question
        loop = b"\xc0" + bytes([len(data)])  # pointer to itself
        data += loop + struct.pack(">HHIH", 1, 1, 60, 0)
        with pytest.raises(_dnswire.WireError):
            _dnswire.parse_answers(data)
