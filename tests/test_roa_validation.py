import csv
import io
import ipaddress
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpkiaudit._prefix_index import parse_decimal, parse_prefix
from rpkiaudit import cli, roa_validation
from rpkiaudit.cli import PipelineConfig, run_stage
from rpkiaudit.diagnostics import Diagnostics
from rpkiaudit.rib_store import PrefixOriginPair, parse_asn
from rpkiaudit.roa_validation import (
    TRUST_ANCHORS,
    RoaFormat,
    RoaIndex,
    RoaPayload,
    ValidationState,
    build_roa_index,
    roa_fields,
    validate,
)


def oracle_validate(pair, roas):
    """Exhaustive-scan reference of the three-state decision procedure.

    Covering test via ipaddress.subnet_of, a different mechanism from the
    trie walk under test.
    """
    covering = [
        r
        for r in roas
        if r.prefix.version == pair.prefix.version and pair.prefix.subnet_of(r.prefix)
    ]
    if not covering:
        return ValidationState.NOT_FOUND
    for r in covering:
        if r.asn == pair.origin_asn and r.asn != 0 and pair.prefix.prefixlen <= r.max_length:
            return ValidationState.VALID
    return ValidationState.INVALID


def roa(asn, prefix, max_length=None, ta="other"):
    network = ipaddress.ip_network(prefix)
    return RoaPayload(asn, network, max_length if max_length is not None else network.prefixlen, ta)


def pair(prefix, asn):
    return PrefixOriginPair(ipaddress.ip_network(prefix), asn)


# toy space: everything inside 10.0.0.0/8 with a handful of ASNs, so random
# instances actually collide
def random_roa_set(rng, size):
    out = set()
    for _ in range(size):
        plen = rng.randint(8, 24)
        net = (10 << 24) | (rng.getrandbits(24) & ~((1 << (32 - plen)) - 1) & 0xFFFFFF)
        prefix = ipaddress.ip_network((net, plen))
        max_length = rng.randint(plen, min(plen + 8, 32))
        out.add(RoaPayload(rng.choice([0, 64496, 64497, 64498, 64499]), prefix, max_length))
    return out


def random_pair(rng):
    plen = rng.randint(8, 28)
    net = (10 << 24) | (rng.getrandbits(24) & ~((1 << (32 - plen)) - 1) & 0xFFFFFF)
    return PrefixOriginPair(
        ipaddress.ip_network((net, plen)), rng.choice([64496, 64497, 64498, 64500])
    )


class TestValidate:
    def test_valid_within_maxlength(self):
        roas = {roa(64500, "10.0.0.0/16", 24)}
        p = pair("10.0.1.0/24", 64500)
        assert oracle_validate(p, roas) is ValidationState.VALID
        assert validate(p, build_roa_index(roas)) is ValidationState.VALID

    def test_invalid_exceeds_maxlength(self):
        roas = {roa(64500, "10.0.0.0/16", 24)}
        p = pair("10.0.1.0/25", 64500)
        assert oracle_validate(p, roas) is ValidationState.INVALID
        assert validate(p, build_roa_index(roas)) is ValidationState.INVALID

    def test_invalid_wrong_origin(self):
        roas = {roa(64500, "10.0.0.0/16", 24)}
        p = pair("10.0.1.0/24", 64501)
        assert oracle_validate(p, roas) is ValidationState.INVALID
        assert validate(p, build_roa_index(roas)) is ValidationState.INVALID

    def test_notfound_without_covering_roa(self):
        index = build_roa_index({roa(64500, "10.0.0.0/16", 24)})
        assert validate(pair("192.0.2.0/24", 64500), index) is ValidationState.NOT_FOUND

    def test_as0_only_covering_roa_is_invalid(self):
        index = build_roa_index({roa(0, "10.0.0.0/8", 32)})
        assert validate(pair("10.9.0.0/16", 0), index) is ValidationState.INVALID
        assert validate(pair("10.9.0.0/16", 64500), index) is ValidationState.INVALID

    def test_one_matching_roa_among_many_suffices(self):
        roas = {
            roa(64501, "10.0.0.0/8", 16),
            roa(64500, "10.0.0.0/16", 24),
            roa(0, "10.0.0.0/12", 24),
        }
        assert validate(pair("10.0.4.0/24", 64500), build_roa_index(roas)) is ValidationState.VALID

    def test_as_set_marker_origin_rejected(self):
        index = build_roa_index(set())
        broken = pair("10.0.0.0/24", 64500)
        object.__setattr__(broken, "origin_asn", None)
        with pytest.raises(TypeError):
            validate(broken, index)

    def test_exact_prefix_roa_covers_itself(self):
        index = build_roa_index({roa(64500, "10.0.0.0/24")})
        assert validate(pair("10.0.0.0/24", 64500), index) is ValidationState.VALID

    def test_three_state_totality_randomized(self):
        rng = random.Random(1)
        roas = random_roa_set(rng, 50)
        index = build_roa_index(roas)
        for _ in range(200):
            state = validate(random_pair(rng), index)
            assert state in (
                ValidationState.VALID,
                ValidationState.INVALID,
                ValidationState.NOT_FOUND,
            )

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(2)
        roas = random_roa_set(rng, 300)
        index = build_roa_index(roas)
        for _ in range(500):
            p = random_pair(rng)
            assert validate(p, index) is oracle_validate(p, roas)


@st.composite
def roa_strategy(draw):
    plen = draw(st.integers(8, 24))
    net = (10 << 24) | (draw(st.integers(0, 2**24 - 1)) & ~((1 << (32 - plen)) - 1) & 0xFFFFFF)
    max_length = draw(st.integers(plen, min(plen + 8, 32)))
    asn = draw(st.sampled_from([0, 64496, 64497, 64498]))
    return RoaPayload(asn, ipaddress.ip_network((net, plen)), max_length)


@st.composite
def pair_strategy(draw):
    plen = draw(st.integers(8, 28))
    net = (10 << 24) | (draw(st.integers(0, 2**24 - 1)) & ~((1 << (32 - plen)) - 1) & 0xFFFFFF)
    asn = draw(st.sampled_from([64496, 64497, 64499]))
    return PrefixOriginPair(ipaddress.ip_network((net, plen)), asn)


class TestMonotonicity:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(roa_strategy(), min_size=1, max_size=10),
        st.lists(pair_strategy(), min_size=1, max_size=5),
    )
    def test_roa_addition_never_unvalidates(self, roa_seq, pairs):
        current: set[RoaPayload] = set()
        previous = {p: validate(p, build_roa_index(current)) for p in pairs}
        for r in roa_seq:
            current.add(r)
            index = build_roa_index(current)
            for p in pairs:
                state = validate(p, index)
                before = previous[p]
                if before is ValidationState.VALID:
                    assert state is ValidationState.VALID
                assert not (
                    before in (ValidationState.VALID, ValidationState.INVALID)
                    and state is ValidationState.NOT_FOUND
                )
                previous[p] = state

    @settings(max_examples=100, deadline=None)
    @given(st.lists(roa_strategy(), max_size=12), pair_strategy())
    def test_index_matches_exhaustive_scan(self, roas, p):
        assert validate(p, build_roa_index(roas)) is oracle_validate(p, set(roas))


def fields(text, fmt=RoaFormat.CSV, diag=None):
    """The payloads ``roa_fields`` decodes from a whole export text."""
    return list(roa_fields(io.StringIO(text) if fmt is RoaFormat.CSV else (text,), fmt, diag))


def payload(asn, prefix, max_length=None, ta="other"):
    """One payload as ``roa_fields`` yields it."""
    version, net, plen = parse_prefix(prefix)
    return version, net, plen, asn, plen if max_length is None else max_length, ta


def export_lines(roas):
    """A csv export of the payloads, one line each."""
    return [f"{r.asn},{r.prefix},{r.max_length},{r.trust_anchor}\n" for r in roas]


def state(index, prefix, asn):
    return index.state(*parse_prefix(prefix), asn)


class TestLoadRoas:
    def test_csv_basic(self):
        assert fields("AS64500,10.0.0.0/16,24") == [payload(64500, "10.0.0.0/16", 24)]

    def test_csv_bad_maxlength_rejected(self):
        diag = Diagnostics()
        assert fields("AS64500,10.0.0.0/16,8", diag=diag) == []
        assert diag.get("malformed_roa_rows") == 1
        assert diag.get("empty_roa_set") == 1

    def test_empty_file_warns(self):
        diag = Diagnostics()
        assert fields("", diag=diag) == []
        assert diag.get("empty_roa_set") == 1

    def test_csv_header_autodetected(self):
        out = fields("ASN,prefix,maxLength,TA\nAS64500,10.0.0.0/16,24,ripe")
        assert out == [payload(64500, "10.0.0.0/16", 24, "ripe")]

    def test_csv_numeric_asn_and_default_maxlength(self):
        out = fields("64500,10.0.0.0/16\n64500,10.0.0.0/16,")
        assert out == [payload(64500, "10.0.0.0/16", 16)] * 2

    def test_csv_trust_anchor_normalized(self):
        out = fields("AS1,10.0.0.0/8,8,RIPE\nAS2,10.0.0.0/8,8,weird")
        assert out == [payload(1, "10.0.0.0/8", 8, "ripe"), payload(2, "10.0.0.0/8", 8)]

    def test_csv_duplicates_deduplicated(self):
        text = "AS64500,10.0.0.0/16,24\nAS64500,10.0.0.0/16,24"
        assert len(fields(text)) == 2
        assert len(RoaIndex.load(io.StringIO(text))) == 1  # the index keeps distinct payloads

    @pytest.mark.parametrize(
        "row",
        ["AS6_5000,10.0.0.0/8,16", "+65000,10.0.0.0/8,16", "AS\u0665,10.0.0.0/8,16",
         "AS65000,10.0.0.0/8,1_6", "AS65000,10.0.0.0/8,+16", "AS65000,10.0.0.0/8,\u0661\u0666"],
    )
    def test_csv_asn_and_maxlength_are_ascii_decimals(self, row):
        diag = Diagnostics()
        assert fields(row, diag=diag) == []
        assert diag.get("malformed_roa_rows") == 1

    def test_csv_host_bits_rejected(self):
        diag = Diagnostics()
        assert fields("AS64500,10.0.0.1/16,24", diag=diag) == []
        assert diag.get("malformed_roa_rows") == 1

    def test_json_basic(self):
        doc = json.dumps(
            [
                {"asn": "AS64500", "prefix": "10.0.0.0/16", "maxLength": 24, "ta": "apnic"},
                {"asn": 64501, "prefix": "2001:db8::/32"},
            ]
        )
        assert fields(doc, RoaFormat.JSON) == [
            payload(64500, "10.0.0.0/16", 24, "apnic"),
            payload(64501, "2001:db8::/32"),
        ]

    def test_json_malformed_rows_counted(self):
        diag = Diagnostics()
        doc = '[{"asn": "ASX", "prefix": "10.0.0.0/8"}, {"prefix": "10.0.0.0/8"}]'
        assert fields(doc, RoaFormat.JSON, diag) == []
        assert diag.get("malformed_roa_rows") == 2

    def test_json_asn_neither_int_nor_text_rejected(self):
        diag = Diagnostics()
        doc = json.dumps(
            [
                {"asn": True, "prefix": "10.0.0.0/8"},  # not AS 1
                {"asn": 1.5, "prefix": "10.0.0.0/8"},
                {"asn": 64500, "prefix": "10.0.0.0/8"},
            ]
        )
        assert fields(doc, RoaFormat.JSON, diag) == [payload(64500, "10.0.0.0/8")]
        assert diag.get("malformed_roa_rows") == 2


class TestRoaIndex:
    def test_empty_index_all_queries_empty(self):
        assert state(RoaIndex.load([]), "10.0.0.0/24", 64500) is ValidationState.NOT_FOUND

    def test_same_prefix_different_asns_both_returned(self):
        index = RoaIndex.load(["AS64500,10.0.0.0/16,24\n", "AS64501,10.0.0.0/16,24\n"])
        assert state(index, "10.0.1.0/24", 64500) is ValidationState.VALID
        assert state(index, "10.0.1.0/24", 64501) is ValidationState.VALID
        assert state(index, "10.0.1.0/24", 64502) is ValidationState.INVALID

    def test_covering_matches_scan_randomized(self):
        rng = random.Random(3)
        roas = random_roa_set(rng, 500)
        index = RoaIndex.load(export_lines(roas))
        for _ in range(300):
            p = random_pair(rng)
            covering_asns = {r.asn for r in roas if p.prefix.subnet_of(r.prefix)}
            for asn in {p.origin_asn, *covering_asns}:
                q = PrefixOriginPair(p.prefix, asn)
                assert validate(q, index) is oracle_validate(q, roas)

    def test_more_specific_roa_does_not_cover_less_specific_query(self):
        index = RoaIndex.load(["AS64500,10.0.0.0/24,24\n"])
        assert state(index, "10.0.0.0/16", 64500) is ValidationState.NOT_FOUND


class TestRoaPayloadInvariants:
    def test_maxlength_below_prefixlen_rejected(self):
        with pytest.raises(ValueError):
            roa(64500, "10.0.0.0/16", 8)

    def test_maxlength_above_family_max_rejected(self):
        with pytest.raises(ValueError):
            roa(64500, "10.0.0.0/16", 33)
        with pytest.raises(ValueError):
            roa(64500, "2001:db8::/32", 129)

    def test_asn_range_enforced(self):
        with pytest.raises(ValueError):
            roa(2**32, "10.0.0.0/16", 24)


# ---------------------------------------------------------------------------
# The validate stage's streamed decoder and compact index, against the
# whole-text reference loader and a linear RFC 6811 scan


def reference_roas(text, fmt):
    """Payloads and counters of the whole-text loader that preceded ``roa_fields``."""
    diag = Diagnostics()
    payloads = set()

    def add(asn, prefix, max_length, ta):
        try:
            if type(asn) is int:
                asn = str(asn)
            if not isinstance(asn, str):
                raise TypeError(asn)
            network = parse_prefix(str(prefix).strip())
            if max_length is None or (isinstance(max_length, str) and not max_length.strip()):
                max_length = network[2]
            else:
                max_length = parse_decimal(str(max_length).strip())
            ta = "other" if ta is None else str(ta).strip().lower()
            ta = ta if ta in TRUST_ANCHORS else "other"
            payloads.add(RoaPayload(parse_asn(asn), network, max_length, ta))
        except (ValueError, TypeError):
            diag.count("malformed_roa_rows")

    if fmt is RoaFormat.CSV:
        rows = list(csv.reader(io.StringIO(text)))
        if rows and rows[0] and rows[0][0].strip().upper() == "ASN":
            rows = rows[1:]
        for row in rows:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if not 2 <= len(row) <= 4:
                diag.count("malformed_roa_rows")
                continue
            add(*row, *[None] * (4 - len(row)))
    else:
        try:
            doc = json.loads(text) if text.strip() else []
        except (ValueError, RecursionError):  # a syntax error, a 4,300-digit number, deep nesting
            diag.count("malformed_roa_rows")
            doc = []
        if not isinstance(doc, list):
            diag.count("malformed_roa_rows")
            doc = []
        for obj in doc:
            try:
                fields = obj["asn"], obj["prefix"], obj.get("maxLength"), obj.get("ta")
            except (TypeError, KeyError):
                diag.count("malformed_roa_rows")
                continue
            add(*fields)
    if not payloads:
        diag.warn("empty_roa_set", "no ROA payloads loaded")
    return payloads, diag.as_dict()


EXPORT_PREFIXES = ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.128/25", "11.0.0.0/8",
                   "2001:db8::/32", "2001:db8:1::/48", "10.1.2.1/24", "not-a-prefix",
                   " 10.1.0.0/16 "]
EXPORT_ASNS = ["AS64500", "64500", "as64501", "AS0", "0", "AS4294967296", "ASX", "", " AS64501 "]
EXPORT_MAXLENS = [None, "", "8", "16", "24", "25", "33", "7", "128", "x"]  # None: column absent
EXPORT_TAS = [None, "ripe", " RIPE ", "arin", "weird", "", "ripe\t", "r\u00e9seau\u20ac"]
QUERY_PAIRS = [(prefix, asn) for prefix in ("10.1.2.0/24", "10.1.2.128/25", "10.1.0.0/16",
                                            "10.0.0.0/8", "10.9.0.0/16", "11.1.0.0/24",
                                            "2001:db8:1::/48", "2001:db8:1:2::/64", "12.0.0.0/8")
               for asn in (0, 64500, 64501)]


@st.composite
def roa_export(draw):
    """(format, export text): rows of 1 to 5 fields, some repeated with another TA."""
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        row = [draw(st.sampled_from(EXPORT_ASNS)), draw(st.sampled_from(EXPORT_PREFIXES))]
        max_length, ta = draw(st.sampled_from(EXPORT_MAXLENS)), draw(st.sampled_from(EXPORT_TAS))
        if max_length is not None:
            row.append(max_length)
            if ta is not None:
                row.append(ta)
        if draw(st.booleans()):
            row = row[: draw(st.integers(0, 1))] if draw(st.booleans()) else row + ["x"] * 2
        rows.append(row)
        if len(row) == 4 and draw(st.booleans()):
            rows.append(row[:3] + [draw(st.sampled_from(["ripe", "apnic", "lacnic", "zz"]))])
    if draw(st.booleans()):  # JSON: numbers where the CSV has text, some items no objects
        items = []
        for row in rows:
            obj = dict(zip(("asn", "prefix", "maxLength", "ta"), row))
            for key in ("asn", "maxLength"):
                if key in obj and obj[key].strip().isdigit() and draw(st.booleans()):
                    obj[key] = int(obj[key])
            items.append(obj if draw(st.integers(0, 9)) else draw(st.sampled_from([5, "x", [1]])))
        # escaped or raw non-ASCII text, one line or one item per line
        whole = json.dumps(items, ensure_ascii=draw(st.booleans()),
                           indent=draw(st.sampled_from([None, 1])))
        doc = draw(st.sampled_from(["list", "list", "list", "object", "broken", "cut",
                                    "trailing", "deep"]))
        if doc == "cut":
            return "json", whole[: draw(st.integers(0, len(whole)))]
        if doc == "trailing":  # data after the array, or only whitespace json allows
            return "json", whole + draw(st.sampled_from([" x", "[]", ",", " \x0b", "\n\n"]))
        if doc == "deep":  # an item nested past any recursion limit
            at = draw(st.integers(0, len(items)))
            deep = "[" * 5000 + "]" * 5000
            return "json", "[" + ",".join([*map(json.dumps, items[:at]), deep,
                                           *map(json.dumps, items[at:])]) + "]"
        text = {"list": whole, "object": json.dumps({"roas": items}), "broken": whole[:-1]}[doc]
        return "json", text
    lines = ["ASN,prefix,maxLength,TA"] if draw(st.booleans()) else []
    for row in rows:
        quote = draw(st.booleans())
        lines.append(",".join(f'"{field}"' if quote else field for field in row))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", ","])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "csv", end.join(lines) + (end if draw(st.booleans()) else "")


def stage_states(tmp_path, fmt, text, chunk=cli._CHUNK):
    """Each QUERY_PAIRS state and the diagnostics of the validate stage over the export,
    read ``chunk`` bytes at a time when it is json."""
    export = tmp_path / f"roas.{fmt}"
    export.write_bytes(text.encode("utf-8"))
    out = tmp_path / "out"
    out.mkdir()
    rows = [{"rank": i, "domain": f"d{i}.test", "variant": "base", "unreachable": [],
             "pairs": [{"prefix": prefix, "asn": asn}]}
            for i, (prefix, asn) in enumerate(QUERY_PAIRS, 1)]
    (out / "pairs.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    with mock.patch.object(cli, "_CHUNK", chunk):
        assert run_stage("validate", PipelineConfig(roas=str(export), output_dir=str(out))) == 0
    validated = [json.loads(line) for line in (out / "validated.jsonl").read_text().splitlines()]
    states = [ValidationState(row["pairs"][0]["state"]) for row in validated]
    return states, json.loads((out / "validate_diagnostics.json").read_text())


def stored_payloads(index):
    """The payloads an index holds."""
    return {RoaPayload(asn, (version, net, plen), max_length, ta)
            for version, net, plen, triples in index._index
            for asn, max_length, ta in triples}


class TestStreamedRoaPath:
    @settings(max_examples=150, deadline=None)
    @given(roa_export(), st.sampled_from([1, 2, 3, 5, 64, cli._CHUNK]))
    def test_stage_matches_the_reference_and_a_linear_scan(self, tmp_path_factory, export, chunk):
        """Chunks of a few bytes end inside strings, numbers, escapes and UTF-8 characters."""
        fmt, text = export
        diag = Diagnostics()
        index = RoaIndex.load(io.StringIO(text) if fmt == "csv" else (text,), RoaFormat(fmt), diag)
        roas = stored_payloads(index)
        assert (roas, diag.as_dict()) == reference_roas(text, RoaFormat(fmt))
        expected = [oracle_validate(pair(prefix, asn), roas) for prefix, asn in QUERY_PAIRS]
        states, stage_diag = stage_states(tmp_path_factory.mktemp("roas"), fmt, text, chunk)
        assert states == expected
        assert stage_diag == diag.as_dict()  # malformed_roa_rows and empty_roa_set alike

    @pytest.mark.parametrize("indent", [None, 1], ids=["one-line", "indent-1"])
    def test_export_larger_than_a_chunk_loads_every_payload(self, tmp_path, indent):
        rng = random.Random(4)
        items = [{"asn": f"AS{rng.randrange(1, 1 << 32)}",
                  "prefix": str(ipaddress.ip_network((rng.getrandbits(24) << 8, 24))),
                  "maxLength": rng.choice([24, 28, "32"]), "ta": rng.choice(sorted(TRUST_ANCHORS))}
                 for _ in range(4000)]
        text = json.dumps(items, indent=indent)
        assert len(text) > 3 * cli._CHUNK
        export = tmp_path / "roas.json"
        export.write_text(text)
        diag = Diagnostics()
        index = RoaIndex.load(cli._text_chunks(open(export, "rb"), "ROA export"),
                              RoaFormat.JSON, diag)
        stored = stored_payloads(index)
        assert (stored, diag.as_dict()) == reference_roas(text, RoaFormat.JSON)
        assert len(stored) > 3900

    @pytest.mark.parametrize("number", ["1" * 5000, "1" * 5000 + ".5", "1" * 5000 + "e-2"],
                             ids=["int", "fraction", "exponent"])
    def test_long_number_cut_by_a_chunk_reads_as_whole(self, number):
        """Over int's digit limit, a number is a fault, unless its fraction or exponent
        comes in a later chunk: then it is a float."""
        text = '[{"asn": ' + number + ', "prefix": "10.0.0.0/8"}]'
        try:
            expected = [(json.loads(number), "10.0.0.0/8", None, None)]
        except ValueError:
            expected = "fault"
        for chunk in (1, 2, 3, 4100, 4500, 5000, len(text)):
            pieces = [text[i : i + chunk] for i in range(0, len(text), chunk)]
            try:
                rows = list(roa_validation._json_rows(pieces))
            except roa_validation.ExportFault:
                rows = "fault"
            assert rows == expected, chunk

    @pytest.mark.parametrize("end", ["", ",", "] x", "]]", ", " + "[" * 5000 + "]" * 5001],
                             ids=["cut", "cut-after-comma", "trailing-data", "second-close",
                                  "too-deep"])
    def test_document_fault_loads_nothing_and_counts_once(self, end):
        """Items read and counted before the fault are dropped: one malformed row, no VRP."""
        text = '[{"asn": "ASX", "prefix": "10.0.0.0/8"}, 5, {"asn": 1, "prefix": "10.0.0.0/8"}'
        text += end
        for chunk in (1, 7, len(text)):
            pieces = [text[i : i + chunk] for i in range(0, len(text), chunk)]
            diag = Diagnostics()
            assert len(RoaIndex.load(pieces, RoaFormat.JSON, diag)) == 0
            assert diag.as_dict() == {"empty_roa_set": 1, "malformed_roa_rows": 1}

    def test_duplicates_differing_in_ta_are_distinct_payloads(self):
        text = "AS1,10.0.0.0/8,8,ripe\nAS1,10.0.0.0/8,8,arin\nAS1,10.0.0.0/8,8,RIPE\n"
        index = RoaIndex.load(io.StringIO(text))
        assert len(index) == 2
        expected = {roa(1, "10.0.0.0/8", 8, "ripe"), roa(1, "10.0.0.0/8", 8, "arin")}
        assert stored_payloads(index) == expected
