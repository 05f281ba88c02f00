import csv
import io
import ipaddress
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpkiaudit.cdn_classifier import (
    _SPACE,
    Agreement,
    classify_by_asn,
    classify_by_chain,
    external_label,
    load_external_labels,
    load_keywords,
    registry_entries,
    spot_keywords,
)
from rpkiaudit.cli import _text_lines
from rpkiaudit.diagnostics import Diagnostics
from rpkiaudit.dns_resolution import ResolutionResult
from rpkiaudit.vocabulary import ResolutionStatus, fraction_to_float, parse_asn


def sorted_entries(text, diag=None):
    """The (asn, description) registry entries of a whole text, sorted by ASN."""
    return sorted(registry_entries(text.split("\n"), diag))


def ok_result(domain, chain):
    return ResolutionResult(
        domain,
        "fixture",
        tuple(chain),
        frozenset({ipaddress.ip_address("203.0.113.1")}),
        ResolutionStatus.OK,
        0,
    )


class TestChainHeuristic:
    @pytest.mark.parametrize("length,expected", [(0, False), (1, False), (2, True), (3, True)])
    def test_threshold_boundary(self, length, expected):
        chain = [f"hop{i}.example.net" for i in range(length)]
        label = classify_by_chain(ok_result("site.example", chain))
        assert label.by_chain is expected
        assert label.chain_length == length

    def test_huffingtonpost_chain_is_cdn(self):
        label = classify_by_chain(
            ok_result(
                "www.huffingtonpost.com",
                ["www.huffingtonpost.com.edgesuite.net", "a495.g.akamai.net"],
            )
        )
        assert label.by_chain is True

    def test_single_cname_is_not_cdn(self):
        label = classify_by_chain(ok_result("one.example", ["cdn.example.net"]))
        assert label.by_chain is False

    def test_non_ok_result_rejected(self):
        res = ResolutionResult(
            "x.example", "fixture", (), frozenset(), ResolutionStatus.NXDOMAIN, 0
        )
        with pytest.raises(ValueError):
            classify_by_chain(res)

    @given(st.integers(0, 20))
    def test_pure_function_of_chain_length(self, length):
        chain = [f"n{i}.example" for i in range(length)]
        label = classify_by_chain(ok_result("p.example", chain))
        assert label.by_chain == (length >= 2)


class TestKeywordSpotting:
    def test_internap_match(self):
        registry = [(10913, "INTERNAP-BLK")]
        assert spot_keywords(["internap"], registry) == {10913}

    def test_no_match_empty(self):
        registry = [(3320, "DTAG Internet service provider")]
        assert spot_keywords(["akamai"], registry) == set()

    def test_union_over_keywords(self):
        registry = [
            (20940, "AKAMAI-ASN1"),
            (22822, "LLNW Limelight Networks"),
            (3320, "DTAG"),
        ]
        assert spot_keywords(["akamai", "limelight"], registry) == {20940, 22822}

    def test_empty_keywords_rejected(self):
        with pytest.raises(ValueError):
            spot_keywords([], [(1, "x")])

    @given(st.data())
    def test_monotone_in_keyword_list(self, data):
        registry = [
            (1, "akamai tech"),
            (2, "amazon data services"),
            (3, "limelight networks"),
            (4, "generic transit"),
        ]
        keywords = ["akamai", "amazon", "limelight", "cloudflare"]
        subset = data.draw(
            st.lists(st.sampled_from(keywords), min_size=1, max_size=4, unique=True)
        )
        assert spot_keywords(subset, registry) <= spot_keywords(keywords, registry)


def spot_keywords_by_scan(keywords, registry):
    """The token-by-token substring scan that the one compiled search replaced."""
    tokens = [k.strip().lower() for k in keywords if k.strip()]
    if not tokens:
        raise ValueError("keyword list must be nonempty")
    return {asn for asn, text in registry if any(t in text.lower() for t in tokens)}


# regex metacharacters, case pairs, and characters whose lowercase is longer or another letter
SPOT_ALPHABET = "ab.*+?()[]{}|^$\\ -AB\u0130\u0131\u00df"


class TestCompiledSearches:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text(SPOT_ALPHABET, max_size=4), max_size=5),
        st.lists(st.text(SPOT_ALPHABET, max_size=12), max_size=8),
    )
    def test_spot_keywords_matches_the_token_scan(self, keywords, descriptions):
        registry = list(enumerate(descriptions, 1))
        try:
            expected = spot_keywords_by_scan(keywords, registry)
        except ValueError:
            with pytest.raises(ValueError):
                spot_keywords(keywords, registry)
        else:
            assert spot_keywords(keywords, registry) == expected

    def test_space_search_finds_what_isspace_finds_on_every_code_point(self):
        """The registry splits a line at its first \\s, which str.isspace defines."""
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        found = {m.start() for m in _SPACE.finditer(text)}
        assert found == {i for i, ch in enumerate(text) if ch.isspace()}


class TestClassifyByAsn:
    def test_hit(self):
        assert classify_by_asn([10913], {10913}) is True

    def test_miss(self):
        assert classify_by_asn([3320], {10913}) is False

    def test_empty_pairs(self):
        assert classify_by_asn([], {10913}) is False


def agreement_of(labels, external):
    """The agreement.json object of (domain, by_chain) labels, tallied as classify tallies them."""
    agreement = Agreement()
    for domain, by_chain in labels:
        agreement.add(by_chain, external_label(external, domain))
    return agreement.doc()


class TestCompareExternal:
    def test_no_labels_rejected(self):
        with pytest.raises(ValueError):
            Agreement().doc()

    def test_full_agreement(self):
        labels = [(f"d{i}.example", True) for i in range(3)]
        doc = agreement_of(labels, {f"d{i}.example": True for i in range(3)})
        assert doc["agree"] == 1.0
        assert doc["coverage"] == 1.0

    def test_half_coverage(self):
        labels = [(f"d{i}.example", True) for i in range(4)]
        doc = agreement_of(labels, {"d0.example": True, "d1.example": False})
        assert doc["coverage"] == 0.5
        assert doc["agree"] == 0.5

    def test_confusion_cell_heuristic_true_external_false(self):
        doc = agreement_of([("d.example", True)], {"d.example": False})
        assert doc["confusion"] == {"00": 0, "01": 0, "10": 1, "11": 0}
        assert doc["agree"] == 0.0

    def test_no_external_label_leaves_agree_null(self):
        doc = agreement_of([("d.example", True)], {"e.example": True})
        assert doc == {"coverage": 0.0, "agree": None,
                       "confusion": {"00": 0, "01": 0, "10": 0, "11": 0}}

    def test_bounds(self):
        labels = [(f"d{i}.example", i % 2 == 0) for i in range(6)]
        external = {"d0.example": False, "d1.example": False, "d2.example": True}
        doc = agreement_of(labels, external)
        assert 0 <= doc["coverage"] <= 1
        assert 0 <= doc["agree"] <= 1
        assert sum(doc["confusion"].values()) == 3

    @given(st.lists(st.tuples(st.booleans(), st.sampled_from([None, False, True])), min_size=1))
    def test_shares_are_the_exact_fractions_rounded(self, labels):
        agreement = Agreement()
        for by_chain, external in labels:
            agreement.add(by_chain, external)
        matched = [(h, e) for h, e in labels if e is not None]
        agreed = sum(h == e for h, e in matched)
        doc = agreement.doc()
        assert doc["coverage"] == fraction_to_float(Fraction(len(matched), len(labels)))
        assert doc["agree"] == (
            fraction_to_float(Fraction(agreed, len(matched))) if matched else None
        )


class TestExternalLabel:
    def test_www_name_falls_back_to_base_name(self):
        assert external_label({"d.example": True}, "www.d.example") is True

    def test_own_label_wins_over_base_name(self):
        assert external_label({"d.example": True, "www.d.example": False}, "www.d.example") is False

    def test_only_www_falls_back(self):
        assert external_label({"d.example": True}, "cdn.d.example") is None
        assert external_label({"www.d.example": True}, "d.example") is None


class TestLoaders:
    def test_default_keywords_ship_the_operator_names(self):
        keywords = load_keywords()
        assert "akamai" in keywords and "yottaa" in keywords
        assert len(keywords) == 16

    def test_keyword_file_comments_and_case(self):
        assert load_keywords(["# c\n", "Akamai\r\n", "\n", " fastly # cdn"]) == ["akamai", "fastly"]

    def test_registry_whitespace_form(self):
        entries = sorted_entries("AS10913  INTERNAP-BLK\n3320\tDTAG Deutsche Telekom\n")
        assert entries == [
            (3320, "DTAG Deutsche Telekom"),
            (10913, "INTERNAP-BLK"),
        ]

    def test_registry_csv_form(self):
        entries = sorted_entries('10913,INTERNAP-BLK\n16509,"Amazon.com, Inc."\n')
        assert entries == [
            (10913, "INTERNAP-BLK"),
            (16509, "Amazon.com, Inc."),
        ]

    def test_registry_duplicate_asn_counted(self):
        diag = Diagnostics()
        entries = sorted_entries("1 first\n1 second\n", diag)
        assert entries == [(1, "first")]
        assert diag.get("duplicate_registry_asns") == 1

    def test_registry_malformed_counted(self):
        diag = Diagnostics()
        sorted_entries("notanasn description\n", diag)
        assert diag.get("malformed_registry_lines") == 1

    @pytest.mark.parametrize(
        "line", ["AS1_0 ten", "+7 seven", "\u0665 five", "1_0,ten", "AS4294967296 too big"]
    )
    def test_registry_asn_is_an_ascii_decimal(self, line):
        diag = Diagnostics()
        assert sorted_entries(line + "\n", diag) == []
        assert diag.get("malformed_registry_lines") == 1

    def test_external_labels(self):
        raw = "d.example,1\nwйird,1\ne.example,0\nf.example,2\n"
        labels = load_external_labels(raw.splitlines(keepends=True))
        assert labels == {"d.example": True, "e.example": False}


# ---------------------------------------------------------------------------
# The classify stage's streamed registry pass, against the whole-text parser


def reference_registry(text):
    """Entries and counters of the whole-text parser that preceded ``registry_entries``."""
    diag = Diagnostics()
    entries = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        comma = line.find(",")
        space = next((i for i, ch in enumerate(line) if ch.isspace()), len(line))
        if 0 <= comma < space:
            row = next(csv.reader(io.StringIO(line)), None)
            field, description = (None, "")
            if row and len(row) > 1:
                field, description = row[0], ",".join(row[1:])
        else:
            field, description = (line[:space], line[space:]) if space < len(line) else (None, "")
        try:
            asn = parse_asn(field)
        except (ValueError, AttributeError):  # AttributeError: no field
            diag.count("malformed_registry_lines")
            continue
        if asn in entries:
            diag.count("duplicate_registry_asns")
            continue
        entries[asn] = (asn, description.strip())
    return [entries[asn] for asn in sorted(entries)], diag.as_dict()


REGISTRY_DESCRIPTIONS = ["Example Networks", "AKAMAI-EDGE Akamai Intl", "Fastly, Inc.",
                         "cloudflarenet", "", "  Transit  Co ", "Amazon.com, Inc."]


@st.composite
def registry_text(draw):
    """Registry lines in both forms, ASNs from a small pool (many repeats), junk lines."""
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        asn = draw(st.sampled_from([1, 7, 13, 64500, 64501, 99999, 4200000000]))
        name = draw(st.sampled_from(["AS", "as", ""])) + str(asn)
        description = draw(st.sampled_from(REGISTRY_DESCRIPTIONS))
        line = draw(st.sampled_from([
            f"{name}  {description}", f"{name}\t{description}", f"{name},{description}",
            f'{name},"{description}"', f" {name} {description} ", f"{name},{description},x",
            name, f"{name},", "# comment", "", "notanasn description", "AS1_0 ten",
            f'"{name}",{description}', f"{name} {description}",
        ]))
        lines.append(line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


class TestStreamedRegistryPath:
    @settings(max_examples=200, deadline=None)
    @given(registry_text())
    def test_stage_pass_matches_parse_as_registry(self, tmp_path_factory, text):
        keywords = load_keywords()
        entries, counts = reference_registry(text)
        diag = Diagnostics()
        assert sorted_entries(text, diag) == entries
        assert diag.as_dict() == counts
        path = tmp_path_factory.mktemp("registry") / "as_registry.txt"
        path.write_bytes(text.encode("utf-8"))
        streamed = Diagnostics()
        cdn_asns = spot_keywords(
            keywords, registry_entries(_text_lines(open(path, "rb"), "AS registry"), streamed)
        )
        assert cdn_asns == spot_keywords(keywords, sorted_entries(text)) == spot_keywords(
            keywords, entries
        )
        assert streamed.as_dict() == counts

    def test_first_entry_for_an_asn_wins_over_a_later_match(self):
        text = "AS64500  Example Networks\nAS7 Akamai\nAS64500  Akamai Intl\nAS7 nothing\n"
        diag = Diagnostics()
        cdn_asns = spot_keywords(["akamai"], registry_entries(text.split("\n"), diag))
        assert cdn_asns == spot_keywords(["akamai"], sorted_entries(text)) == {7}
        assert diag.get("duplicate_registry_asns") == 2

    def test_out_of_order_asns_are_still_seen(self):
        lines = ["AS5 a", "AS3 b", "AS9 c", "AS3 d", "AS4 e", "AS9 f", "AS5 g", "AS1 h", "AS4 i"]
        diag = Diagnostics()
        assert [asn for asn, _ in registry_entries(lines, diag)] == [5, 3, 9, 4, 1]
        assert diag.get("duplicate_registry_asns") == 4
