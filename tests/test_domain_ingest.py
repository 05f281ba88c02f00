import pytest
from hypothesis import given
from hypothesis import strategies as st

from rpkiaudit.diagnostics import Diagnostics
from rpkiaudit.domain_ingest import (
    ListFormat,
    NameIndex,
    Variant,
    normalize_name,
    read_domain_list,
    www_variant,
)
from rpkiaudit.errors import DataError


def ranked(text, fmt=ListFormat.CSV_RANK_DOMAIN, diag=None):
    """The list's (rank, name) pairs, ascending by rank."""
    ranks = read_domain_list(text.split("\n"), fmt, diag).ranks
    return sorted((rank, name) for name, rank in ranks.items())


class TestLoadDomainList:
    def test_csv_two_rows(self):
        assert ranked("1,google.com\n2,facebook.com") == [(1, "google.com"), (2, "facebook.com")]

    def test_empty_input_raises(self):
        with pytest.raises(DataError, match="no valid records"):
            ranked("")

    def test_duplicate_rank_raises(self):
        with pytest.raises(DataError, match="rank 1 repeats"):
            ranked("1,EXAMPLE.Com.\n1,other.net")

    def test_lowercase_and_trailing_dot_normalized(self):
        assert ranked("7,EXAMPLE.Com.") == [(7, "example.com")]

    def test_duplicate_name_keeps_lowest_rank(self):
        diag = Diagnostics()
        pairs = ranked("5,example.com\n2,other.net\n9,example.com", diag=diag)
        assert pairs == [(2, "other.net"), (5, "example.com")]
        assert diag.get("duplicate_names") == 1

    def test_malformed_lines_skipped_and_counted(self):
        diag = Diagnostics()
        pairs = ranked(
            "1,good.com\nnot a line\n0,badrank.com\n3,bad domain.com\n4,ok.net",
            diag=diag,
        )
        assert [name for _, name in pairs] == ["good.com", "ok.net"]
        assert diag.get("malformed_lines") == 3

    @pytest.mark.parametrize(
        "rank", ["1_0", "+7", "-3", "\u0665", "0", "", pytest.param("9" * 5000, id="5000_digits")]
    )
    def test_rank_is_a_positive_ascii_decimal(self, rank):
        diag = Diagnostics()
        assert ranked(f"{rank},a.com\n2,b.com", diag=diag) == [(2, "b.com")]
        assert diag.get("malformed_lines") == 1

    def test_plain_format_rank_is_line_number(self):
        pairs = ranked("alpha.com\nbeta.com\n\ngamma.com", ListFormat.PLAIN_ORDERED)
        assert pairs == [(1, "alpha.com"), (2, "beta.com"), (4, "gamma.com")]

    def test_crlf_lines(self):
        assert ranked("1,a.com\r\n2,b.com\r\n") == [(1, "a.com"), (2, "b.com")]

    def test_raw_unicode_rejected_punycode_kept(self):
        diag = Diagnostics()
        pairs = ranked("1,münchen.de\n2,xn--mnchen-3ya.de", diag=diag)
        assert pairs == [(2, "xn--mnchen-3ya.de")]
        assert diag.get("malformed_lines") == 1

    def test_load_determinism(self):
        data = "3,c.org\n1,a.org\n2,b.org\nbroken\n"
        assert ranked(data) == ranked(data)


class TestNormalizeName:
    @pytest.mark.parametrize(
        "raw",
        ["", ".", "a..b", "-leading.com", "trailing-.com", "a" * 64 + ".com",
         "b" * 254, "white space.com", "café.fr"],
    )
    def test_rejects(self, raw):
        assert normalize_name(raw) is None

    def test_max_total_length_boundary(self):
        name = ".".join(["a" * 63] * 3 + ["a" * 61])  # 253 octets
        assert normalize_name(name) == name
        assert normalize_name(name + "b") is None


def label_loop(raw):
    """normalize_name as a loop over the labels: the reference the pattern is held to."""
    name = raw.strip().lower()
    if name.endswith("."):
        name = name[:-1]
    if not name or len(name) > 253 or not name.isascii():
        return None
    for label in name.split("."):
        if not 1 <= len(label) <= 63:
            return None
        if label[0] == "-" or label[-1] == "-":
            return None
        if not set(label) <= set("abcdefghijklmnopqrstuvwxyz0123456789-_"):
            return None
    return name


NAME_CASES = [
    "Example.COM", "example.com.", "EXAMPLE.COM.", "example.com..", ".example.com", ".",
    "\u212a.example", "ma\u212ae.example", "\u0130stanbul.example", "\u0131.example",
    "a" * 63 + ".example", "a" * 64 + ".example", "x." + "a" * 63, "x." + "a" * 64,
    ".".join(["a" * 63] * 3 + ["a" * 61]), ".".join(["a" * 63] * 3 + ["a" * 62]),
    ".".join(["a" * 63] * 3 + ["a" * 61]) + ".", ".".join(["a" * 63] * 3 + ["a" * 62]) + ".",
    "-a.example", "a-.example", "a.-b", "a.b-", "-", "a-b.example", "a--b.example",
    "_dmarc.example", "_", "a_.example", "a..b", "a...b", "..",
    "\u00a0example.com\u2003", "\u3000www.example.com.\u2028", "\texample.com\n", "\x1cexample.com",
    "exa mple.com", "example.com/", "caf\u00e9.fr", "example.com\u0000", "",
]


class TestNormalizeNameAgainstTheLabelLoop:
    @pytest.mark.parametrize("raw", NAME_CASES)
    def test_cases(self, raw):
        assert normalize_name(raw) == label_loop(raw)

    @given(st.one_of(
        st.text(),
        st.text(alphabet="aZ09-_.\u212a\u0130 \t\u00a0", max_size=80),
        st.lists(st.text(alphabet="ab-_", min_size=0, max_size=66), max_size=6).map(".".join),
    ))
    def test_strings(self, raw):
        assert normalize_name(raw) == label_loop(raw)


def tasks(text):
    """The (rank, variant, name) tasks resolve asks for a list."""
    return list(read_domain_list(text.split("\n")).tasks())


class TestExpandVariants:
    def test_base_expands_to_both(self):
        assert tasks("1,example.com") == [
            (1, Variant.BASE, "example.com"),
            (1, Variant.WWW, "www.example.com"),
        ]

    def test_www_base_not_double_prefixed(self):
        assert www_variant("www.huffingtonpost.com") is None
        assert tasks("73,www.huffingtonpost.com") == [(73, Variant.BASE, "www.huffingtonpost.com")]

    def test_unrelated_www_substring_still_expands(self):
        assert www_variant("wwwfoo.com") == "www.wwwfoo.com"
        assert len(tasks("9,wwwfoo.com")) == 2

    def test_table2_akamaihd_name_gets_both_variants(self):
        assert [name for _, _, name in tasks("70,cdncache1-a.akamaihd.net")] == [
            "cdncache1-a.akamaihd.net",
            "www.cdncache1-a.akamaihd.net",
        ]

    def test_idempotent_over_own_output(self):
        # a www name has no www name of its own, so expanding the expansion adds nothing
        names = [name for _, _, name in tasks("5,idempotent.org")]
        assert [www_variant(name) for name in names] == ["www.idempotent.org", None]
        www_name = www_variant(names[0])
        assert tasks(f"5,{www_name}") == [(5, Variant.BASE, www_name)]

    def test_too_long_a_name_has_no_www_variant(self):
        fits, too_long = (".".join(["a" * 63] * 3 + ["a" * n]) for n in (57, 58))
        assert (len(fits), len(too_long)) == (249, 250)  # www. makes 253 and 254 octets
        assert www_variant(fits) == "www." + fits
        assert www_variant(too_long) is None
        assert tasks(f"1,{too_long}") == [(1, Variant.BASE, too_long)]


NAMES = st.sampled_from(
    ["a.test", "b.test", "www.a.test", "www.www.a.test", "www", "www.test", "c.test"]
)


class TestNameIndex:
    def test_reads_one_line_at_a_time(self):
        lines = iter(["3,c.test\n", "1,a.test\r\n", "\n", "2,b.test"])
        assert read_domain_list(lines).ranks == {"c.test": 3, "a.test": 1, "b.test": 2}

    @given(st.lists(st.tuples(st.integers(1, 12), NAMES), max_size=12))
    def test_duplicate_rank_raises_in_any_order(self, entries):
        # ranks that ascend are kept in no set until they stop ascending or a name repeats
        text = "".join(f"{rank},{name}\n" for rank, name in entries)
        ranks = [rank for rank, _ in entries]
        if len(set(ranks)) < len(ranks):
            with pytest.raises(DataError, match="repeats"):
                read_domain_list(text.split("\n"))
        elif entries:
            lowest = {}
            for rank, name in entries:
                lowest[name] = min(lowest.get(name, rank), rank)
            assert read_domain_list(text.split("\n")).ranks == lowest

    @pytest.mark.parametrize(
        "text", ["1,a.test\n5,a.test\n3,b.test\n5,c.test", "1,a.test\n2,a.test\n2,b.test",
                 "2,a.test\n1,b.test\n2,c.test"],
    )
    def test_rank_after_a_repeat_or_a_descent_is_still_checked(self, text):
        with pytest.raises(DataError, match="repeats"):
            read_domain_list(text.split("\n"))

    @given(st.lists(NAMES, min_size=1, max_size=8, unique=True), st.randoms())
    def test_tasks_and_turns_are_www_variants_in_rank_order(self, names, rnd):
        ranks = list(range(1, len(names) + 1))
        rnd.shuffle(ranks)
        text = "".join(f"{rank},{name}\n" for rank, name in zip(ranks, names))
        index = read_domain_list(text.split("\n"))
        expected = []
        for rank, name in sorted(zip(ranks, names)):
            expected.append((rank, Variant.BASE, name))
            if name.split(".")[0] != "www":  # the www rule, spelled out for these short names
                expected.append((rank, Variant.WWW, "www." + name))
        assert list(index.tasks()) == expected
        assert index.task_count() == len(expected)
        turns = {}
        for rank, variant, name in expected:
            turn = 2 * rank + (variant is Variant.WWW)
            assert NameIndex.task(turn) == (rank, variant)
            turns[name] = turns.get(name, ()) + (turn,)
        for name in ["q.test", "www.q.test", *names, *("www." + n for n in names)]:
            assert index.turns(name) == tuple(sorted(turns.get(name, ())))
