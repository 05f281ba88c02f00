import ipaddress
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rpkiaudit.analytics import (
    BinnedSums,
    BinStat,
    CoverageClass,
    DomainCoverage,
    OverallRates,
    coverage_report,
    domain_coverage,
    prefix_overlap,
    rank_rows,
    row_coverage,
)
from rpkiaudit.rib_store import PrefixOriginPair
from rpkiaudit.roa_validation import ValidationState
from rpkiaudit.vocabulary import Variant, coverage_class, covered_share, format_fraction
from rpkiaudit.vocabulary import fraction_to_float

V, I, N = ValidationState.VALID, ValidationState.INVALID, ValidationState.NOT_FOUND


def pair(prefix, asn=64500):
    return PrefixOriginPair(ipaddress.ip_network(prefix), asn)


def cov(domain, valid=0, invalid=0, notfound=0):
    states = []
    slot = 0
    for state, count in ((V, valid), (I, invalid), (N, notfound)):
        for _ in range(count):
            states.append((pair(f"10.{slot}.0.0/24"), state))
            slot += 1
    return domain_coverage(domain, states)


def summed(coverages, labels, bin_size=10):
    """Every (rank, coverage) added to one BinnedSums, CDN where ``labels`` says so."""
    sums = BinnedSums(bin_size)
    for rank, c in coverages:
        sums.add(rank, c, labels.get(c.domain, False))
    return sums


def bin_stats(coverages, labels, max_rank, bin_size):
    """The bin series of (rank, coverage) rows over [1, max_rank]."""
    return summed(coverages, labels, bin_size).stats(max_rank)


def cdn_and_all(coverages, labels, max_rank, bin_size):
    """(CDN-only, all-domains) bin series: analyze's two sums per variant."""
    cdn_only = [(r, c) for r, c in coverages if labels.get(c.domain, False)]
    return (
        bin_stats(cdn_only, labels, max_rank, bin_size),
        bin_stats(coverages, labels, max_rank, bin_size),
    )


def overall(coverages):
    """The overall rates of the coverages, at ranks 1, 2, ... in one sum."""
    return summed(enumerate(coverages, 1), {}).rates()


def bounds(max_rank, bin_size):
    """The (lo, hi) of each bin of [1, max_rank]."""
    return [(s.lo, s.hi) for s in BinnedSums(bin_size).stats(max_rank)]


class TestBinBounds:
    def test_million_domains_hundred_bins(self):
        bins = bounds(1_000_000, 10_000)
        assert len(bins) == 100
        assert bins[0] == (1, 10_000)
        assert bins[-1] == (990_001, 1_000_000)

    def test_five_records_one_short_bin(self):
        assert bounds(5, 10) == [(1, 5)]

    def test_25_records_bin_size_10(self):
        assert bounds(25, 10) == [(1, 10), (11, 20), (21, 25)]

    def test_empty_records_no_bins(self):
        assert bounds(0, 10) == []

    @given(st.integers(1, 2000), st.integers(1, 400), st.data())
    def test_partition_property(self, max_rank, bin_size, data):
        bins = bounds(max_rank, bin_size)
        assert bins[0][0] == 1 and bins[-1][1] == max_rank
        assert all(a[1] + 1 == b[0] for a, b in zip(bins, bins[1:]))
        rank = data.draw(st.integers(1, max_rank))
        # the one bin whose bounds hold the rank is the bin add counts it in
        stats = bin_stats([(rank, cov("x.example", valid=1))], {}, max_rank, bin_size)
        assert [s.lo <= rank <= s.hi for s in stats] == [s.domain_count == 1 for s in stats]

    def test_rank_outside_partition_raises(self):
        sums = BinnedSums(10)
        sums.add(21, DomainCoverage("x.example", 1, 0, 0), False)
        with pytest.raises(ValueError):
            sums.stats(20)


class TestDomainCoverage:
    def test_three_of_three_valid_is_full(self):
        c = cov("facebook.com", valid=3)
        assert c.covered_fraction == Fraction(1)
        assert c.classification is CoverageClass.FULL
        assert (c.covered_count, c.total_pairs) == (3, 3)

    def test_one_of_three_covered_is_partial(self):
        c = cov("huffingtonpost.com", valid=1, notfound=2)
        assert c.covered_fraction == Fraction(1, 3)
        assert c.classification is CoverageClass.PARTIAL

    def test_zero_of_three_is_none(self):
        c = cov("unprotected.example", notfound=3)
        assert c.covered_fraction == Fraction(0)
        assert c.classification is CoverageClass.NONE

    def test_three_of_five_is_sixty_percent(self):
        c = cov("foo.bar", valid=2, invalid=1, notfound=2)
        assert c.covered_fraction == Fraction(3, 5)
        assert float(c.covered_fraction) == 0.6

    def test_no_pairs_is_nodata(self):
        c = domain_coverage("silent.example", [])
        assert c.classification is CoverageClass.NO_DATA
        assert c.covered_fraction == Fraction(0)

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_validate_share_and_class_match_the_exact_coverage(self, valid, invalid, notfound):
        # validate writes covered_share and coverage_class, which use no Fraction
        c = DomainCoverage("x.example", valid, invalid, notfound)
        assert covered_share(c.covered_count, c.total_pairs) == fraction_to_float(
            c.covered_fraction
        )
        assert c.classification is coverage_class(valid, invalid, notfound)

    def test_invalid_counts_as_covered(self):
        c = cov("x.example", invalid=2)
        assert c.covered_fraction == Fraction(1)
        assert (c.covered_count, c.total_pairs) == (2, 2)

    def test_identical_duplicates_collapse(self):
        p = pair("10.0.0.0/24")
        c = domain_coverage("dup.example", [(p, V), (p, V)])
        assert c.total_pairs == 1

    def test_conflicting_duplicates_rejected(self):
        p = pair("10.0.0.0/24")
        with pytest.raises(ValueError):
            domain_coverage("conflict.example", [(p, V), (p, N)])

    def test_state_text_counts_as_its_member(self):
        # validated.jsonl's states are counted as read; text built at run time is not interned
        text = ["valid", "invalid", "".join(["not", "found"]), "notfound"]
        rows = [(pair(f"10.{i}.0.0/24"), state) for i, state in enumerate(text)]
        members = [(p, ValidationState(state)) for p, state in rows]
        c = domain_coverage("t.example", rows)
        assert c == domain_coverage("t.example", members)
        assert (c.valid, c.invalid, c.notfound) == (1, 1, 2)
        p = pair("10.0.0.0/24")
        assert domain_coverage("t.example", [(p, "valid"), (p, "".join(["val", "id"]))]).valid == 1

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            domain_coverage("u.example", [(pair("10.0.0.0/24"), "bogus")])

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    def test_fraction_closure(self, valid, invalid, notfound):
        if valid + invalid + notfound == 0:
            assert domain_coverage("e.example", []).covered_fraction == 0  # no pairs, no cover
            return
        c = cov("e.example", valid, invalid, notfound)
        assert c.covered_fraction + Fraction(notfound, c.total_pairs) == 1
        assert c.covered_fraction == Fraction(valid + invalid, valid + invalid + notfound)
        assert 0 <= c.covered_fraction <= 1


class TestPrefixOverlap:
    A = ipaddress.ip_network("10.0.0.0/16")
    B = ipaddress.ip_network("10.1.0.0/16")
    C = ipaddress.ip_network("10.2.0.0/16")

    def test_identical_sets(self):
        assert prefix_overlap({self.A}, {self.A}) == Fraction(1)

    def test_disjoint_sets(self):
        assert prefix_overlap({self.A}, {self.B}) == Fraction(0)

    def test_partial_jaccard_third(self):
        assert prefix_overlap({self.A, self.B}, {self.B, self.C}) == Fraction(1, 3)

    def test_both_empty_nodata(self):
        assert prefix_overlap(set(), set()) is None

    def test_one_empty_zero(self):
        assert prefix_overlap({self.A}, set()) == Fraction(0)

    @given(
        st.sets(st.integers(0, 5), max_size=5),
        st.sets(st.integers(0, 5), max_size=5),
    )
    def test_symmetry_and_bounds(self, xs, ys):
        nets = [ipaddress.ip_network(f"10.{i}.0.0/16") for i in range(6)]
        a = {nets[i] for i in xs}
        b = {nets[i] for i in ys}
        fwd = prefix_overlap(a, b)
        rev = prefix_overlap(b, a)
        assert fwd == rev
        if fwd is not None:
            assert 0 <= fwd <= 1
            assert (fwd == 1) == (a == b)


class TestBinAggregate:
    def test_single_bin_mean(self):
        coverages = [(1, cov("a.example", valid=1)), (2, cov("b.example", notfound=1))]
        stats = bin_stats(coverages, {}, 2, 10)
        assert len(stats) == 1
        assert stats[0].mean_covered == Fraction(1, 2)
        assert stats[0].domain_count == 2
        assert stats[0].data_count == 2

    def test_nodata_only_bin_emits_empty_means(self):
        coverages = [(1, domain_coverage("a.example", [])), (2, domain_coverage("b.example", []))]
        stats = bin_stats(coverages, {}, 2, 10)
        assert stats[0].mean_covered is None
        assert stats[0].domain_count == 2
        assert stats[0].data_count == 0

    def test_nodata_excluded_from_means_but_counted(self):
        coverages = [
            (1, cov("a.example", valid=1)),
            (2, domain_coverage("b.example", [])),
            (3, cov("c.example", notfound=1)),
        ]
        stats = bin_stats(coverages, {}, 3, 10)
        assert stats[0].mean_covered == Fraction(1, 2)
        assert stats[0].domain_count == 3
        assert stats[0].data_count == 2

    def test_thirty_domains_three_bins_spreadsheet(self):
        # design: (rank, valid, invalid, notfound); expected means built up
        # independently with plain Fraction arithmetic
        design = [
            (rank, rank % 3, rank % 2, 1 + (rank % 4)) for rank in range(1, 31)
        ]
        coverages = [
            (rank, cov(f"d{rank}.example", v, i, n)) for rank, v, i, n in design
        ]
        stats = bin_stats(coverages, {}, 30, 10)
        assert [(s.lo, s.hi) for s in stats] == [(1, 10), (11, 20), (21, 30)]

        for stat in stats:
            rows = [(v, i, n) for rank, v, i, n in design if stat.lo <= rank <= stat.hi]
            exp_covered = sum(
                (Fraction(v + i, v + i + n) for v, i, n in rows), Fraction(0)
            ) / len(rows)
            exp_valid = sum(
                (Fraction(v, v + i + n) for v, i, n in rows), Fraction(0)
            ) / len(rows)
            assert stat.mean_covered == exp_covered
            assert stat.mean_valid == exp_valid
            assert stat.domain_count == len(rows)

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.booleans()),
            max_size=40,
        ),
        st.integers(1, 7),
    )
    def test_means_equal_the_per_domain_fraction_sums(self, design, bin_size):
        # the reference sums each domain's own Fractions, as the paper's means read
        coverages = [
            (rank, DomainCoverage(f"d{rank}.example", v, i, n))
            for rank, (v, i, n, _) in enumerate(design, 1)
        ]
        labels = {f"d{rank}.example": cdn for rank, (*_, cdn) in enumerate(design, 1)}
        max_rank = len(design)
        bins = [(lo, min(lo + bin_size - 1, max_rank)) for lo in range(1, max_rank + 1, bin_size)]

        expected = []
        for lo, hi in bins:
            rows = [c for rank, c in coverages if lo <= rank <= hi]
            data = [c for c in rows if c.total_pairs]
            cdn = Fraction(sum(labels[c.domain] for c in rows), len(rows))
            if not data:
                expected.append(BinStat(lo, hi, None, None, None, None, cdn, len(rows), 0))
                continue

            def mean(share):
                return sum((share(c) for c in data), Fraction(0)) / len(data)

            expected.append(
                BinStat(
                    lo,
                    hi,
                    mean(lambda c: Fraction(c.valid + c.invalid, c.total_pairs)),
                    mean(lambda c: Fraction(c.valid, c.total_pairs)),
                    mean(lambda c: Fraction(c.invalid, c.total_pairs)),
                    mean(lambda c: Fraction(c.notfound, c.total_pairs)),
                    cdn,
                    len(rows),
                    len(data),
                )
            )
        sums = summed(coverages, labels, bin_size)
        assert sums.stats(max_rank) == expected

        data = [c for _, c in coverages if c.total_pairs]
        total_pairs = sum(c.total_pairs for c in data)
        covered_pairs = sum(c.valid + c.invalid for c in data)
        shares = [Fraction(c.valid + c.invalid, c.total_pairs) for c in data]
        assert sums.rates() == OverallRates(
            len(coverages),
            len(data),
            total_pairs,
            covered_pairs,
            sum(shares, Fraction(0)) / len(data) if data else None,
            Fraction(covered_pairs, total_pairs) if total_pairs else None,
        )

    def test_cdn_fraction_counts_labeled_chain_domains(self):
        coverages = [(r, cov(f"d{r}.example", valid=1)) for r in range(1, 5)]
        labels = {"d1.example": True, "d2.example": False, "d3.example": True}
        stats = bin_stats(coverages, labels, 4, 10)
        assert stats[0].cdn_fraction == Fraction(2, 4)

    def test_bin_mean_consistency_identity(self):
        coverages = [
            (r, cov(f"d{r}.example", valid=r % 2, notfound=1 + r % 3))
            for r in range(1, 21)
        ]
        stats = bin_stats(coverages, {}, 20, 5)
        for stat in stats:
            members = [
                c for r, c in coverages
                if stat.lo <= r <= stat.hi
                and c.classification is not CoverageClass.NO_DATA
            ]
            total = sum((c.covered_fraction for c in members), Fraction(0))
            assert stat.mean_covered * stat.data_count == total

    def test_rank_outside_bins_rejected(self):
        with pytest.raises(ValueError):
            bin_stats([(11, cov("x.example", valid=1))], {}, 10, 10)
        sums = BinnedSums(10)
        sums.add(0, cov("x.example", valid=1), False)
        with pytest.raises(ValueError):
            sums.stats(10)


class TestCdnConditionalRates:
    def test_cdn_zero_overall_third(self):
        coverages = [
            (1, cov("cdn1.example", notfound=1)),
            (2, cov("cdn2.example", notfound=1)),
            (3, cov("plain.example", valid=1)),
        ]
        labels = {"cdn1.example": True, "cdn2.example": True, "plain.example": False}
        cdn_series, all_series = cdn_and_all(coverages, labels, 3, 10)
        assert cdn_series[0].mean_covered == Fraction(0)
        assert all_series[0].mean_covered == Fraction(1, 3)

    def test_no_cdn_domains_in_bin_gives_empty_series(self):
        coverages = [(1, cov("a.example", valid=1)), (2, cov("b.example", valid=1))]
        cdn_series, _ = cdn_and_all(coverages, {}, 2, 10)
        assert cdn_series[0].mean_covered is None
        assert cdn_series[0].domain_count == 0

    def test_all_cdn_series_equal(self):
        coverages = [(1, cov("a.example", valid=1)), (2, cov("b.example", notfound=2))]
        labels = {"a.example": True, "b.example": True}
        cdn_series, all_series = cdn_and_all(coverages, labels, 2, 10)
        assert [s.mean_covered for s in cdn_series] == [s.mean_covered for s in all_series]
        assert [s.data_count for s in cdn_series] == [s.data_count for s in all_series]


def ranked(rank, name, www, base):
    """A rank as ``rank_rows`` yields it, holding the given variants' coverage."""
    given = ((Variant.WWW, www), (Variant.BASE, base))
    return rank, name, {v: ({}, c, None) for v, c in given if c is not None}


class TestCoverageReport:
    def test_facebook_style_row(self):
        www, base = cov("www.facebook.com", valid=3), cov("facebook.com", valid=2)
        rows = coverage_report([ranked(2, "facebook.com", www, base)], top_n=10)
        assert len(rows) == 1
        row = rows[0]
        assert row.www_cell == "✓(3/3)"
        assert row.base_cell == "✓(2/2)"

    def test_partial_and_none_cells(self):
        rows = coverage_report(
            [
                ranked(
                    73,
                    "huffingtonpost.com",
                    cov("www.huffingtonpost.com", valid=1, notfound=2),
                    cov("huffingtonpost.com", notfound=3),
                )
            ],
            top_n=10,
        )
        assert rows[0].www_cell == "◖(1/3)"
        assert rows[0].base_cell == "✗(0/3)"

    def test_unresolved_variant_renders_na(self):
        www = cov("www.cdncache1-a.akamaihd.net", valid=1, notfound=2)
        rows = coverage_report([ranked(70, "cdncache1-a.akamaihd.net", www, None)], top_n=10)
        assert rows[0].base_cell == "n/a"

    def test_all_uncovered_empty_report(self):
        rows = coverage_report(
            [
                ranked(
                    1, "a.example", cov("www.a.example", notfound=2), cov("a.example", notfound=1)
                ),
                ranked(2, "b.example", None, domain_coverage("b.example", [])),
            ],
            top_n=10,
        )
        assert rows == []

    def test_rows_ascend_in_rank_and_cut_at_top_n(self):
        inputs = [
            ranked(rank, f"d{rank}.example", cov(f"www.d{rank}.example", valid=1), None)
            for rank in (3, 5, 17, 40, 99)
        ]
        rows = coverage_report(inputs, top_n=3)
        assert [r.rank for r in rows] == [3, 5, 17]

    def test_ranks_past_top_n_are_still_read(self):
        inputs = iter([ranked(r, f"d{r}.example", cov(f"d{r}.example", valid=1), None)
                       for r in (1, 2, 3)])
        assert [r.rank for r in coverage_report(inputs, top_n=1)] == [1]
        assert next(inputs, None) is None

    def test_top_n_must_be_positive(self):
        with pytest.raises(ValueError):
            coverage_report([], top_n=0)


def vrow(rank, domain, variant, *pairs):
    """A validated.jsonl row; each pair is (prefix, asn, state)."""
    return {"rank": rank, "domain": domain, "variant": variant,
            "pairs": [{"prefix": p, "asn": a, "state": s} for p, a, s in pairs]}


class TestRankRows:
    def test_a_rank_holds_its_variants_and_the_base_name(self):
        base = vrow(1, "a.example", "base", ("192.0.2.0/24", 64500, "valid"))
        www = vrow(1, "www.a.example", "www", ("192.0.2.0/24", 64500, "notfound"))
        other = vrow(2, "b.example", "base")
        (rank, name, by_variant), second = rank_rows([(base, "b"), (www, "w"), (other, None)])
        assert (rank, name) == (1, "a.example")
        assert by_variant == {
            Variant.BASE: (base, DomainCoverage("a.example", 1, 0, 0), "b"),
            Variant.WWW: (www, DomainCoverage("www.a.example", 0, 0, 1), "w"),
        }
        assert second == (2, "b.example", {Variant.BASE: (other, cov("b.example"), None)})

    def test_www_only_rank_is_named_by_its_base_name(self):
        www = vrow(4, "www.c.example", "www")
        assert [name for _, name, _ in rank_rows([(www, None)])] == ["c.example"]

    def test_second_row_of_a_variant_rejected(self):
        rows = [(vrow(1, "a.example", "base"), None), (vrow(1, "b.example", "base"), None)]
        with pytest.raises(ValueError, match="second base row"):
            list(rank_rows(rows))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            list(rank_rows([(vrow(1, "a.example", "foo"), None)]))


class TestRowCoverage:
    def test_counts_distinct_pairs(self):
        row = vrow(1, "a.example", "base", ("192.0.2.0/24", 64500, "valid"),
                   ("192.0.2.0/24", 64500, "valid"), ("2001:db8::/32", 0, "invalid"))
        assert row_coverage(row) == DomainCoverage("a.example", 1, 1, 0)

    @pytest.mark.parametrize("prefix, asn", [
        (5, 64500), (None, 64500), (["192.0.2.0/24"], 64500),
        ("192.0.2.0/24", "x"), ("192.0.2.0/24", True), ("192.0.2.0/24", 1.0),
        ("192.0.2.0/24", None), ("192.0.2.0/24", -1), ("192.0.2.0/24", 2**32),
    ])
    def test_pair_must_be_prefix_text_and_plain_asn(self, prefix, asn):
        with pytest.raises(TypeError):
            row_coverage(vrow(1, "a.example", "base", (prefix, asn, "valid")))

    def test_largest_asn_accepted(self):
        row = vrow(1, "a.example", "base", ("192.0.2.0/24", 2**32 - 1, "valid"))
        assert row_coverage(row).valid == 1


class TestOverallRates:
    def test_both_weightings(self):
        coverages = [
            cov("a.example", valid=1, notfound=1),   # 1/2
            cov("b.example", valid=3),               # 3/3
            domain_coverage("c.example", []),        # excluded
        ]
        rates = overall(coverages)
        assert rates.domains == 3
        assert rates.domains_with_data == 2
        assert rates.domain_weighted_covered == Fraction(3, 4)  # (1/2 + 1) / 2
        assert rates.pair_weighted_covered == Fraction(4, 5)    # 4 covered of 5 pairs

    def test_empty(self):
        rates = overall([])
        assert rates.domain_weighted_covered is None
        assert rates.pair_weighted_covered is None


class TestSerialization:
    def test_fixed_six_decimals(self):
        assert format_fraction(Fraction(3, 5)) == "0.600000"
        assert format_fraction(Fraction(1, 3)) == "0.333333"
        assert format_fraction(None) == ""
