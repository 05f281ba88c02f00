"""Per-domain coverage, rank-binned statistics, variant overlap and reports.

All fractions are exact rationals; floats appear only when serializing
(6 decimal places).  A pair counts as covered iff its validation state is
anything other than not-found.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .domain_ingest import RankBin, bin_for_rank
from .roa_validation import ValidationState


class CoverageClass(enum.Enum):
    NONE = "none"
    PARTIAL = "partial"
    FULL = "full"
    NO_DATA = "nodata"


_CLASS_MARK = {
    CoverageClass.FULL: "✓",     # check mark
    CoverageClass.PARTIAL: "◖",  # half circle
    CoverageClass.NONE: "✗",     # cross
}


@dataclass(frozen=True, slots=True)
class DomainCoverage:
    """Validation-state counts of one domain's distinct pairs."""

    domain: str
    valid: int
    invalid: int
    notfound: int

    @property
    def total_pairs(self) -> int:
        return self.valid + self.invalid + self.notfound

    @property
    def covered_count(self) -> int:
        return self.valid + self.invalid

    def _share(self, count: int, empty: int = 0) -> Fraction:
        total = self.total_pairs
        return Fraction(count, total) if total else Fraction(empty)

    @property
    def covered_fraction(self) -> Fraction:
        return self._share(self.covered_count)

    @property
    def valid_fraction(self) -> Fraction:
        return self._share(self.valid)

    @property
    def invalid_fraction(self) -> Fraction:
        return self._share(self.invalid)

    @property
    def notfound_fraction(self) -> Fraction:
        return self._share(self.notfound, empty=1)  # no pairs: all not-found

    @property
    def classification(self) -> CoverageClass:
        if not self.total_pairs:
            return CoverageClass.NO_DATA
        if not self.notfound:
            return CoverageClass.FULL
        if not self.covered_count:
            return CoverageClass.NONE
        return CoverageClass.PARTIAL


def domain_coverage(
    domain: str, states: Iterable[tuple[Hashable, ValidationState]]
) -> DomainCoverage:
    """Count the validation states of a domain's pairs, keyed by any hashable pair.

    Identical duplicates collapse; a pair listed with two states is rejected.
    """
    by_pair: dict[Hashable, ValidationState] = {}
    for pair, state in states:
        if by_pair.setdefault(pair, state) is not state:
            raise ValueError(f"{domain}: pair {pair} has conflicting states")
    found = list(by_pair.values())
    return DomainCoverage(
        domain,
        found.count(ValidationState.VALID),
        found.count(ValidationState.INVALID),
        found.count(ValidationState.NOT_FOUND),
    )


@dataclass(frozen=True, slots=True)
class OverlapStat:
    domain: str
    overlap: Optional[Fraction]  # None = no data on either variant


def prefix_overlap(
    domain: str,
    www_prefixes: Iterable[Hashable],
    base_prefixes: Iterable[Hashable],
) -> OverlapStat:
    """Jaccard similarity of the two variants' prefix sets.

    Prefixes may be in any one canonical form; the pipeline passes the
    prefix text of its artifacts, where equal text means equal networks.
    """
    www = set(www_prefixes)
    base = set(base_prefixes)
    if not www and not base:
        return OverlapStat(domain, None)
    return OverlapStat(domain, Fraction(len(www & base), len(www | base)))


@dataclass(frozen=True)
class BinStat:
    bin: RankBin
    mean_covered: Optional[Fraction]
    mean_valid: Optional[Fraction]
    mean_invalid: Optional[Fraction]
    mean_notfound: Optional[Fraction]
    cdn_fraction: Optional[Fraction]
    domain_count: int
    data_count: int


def bin_aggregate(
    coverages: Iterable[tuple[int, DomainCoverage]],
    by_chain: Mapping[str, bool],
    bins: Sequence[RankBin],
) -> list[BinStat]:
    """Arithmetic bin means of the per-domain fractions.

    NoData domains are excluded from the means but counted in the bin; the
    cdn fraction is the share of binned domains whose chain label is true
    (unlabeled domains count as not CDN).
    """
    bin_list = list(bins)
    members: dict[int, list[tuple[DomainCoverage, bool]]] = {
        b.index: [] for b in bin_list
    }
    for rank, cov in coverages:
        rank_bin = bin_for_rank(bin_list, rank)
        members[rank_bin.index].append((cov, by_chain.get(cov.domain, False)))

    stats = []
    for rank_bin in bin_list:
        rows = members[rank_bin.index]
        # Domains grouped by their pair total: a mean is one Fraction per
        # distinct total over the summed counts, not one per domain.
        by_total: dict[int, list[DomainCoverage]] = {}
        for c, _ in rows:
            if c.total_pairs:  # NoData domains stay out of the means
                by_total.setdefault(c.total_pairs, []).append(c)
        cdn_count = sum(1 for _, is_cdn in rows if is_cdn)
        n_data = sum(map(len, by_total.values()))
        if n_data:

            def mean(count: str) -> Fraction:
                shares = (
                    Fraction(sum(map(attrgetter(count), covs)), total)
                    for total, covs in by_total.items()
                )
                return sum(shares, Fraction(0)) / n_data

            stats.append(
                BinStat(
                    rank_bin,
                    mean("covered_count"),
                    mean("valid"),
                    mean("invalid"),
                    mean("notfound"),
                    Fraction(cdn_count, len(rows)),
                    len(rows),
                    n_data,
                )
            )
        else:
            cdn = Fraction(cdn_count, len(rows)) if rows else None
            stats.append(BinStat(rank_bin, None, None, None, None, cdn, len(rows), 0))
    return stats


def cdn_conditional_rates(
    coverages: Iterable[tuple[int, DomainCoverage]],
    by_chain: Mapping[str, bool],
    bins: Sequence[RankBin],
) -> tuple[list[BinStat], list[BinStat]]:
    """(CDN-only, all-domains) bin series under the chain label."""
    coverages = list(coverages)
    cdn_only = [(r, c) for r, c in coverages if by_chain.get(c.domain, False)]
    return (
        bin_aggregate(cdn_only, by_chain, bins),
        bin_aggregate(coverages, by_chain, bins),
    )


@dataclass(frozen=True)
class ReportRow:
    rank: int
    domain: str
    www: Optional[DomainCoverage]
    base: Optional[DomainCoverage]

    @staticmethod
    def _cell(cov: Optional[DomainCoverage]) -> str:
        if cov is None or cov.classification is CoverageClass.NO_DATA:
            return "n/a"
        mark = _CLASS_MARK[cov.classification]
        return f"{mark}({cov.covered_count}/{cov.total_pairs})"

    @property
    def www_cell(self) -> str:
        return self._cell(self.www)

    @property
    def base_cell(self) -> str:
        return self._cell(self.base)


def coverage_report(
    variants: Iterable[tuple[int, str, Optional[DomainCoverage], Optional[DomainCoverage]]],
    top_n: int = 10,
) -> list[ReportRow]:
    """Lowest-ranked domains with Partial or Full coverage on either variant.

    Input rows are (rank, base name, www coverage, base coverage); a missing
    or unresolved variant renders as "n/a".  Only the top_n best rows are
    held while the input is consumed.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    interesting = (CoverageClass.PARTIAL, CoverageClass.FULL)
    rows = (
        ReportRow(rank, name, www, base)
        for rank, name, www, base in variants
        if (www is not None and www.classification in interesting)
        or (base is not None and base.classification in interesting)
    )
    return heapq.nsmallest(top_n, rows, key=attrgetter("rank"))


@dataclass(frozen=True)
class OverallRates:
    domains: int
    domains_with_data: int
    total_pairs: int
    covered_pairs: int
    domain_weighted_covered: Optional[Fraction]
    pair_weighted_covered: Optional[Fraction]


def overall_rates(coverages: Iterable[DomainCoverage]) -> OverallRates:
    """Mean coverage both per-domain (each domain weighs 1) and per-pair."""
    covs = list(coverages)
    with_data = [c for c in covs if c.classification is not CoverageClass.NO_DATA]
    total_pairs = sum(c.total_pairs for c in with_data)
    covered_pairs = sum(c.covered_count for c in with_data)
    domain_weighted = (
        sum((c.covered_fraction for c in with_data), Fraction(0)) / len(with_data)
        if with_data
        else None
    )
    pair_weighted = Fraction(covered_pairs, total_pairs) if total_pairs else None
    return OverallRates(
        len(covs), len(with_data), total_pairs, covered_pairs,
        domain_weighted, pair_weighted,
    )


# ---------------------------------------------------------------------------
# Serialization (floats only here, 6 decimal places)


def fraction_to_float(value: Optional[Fraction]) -> Optional[float]:
    return None if value is None else round(float(value), 6)


def format_fraction(value: Optional[Fraction]) -> str:
    return "" if value is None else f"{float(value):.6f}"
