"""Per-domain coverage, rank-binned statistics, variant overlap and reports.

All fractions are exact rationals; floats appear only when serializing
(``vocabulary.fraction_to_float``).  A pair counts as covered iff its
validation state is anything other than not-found.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Hashable, Iterable, Optional

from .vocabulary import CoverageClass, ValidationState, coverage_class


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

    @property
    def covered_fraction(self) -> Fraction:
        total = self.total_pairs
        return Fraction(self.covered_count, total) if total else Fraction(0)

    @property
    def classification(self) -> CoverageClass:
        return coverage_class(self.valid, self.invalid, self.notfound)


_STATES = tuple(state.value for state in ValidationState)  # valid, invalid, notfound


def domain_coverage(
    domain: str, states: Iterable[tuple[Hashable, str]]
) -> DomainCoverage:
    """Count the validation states of a domain's pairs, keyed by any hashable pair.

    A state is its text ("valid", "invalid" or "notfound") or the
    ``ValidationState`` member of that value.  Identical duplicates collapse;
    a pair listed with two states, or an unknown state, is rejected.
    """
    by_pair: dict[Hashable, str] = {}
    for pair, state in states:
        if by_pair.setdefault(pair, state) != state:  # states read from text are not interned
            raise ValueError(f"{domain}: pair {pair} has conflicting states")
    found = list(by_pair.values())
    valid, invalid, notfound = map(found.count, _STATES)
    if valid + invalid + notfound != len(found):
        unknown = next(s for s in found if s not in _STATES)
        raise ValueError(f"{domain}: unknown validation state {unknown!r}")
    return DomainCoverage(domain, valid, invalid, notfound)


def row_coverage(row: dict) -> DomainCoverage:
    """The coverage of a validated.jsonl row, counted from its state strings."""
    states = (((p["prefix"], p["asn"]), p["state"]) for p in row["pairs"])
    return domain_coverage(row["domain"], states)


def prefix_overlap(
    www_prefixes: Iterable[Hashable], base_prefixes: Iterable[Hashable]
) -> Optional[Fraction]:
    """Jaccard similarity of the two variants' prefix sets; None when both are empty.

    Prefixes may be in any one canonical form; the pipeline passes the
    prefix text of its artifacts, where equal text means equal networks.
    """
    www = set(www_prefixes)
    base = set(base_prefixes)
    if not www and not base:
        return None
    return Fraction(len(www & base), len(www | base))


@dataclass(frozen=True)
class BinStat:
    lo: int  # the bin's first and last rank
    hi: int
    mean_covered: Optional[Fraction]
    mean_valid: Optional[Fraction]
    mean_invalid: Optional[Fraction]
    mean_notfound: Optional[Fraction]
    cdn_fraction: Optional[Fraction]
    domain_count: int
    data_count: int


@dataclass(frozen=True)
class OverallRates:
    domains: int
    domains_with_data: int
    total_pairs: int
    covered_pairs: int
    domain_weighted_covered: Optional[Fraction]
    pair_weighted_covered: Optional[Fraction]


_DOMAINS, _VALID, _INVALID = range(3)  # the columns of a pair total's counts


@dataclass(slots=True)
class _Sums:
    domains: int = 0
    cdn: int = 0
    by_total: dict[int, list[int]] = field(default_factory=dict)  # NoData domains stay out

    def add_counts(self, total: int, counts: Iterable[int]) -> None:
        summed = self.by_total.setdefault(total, [0, 0, 0])
        for column, count in enumerate(counts):
            summed[column] += count

    @property
    def data_count(self) -> int:
        return sum(counts[_DOMAINS] for counts in self.by_total.values())

    def mean_share(self, *columns: int) -> Optional[Fraction]:
        """The mean over domains with data of their share of pairs in the columns.

        Domains are grouped by their pair total, so the sum is one Fraction per
        distinct total over the summed counts, not one per domain.
        """
        if not self.by_total:
            return None
        shares = (
            Fraction(sum(counts[c] for c in columns), total)
            for total, counts in self.by_total.items()
        )
        return sum(shares, Fraction(0)) / self.data_count


class BinnedSums:
    """Running sums of per-domain coverage by rank bin, the one source of exact means.

    A domain at ``rank`` counts in bin ``(rank - 1) // bin_size``; the means
    are taken when the sums are read, so no per-domain row is held.
    """

    def __init__(self, bin_size: int):
        if bin_size < 1:
            raise ValueError("bin_size must be >= 1")
        self.bin_size = bin_size
        self._bins: dict[int, _Sums] = {}

    def add(self, rank: int, coverage: DomainCoverage, is_cdn: bool) -> None:
        sums = self._bins.setdefault((rank - 1) // self.bin_size, _Sums())
        sums.domains += 1
        sums.cdn += bool(is_cdn)
        if coverage.total_pairs:
            sums.add_counts(coverage.total_pairs, (1, coverage.valid, coverage.invalid))

    def stats(self, max_rank: int) -> list[BinStat]:
        """Arithmetic bin means of the per-domain fractions, one line per bin of [1, max_rank].

        The bins are consecutive runs of ``bin_size`` ranks from 1, the last cut
        short at ``max_rank``.  NoData domains are excluded from the means but
        counted in the bin; the cdn fraction is the share of the bin's domains
        added as CDN.
        """
        size = self.bin_size
        count = (max_rank + size - 1) // size  # no bins for a max_rank below 1
        if any(not 0 <= index < count for index in self._bins):
            raise ValueError(f"a rank outside [1, {max_rank}] was added")
        stats = []
        for index in range(count):
            sums = self._bins.get(index, _Sums())
            covered = sums.mean_share(_VALID, _INVALID)
            stats.append(
                BinStat(
                    index * size + 1,
                    min((index + 1) * size, max_rank),
                    covered,
                    sums.mean_share(_VALID),
                    sums.mean_share(_INVALID),
                    None if covered is None else 1 - covered,  # exact for rationals
                    Fraction(sums.cdn, sums.domains) if sums.domains else None,
                    sums.domains,
                    sums.data_count,
                )
            )
        return stats

    def rates(self) -> OverallRates:
        """Mean coverage both per domain (each domain weighs 1) and per pair, over every bin."""
        merged = _Sums()
        for sums in self._bins.values():
            merged.domains += sums.domains
            for total, counts in sums.by_total.items():
                merged.add_counts(total, counts)
        totals = merged.by_total.items()
        total_pairs = sum(total * counts[_DOMAINS] for total, counts in totals)
        covered_pairs = sum(counts[_VALID] + counts[_INVALID] for _, counts in totals)
        return OverallRates(
            merged.domains,
            merged.data_count,
            total_pairs,
            covered_pairs,
            merged.mean_share(_VALID, _INVALID),
            Fraction(covered_pairs, total_pairs) if total_pairs else None,
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
