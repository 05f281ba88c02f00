"""Per-domain coverage, rank-binned statistics, variant overlap and reports.

All fractions are exact rationals; floats appear only when serializing
(``vocabulary.fraction_to_float``).  A pair counts as covered iff its
validation state is anything other than not-found.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, NamedTuple, Optional

from .vocabulary import MAX_ASN, CoverageClass, ValidationState, Variant, coverage_class

if TYPE_CHECKING:
    from fractions import Fraction


_CLASS_MARK = {
    CoverageClass.FULL: "✓",     # check mark
    CoverageClass.PARTIAL: "◖",  # half circle
    CoverageClass.NONE: "✗",     # cross
}


class DomainCoverage(NamedTuple):
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
        return _ratio(self.covered_count, self.total_pairs or 1)  # 0 for no pairs

    @property
    def classification(self) -> CoverageClass:
        return coverage_class(self.valid, self.invalid, self.notfound)


def _ratio(numerator: int, denominator: int) -> Optional[Fraction]:
    """The exact ratio, None for a zero denominator; the one place analytics imports
    fractions, so report, which builds no Fraction, loads neither it nor decimal."""
    from fractions import Fraction

    return Fraction(numerator, denominator) if denominator else None


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
    """The coverage of a validated.jsonl row, counted from its state strings.

    Each pair's prefix must be text and its ASN an int in 0..MAX_ASN, never a bool.
    """
    states = []
    for pair in row["pairs"]:
        prefix, asn = pair["prefix"], pair["asn"]
        if type(prefix) is not str:
            raise TypeError(f"prefix {prefix!r} is not text")
        if type(asn) is not int or not 0 <= asn <= MAX_ASN:  # a bool is not an ASN
            raise TypeError(f"asn {asn!r} is not a plain ASN")
        states.append(((prefix, asn), pair["state"]))
    return domain_coverage(row["domain"], states)


_ByVariant = dict[str, tuple[dict, DomainCoverage, object]]  # keyed by a Variant's text


def rank_rows(items: Iterable[tuple[dict, object]]) -> Iterator[tuple[int, str, _ByVariant]]:
    """(rank, name, {variant: (row, coverage, tag)}) per rank of validated.jsonl's (row, tag)s.

    The items come in the artifact's order: ranks ascend, a rank's base row
    before its www row.  The name is the base row's domain, or the www row's
    less "www." when the rank has no base row.  Each row is checked as it is read.
    """
    variants, base = frozenset(Variant), Variant.BASE  # once: a member lookup is not cheap
    for rank, items_of_rank in itertools.groupby(items, key=lambda item: item[0]["rank"]):
        by_variant: _ByVariant = {}
        name = None
        for row, tag in items_of_rank:
            variant = row["variant"]
            if variant not in variants:
                raise ValueError(f"variant {variant!r} is not base or www")
            entry = (row, row_coverage(row), tag)
            if by_variant.setdefault(variant, entry) is not entry:
                raise ValueError(f"rank {rank} has a second {variant} row")
            if variant == base:
                name = row["domain"]
            elif name is None:
                name = row["domain"].removeprefix("www.")
        yield rank, name, by_variant


def prefix_overlap(
    www_prefixes: Iterable[Hashable], base_prefixes: Iterable[Hashable]
) -> Optional[Fraction]:
    """Jaccard similarity of the two variants' prefix sets; None when both are empty.

    Prefixes may be in any one canonical form; the pipeline passes the
    prefix text of its artifacts, where equal text means equal networks.
    """
    www = set(www_prefixes)
    base = set(base_prefixes)
    return _ratio(len(www & base), len(www | base))


class BinStat(NamedTuple):
    lo: int  # the bin's first and last rank
    hi: int
    mean_covered: Optional[Fraction]
    mean_valid: Optional[Fraction]
    mean_invalid: Optional[Fraction]
    mean_notfound: Optional[Fraction]
    cdn_fraction: Optional[Fraction]
    domain_count: int
    data_count: int


class OverallRates(NamedTuple):
    domains: int
    domains_with_data: int
    total_pairs: int
    covered_pairs: int
    domain_weighted_covered: Optional[Fraction]
    pair_weighted_covered: Optional[Fraction]


_DOMAINS, _VALID, _INVALID = range(3)  # the columns of a pair total's counts


class _Sums:
    __slots__ = ("domains", "cdn", "by_total")

    def __init__(self) -> None:
        self.domains = self.cdn = 0
        self.by_total: dict[int, list[int]] = {}  # NoData domains stay out

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
            _ratio(sum(counts[c] for c in columns), total)
            for total, counts in self.by_total.items()
        )
        return sum(shares) / self.data_count


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
        index = (rank - 1) // self.bin_size
        sums = self._bins.get(index)
        if sums is None:  # not setdefault, which would build a _Sums on every add
            sums = self._bins[index] = _Sums()
        sums.domains += 1
        sums.cdn += bool(is_cdn)
        total = coverage.total_pairs
        if total:
            sums.add_counts(total, (1, coverage.valid, coverage.invalid))

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
                    _ratio(sums.cdn, sums.domains),
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
            _ratio(covered_pairs, total_pairs),
        )


class ReportRow(NamedTuple):
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
    ranks: Iterable[tuple[int, str, _ByVariant]], top_n: int = 10
) -> list[ReportRow]:
    """The first top_n of ``rank_rows``' ranks with Partial or Full coverage on either variant.

    The ranks ascend, so these are the lowest-ranked; the ranks after them are
    still read, so that each row is checked.  A missing variant renders as "n/a".
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    interesting = (CoverageClass.PARTIAL, CoverageClass.FULL)
    rows: list[ReportRow] = []
    for rank, name, by_variant in ranks:
        if len(rows) < top_n:
            www = by_variant[Variant.WWW][1] if Variant.WWW in by_variant else None
            base = by_variant[Variant.BASE][1] if Variant.BASE in by_variant else None
            if (www is not None and www.classification in interesting) or (
                base is not None and base.classification in interesting
            ):
                rows.append(ReportRow(rank, name, www, base))
    return rows
