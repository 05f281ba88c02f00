"""analyze: coverage means by rank bin, overall rates and www/base prefix overlap."""

from __future__ import annotations

import json
from fractions import Fraction

from ..analytics import BinnedSums, BinStat, OverallRates, prefix_overlap, rank_rows
from ..cli import PipelineConfig, _joined, _Outputs
from ..diagnostics import Diagnostics
from ..errors import DataError
from ..vocabulary import Variant, format_fraction, fraction_to_float


def _bin_csv(stats: list[BinStat]) -> str:
    lines = ["bin_lo,bin_hi,n,mean_covered,mean_valid,mean_invalid,mean_notfound,cdn_fraction"]
    for s in stats:
        means = (s.mean_covered, s.mean_valid, s.mean_invalid, s.mean_notfound, s.cdn_fraction)
        counts = (s.lo, s.hi, s.domain_count)
        lines.append(",".join([*map(str, counts), *map(format_fraction, means)]))
    return "\n".join(lines) + "\n"


def _rates_obj(rates: OverallRates) -> dict:
    return {
        "domains": rates.domains,
        "domains_with_data": rates.domains_with_data,
        "total_pairs": rates.total_pairs,
        "covered_pairs": rates.covered_pairs,
        "domain_weighted_covered": fraction_to_float(rates.domain_weighted_covered),
        "pair_weighted_covered": fraction_to_float(rates.pair_weighted_covered),
    }


def _by_chain(label: dict) -> bool:
    """A cdn_labels.jsonl row's chain label, which must be a JSON bool."""
    value = label["by_chain"]
    if type(value) is not bool:
        raise TypeError(f"by_chain {value!r} is not a bool")
    return value


def run(cfg: PipelineConfig, diag: Diagnostics, out: _Outputs, validated, labels) -> str:
    # per variant: every domain, and the domains with a true chain label (a row
    # with no label row counts as not CDN)
    every = {v: BinnedSums(cfg.bin_size) for v in Variant}
    cdn = {v: BinnedSums(cfg.bin_size) for v in Variant}
    max_rank = 0
    # the overlaps' numerators summed per denominator: their exact sum, with no
    # Fraction addition per rank
    overlap_sums: dict[int, int] = {}
    overlap_count = 0

    def overlap_lines(validated_rows):
        """overlap.csv, one line per rank with a base row, as the ranks stream past."""
        nonlocal max_rank, overlap_count
        yield "rank,domain,overlap\n"
        joined = _joined(validated_rows, labels, _by_chain, False)
        for rank, name, by_variant in rank_rows(joined):
            max_rank = rank
            for variant, (_, coverage, by_chain) in by_variant.items():
                every[variant].add(rank, coverage, by_chain)
                if by_chain:
                    cdn[variant].add(rank, coverage, by_chain)
            base, www = by_variant.get(Variant.BASE), by_variant.get(Variant.WWW)
            if base is None:
                continue
            overlap = prefix_overlap(
                {p["prefix"] for p in www[0]["pairs"]} if www else (),
                {p["prefix"] for p in base[0]["pairs"]},
            )
            yield f"{rank},{name},{format_fraction(overlap)}\n"
            if overlap is not None:
                denominator = overlap.denominator
                overlap_sums[denominator] = overlap_sums.get(denominator, 0) + overlap.numerator
                overlap_count += 1
        if not max_rank:
            raise DataError("validated.jsonl holds zero rows")

    with validated as validated_rows:
        out.write("overlap.csv", overlap_lines(validated_rows))

    summary: dict[str, dict] = {}
    for variant in Variant:
        stats, cdn_stats = every[variant].stats(max_rank), cdn[variant].stats(max_rank)
        out.write(f"bins_{variant.value}.csv", _bin_csv(stats))
        out.write(f"cdn_bins_{variant.value}.csv", _bin_csv(cdn_stats))
        summary[variant.value] = _rates_obj(every[variant].rates())
    overlap_sum = sum((Fraction(n, d) for d, n in overlap_sums.items()), Fraction(0))
    summary["overlap_mean"] = fraction_to_float(
        overlap_sum / overlap_count if overlap_count else None
    )
    out.write("summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return f"{len(stats)} bins over {max_rank} ranks"
