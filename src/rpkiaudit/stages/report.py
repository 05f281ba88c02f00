"""report: the lowest-ranked domains with any coverage, as text and csv."""

from __future__ import annotations

import itertools
import operator
from typing import Optional

from ..analytics import CoverageClass, DomainCoverage, coverage_report, row_coverage
from ..cli import PipelineConfig, _artifact, _write_text
from ..diagnostics import log
from ..vocabulary import Variant


def run(cfg: PipelineConfig) -> None:
    def report_inputs(validated_rows):
        """(rank, base name, www coverage, base coverage) of each rank, one rank at a time."""
        for rank, rows in itertools.groupby(validated_rows, key=operator.itemgetter("rank")):
            by_variant: dict[Variant, DomainCoverage] = {}
            name = None
            for row in rows:  # a rank's base rows come before its www
                variant = Variant(row["variant"])
                by_variant[variant] = row_coverage(row)
                if variant is Variant.BASE:
                    name = row["domain"]
                elif name is None:
                    name = row["domain"].removeprefix("www.")
            yield rank, name, by_variant.get(Variant.WWW), by_variant.get(Variant.BASE)

    with _artifact(cfg, "validated.jsonl", "validate") as validated_rows:
        rows = coverage_report(report_inputs(validated_rows), cfg.top_n)

    width_name = max([len(r.domain) for r in rows], default=6)
    width_www = max([len(r.www_cell) for r in rows], default=3)
    text_lines = [f"{'rank':>6}  {'domain':<{width_name}}  {'www':<{width_www}}  w/o www"]
    text_lines += [
        f"{r.rank:>6}  {r.domain:<{width_name}}  {r.www_cell:<{width_www}}  {r.base_cell}"
        for r in rows
    ]
    _write_text(cfg.out("report.txt"), "\n".join(text_lines) + "\n")

    def cells(cov: Optional[DomainCoverage]) -> list[str]:
        if cov is None or cov.classification is CoverageClass.NO_DATA:
            return ["n/a", "", ""]
        return [cov.classification.value, str(cov.covered_count), str(cov.total_pairs)]

    csv_lines = ["rank,domain,www_class,www_covered,www_total,base_class,base_covered,base_total"]
    csv_lines += [",".join([str(r.rank), r.domain, *cells(r.www), *cells(r.base)]) for r in rows]
    _write_text(cfg.out("report.csv"), "\n".join(csv_lines) + "\n")
    log.info("report: %d rows", len(rows))
