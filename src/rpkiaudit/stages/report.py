"""report: the lowest-ranked domains with any coverage, as text and csv."""

from __future__ import annotations

import itertools
from typing import Optional

from ..analytics import CoverageClass, DomainCoverage, coverage_report, rank_rows
from ..cli import PipelineConfig, _Outputs
from ..diagnostics import Diagnostics


def run(cfg: PipelineConfig, diag: Diagnostics, out: _Outputs, validated) -> str:
    with validated as validated_rows:
        ranks = rank_rows(zip(validated_rows, itertools.repeat(None)))
        rows = coverage_report(ranks, cfg.top_n)

    width_name = max([len(r.domain) for r in rows], default=6)
    width_www = max([len(r.www_cell) for r in rows], default=3)
    text_lines = [f"{'rank':>6}  {'domain':<{width_name}}  {'www':<{width_www}}  w/o www"]
    text_lines += [
        f"{r.rank:>6}  {r.domain:<{width_name}}  {r.www_cell:<{width_www}}  {r.base_cell}"
        for r in rows
    ]
    out.write("report.txt", "\n".join(text_lines) + "\n")

    def cells(cov: Optional[DomainCoverage]) -> list[str]:
        if cov is None or cov.classification is CoverageClass.NO_DATA:
            return ["n/a", "", ""]
        return [cov.classification, str(cov.covered_count), str(cov.total_pairs)]

    csv_lines = ["rank,domain,www_class,www_covered,www_total,base_class,base_covered,base_total"]
    csv_lines += [",".join([str(r.rank), r.domain, *cells(r.www), *cells(r.base)]) for r in rows]
    out.write("report.csv", "\n".join(csv_lines) + "\n")
    return f"{len(rows)} rows"
