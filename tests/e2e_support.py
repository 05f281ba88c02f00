"""Shared access to the committed end-to-end fixture."""

from pathlib import Path

from rpkiaudit.cli import PipelineConfig

E2E_DIR = Path(__file__).parent / "fixtures" / "e2e"
EXPECTED_DIR = E2E_DIR / "expected"

BIN_CSVS = ("bins_base.csv", "bins_www.csv", "cdn_bins_base.csv", "cdn_bins_www.csv")

ALL_ARTIFACTS = BIN_CSVS + (
    "resolved.jsonl",
    "resolve_meta.json",
    "resolve_diagnostics.json",
    "pairs.jsonl",
    "map_diagnostics.json",
    "validated.jsonl",
    "validate_diagnostics.json",
    "cdn_labels.jsonl",
    "agreement.json",
    "classify_diagnostics.json",
    "overlap.csv",
    "summary.json",
    "analyze_diagnostics.json",
    "report.txt",
    "report.csv",
    "report_diagnostics.json",
)


def e2e_config(output_dir, **changes) -> PipelineConfig:
    """The e2e fixture's config writing to ``output_dir``, with any fields changed."""
    return PipelineConfig(**{
        "domain_list": str(E2E_DIR / "domains.csv"),
        "dns_fixture": str(E2E_DIR / "dns.jsonl"),
        "primary_resolver": "fixture",
        "ribs": [str(E2E_DIR / "rib.txt")],
        "roas": str(E2E_DIR / "roas.csv"),
        "as_registry": str(E2E_DIR / "as_registry.txt"),
        "external_labels": str(E2E_DIR / "external_labels.csv"),
        "bin_size": 10,
        "top_n": 10,
        "output_dir": str(output_dir),
        **changes,
    })
