"""classify: CDN labels of the primary resolver's answers, by CNAME chain and origin AS."""

from __future__ import annotations

import json

from .. import cdn_classifier
from ..cli import PipelineConfig, _artifact, _joined, _open_input, _primary_resolver
from ..cli import _text_lines, _write_diag, _write_rows, _write_text
from ..diagnostics import Diagnostics, log
from ..errors import DataError
from ..vocabulary import ResolutionStatus, fraction_to_float, plain_asn


def _origin_asns(row: dict) -> list[int]:
    """The origin ASNs of a pairs.jsonl row, each of which must be a plain ASN."""
    return [plain_asn(pair["asn"]) for pair in row["pairs"]]


def run(cfg: PipelineConfig) -> None:
    diag = Diagnostics()
    resolved = _artifact(cfg, "resolved.jsonl", "resolve")
    pairs = _artifact(cfg, "pairs.jsonl", "map")
    primary = _primary_resolver(cfg)

    with _open_input(cfg.as_registry, "AS registry") as registry_file:
        if cfg.keywords:
            with _open_input(cfg.keywords, "keyword file") as keyword_file:
                keywords = cdn_classifier.load_keywords(_text_lines(keyword_file, "keyword file"))
        else:
            keywords = cdn_classifier.load_keywords()
        if not keywords:
            raise DataError(f"{cfg.keywords}: keyword file holds no keywords")
        registry_lines = _text_lines(registry_file, "AS registry")
        registry = cdn_classifier.registry_entries(registry_lines, diag)
        cdn_asns = cdn_classifier.spot_keywords(keywords, registry)

    external: dict[str, bool] = {}
    if cfg.external_labels:
        with _open_input(cfg.external_labels, "external labels") as label_file:
            label_lines = _text_lines(label_file, "external labels")
            external = cdn_classifier.load_external_labels(label_lines, diag)

    agreement = cdn_classifier.Agreement(external) if external else None

    def primary_ok(resolved_rows):
        """The primary resolver's OK rows; each primary row's cnames and status are checked."""
        for row in resolved_rows:
            if row["resolver"] != primary:
                continue
            cnames = row["cnames"]
            if type(cnames) is not list or not all(type(c) is str for c in cnames):
                raise TypeError(f"cnames {cnames!r} is not a list of text")
            if ResolutionStatus(row["status"]) is ResolutionStatus.OK:
                yield row

    def label_rows(resolved_rows):
        """The primary resolver's OK rows, each with the origin ASNs of its pairs.jsonl row."""
        joined = _joined(primary_ok(resolved_rows), pairs, _origin_asns, ())
        for row, asns in joined:
            chain_length = len(row["cnames"])
            label = cdn_classifier.CdnLabel(
                row["domain"],
                chain_length,
                chain_length >= cdn_classifier.CHAIN_THRESHOLD,
                by_asn=cdn_classifier.classify_by_asn(asns, cdn_asns),
            )
            label.external = cdn_classifier.external_label(external, label.domain)
            if agreement is not None:
                agreement.add(label)
            yield {
                "rank": row["rank"],
                "domain": label.domain,
                "variant": row["variant"],
                "chain_length": label.chain_length,
                "by_chain": label.by_chain,
                "by_asn": label.by_asn,
                "external": label.external,
            }

    with resolved as resolved_rows:
        count = _write_rows(cfg.out("cdn_labels.jsonl"), label_rows(resolved_rows))
    if agreement is not None and count:
        report = agreement.report()
        doc = {
            "coverage": fraction_to_float(report.coverage),
            "agree": fraction_to_float(report.agree),
            "confusion": {f"{h}{e}": n for (h, e), n in report.confusion.items()},
        }
        _write_text(cfg.out("agreement.json"), json.dumps(doc, sort_keys=True, indent=2) + "\n")
    _write_diag(cfg, "classify", diag)
    log.info("classify: %d labels, %d CDN ASes spotted", count, len(cdn_asns))
