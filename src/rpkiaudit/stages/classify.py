"""classify: CDN labels of the primary resolver's answers, by CNAME chain and origin AS."""

from __future__ import annotations

import json

from .. import cdn_classifier
from ..cli import PipelineConfig, _joined, _open_input, _Outputs, _text_lines
from ..diagnostics import Diagnostics
from ..errors import DataError
from ..vocabulary import ResolutionStatus, plain_asn


def _origin_asns(row: dict) -> list[int]:
    """The origin ASNs of a pairs.jsonl row, each of which must be a plain ASN."""
    return [plain_asn(pair["asn"]) for pair in row["pairs"]]


def run(cfg: PipelineConfig, diag: Diagnostics, out: _Outputs, resolved, pairs) -> str:
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

    agreement = cdn_classifier.Agreement() if external else None

    def primary_ok(resolved_rows):
        """The primary resolver's OK rows; each primary row's cnames and status are checked."""
        for row in resolved_rows:
            cnames = row["cnames"]
            if type(cnames) is not list or not all(type(c) is str for c in cnames):
                raise TypeError(f"cnames {cnames!r} is not a list of text")
            if ResolutionStatus(row["status"]) is ResolutionStatus.OK:
                yield row

    def label_rows(resolved_rows):
        """The primary resolver's OK rows, each with the origin ASNs of its pairs.jsonl row."""
        joined = _joined(primary_ok(resolved_rows), pairs, _origin_asns, ())
        for row, asns in joined:
            domain = row["domain"]
            chain_length = len(row["cnames"])
            by_chain = chain_length >= cdn_classifier.CHAIN_THRESHOLD
            by_external = cdn_classifier.external_label(external, domain)
            if agreement is not None:
                agreement.add(by_chain, by_external)
            yield {
                "rank": row["rank"],
                "domain": domain,
                "variant": row["variant"],
                "chain_length": chain_length,
                "by_chain": by_chain,
                "by_asn": cdn_classifier.classify_by_asn(asns, cdn_asns),
                "external": by_external,
            }

    with resolved as resolved_rows:
        count = out.write("cdn_labels.jsonl", label_rows(resolved_rows))
    if agreement is not None and count:
        out.write("agreement.json", json.dumps(agreement.doc(), sort_keys=True, indent=2) + "\n")
    else:  # an earlier run's agreement is not this run's
        out.remove("agreement.json")
    return f"{count} labels, {len(cdn_asns)} CDN ASes spotted"
