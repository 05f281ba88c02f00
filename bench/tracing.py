"""Per-layer tracing of one rpkiaudit stage, at the package's module boundaries.

Run as a script, it wraps the public functions of each ``rpkiaudit`` module
by their module attribute (for example ``rpkiaudit.rib_store.covering_pairs``),
runs one stage exactly as ``rpkiaudit <stage> --config ...`` would, and writes
the spans it kept in memory to a file when the stage ends::

    python3 bench/tracing.py SPANS_FILE STAGE --config CONFIG

Each wrapped call is one span ``(name, start, end, parent, family)`` whose
parent is the span that was open when it started; the stage itself is span 0.
Counts (rows parsed, lookups that hit, validation states, bytes written) are
taken at the same boundaries.  A name missing from the package is recorded
as absent rather than failing the run.  Imported as a module, it only
aggregates span files; it wraps nothing.
"""

from __future__ import annotations

import importlib
import inspect
import marshal
import sys
import time
from collections import defaultdict
from pathlib import Path


def _family(value) -> int:
    """4 or 6 for an address or prefix in any form the program passes, else 0."""
    value = getattr(value, "prefix", value)
    version = getattr(value, "version", None)
    if version in (4, 6):
        return version
    if isinstance(value, str):
        return 6 if ":" in value else 4
    return 0


def _len(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _lookup(args, result):
    return {"hits": int(bool(result)), "pairs": _len(result)}


def _validate(args, result):
    return {str(getattr(result, "value", result)): 1}


def _fixture(args, result):
    return {"rows": _len(getattr(result, "_entries", ()))}


def _filter(args, result):
    before = getattr(args[0], "addresses", ())
    return {"rejected": _len(before) - _len(getattr(result, "addresses", before))}


def _build_trie(args, result):
    return {"pairs": _len(result), "entries": _len(args[0])}


def _read(args, result):
    return {"rows": _len(result), f"path:{Path(str(args[0])).name}": 1}


def _write_text(args, result):
    return {"bytes": len(str(args[1]).encode("utf-8"))}


# span name -> (module, attribute path, counts at return, tag with a family)
TARGETS = {
    "domain_ingest.load_domain_list": (
        "rpkiaudit.domain_ingest", "load_domain_list", lambda a, r: {"rows": _len(r)}, False),
    "dns_resolution.fixture_load": ("rpkiaudit.dns_resolution", "DnsFixture.load", _fixture, False),
    "dns_resolution.resolve_records": ("rpkiaudit.dns_resolution", "resolve_records", None, False),
    "dns_resolution.apply_filter": ("rpkiaudit.dns_resolution", "apply_filter", _filter, False),
    "dns_resolution.cross_check": ("rpkiaudit.dns_resolution", "cross_check", None, False),
    "rib_store.parse_mrt": (
        "rpkiaudit.rib_store", "parse_mrt", lambda a, r: {"entries": _len(r)}, False),
    "rib_store.parse_text_rib": (
        "rpkiaudit.rib_store", "parse_text_rib", lambda a, r: {"entries": _len(r)}, False),
    "rib_store.build_trie": ("rpkiaudit.rib_store", "build_trie", _build_trie, False),
    "rib_store.covering_pairs": ("rpkiaudit.rib_store", "covering_pairs", _lookup, True),
    "roa_validation.load_roas": (
        "rpkiaudit.roa_validation", "load_roas", lambda a, r: {"payloads": _len(r)}, False),
    "roa_validation.build_roa_index": ("rpkiaudit.roa_validation", "build_roa_index", None, False),
    "roa_validation.validate": ("rpkiaudit.roa_validation", "validate", _validate, True),
    "cdn_classifier.parse_as_registry": (
        "rpkiaudit.cdn_classifier", "parse_as_registry", None, False),
    "cdn_classifier.spot_keywords": ("rpkiaudit.cdn_classifier", "spot_keywords", None, False),
    "cdn_classifier.classify_by_asn": ("rpkiaudit.cdn_classifier", "classify_by_asn", None, False),
    "analytics.domain_coverage": ("rpkiaudit.analytics", "domain_coverage", None, False),
    "analytics.cdn_conditional_rates": (
        "rpkiaudit.analytics", "cdn_conditional_rates", None, False),
    "analytics.overall_rates": ("rpkiaudit.analytics", "overall_rates", None, False),
    "analytics.prefix_overlap": ("rpkiaudit.analytics", "prefix_overlap", None, False),
    "analytics.coverage_report": ("rpkiaudit.analytics", "coverage_report", None, False),
    "cli.read_jsonl": ("rpkiaudit.cli", "_read_jsonl", _read, False),
    "cli.write_jsonl": ("rpkiaudit.cli", "_write_jsonl", None, False),
    "cli.write_text": ("rpkiaudit.cli", "_write_text", _write_text, False),
}


class Tracer:
    def __init__(self, stage: str) -> None:
        self.names = [f"cli.{stage}"]
        self.spans: list = [None]  # span 0 is the stage
        self.open = [0]
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.absent: list[str] = []

    def wrap(self, name: str, fn, count, tagged: bool):
        name_id = len(self.names)
        self.names.append(name)
        spans, open_spans, counts = self.spans, self.open, self.counts[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name_id, start, end, parent, _family(args[0]) if tagged else 0)
            if count is not None:
                for key, value in count(args, result).items():
                    counts[key] += value
            return result

        return traced

    def install(self) -> None:
        for name, (module_name, path, count, tagged) in TARGETS.items():
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self.wrap(name, raw.__func__, count, tagged)))
            else:
                setattr(owner, attr, self.wrap(name, raw, count, tagged))

    def run(self, argv: list[str]) -> int:
        from rpkiaudit import cli

        start = time.perf_counter()
        try:
            return cli.main(argv)
        finally:
            self.spans[0] = (0, start, time.perf_counter(), -1, 0)

    def dump(self, path: Path) -> None:
        doc = {
            "names": self.names,
            "spans": self.spans,
            "counts": {k: dict(v) for k, v in self.counts.items()},
            "absent": self.absent,
        }
        path.write_bytes(marshal.dumps(doc))


# ---------------------------------------------------------------------------
# aggregation in the benchmark process


def summarize(path: Path) -> dict:
    """Per-name totals of one stage's span file.

    ``self_s`` is the stage span minus the spans directly below it; calls
    are never concurrent within a stage, so their durations do not overlap.
    """
    doc = marshal.loads(path.read_bytes())
    names = doc["names"]
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    child_s = 0.0
    for name_id, start, end, parent, family in doc["spans"][1:]:
        entry = totals[names[name_id]]
        entry["calls"] += 1
        entry["s"] += end - start
        if family:
            entry[f"v{family}_calls"] += 1
            entry[f"v{family}_s"] += end - start
        if parent == 0:
            child_s += end - start
    _, start, end, _, _ = doc["spans"][0]
    for name, counts in doc["counts"].items():
        for key, value in counts.items():
            totals[name][key] += value
    return {
        "stage": names[0],
        "stage_s": end - start,
        "self_s": end - start - child_s,
        "totals": {k: dict(v) for k, v in totals.items()},
        "absent": doc["absent"],
    }


if __name__ == "__main__":
    spans_file, stage, *rest = sys.argv[1:]
    tracer = Tracer(stage)
    tracer.install()
    code = 1
    try:
        code = tracer.run([stage] + rest)
    finally:
        tracer.dump(Path(spans_file))
    sys.exit(code)
