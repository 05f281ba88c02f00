"""Staged, resumable pipeline driver.

Each stage reads the previous stage's on-disk artifacts and writes its own,
so expensive inputs (DNS campaigns, RIB parses) are cached between runs.
Artifacts are canonically sorted: identical inputs give identical bytes.

Exit codes: 0 success, 1 usage error, 2 missing input or missing stage
dependency, 3 data error (inputs parsed but nothing usable).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import gc
import itertools
import json
import logging
import operator
import os
import sys
import time
import typing
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .diagnostics import Diagnostics
from .errors import (
    AuditError,
    ChainLoopError,
    DataError,
    MissingInputError,
    StageDependencyMissingError,
    UsageError,
)

# Each stage imports the library modules it uses when it runs, so a stage
# child loads and compiles only its own stage's code; these names are for
# annotations alone.
if typing.TYPE_CHECKING:
    from .analytics import BinStat, DomainCoverage, OverallRates
    from .domain_ingest import Variant
    from .rib_store import PrefixTrie
    from .roa_validation import RoaFormat, ValidationState

log = logging.getLogger("rpkiaudit")

STAGES = ("resolve", "map", "validate", "classify", "analyze", "report")

CONFIG_ENV_VAR = "RPKIAUDIT_CONFIG"

@dataclass
class PipelineConfig:
    """Pipeline settings; config file keys and CLI flag dests are the field names."""

    domain_list: Optional[str] = None
    domain_list_format: str = "csv_rank_domain"
    dns_fixture: Optional[str] = None
    resolvers: list[str] = field(default_factory=list)
    primary_resolver: Optional[str] = None
    special_purpose_table: Optional[str] = None
    ribs: list[str] = field(default_factory=list)
    roas: Optional[str] = None
    roa_format: Optional[str] = None
    keywords: Optional[str] = None
    as_registry: Optional[str] = None
    external_labels: Optional[str] = None
    bin_size: int = 10000
    top_n: int = 10
    timeout: float = 5.0
    max_inflight: int = 16
    resolver_qps: float = 0.0
    output_dir: str = "out"

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        try:
            doc = json.loads(Path(path).read_text("utf-8"))
        except FileNotFoundError:
            raise MissingInputError(path, "config file")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"config {path}: {exc}")
        if not isinstance(doc, dict):
            raise UsageError(f"config {path}: expected a JSON object")
        unknown = sorted(doc.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise UsageError(f"config {path}: unknown key {unknown[0]!r}")
        return cls(**doc)

    def validated(self) -> "PipelineConfig":
        """Check each value against its field's type; a single str makes a list."""
        hints = typing.get_type_hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str) and hints[f.name] == list[str]:
                value = [value]
                setattr(self, f.name, value)
            if not _is_a(value, hints[f.name]):
                raise UsageError(f"config key {f.name!r} must be {f.type}, not {value!r}")
        if self.bin_size < 1:
            raise UsageError("bin_size must be >= 1")
        if self.top_n < 1:
            raise UsageError("top_n must be >= 1")
        return self

    def out(self, name: str) -> Path:
        return Path(self.output_dir) / name


def _is_a(value: object, hint) -> bool:
    """isinstance against a field type: Optional, list[...], and an int is a float."""
    if typing.get_origin(hint) is typing.Union:
        return any(_is_a(value, arg) for arg in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_is_a(v, item) for v in value)
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# artifact I/O helpers


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[typing.TextIO]:
    """A text file that replaces ``path`` when the block ends; a fault leaves ``path`` as is."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


_encode_row = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_decode_value = json.JSONDecoder().raw_decode


def _write_rows(path: Path, rows: Iterable[dict]) -> int:
    """Write each row as one JSONL line as it comes; returns the row count."""
    count = 0
    with _replacing(path) as fh:
        for count, row in enumerate(rows, 1):
            fh.write(_encode_row(row) + "\n")
    return count


def _jsonl_rows(path: Path) -> Iterator[dict]:
    """The rows of a JSONL file, read and yielded one line at a time.

    A line that is exactly one JSON object is decoded in one call; any other
    line goes to ``_line_row``, so that a fault names its line.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if line[:1] == b"{":
                try:
                    text = line.decode("utf-8")
                    row, end = _decode_value(text)
                except ValueError:  # not UTF-8, or not one JSON value
                    pass
                else:
                    if text[end:] in ("", "\n"):
                        yield row
                        continue
            row = _line_row(path, lineno, line.removesuffix(b"\n"))
            if row is not None:
                yield row


def _line_row(path: Path, lineno: int, line: bytes) -> Optional[dict]:
    """One line parsed on its own: its row, None if it is blank, or a DataError naming it."""
    if not line.strip():
        return None
    try:
        row = json.loads(line.decode("utf-8"))
    except ValueError as exc:  # a truncated row or undecodable bytes
        raise DataError(f"{path}:{lineno}: corrupt artifact ({exc})")
    if not isinstance(row, dict):
        raise DataError(f"{path}:{lineno}: corrupt artifact (row is not an object)")
    return row


_row_order = operator.itemgetter("rank", "variant", "domain")  # of map, validate, classify rows

# The key each JSONL artifact is written in, strictly ascending.
_ARTIFACT_ORDER = {
    "resolved.jsonl": operator.itemgetter("rank", "variant", "resolver", "domain"),
    "pairs.jsonl": _row_order,
    "validated.jsonl": _row_order,
    "cdn_labels.jsonl": _row_order,
}


def _artifact(cfg: PipelineConfig, name: str, stage: str):
    """An upstream stage's JSONL artifact, read as ``with _artifact(...) as rows``.

    The call exits 2 when the artifact's stage has not run.  In the ``with``
    block, a bad row is a DataError (exit 3) naming the artifact and its domain;
    a row's rank, where it has one, is an int >= 1 and its domain is text, and
    rows arrive strictly ascending in the artifact's order.
    """
    path = cfg.out(name)
    if not path.exists():
        raise StageDependencyMissingError(stage, str(path))
    order = _ARTIFACT_ORDER.get(name)
    row: dict = {}

    def rows():
        nonlocal row
        last = None
        for row in _jsonl_rows(path):
            rank = row.get("rank", 1)
            if type(rank) is not int or rank < 1:  # a bool is not a rank
                raise ValueError(f"rank {rank!r} is not a positive integer")
            if not isinstance(row.get("domain", ""), str):
                raise TypeError(f"domain {row['domain']!r} is not text")
            if order is not None:
                key = order(row)
                if last is not None and not last < key:
                    raise ValueError(f"row {key} is out of order or repeated after {last}")
                last = key
            yield row
        row = {}  # a fault after the last row belongs to no one row

    @contextlib.contextmanager
    def reading():
        try:
            yield rows()
        except (KeyError, TypeError, ValueError) as exc:
            where = f"{path}: {row['domain']}" if "domain" in row else path
            raise DataError(f"{where}: corrupt artifact ({type(exc).__name__}: {exc})") from None

    return reading()


def _joined(rows: Iterable[dict], artifact, value, missing) -> Iterator[tuple[dict, object]]:
    """Each of ``rows`` with ``value`` of the ``artifact`` row of its key, or ``missing``.

    Both sides ascend in ``_row_order``, so the join reads them in step, one row of each.
    The artifact is read in its own generator, so a bad row names its own artifact; the
    artifact's rows no key asks for are still read and checked once ``rows`` runs out.
    """

    def keyed():
        with artifact as joined_rows:
            for row in joined_rows:
                yield _row_order(row), value(row)

    others = keyed()
    key, found = next(others, (None, missing))
    for row in rows:
        here = _row_order(row)
        while key is not None and key < here:
            key, found = next(others, (None, missing))
        yield row, found if key == here else missing
    for _ in others:
        pass


def _primary_resolver(cfg: PipelineConfig) -> str:
    with _artifact(cfg, "resolve_meta.json", "resolve") as meta_rows:
        (meta,) = meta_rows
        if meta["primary_resolver"] not in meta["resolvers"]:
            raise ValueError(f"primary resolver {meta['primary_resolver']!r} is not a resolver")
        return meta["primary_resolver"]


def _write_diag(cfg: PipelineConfig, stage: str, diag: Diagnostics) -> None:
    _write_text(cfg.out(f"{stage}_diagnostics.json"), diag.to_json())


def _require_file(path: Optional[str], what: str) -> Path:
    if not path:
        raise MissingInputError(f"<{what}>", what)
    p = Path(path)
    if not p.exists():
        raise MissingInputError(str(p), what)
    return p


def _not_utf8(
    path: Optional[str], what: str, exc: UnicodeDecodeError, offset: int = 0
) -> DataError:
    """The error for undecodable bytes at ``exc``'s positions, ``offset`` bytes into the file.

    Its text is that of decoding the whole file at once.
    """
    start = offset + exc.start
    if exc.end - exc.start == 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{offset + exc.end - 1}"
    reason = f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"
    return DataError(f"{path}: {what} is not UTF-8 text ({reason})")


def _read_text(path: Optional[str], what: str) -> str:
    """The text of an input file; bytes that are not UTF-8 raise DataError."""
    data = _require_file(path, what).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, what, exc) from None


def _text_lines(path: str, what: str) -> Iterator[str]:
    """The lines of an input file, read and decoded one at a time, each with its newline.

    Bytes that are not UTF-8 raise the DataError ``_read_text`` raises for the whole file.
    """
    with open(path, "rb") as fh:
        try:
            yield from map(bytes.decode, fh)
        except UnicodeDecodeError as exc:  # in the line that ends where fh now is
            raise _not_utf8(path, what, exc, fh.tell() - len(exc.object)) from None


# ---------------------------------------------------------------------------
# resolve


class _RateLimiter:
    """Spaces queries at a fixed minimum interval of 1/qps.

    One limiter is shared by all resolvers and worker threads, so qps caps
    the total query rate, not the rate per resolver.
    """

    def __init__(self, qps: float):
        import threading  # live resolution only

        self._interval = 1.0 / qps if qps > 0 else 0.0
        self._next = 0.0
        self._lock = threading.Lock()

    def wait(self) -> None:
        if not self._interval:
            return
        with self._lock:
            now = time.monotonic()
            slot = max(self._next, now)
            self._next = slot + self._interval
        if slot > now:
            time.sleep(slot - now)


def _in_order(pool, fn, items: Iterable, window: int) -> Iterator:
    """``fn`` over ``items`` on ``pool``, in order; at most ``window`` calls are not yet yielded.

    ``Executor.map`` would submit a call for every item at once.
    """
    pending: collections.deque = collections.deque()
    try:
        for item in items:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def stage_resolve(cfg: PipelineConfig) -> None:
    from . import dns_resolution, domain_ingest
    from ._prefix_index import format_address

    diag = Diagnostics()
    list_text = _read_text(cfg.domain_list, "domain list")
    try:
        fmt = domain_ingest.ListFormat(cfg.domain_list_format)
    except ValueError:
        expected = "expected " + " or ".join(f.value for f in domain_ingest.ListFormat)
        raise UsageError(f"unknown domain list format {cfg.domain_list_format!r} ({expected})")
    records = domain_ingest.load_domain_list(list_text, fmt, diag)
    if cfg.special_purpose_table:
        table = dns_resolution.SpecialPurposeTable.from_lines(
            _read_text(cfg.special_purpose_table, "special-purpose table").split("\n"),
            cfg.special_purpose_table,
        )
    else:
        table = dns_resolution.SpecialPurposeTable.default()

    def tasks():  # in (rank, variant) order, as records ascend by rank and base < www
        return (
            (record.rank, rec.variant, rec.name)
            for record in records
            for rec in domain_ingest.expand_variants(record)
        )

    meta: dict = {}

    def choose_primary(labels: list[str]) -> None:
        primary = cfg.primary_resolver or labels[0]
        if primary not in labels:
            raise UsageError(f"primary resolver {primary!r} not among {labels}")
        meta.update(primary_resolver=primary, resolvers=labels)

    def replayed(groups, labels):
        """Each task's outcomes from its name's fixture answers, by label.

        ``labels`` is read once ``groups`` runs out, which for a streamed
        fixture is at its end; the fixture checks run then, inside the row
        generator, so a failure leaves no resolved.jsonl.
        """
        asked = found = 0
        for answers, (rank, variant, name) in zip(groups, tasks()):
            asked += 1
            found += len(answers)
            outcomes = []
            for res in answers.values():
                try:
                    dns_resolution.check_chain(name, res.cname_chain)
                except ChainLoopError:
                    outcomes.append(("chain_loops", None))
                    continue
                outcomes.append((None, res))
            yield rank, variant, outcomes
        labels = sorted(labels)
        if not labels:
            raise DataError(f"DNS fixture {cfg.dns_fixture} has no usable entries")
        choose_primary(labels)
        misses = asked * len(labels) - found
        if misses:
            diag.count("fixture_misses", misses)

    def resolved_rows(collected):
        """Each task's rows, in resolved.jsonl's order: by (resolver, domain) within a task."""
        for rank, variant, outcomes in collected:
            results = []
            for err_key, res in outcomes:
                if err_key:
                    diag.count(err_key)
                    continue
                results.append(dns_resolution.apply_filter(res, table, diag))
            ok = [r for r in results if r.status is dns_resolution.ResolutionStatus.OK]
            if len(ok) >= 2:
                agree = dns_resolution.cross_check(ok)
                diag.count("cross_check_agree" if agree else "cross_check_disagree")
            for res in sorted(results, key=operator.attrgetter("resolver_id", "domain")):
                yield {
                    "rank": rank,
                    "domain": res.domain,
                    "variant": variant.value,
                    "resolver": res.resolver_id,
                    "cnames": list(res.cname_chain),
                    "addresses": [format_address(*a) for a in sorted(res.addresses)],
                    "status": res.status.value,
                    "ts": res.observed_at,
                }

    def write(collected) -> int:
        rows = resolved_rows(collected)
        first = next(rows, None)
        if first is None:
            raise DataError("resolve produced zero resolution rows")
        return _write_rows(cfg.out("resolved.jsonl"), itertools.chain((first,), rows))

    if cfg.dns_fixture:
        _require_file(cfg.dns_fixture, "DNS fixture")
        names = [name for _, _, name in tasks()]
        list_counts = diag.counters.copy()
        labels: set[str] = set()
        lines = _text_lines(cfg.dns_fixture, "DNS fixture")
        try:
            groups = dns_resolution.replay_in_turn(lines, names, diag, labels)
            count = write(replayed(groups, labels))
        except dns_resolution.FixtureOrderError as exc:
            lines.close()
            log.warning(
                "DNS fixture %s: %s; replaying it from a whole-file index", cfg.dns_fixture, exc
            )
            diag.counters = list_counts  # the domain list's counts, and no fixture's
            fixture = dns_resolution.DnsFixture.load(
                _read_text(cfg.dns_fixture, "DNS fixture"), diag
            )
            groups = map(fixture.answers, names)
            count = write(replayed(groups, fixture.resolver_ids()))
    elif cfg.resolvers:
        try:
            resolvers = [dns_resolution.parse_endpoint(e) for e in cfg.resolvers]
        except ValueError as exc:
            raise UsageError(str(exc))
        labels = [r.resolver_id for r in resolvers]
        if len(set(labels)) < len(labels):  # a label names its rows in resolved.jsonl
            raise UsageError(f"resolver labels repeat: {labels}")
        choose_primary(labels)
        limiter = _RateLimiter(cfg.resolver_qps)

        def resolve_task(task):
            rank, variant, name = task
            out = []
            for resolver in resolvers:
                limiter.wait()
                try:
                    res = dns_resolution.resolve_records(name, resolver, cfg.timeout)
                except ChainLoopError:
                    out.append(("chain_loops", None))
                    continue
                out.append((None, res))
            return rank, variant, out

        import concurrent.futures  # live queries wait on the network, so they overlap

        workers = max(1, cfg.max_inflight)
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            count = write(_in_order(pool, resolve_task, tasks(), 2 * workers))
    else:
        raise UsageError("resolve needs a DNS fixture or at least one resolver endpoint")

    _write_text(cfg.out("resolve_meta.json"), json.dumps(meta, sort_keys=True) + "\n")
    _write_diag(cfg, "resolve", diag)
    log.info("resolve: %d rows from %d domains", count, len(records))


# ---------------------------------------------------------------------------
# map (addresses -> covering prefix/origin pairs)


def _load_rib(cfg: PipelineConfig, diag: Diagnostics) -> PrefixTrie:
    from . import rib_store

    if not cfg.ribs:
        raise MissingInputError("<ribs>", "RIB source")
    trie = rib_store.PrefixTrie()
    for path in cfg.ribs:
        data = _require_file(path, "RIB dump").read_bytes()
        try:
            trie.add_routes(rib_store.read_routes(data, diag), diag)
        except (EOFError, OSError, UnicodeDecodeError, zlib.error) as exc:
            # a cut or corrupt gzip stream, or a text dump that is not UTF-8
            raise DataError(f"{path}: unreadable RIB dump ({exc})")
    # The index lives until the stage ends; kept out of the collector, it no
    # longer turns the first allocations after the build into a full pass.
    gc.freeze()
    return trie


def stage_map(cfg: PipelineConfig) -> None:
    from ._prefix_index import format_prefix, parse_address

    diag = Diagnostics()
    resolved = _artifact(cfg, "resolved.jsonl", "resolve")
    primary = _primary_resolver(cfg)

    trie = _load_rib(cfg, diag)
    if len(trie) == 0 and trie.as_set_count == 0:
        raise DataError("RIB sources contained zero usable entries")
    origin_keys = trie.origin_keys

    def pair_rows(resolved_rows):
        for row in resolved_rows:
            if row["resolver"] != primary:
                continue
            keys: set[tuple[int, int, int, int]] = set()
            unreachable = []
            for addr_text in row["addresses"]:
                covering = origin_keys(*parse_address(addr_text))
                if covering:
                    keys.update(covering)
                else:
                    unreachable.append(addr_text)
                    diag.count("unreachable_addresses")
            yield {
                "rank": row["rank"],
                "domain": row["domain"],
                "variant": row["variant"],
                # (version, net, plen, origin) is PrefixOriginPair.key, so the order holds
                "pairs": [
                    {"prefix": format_prefix(version, net, plen), "asn": origin}
                    for version, net, plen, origin in sorted(keys)
                ],
                "unreachable": sorted(unreachable),
            }

    with resolved as resolved_rows:  # one resolver's rows keep resolved.jsonl's order
        count = _write_rows(cfg.out("pairs.jsonl"), pair_rows(resolved_rows))
    _write_diag(cfg, "map", diag)
    log.info("map: %d rows against %d prefix-origin pairs", count, len(trie))


# ---------------------------------------------------------------------------
# validate


def _roa_format(cfg: PipelineConfig) -> RoaFormat:
    from .roa_validation import RoaFormat

    if cfg.roa_format:
        try:
            return RoaFormat(cfg.roa_format)
        except ValueError:
            expected = "expected " + " or ".join(f.value for f in RoaFormat)
            raise UsageError(f"unknown ROA format {cfg.roa_format!r} ({expected})")
    return RoaFormat.JSON if Path(str(cfg.roas)).suffix.lower() == ".json" else RoaFormat.CSV


def stage_validate(cfg: PipelineConfig) -> None:
    from . import analytics, roa_validation
    from ._prefix_index import parse_prefix
    from .rib_store import PrefixOriginPair

    diag = Diagnostics()
    pairs = _artifact(cfg, "pairs.jsonl", "map")
    _require_file(cfg.roas, "ROA export")
    fmt = _roa_format(cfg)
    if fmt is roa_validation.RoaFormat.CSV:
        export = _text_lines(cfg.roas, "ROA export")  # one line at a time
    else:
        export = _read_text(cfg.roas, "ROA export")
    index = roa_validation.RoaIndex()
    for fields in roa_validation.roa_fields(export, fmt, diag):
        index.add(*fields)

    @functools.lru_cache(maxsize=None, typed=True)  # once per distinct pair; true is not AS 1
    def state_of(prefix: str, asn: int) -> ValidationState:
        return roa_validation.validate(PrefixOriginPair(parse_prefix(prefix), asn), index)

    def validated_rows(pair_rows):
        for row in pair_rows:
            # map wrote the pairs sorted and distinct, so their order is kept
            states = {
                (p["prefix"], p["asn"]): state_of(p["prefix"], p["asn"]) for p in row["pairs"]
            }
            coverage = analytics.domain_coverage(row["domain"], states.items())
            yield {
                "rank": row["rank"],
                "domain": row["domain"],
                "variant": row["variant"],
                "pairs": [
                    {"prefix": prefix, "asn": asn, "state": state.value}
                    for (prefix, asn), state in states.items()
                ],
                "covered": analytics.fraction_to_float(coverage.covered_fraction),
                "class": coverage.classification.value,
            }

    with pairs as pair_rows:
        count = _write_rows(cfg.out("validated.jsonl"), validated_rows(pair_rows))
    _write_diag(cfg, "validate", diag)
    log.info("validate: %d rows against %d ROAs", count, len(index))


# ---------------------------------------------------------------------------
# classify


def stage_classify(cfg: PipelineConfig) -> None:
    from . import analytics, cdn_classifier
    from .dns_resolution import ResolutionStatus

    diag = Diagnostics()
    resolved = _artifact(cfg, "resolved.jsonl", "resolve")
    pairs = _artifact(cfg, "pairs.jsonl", "map")
    primary = _primary_resolver(cfg)

    _require_file(cfg.as_registry, "AS registry")
    keyword_text = _read_text(cfg.keywords, "keyword file") if cfg.keywords else None
    keywords = cdn_classifier.load_keywords(keyword_text)
    if not keywords:
        raise DataError(f"{cfg.keywords}: keyword file holds no keywords")
    registry = cdn_classifier.registry_entries(_text_lines(cfg.as_registry, "AS registry"), diag)
    cdn_asns = cdn_classifier.spot_keywords(keywords, registry)

    external: dict[str, bool] = {}
    if cfg.external_labels:
        external = cdn_classifier.load_external_labels(
            _read_text(cfg.external_labels, "external labels"), diag
        )

    agreement = cdn_classifier.Agreement(external) if external else None

    def label_rows(resolved_rows):
        """The primary resolver's OK rows, each with the origin ASNs of its pairs.jsonl row."""
        ok = ResolutionStatus.OK.value
        labelled = (r for r in resolved_rows if r["resolver"] == primary and r["status"] == ok)
        joined = _joined(labelled, pairs, lambda r: [p["asn"] for p in r["pairs"]], ())
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
        _write_text(
            cfg.out("agreement.json"),
            json.dumps(
                {
                    "coverage": analytics.fraction_to_float(report.coverage),
                    "agree": analytics.fraction_to_float(report.agree),
                    "confusion": {
                        f"{h}{e}": report.confusion[(h, e)]
                        for h in (0, 1)
                        for e in (0, 1)
                    },
                },
                sort_keys=True,
                indent=2,
            )
            + "\n",
        )
    _write_diag(cfg, "classify", diag)
    log.info("classify: %d labels, %d CDN ASes spotted", count, len(cdn_asns))


# ---------------------------------------------------------------------------
# analyze


def _coverage(row: dict) -> DomainCoverage:
    """The coverage of a validated.jsonl row, counted from its state strings."""
    from .analytics import domain_coverage

    states = (((p["prefix"], p["asn"]), p["state"]) for p in row["pairs"])
    return domain_coverage(row["domain"], states)


def _bin_csv(stats: list[BinStat]) -> str:
    from .analytics import format_fraction

    lines = ["bin_lo,bin_hi,n,mean_covered,mean_valid,mean_invalid,mean_notfound,cdn_fraction"]
    for s in stats:
        lines.append(
            ",".join(
                [
                    str(s.bin.lo),
                    str(s.bin.hi),
                    str(s.domain_count),
                    format_fraction(s.mean_covered),
                    format_fraction(s.mean_valid),
                    format_fraction(s.mean_invalid),
                    format_fraction(s.mean_notfound),
                    format_fraction(s.cdn_fraction),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _rates_obj(rates: OverallRates) -> dict:
    from . import analytics

    return {
        "domains": rates.domains,
        "domains_with_data": rates.domains_with_data,
        "total_pairs": rates.total_pairs,
        "covered_pairs": rates.covered_pairs,
        "domain_weighted_covered": analytics.fraction_to_float(rates.domain_weighted_covered),
        "pair_weighted_covered": analytics.fraction_to_float(rates.pair_weighted_covered),
    }


def stage_analyze(cfg: PipelineConfig) -> None:
    from . import analytics
    from .domain_ingest import Variant

    diag = Diagnostics()
    validated = _artifact(cfg, "validated.jsonl", "validate")
    labels = _artifact(cfg, "cdn_labels.jsonl", "classify")

    # per variant: every domain, and the domains with a true chain label (a row
    # with no label row counts as not CDN)
    every = {v: analytics.BinnedSums(cfg.bin_size) for v in Variant}
    cdn = {v: analytics.BinnedSums(cfg.bin_size) for v in Variant}
    max_rank = 0
    overlap_sum, overlap_count = 0, 0

    def overlap_lines(validated_rows):
        """overlap.csv, one line per rank with a base row, as the ranks stream past."""
        nonlocal max_rank, overlap_sum, overlap_count
        yield "rank,domain,overlap\n"
        joined = _joined(validated_rows, labels, lambda r: bool(r["by_chain"]), False)
        for rank, rows in itertools.groupby(joined, key=lambda item: item[0]["rank"]):
            max_rank = rank
            prefixes: dict[Variant, set[str]] = {}
            name = None
            for row, by_chain in rows:
                variant = Variant(row["variant"])
                coverage = _coverage(row)
                every[variant].add(rank, coverage, by_chain)
                if by_chain:
                    cdn[variant].add(rank, coverage, by_chain)
                prefixes[variant] = {p["prefix"] for p in row["pairs"]}
                if variant is Variant.BASE:
                    name = row["domain"]
            if name is None:
                continue
            stat = analytics.prefix_overlap(
                name, prefixes.get(Variant.WWW, ()), prefixes.get(Variant.BASE, ())
            )
            yield f"{rank},{name},{analytics.format_fraction(stat.overlap)}\n"
            if stat.overlap is not None:
                overlap_sum += stat.overlap
                overlap_count += 1
        if not max_rank:
            raise DataError("validated.jsonl holds zero rows")

    with validated as validated_rows, _replacing(cfg.out("overlap.csv")) as fh:
        fh.writelines(overlap_lines(validated_rows))

    summary: dict[str, dict] = {}
    for variant in Variant:
        stats, cdn_stats = every[variant].stats(max_rank), cdn[variant].stats(max_rank)
        _write_text(cfg.out(f"bins_{variant.value}.csv"), _bin_csv(stats))
        _write_text(cfg.out(f"cdn_bins_{variant.value}.csv"), _bin_csv(cdn_stats))
        summary[variant.value] = _rates_obj(every[variant].rates())
    summary["overlap_mean"] = analytics.fraction_to_float(
        overlap_sum / overlap_count if overlap_count else None
    )
    _write_text(cfg.out("summary.json"), json.dumps(summary, sort_keys=True, indent=2) + "\n")
    _write_diag(cfg, "analyze", diag)
    log.info("analyze: %d bins over %d ranks", len(stats), max_rank)


# ---------------------------------------------------------------------------
# report


def stage_report(cfg: PipelineConfig) -> None:
    from . import analytics
    from .domain_ingest import Variant

    def report_inputs(validated_rows):
        """(rank, base name, www coverage, base coverage) of each rank, one rank at a time."""
        for rank, rows in itertools.groupby(validated_rows, key=operator.itemgetter("rank")):
            by_variant: dict[Variant, DomainCoverage] = {}
            name = None
            for row in rows:  # a rank's base rows come before its www
                variant = Variant(row["variant"])
                by_variant[variant] = _coverage(row)
                if variant is Variant.BASE:
                    name = row["domain"]
                elif name is None:
                    name = row["domain"].removeprefix("www.")
            yield rank, name, by_variant.get(Variant.WWW), by_variant.get(Variant.BASE)

    with _artifact(cfg, "validated.jsonl", "validate") as validated_rows:
        rows = analytics.coverage_report(report_inputs(validated_rows), cfg.top_n)

    width_name = max([len(r.domain) for r in rows], default=6)
    width_www = max([len(r.www_cell) for r in rows], default=3)
    text_lines = [
        f"{'rank':>6}  {'domain':<{width_name}}  {'www':<{width_www}}  w/o www"
    ]
    for r in rows:
        text_lines.append(
            f"{r.rank:>6}  {r.domain:<{width_name}}  {r.www_cell:<{width_www}}  {r.base_cell}"
        )
    _write_text(cfg.out("report.txt"), "\n".join(text_lines) + "\n")

    csv_lines = ["rank,domain,www_class,www_covered,www_total,base_class,base_covered,base_total"]
    for r in rows:
        def cells(cov: Optional[DomainCoverage]) -> list[str]:
            if cov is None or cov.classification is analytics.CoverageClass.NO_DATA:
                return ["n/a", "", ""]
            return [cov.classification.value, str(cov.covered_count), str(cov.total_pairs)]

        csv_lines.append(",".join([str(r.rank), r.domain] + cells(r.www) + cells(r.base)))
    _write_text(cfg.out("report.csv"), "\n".join(csv_lines) + "\n")
    log.info("report: %d rows", len(rows))


# ---------------------------------------------------------------------------
# driver


_STAGE_FUNCS = {
    "resolve": stage_resolve,
    "map": stage_map,
    "validate": stage_validate,
    "classify": stage_classify,
    "analyze": stage_analyze,
    "report": stage_report,
}


def run_stage(stage: str, config: PipelineConfig) -> int:
    """Run one stage (or "all"); returns 0, raising AuditError subclasses on failure."""
    config = config.validated()
    if stage == "all":
        for name in STAGES:
            _STAGE_FUNCS[name](config)
        return 0
    func = _STAGE_FUNCS.get(stage)
    if func is None:
        raise UsageError(f"unknown stage {stage!r}")
    func(config)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="rpkiaudit",
        description="Audit RPKI origin protection of a ranked website list.",
    )
    parser.add_argument("stage", choices=STAGES + ("all",), help="pipeline stage to run")
    parser.add_argument("--config", help=f"JSON config file (or ${CONFIG_ENV_VAR})")
    parser.add_argument("--output-dir", help="artifact directory")
    parser.add_argument("--domain-list", help="ranked domain list path")
    parser.add_argument("--domain-list-format", help="domain list format (checked by resolve)")
    parser.add_argument(
        "--fixture-dns", dest="dns_fixture", help="DNS fixture JSONL path (offline mode)"
    )
    parser.add_argument(
        "--resolver",
        action="append",
        dest="resolvers",
        metavar="LABEL=IP[:PORT]",
        help="live resolver endpoint (repeatable)",
    )
    parser.add_argument("--primary-resolver", help="resolver label used for mapping")
    parser.add_argument("--special-purpose-table", help="override packaged IANA table")
    parser.add_argument(
        "--rib", action="append", dest="ribs", help="RIB dump path, MRT or text (repeatable)"
    )
    parser.add_argument("--roas", help="validated ROA export (csv or json)")
    parser.add_argument("--roa-format", help="ROA export format (checked by validate)")
    parser.add_argument("--keywords", help="CDN keyword file")
    parser.add_argument("--as-registry", help="AS registry dump")
    parser.add_argument("--external-labels", help="external CDN classification csv")
    parser.add_argument("--bin-size", type=int, help="rank bin size (default 10000)")
    parser.add_argument("--top-n", type=int, help="report row count (default 10)")
    parser.add_argument("--timeout", type=float, help="DNS timeout seconds")
    parser.add_argument("--max-inflight", type=int, help="live DNS worker threads (default 16)")
    parser.add_argument(
        "--resolver-qps", type=float, help="total live DNS queries per second (0 = unlimited)"
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
        cfg = PipelineConfig.from_file(config_path) if config_path else PipelineConfig()
        for f in fields(cfg):  # flag dests are the field names
            value = getattr(args, f.name, None)
            if value is not None:
                setattr(cfg, f.name, value)
        return run_stage(args.stage, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MissingInputError, StageDependencyMissingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AuditError as exc:  # DataError and every other input fault
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
