"""Staged, resumable pipeline driver: the config, artifact I/O and the stage runner.

Each stage, a module of ``rpkiaudit.stages``, reads the previous stage's
on-disk artifacts and writes its own, so expensive inputs (DNS campaigns,
RIB parses) are cached between runs.
Artifacts are canonically sorted: identical inputs give identical bytes.

Exit codes: 0 success, 1 usage error, 2 a path a stage reads or writes is missing or
cannot be opened (an input, an upstream artifact or an output), 3 data error (inputs
parsed but nothing usable).  Each is the ``exit_code`` of the error's class.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import importlib
import json
import logging
import operator
import os
import sys
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .diagnostics import Diagnostics
from .errors import AuditError, DataError, NotUtf8Error, PathError, UsageError

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
        with _open_input(path, "config file") as fh:
            data = fh.read()
        try:
            doc = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise UsageError(f"config {path}: {exc}")
        if not isinstance(doc, dict):
            raise UsageError(f"config {path}: expected a JSON object")
        unknown = sorted(doc.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise UsageError(f"config {path}: unknown key {unknown[0]!r}")
        return cls(**doc)

    def validated(self) -> "PipelineConfig":
        """Check each value against its field's type, and each number against its range;
        a single str makes a list."""
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
        if not 0 < self.timeout <= 3600:  # also NaN; 0 would make every query time out
            raise UsageError(f"timeout must be in (0, 3600] seconds, not {self.timeout!r}")
        if not self.resolver_qps >= 0:  # also NaN
            raise UsageError(f"resolver_qps must be >= 0, not {self.resolver_qps!r}")
        if self.max_inflight < 1:
            raise UsageError(f"max_inflight must be >= 1, not {self.max_inflight!r}")
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
def _writing(path: Path | str) -> Iterator[None]:
    """A block that makes or writes ``path``; an OSError in it exits 2 naming the path."""
    try:
        yield
    except OSError as exc:
        raise PathError(f"cannot write {path}: {exc.strerror}") from None


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[typing.TextIO]:
    """A text file that replaces ``path`` when the block ends; a fault leaves ``path`` as is.

    A directory that cannot be made, or a file that cannot be opened or replaced, exits 2.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        with _writing(path):
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


# The C encoder JSONEncoder(sort_keys=True, separators=(",", ":")).encode builds per call,
# built once and with no cycle markers: a row is built afresh from decoded values.
_iterencode_row = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
    ":", ",", True, False, True,
)
_decode_value = json.JSONDecoder().scan_once  # raw_decode, less the frame around it


def _write_rows(path: Path, rows: Iterable[dict]) -> int:
    """Write each row as one JSONL line as it comes; returns the row count."""
    count = 0
    with _replacing(path) as fh:
        for count, row in enumerate(rows, 1):
            fh.write("".join(_iterencode_row(row, 0)) + "\n")
    return count


def _jsonl_rows(path: Path) -> Iterator[dict]:
    """The rows of a JSONL file, read and yielded one line at a time.

    A line that is exactly one JSON object is decoded in one call; any other
    line goes to ``_line_row``, so that a fault names its line.
    """
    with _open_input(str(path), "artifact") as fh:
        for lineno, line in enumerate(fh, 1):
            if line[:1] == b"{":
                try:
                    text = line.decode("utf-8")
                    row, end = _decode_value(text, 0)
                except (ValueError, StopIteration, RecursionError):  # not UTF-8 or JSON, too deep
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
    except (ValueError, RecursionError) as exc:  # a truncated row, undecodable bytes, deep nesting
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

    The call exits 2 when the artifact's stage has not run, and the ``with`` block
    when the artifact cannot be opened (a directory, say).  In the block, a bad row
    is a DataError (exit 3) naming the artifact and its domain; a row's rank, where
    it has one, is an int >= 1 and its domain is text, and rows arrive strictly
    ascending in the artifact's order.
    """
    path = cfg.out(name)
    if not path.exists():
        raise PathError(f"artifact {str(path)!r} not found; run the {stage!r} stage first")
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


def _open_input(path: Optional[str], what: str) -> typing.BinaryIO:
    """An input file opened for binary reading; exit 2 when it is absent or cannot be
    opened (a directory, say).  A pipe opens like a file."""
    if not path:
        raise PathError(f"missing {what}: <{what}>")
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise PathError(f"missing {what}: {path}") from None
    except OSError as exc:
        raise PathError(f"cannot read {what} {path}: {exc.strerror}") from None


def _not_utf8(fh: typing.BinaryIO, what: str, exc: UnicodeDecodeError, offset: int) -> DataError:
    """The error for undecodable bytes at ``exc``'s positions, ``offset`` bytes into the file."""
    return DataError(f"{fh.name}: {what} is not UTF-8 text ({NotUtf8Error(exc, offset)})")


def _text_lines(fh: typing.BinaryIO, what: str) -> Iterator[str]:
    """The lines of an open input, read and decoded one at a time, each with its newline.

    The input is closed at its end.  Bytes that are not UTF-8 raise a DataError
    that names them as decoding the whole file at once would.
    """
    read = 0
    with fh:
        try:
            for line in fh:
                read += len(line)
                yield line.decode("utf-8")
        except UnicodeDecodeError as exc:  # in the line that ends where the read is
            raise _not_utf8(fh, what, exc, read - len(exc.object)) from None


# Bytes _text_chunks reads at a time: a file-system block, as much as the line reader
# buffers, so reading a json export holds no more than reading a csv one.
_CHUNK = 1 << 12


def _text_chunks(fh: typing.BinaryIO, what: str) -> Iterator[str]:
    """The text of an open input, read ``_CHUNK`` bytes at a time and decoded as it comes.

    A character cut between two reads is completed by the second.  The input is
    closed at its end, and bytes that are not UTF-8 raise ``_text_lines``' DataError.
    """
    decode = codecs.getincrementaldecoder("utf-8")().decode
    read = 0

    def chunk() -> bytes:
        nonlocal read
        data = fh.read(_CHUNK)
        read += len(data)
        return data

    with fh:
        try:
            while True:
                start = read
                yield decode(chunk())  # no name here holds the chunk or its text meanwhile
                if read == start:
                    break
            decode(b"", True)  # bytes of a character the file cut short
        except UnicodeDecodeError as exc:  # in bytes that end where the read is
            raise _not_utf8(fh, what, exc, read - len(exc.object)) from None


# ---------------------------------------------------------------------------
# driver


def run_stage(stage: str, config: PipelineConfig) -> int:
    """Run one stage (or "all"); returns 0, raising AuditError subclasses on failure.

    A stage is the module ``rpkiaudit.stages.<stage>``, imported only when it
    runs, so a stage child loads and compiles no other stage's code.
    """
    config = config.validated()
    if stage != "all" and stage not in STAGES:
        raise UsageError(f"unknown stage {stage!r}")
    for name in STAGES if stage == "all" else (stage,):
        importlib.import_module(f"{__package__}.stages.{name}").run(config)
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
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    # python -m rpkiaudit.cli: the stage modules import this module, not a second copy
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(main())
