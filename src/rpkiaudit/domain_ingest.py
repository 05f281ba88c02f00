"""Ranked domain list loading, www/base variant expansion and rank binning."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .diagnostics import Diagnostics
from .errors import DuplicateRankError, EmptyInputError
from .vocabulary import Variant, parse_decimal

MAX_NAME_LEN = 253
MAX_LABEL_LEN = 63

_LABEL_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")


class ListFormat(enum.Enum):
    CSV_RANK_DOMAIN = "csv_rank_domain"
    PLAIN_ORDERED = "plain_ordered"


@dataclass(frozen=True, slots=True)
class DomainRecord:
    rank: int
    name: str
    variant: Variant = Variant.BASE


@dataclass(frozen=True, slots=True)
class RankBin:
    index: int
    lo: int
    hi: int


def normalize_name(raw: str) -> str | None:
    """Normalize a domain name to lowercase wire format, or None if malformed.

    Accepts ASCII names only (internationalized names must already be
    punycode); strips one trailing dot; enforces label and total length
    limits.
    """
    name = raw.strip().lower()
    if name.endswith("."):
        name = name[:-1]
    if not name or len(name) > MAX_NAME_LEN or not name.isascii():
        return None
    for label in name.split("."):
        if not 1 <= len(label) <= MAX_LABEL_LEN:
            return None
        if label[0] == "-" or label[-1] == "-":
            return None
        if not set(label) <= _LABEL_CHARS:
            return None
    return name


def load_domain_list(
    text: str,
    fmt: ListFormat = ListFormat.CSV_RANK_DOMAIN,
    diag: Diagnostics | None = None,
) -> list[DomainRecord]:
    """Parse a ranked domain list into Base records, ascending by rank.

    CSV form is "rank,domain" with no header; plain form is one domain per
    line with the physical line number as rank.  Malformed lines are skipped
    and counted on the diagnostics channel; duplicate names keep the lowest
    rank.  Raises EmptyInputError if nothing usable remains and
    DuplicateRankError if the CSV form repeats a rank.
    """
    diag = diag if diag is not None else Diagnostics()
    by_name: dict[str, int] = {}
    seen_ranks: set[int] = set()

    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r").strip()
        if not line:
            continue
        if fmt is ListFormat.CSV_RANK_DOMAIN:
            parts = line.split(",")
            if len(parts) != 2:
                diag.count("malformed_lines")
                continue
            rank_field, name_field = parts
            try:
                rank = parse_decimal(rank_field.strip())
            except ValueError:
                diag.count("malformed_lines")
                continue
            if rank < 1:
                diag.count("malformed_lines")
                continue
            name = normalize_name(name_field)
            if name is None:
                diag.count("malformed_lines")
                continue
            if rank in seen_ranks:
                raise DuplicateRankError(f"rank {rank} repeats (line {lineno})")
            seen_ranks.add(rank)
        else:
            rank = lineno
            name = normalize_name(line)
            if name is None:
                diag.count("malformed_lines")
                continue
        if name in by_name:
            diag.count("duplicate_names")
            by_name[name] = min(by_name[name], rank)
        else:
            by_name[name] = rank

    if not by_name:
        raise EmptyInputError("domain list contains no valid records")
    records = [DomainRecord(rank, name) for name, rank in by_name.items()]
    records.sort(key=lambda r: r.rank)
    return records


def expand_variants(record: DomainRecord) -> list[DomainRecord]:
    """Return the base record plus its www-prefixed sibling.

    Names whose first label is already "www" are not double-prefixed, and
    Www records expand to themselves, so the operation is idempotent over
    its own output.
    """
    if record.variant is Variant.WWW:
        return [record]
    if record.name.split(".", 1)[0] == "www":
        return [record]
    www_name = "www." + record.name
    if len(www_name) > MAX_NAME_LEN:
        return [record]
    return [record, DomainRecord(record.rank, www_name, Variant.WWW)]


def make_bins(max_rank: int, bin_size: int) -> list[RankBin]:
    """Partition [1, max_rank] into consecutive bins of bin_size ranks."""
    if bin_size < 1:
        raise ValueError("bin_size must be >= 1")
    bins = []
    index = 0
    lo = 1
    while lo <= max_rank:
        hi = min(lo + bin_size - 1, max_rank)
        bins.append(RankBin(index, lo, hi))
        index += 1
        lo = hi + 1
    return bins
