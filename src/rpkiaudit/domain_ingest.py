"""Ranked domain list loading and www/base variant expansion."""

from __future__ import annotations

import enum
import re
from typing import Iterable, Iterator

from .diagnostics import Diagnostics
from .errors import DataError
from .vocabulary import Variant, parse_decimal

MAX_NAME_LEN = 253
MAX_LABEL_LEN = 63

# A label is 1 to MAX_LABEL_LEN of [a-z0-9-_] that neither starts nor ends with "-".
_LABEL = rf"(?!-)[a-z0-9_-]{{1,{MAX_LABEL_LEN}}}(?<!-)"
_NAME = re.compile(rf"(?:{_LABEL}\.)*{_LABEL}")


class ListFormat(enum.Enum):
    CSV_RANK_DOMAIN = "csv_rank_domain"
    PLAIN_ORDERED = "plain_ordered"


def normalize_name(raw: str) -> str | None:
    """Normalize a domain name to lowercase wire format, or None if malformed.

    Accepts ASCII names only (internationalized names must already be
    punycode); strips one trailing dot; enforces label and total length
    limits.
    """
    name = raw.strip().lower()
    if name.endswith("."):
        name = name[:-1]
    if len(name) > MAX_NAME_LEN or not _NAME.fullmatch(name):
        return None
    return name


def read_domain_list(
    lines: Iterable[str],
    fmt: ListFormat = ListFormat.CSV_RANK_DOMAIN,
    diag: Diagnostics | None = None,
) -> "NameIndex":
    """Each listed name's lowest rank, from a ranked list read one line at a time.

    CSV form is "rank,domain" with no header; plain form is one domain per
    line with the physical line number as rank.  Malformed lines are skipped
    and counted on the diagnostics channel; duplicate names keep the lowest
    rank.  Raises DataError if nothing usable remains or if the CSV form
    repeats a rank.
    """
    diag = diag if diag is not None else Diagnostics()
    ranks: dict[str, int] = {}
    last_rank = 0
    # The ranks read so far, kept only once they stop ascending or a name repeats:
    # until then each rank is new, and ranks.values() holds every one of them.
    seen_ranks: set[int] | None = None

    for lineno, line in enumerate(lines, start=1):
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
            if seen_ranks is None and (rank <= last_rank or name in ranks):
                seen_ranks = set(ranks.values())
            if seen_ranks is not None:
                if rank in seen_ranks:
                    raise DataError(f"rank {rank} repeats (line {lineno})")
                seen_ranks.add(rank)
            last_rank = rank
        else:
            rank = lineno
            name = normalize_name(line)
            if name is None:
                diag.count("malformed_lines")
                continue
        if name in ranks:
            diag.count("duplicate_names")
            ranks[name] = min(ranks[name], rank)
        else:
            ranks[name] = rank

    if not ranks:
        raise DataError("domain list contains no valid records")
    return NameIndex(ranks)


def www_variant(name: str) -> str | None:
    """The www name resolve also asks for a listed name, or None when it has none.

    A name whose first label is already "www" is not double-prefixed, and one
    whose www name would be too long has none.
    """
    if name.split(".", 1)[0] == "www":
        return None
    www_name = "www." + name
    return www_name if len(www_name) <= MAX_NAME_LEN else None


class NameIndex:
    """Each listed name with its lowest rank: the one structure resolve keeps per name.

    Resolve asks for a listed name at turn 2·rank and for its www variant at
    turn 2·rank + 1, so turn order is the (rank, variant) order of
    resolved.jsonl.  A www name that is listed too is asked at two turns.
    """

    __slots__ = ("ranks",)

    def __init__(self, ranks: dict[str, int]) -> None:
        self.ranks = ranks

    def __len__(self) -> int:
        return len(self.ranks)

    @staticmethod
    def task(turn: int) -> tuple[int, Variant]:
        """The (rank, variant) asked at ``turn``."""
        rank, www = divmod(turn, 2)
        return rank, Variant.WWW if www else Variant.BASE

    def turns(self, name: str) -> tuple[int, ...]:
        """The turns at which resolve asks for ``name``, ascending; () when it is not asked."""
        rank = self.ranks.get(name)
        if name.startswith("www.") and www_variant(name[4:]) == name:
            parent = self.ranks.get(name[4:])
            if parent is not None:
                www = 2 * parent + 1
                return (www,) if rank is None else tuple(sorted((www, 2 * rank)))
        return () if rank is None else (2 * rank,)

    def task_count(self) -> int:
        """How many (rank, variant) tasks resolve asks."""
        return len(self.ranks) + sum(www_variant(name) is not None for name in self.ranks)

    def tasks(self) -> Iterator[tuple[int, Variant, str]]:
        """Each (rank, variant, name) task in turn order; sorts the names by rank."""
        for name in sorted(self.ranks, key=self.ranks.__getitem__):
            rank = self.ranks[name]
            yield rank, Variant.BASE, name
            www_name = www_variant(name)
            if www_name is not None:
                yield rank, Variant.WWW, www_name
