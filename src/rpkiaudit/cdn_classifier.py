"""CDN detection: CNAME-chain heuristic, AS-registry keyword spotting, and
agreement against an external classification."""

from __future__ import annotations

import re
from importlib import resources
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from .diagnostics import Diagnostics
from .domain_ingest import normalize_name
from .vocabulary import ResolutionStatus, covered_share, parse_asn

if TYPE_CHECKING:  # classify reads resolved.jsonl rows and loads no resolver code
    from .dns_resolution import ResolutionResult

CHAIN_THRESHOLD = 2


class CdnLabel(NamedTuple):
    domain: str
    chain_length: int
    by_chain: bool


def classify_by_chain(result: ResolutionResult) -> CdnLabel:
    """Label a resolved domain CDN-served iff it sits behind >= 2 CNAMEs."""
    if result.status is not ResolutionStatus.OK:
        raise ValueError(f"{result.domain}: classify_by_chain needs an Ok result")
    length = len(result.cname_chain)
    return CdnLabel(result.domain, length, length >= CHAIN_THRESHOLD)


def spot_keywords(keywords: Iterable[str], registry: Iterable[tuple[int, str]]) -> set[int]:
    """ASNs whose (asn, description) registry entry contains any keyword (case-folded).

    A substring match over assignment-list descriptions; by construction a
    lower bound on each operator's AS footprint.
    """
    tokens = [k.strip().lower() for k in keywords if k.strip()]
    if not tokens:
        raise ValueError("keyword list must be nonempty")
    # one scan of each description for all tokens: a match anywhere is a token in it
    search = re.compile("|".join(map(re.escape, tokens))).search
    return {asn for asn, description in registry if search(description.lower())}


def classify_by_asn(origin_asns: Iterable[int], cdn_asns: set[int]) -> bool:
    """True iff any of the domain's origin ASes belongs to a CDN."""
    return not cdn_asns.isdisjoint(origin_asns)


def external_label(external: Mapping[str, bool], domain: str) -> bool | None:
    """A domain's external label; a www-prefixed name falls back to its base name."""
    value = external.get(domain)
    if value is None and domain.startswith("www."):
        value = external.get(domain[4:])
    return value


class Agreement:
    """Agreement of the chain heuristic with an external classification, one label at a time.

    Coverage is the share of labels with an external label; the agreement
    share and 2x2 confusion counts are computed over that subset.
    """

    def __init__(self):
        self.labels = 0
        # (heuristic, external) -> count, over the labels with an external label;
        # a pair of bools finds its 0/1 key, as False == 0 and True == 1
        self.confusion = {(h, e): 0 for h in (0, 1) for e in (0, 1)}

    def add(self, by_chain: bool, external: bool | None) -> None:
        self.labels += 1
        if external is not None:
            self.confusion[by_chain, external] += 1

    def doc(self) -> dict:
        """The agreement.json object; ``agree`` is None when no label has an external one."""
        if not self.labels:
            raise ValueError("no labels to compare")
        matched = sum(self.confusion.values())
        agreed = self.confusion[0, 0] + self.confusion[1, 1]
        return {
            "coverage": covered_share(matched, self.labels),
            "agree": covered_share(agreed, matched) if matched else None,
            "confusion": {f"{h}{e}": n for (h, e), n in self.confusion.items()},
        }


# ---------------------------------------------------------------------------
# Input loaders


def load_keywords(lines: Iterable[str] | None = None) -> list[str]:
    """The tokens of a keyword file's lines: one lowercase token per line, '#' comments.

    With no lines, the packaged default list (the well-known CDN operator
    names) is used.
    """
    if lines is None:
        lines = (
            resources.files("rpkiaudit")
            .joinpath("data/cdn_keywords.txt")
            .read_text("utf-8")
            .split("\n")
        )
    out = []
    for line in lines:
        token = line.split("#", 1)[0].strip().lower()
        if token:
            out.append(token)
    return out


def registry_entries(
    lines: Iterable[str], diag: Diagnostics | None = None
) -> Iterator[tuple[int, str]]:
    """The first (asn, description) of each ASN of an AS assignment list's lines, in file order.

    A line is "ASN  description" or "asn,description" CSV; the separator is
    sniffed per line.  Only the set of ASNs seen so far is kept.
    """
    diag = diag if diag is not None else Diagnostics()
    seen: set[int] = set()
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        asn_field, description = _split_registry_line(line)
        if asn_field is None:
            diag.count("malformed_registry_lines")
            continue
        try:
            asn = parse_asn(asn_field)
        except ValueError:
            diag.count("malformed_registry_lines")
            continue
        if asn in seen:
            diag.count("duplicate_registry_asns")
            continue
        seen.add(asn)
        yield asn, description.strip()


_SPACE = re.compile(r"\s")  # matches where str.isspace is true, on every code point


def _split_registry_line(line: str) -> tuple[str | None, str]:
    comma = line.find(",")
    found = _SPACE.search(line)
    space = found.start() if found else len(line)
    if 0 <= comma < space:
        import csv  # only a CSV registry line needs the csv module

        try:
            row = next(csv.reader([line]), None)
        except csv.Error:  # a field over the csv module's size limit, or a bare CR
            return None, ""
        if not row or len(row) < 2:
            return None, ""
        return row[0], ",".join(row[1:])
    if space == len(line):
        return None, ""
    return line[:space], line[space:]


def load_external_labels(
    lines: Iterable[str], diag: Diagnostics | None = None
) -> dict[str, bool]:
    """The labels of an external classification CSV's lines: "domain,0|1" per line."""
    diag = diag if diag is not None else Diagnostics()
    out: dict[str, bool] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_field, sep, flag = line.rpartition(",")
        name = normalize_name(name_field) if sep else None
        if not name or flag.strip() not in ("0", "1"):
            diag.count("malformed_external_lines")
            continue
        out[name] = flag.strip() == "1"
    return out
