"""Per-domain A/AAAA/CNAME resolution with fixture replay and live modes.

Fixture replay (JSON-lines of recorded answers) is the first-class path:
it is pure, deterministic and what the offline pipeline runs on.  Live
mode issues separate A and AAAA queries against a configured recursive
resolver and merges the answers.
"""

from __future__ import annotations

import heapq
import json
import time
from bisect import bisect_right
from importlib import resources
from typing import Callable, Iterable, Iterator, NamedTuple

from ._prefix_index import WIDTH, parse_address, parse_prefix
from .diagnostics import Diagnostics
from .domain_ingest import normalize_name
from .errors import ChainLoopError, DataError
from .vocabulary import ResolutionStatus, parse_decimal

MAX_CNAME_HOPS = 16


Address = tuple[int, int]  # (version, int), as the prefix codec parses it


class ResolutionResult(NamedTuple):  # a tuple, so that building one per answer is cheap
    domain: str
    resolver_id: str
    cname_chain: tuple[str, ...]
    addresses: frozenset[Address]
    status: ResolutionStatus
    observed_at: int


def check_chain(domain: str, chain: Iterable[str]) -> tuple[str, ...]:
    """Validate a CNAME chain: loop-free and within the hop cap."""
    chain = tuple(chain)
    if len(chain) > MAX_CNAME_HOPS:
        raise ChainLoopError(f"{domain}: chain exceeds {MAX_CNAME_HOPS} hops")
    seen = {domain}
    for name in chain:
        if name in seen:
            raise ChainLoopError(f"{domain}: CNAME chain repeats {name}")
        seen.add(name)
    return chain


# ---------------------------------------------------------------------------
# Fixture replay

_decode = json.JSONDecoder().scan_once  # raw_decode, but StopIteration for no value
_STATUS = {status.value: status for status in ResolutionStatus}


def fixture_result(line: str, diag: Diagnostics) -> ResolutionResult | None:
    """The answer one fixture line records, or None for a blank or malformed line.

    ``domain``, ``resolver`` and ``status`` are JSON strings, ``cnames``, ``a``
    and ``aaaa`` arrays of strings and ``ts`` a JSON integer; a line that breaks
    any of this is counted in ``malformed_fixture_lines``.
    """
    line = line.strip()
    if not line:
        return None
    try:
        obj, end = _decode(line, 0)  # json.loads: the stripped line has no space to skip
        if end != len(line) or type(obj) is not dict:
            raise TypeError("line is not one object")
        domain = obj.get("domain")
        resolver = obj.get("resolver", "fixture")
        status = obj.get("status", "ok")
        chain, a, aaaa = obj.get("cnames", []), obj.get("a", []), obj.get("aaaa", [])
        ts = obj.get("ts", 0)
        if not type(domain) is type(resolver) is type(status) is str:
            raise TypeError("domain, resolver and status must be strings")
        if not type(chain) is type(a) is type(aaaa) is list:
            raise TypeError("cnames, a and aaaa must be arrays")
        domain = normalize_name(domain)
        status = _STATUS.get(status.lower())
        if domain is None or status is None:
            raise ValueError(line)
        cnames = tuple(normalize_name(c) if type(c) is str else None for c in chain)
        if None in cnames:
            raise ValueError(line)
        addresses = frozenset(map(parse_address, a + aaaa))  # TypeError on a non-string
        if type(ts) is not int:  # a JSON integer; true, 1.9 and "1_0" are not
            raise TypeError(f"ts {ts!r} is not an integer")
    except (ValueError, TypeError, StopIteration, RecursionError):  # RecursionError: too deep
        diag.count("malformed_fixture_lines")
        return None
    if status is not ResolutionStatus.OK:
        if addresses:
            diag.count("fixture_status_conflicts")
        addresses = frozenset()
    elif not addresses:
        status = ResolutionStatus.EMPTY
    return ResolutionResult(domain, resolver, cnames, addresses, status, ts)


Answers = dict[str, ResolutionResult]  # one name's answers by resolver label


class FixtureOrderError(Exception):
    """A fixture line answers a name whose first turn has passed."""

    def __init__(self, lineno: int, domain: str) -> None:
        super().__init__(f"line {lineno} answers {domain} after its turn")
        self.lineno = lineno


def replay_in_turn(
    lines: Iterable[str],
    turns_of: Callable[[str], tuple[int, ...]],
    diag: Diagnostics,
    labels: set[str],
) -> Iterator[tuple[int, str, Answers]]:
    """``(turn, name, answers)`` of each answered name at each of its turns, ascending by
    turn, from one pass over fixture lines.

    ``turns_of(name)`` is the ascending turns of an asked name, () for any other.  A
    name's answers are complete once a line answers a name whose first turn comes
    later, or the lines run out; a name asked at two turns is answered at its first
    and its answers are kept until its last.  A repeated (name, resolver) keeps the
    later line's answer.  Every line is parsed and counted with ``fixture_result``,
    and the resolver label of every usable line is added to ``labels``, of names not
    asked too.  A line for a name whose first turn has passed raises
    FixtureOrderError: the fixture is not in turn order.
    """
    due: list[tuple[tuple[int, ...], str, Answers]] = []  # a heap by next turn
    now = -1  # the first turn of the name last answered
    answers: Answers = {}
    for lineno, line in enumerate(lines, 1):
        result = fixture_result(line, diag)
        if result is None:
            continue
        labels.add(result.resolver_id)
        turns = turns_of(result.domain)
        if not turns:
            continue
        if turns[0] < now:
            raise FixtureOrderError(lineno, result.domain)
        if turns[0] > now:
            while due and due[0][0][0] < turns[0]:
                yield _pop_due(due)
            now, answers = turns[0], {}
            heapq.heappush(due, (turns, result.domain, answers))
        answers[result.resolver_id] = result
    while due:
        yield _pop_due(due)


def _pop_due(due: list[tuple[tuple[int, ...], str, Answers]]) -> tuple[int, str, Answers]:
    """The answers due first; a name asked again goes back for its next turn."""
    turns, name, answers = heapq.heappop(due)
    if len(turns) > 1:
        heapq.heappush(due, (turns[1:], name, answers))
    return turns[0], name, answers


def lines_in_turn(
    lines: Iterable[str], turns_of: Callable[[str], tuple[int, ...]], directory: str
) -> Iterator[str]:
    """The fixture lines in an order ``replay_in_turn`` takes, by an external merge sort.

    Each line is keyed by (first turn of its name, line number).  Lines that answer
    no asked name, and blank or malformed ones, key as turn -1, so they come first
    in file order and each is still parsed and counted once by the replay.  Sorted
    runs are written to files in ``directory``.
    """
    from . import _merge_sort  # only a fixture out of turn order is sorted

    scratch = Diagnostics()  # the replay counts each line; the key does not

    def keyed() -> Iterator[tuple[int, int, str]]:
        for lineno, line in enumerate(lines, 1):
            result = fixture_result(line, scratch)
            turns = turns_of(result.domain) if result is not None else ()
            yield (turns[0] if turns else -1), lineno, line.removesuffix("\n")

    return _merge_sort.sorted_texts(keyed(), directory)


# ---------------------------------------------------------------------------
# Live resolution


class LiveResolver(NamedTuple):
    resolver_id: str
    ip: str
    port: int = 53

    def resolve(self, domain: str, timeout: float) -> ResolutionResult:
        from . import _dnswire  # fixture replay never loads the wire client

        rcodes: list[int] = []
        answers: list[tuple[str, int, object]] = []
        timeouts = 0
        for qtype in (_dnswire.QTYPE_A, _dnswire.QTYPE_AAAA):
            try:
                rcode, recs = _dnswire.query(self.ip, self.port, domain, qtype, timeout)
            except (OSError, _dnswire.WireError):
                timeouts += 1
                continue
            rcodes.append(rcode)
            answers.extend(recs)
        now = int(time.time())
        if _dnswire.RCODE_NOERROR not in rcodes:
            if timeouts == 2:
                failed = ResolutionStatus.TIMEOUT
            elif all(rc == _dnswire.RCODE_NXDOMAIN for rc in rcodes):
                failed = ResolutionStatus.NXDOMAIN
            else:
                failed = ResolutionStatus.SERVFAIL
            return ResolutionResult(domain, self.resolver_id, (), frozenset(), failed, now)

        cname_map = {o: v for o, t, v in answers if t == _dnswire.QTYPE_CNAME}
        chain: list[str] = []
        cursor = domain
        while cursor in cname_map and len(chain) <= MAX_CNAME_HOPS:
            cursor = str(cname_map[cursor])
            chain.append(cursor)
        terminal = chain[-1] if chain else domain
        addresses = frozenset(
            v  # type: ignore[misc]
            for o, t, v in answers
            if t in (_dnswire.QTYPE_A, _dnswire.QTYPE_AAAA) and o == terminal
        )
        status = ResolutionStatus.OK if addresses else ResolutionStatus.EMPTY
        return ResolutionResult(
            domain, self.resolver_id, tuple(chain), addresses, status, now
        )


def parse_endpoint(text: str) -> LiveResolver:
    """Parse a "label=ip:port" endpoint entry (port optional, v6 in brackets).

    A port is ASCII digits in 1-65535; anything else raises ValueError.
    """
    label, sep, rest = text.partition("=")
    if not sep or not label.strip() or not rest.strip():
        raise ValueError(f"expected label=ip[:port], got {text!r}")
    rest = rest.strip()
    port_text = "53"
    if rest.startswith("["):
        host, _, tail = rest[1:].partition("]")
        if tail:
            if not tail.startswith(":"):
                raise ValueError(f"expected [ip]:port, got {rest!r}")
            port_text = tail[1:]
    elif rest.count(":") == 1:
        host, _, port_text = rest.partition(":")
    else:
        host = rest
    port = parse_decimal(port_text)
    if not 1 <= port <= 65535:
        raise ValueError(f"port {port} is outside 1-65535")
    parse_address(host)
    return LiveResolver(label.strip(), host, port)


# ---------------------------------------------------------------------------
# Special-purpose filtering


class SpecialPurposeTable:
    """Registry blocks, each a (version, net, plen) prefix, and per family the disjoint,
    ascending address ranges they span: one ``bisect`` finds the range an address is in."""

    def __init__(self, blocks: Iterable[tuple[int, int, int]]) -> None:
        self.blocks = tuple(blocks)
        # per family: the first and the last address of each merged range
        self._spans: dict[int, tuple[list[int], list[int]]] = {4: ([], []), 6: ([], [])}
        for version, net, plen in sorted(self.blocks):
            firsts, lasts = self._spans[version]
            last = net | ((1 << (WIDTH[version] - plen)) - 1)
            if lasts and net <= lasts[-1] + 1:
                lasts[-1] = max(lasts[-1], last)
            else:
                firsts.append(net)
                lasts.append(last)

    @classmethod
    def from_lines(
        cls, lines: Iterable[str], source: str = "special-purpose table"
    ) -> "SpecialPurposeTable":
        """Parse one CIDR per line; a malformed line raises DataError naming it."""
        blocks = []
        for lineno, line in enumerate(lines, 1):
            entry = line.split("#", 1)[0].strip()
            if not entry:
                continue
            try:
                blocks.append(parse_prefix(entry))
            except ValueError:
                raise DataError(f"{source}:{lineno}: not a CIDR prefix: {entry!r}")
        return cls(blocks)

    @classmethod
    def default(cls) -> "SpecialPurposeTable":
        text = (
            resources.files("rpkiaudit")
            .joinpath("data/special_purpose.txt")
            .read_text("utf-8")
        )
        return cls.from_lines(text.split("\n"))

    def contains(self, addr: Address) -> bool:
        version, value = addr
        firsts, lasts = self._spans[version]
        i = bisect_right(firsts, value)
        return i > 0 and value <= lasts[i - 1]


def apply_filter(
    result: ResolutionResult,
    table: SpecialPurposeTable,
    diag: Diagnostics | None = None,
) -> ResolutionResult:
    """Return the result with special-purpose answers removed and counted."""
    rejected = [addr for addr in result.addresses if table.contains(addr)]
    if not rejected:
        return result
    if diag is not None:
        diag.count("special_purpose_rejected", len(rejected))
    return result._replace(addresses=result.addresses.difference(rejected))


# ---------------------------------------------------------------------------
# Cross-resolver consistency


def cross_check(results: list[ResolutionResult]) -> bool:
    """Whether one name's Ok results agree on their kept addresses."""
    return len({r.addresses for r in results}) == 1
