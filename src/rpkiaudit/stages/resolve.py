"""resolve: the ranked list's names, and their www variants, to addresses."""

from __future__ import annotations

import collections
import itertools
import json
import operator
import time
from typing import Iterable, Iterator

from .. import dns_resolution, domain_ingest
from .._prefix_index import format_address
from ..cli import PipelineConfig, _open_input, _Outputs, _text_lines, _writing
from ..diagnostics import Diagnostics, log
from ..errors import ChainLoopError, DataError, UsageError
from ..vocabulary import ResolutionStatus


class _RateLimiter:
    """Spaces queries at a fixed minimum interval of 1/qps.

    One limiter is shared by all resolvers and worker threads, so qps caps
    the total query rate, not the rate per resolver.
    """

    def __init__(self, qps: float):
        import threading  # live resolution only

        self._interval = 1 / qps if qps > 0 else 0.0  # an int over float's range is 0.0
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


def run(cfg: PipelineConfig, diag: Diagnostics, out: _Outputs) -> str:
    list_file = _open_input(cfg.domain_list, "domain list")
    try:
        fmt = domain_ingest.ListFormat(cfg.domain_list_format)
    except ValueError:
        list_file.close()
        expected = "expected " + " or ".join(f.value for f in domain_ingest.ListFormat)
        raise UsageError(f"unknown domain list format {cfg.domain_list_format!r} ({expected})")
    names = domain_ingest.read_domain_list(_text_lines(list_file, "domain list"), fmt, diag)
    if cfg.special_purpose_table:
        with _open_input(cfg.special_purpose_table, "special-purpose table") as table_file:
            table = dns_resolution.SpecialPurposeTable.from_lines(
                _text_lines(table_file, "special-purpose table"), cfg.special_purpose_table
            )
    else:
        table = dns_resolution.SpecialPurposeTable.default()

    meta: dict = {}

    def choose_primary(labels: list[str]) -> None:
        primary = cfg.primary_resolver or labels[0]
        if primary not in labels:
            raise UsageError(f"primary resolver {primary!r} not among {labels}")
        meta.update(primary_resolver=primary, resolvers=labels)

    def replayed(lines):
        """Each task's fixture answers, replayed in turn from ``lines``.

        The labels are known once the lines run out; the fixture checks run
        then, inside the row generator, so a failure leaves no resolved.jsonl.
        """
        labels: set[str] = set()
        found = 0
        for turn, _, answers in dns_resolution.replay_in_turn(lines, names.turns, diag, labels):
            found += len(answers)
            yield (*names.task(turn), answers.values())
        if not labels:
            raise DataError(f"DNS fixture {cfg.dns_fixture} has no usable entries")
        choose_primary(sorted(labels))
        misses = names.task_count() * len(labels) - found
        if misses:
            diag.count("fixture_misses", misses)

    def resolved_rows(collected):
        """Each task's rows, in resolved.jsonl's order: by (resolver, domain) within a task.

        An answer whose CNAME chain loops or runs too long is dropped and counted.
        """
        for rank, variant, answers in collected:
            results = []
            for res in answers:
                try:
                    dns_resolution.check_chain(res.domain, res.cname_chain)
                except ChainLoopError:
                    diag.count("chain_loops")
                    continue
                results.append(dns_resolution.apply_filter(res, table, diag))
            ok = [r for r in results if r.status is ResolutionStatus.OK]
            if len(ok) >= 2:
                agree = dns_resolution.cross_check(ok)
                diag.count("cross_check_agree" if agree else "cross_check_disagree")
            texts: dict = {}  # each address set's texts, once for the resolvers that agree
            for res in sorted(results, key=operator.attrgetter("resolver_id", "domain")):
                if res.addresses not in texts:
                    texts[res.addresses] = [format_address(*a) for a in sorted(res.addresses)]
                yield {
                    "rank": rank,
                    "domain": res.domain,
                    "variant": variant,  # a member is its text
                    "resolver": res.resolver_id,
                    "cnames": res.cname_chain,  # a tuple encodes as an array
                    "addresses": texts[res.addresses],
                    "status": res.status,  # a member is its text
                    "ts": res.observed_at,
                }

    def write(collected) -> int:
        rows = resolved_rows(collected)
        first = next(rows, None)  # before resolved.jsonl opens: the fixture's faults come first
        if first is None:
            raise DataError("resolve produced zero resolution rows")
        return out.write("resolved.jsonl", itertools.chain((first,), rows))

    if cfg.dns_fixture:
        list_counts = diag.counters.copy()
        try:
            with _open_input(cfg.dns_fixture, "DNS fixture") as fixture_file:
                count = write(replayed(_text_lines(fixture_file, "DNS fixture")))
        except dns_resolution.FixtureOrderError as exc:
            import tempfile  # only a fixture out of turn order is sorted

            log("WARNING", f"DNS fixture {cfg.dns_fixture}: {exc}; replaying it in turn order"
                " through an external merge sort")
            diag.counters = list_counts  # the domain list's counts, and no fixture's
            with _writing(cfg.output_dir):
                out.dir.mkdir(parents=True, exist_ok=True)
                runs_dir = tempfile.TemporaryDirectory(prefix=".resolve-", dir=cfg.output_dir)
            with runs_dir as runs, _open_input(cfg.dns_fixture, "DNS fixture") as fixture_file:
                lines = _text_lines(fixture_file, "DNS fixture")
                count = write(replayed(dns_resolution.lines_in_turn(lines, names.turns, runs)))
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
            answers = []
            for resolver in resolvers:
                limiter.wait()
                answers.append(resolver.resolve(name, cfg.timeout))
            return rank, variant, answers

        import concurrent.futures  # live queries wait on the network, so they overlap

        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.max_inflight) as pool:
            count = write(_in_order(pool, resolve_task, names.tasks(), 2 * cfg.max_inflight))
    else:
        raise UsageError("resolve needs a DNS fixture or at least one resolver endpoint")

    out.write("resolve_meta.json", json.dumps(meta, sort_keys=True) + "\n")
    return f"{count} rows from {len(names)} domains"
