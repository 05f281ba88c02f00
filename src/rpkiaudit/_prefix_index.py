"""All-covering-prefix index over integer prefixes of both address families.

A prefix is (version, net, plen) with host bits zero.  Each family keeps one
dict per prefix length that is present, keyed by ``net >> (width - plen)``,
whose values are the Buckets of items stored at each prefix.  A query probes
each present length once, so it finds every stored prefix that covers the
queried address or prefix, not just the longest one.
"""

from __future__ import annotations

from typing import Any, Iterator

WIDTH = {4: 32, 6: 128}


class Bucket(list):
    """The distinct items stored at one prefix; ``memo`` is free for the owner."""

    __slots__ = ("version", "net", "plen", "memo")

    def __init__(self, version: int, net: int, plen: int) -> None:
        self.version, self.net, self.plen, self.memo = version, net, plen, None


class PrefixIndex:
    def __init__(self) -> None:
        self._tables: dict[int, dict[int, dict[int, Bucket]]] = {4: {}, 6: {}}
        # per family: (plen, width - plen, table), ascending plen
        self._probes: dict[int, list[tuple[int, int, dict[int, Bucket]]]] = {4: [], 6: []}

    def add(self, version: int, net: int, plen: int, item: Any) -> None:
        tables, width = self._tables[version], WIDTH[version]
        table = tables.get(plen)
        if table is None:
            if not 0 <= plen <= width:
                raise ValueError(f"prefix length {plen} out of range")
            table = tables[plen] = {}
            self._probes[version] = sorted((p, width - p, t) for p, t in tables.items())
        key = net >> (width - plen)
        bucket = table.get(key)
        if bucket is None:
            bucket = table[key] = Bucket(version, net, plen)
        if item not in bucket:
            bucket.append(item)

    def covering(self, version: int, net: int, plen: int) -> list[Bucket]:
        """Buckets of every stored prefix that covers net/plen, shortest first."""
        return [
            bucket
            for length, shift, table in self._probes[version]
            if length <= plen and (bucket := table.get(net >> shift)) is not None
        ]

    def longest(self, version: int, addr: int) -> Bucket | None:
        """Bucket of the longest stored prefix that contains the address, if any."""
        for _, shift, table in reversed(self._probes[version]):
            bucket = table.get(addr >> shift)
            if bucket is not None:
                return bucket
        return None

    def __iter__(self) -> Iterator[Bucket]:
        for tables in self._tables.values():
            for table in tables.values():
                yield from table.values()

    def __len__(self) -> int:
        """Number of stored items."""
        return sum(map(len, self))
