"""Integer addresses and prefixes: the one text codec, and an all-covering index.

An address is (version, int), a prefix (version, net, plen) with host bits
zero.  The parsers accept what ``ipaddress.ip_address`` and strict
``ip_network`` accept, and the formatters write what ``str()`` does: the fast
path is ``inet_pton``/``inet_ntop``, and what it rejects or cannot decide (a
``%scope``, a v4 netmask, a v6 text with a dotted quad) goes to ``ipaddress``
itself.  A scope is dropped.  The fast path reads a prefix length as ASCII
digits (``parse_decimal``); ranks, ASNs and maxLengths follow the same rule.

The index keeps, per family, one dict per present prefix length, from
``net >> (width - plen)`` to what is stored at that prefix: a lone item bare,
two or more distinct items in a tuple of a private type, so an item that is
itself a tuple is never taken for a group.  No object stands for a prefix.  A
query probes each present length up to its own once, so it finds every stored
prefix that covers the queried address or prefix, not just the longest one, and
hands back each prefix's items as a tuple, or each item with its prefix.
"""

from __future__ import annotations

import ipaddress
# socket's C module: socket itself costs each stage child 5 ms and 0.2 MB of imports
from _socket import AF_INET, AF_INET6, inet_ntop, inet_pton
from typing import Any, Iterator, Union

from .vocabulary import parse_decimal

WIDTH = {4: 32, 6: 128}

IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]
IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]
Prefix = Union[IPNetwork, tuple[int, int, int]]


def _pton(text: str) -> tuple[int, int]:
    if ":" in text:
        return 6, int.from_bytes(inet_pton(AF_INET6, text), "big")
    return 4, int.from_bytes(inet_pton(AF_INET, text), "big")


def parse_address(text: str) -> tuple[int, int]:
    """(version, int) of an address text; ValueError when it is none."""
    if not isinstance(text, str):
        raise TypeError(f"address {text!r} is not text")
    try:
        return _pton(text)
    except (OSError, ValueError):
        addr = ipaddress.ip_address(text)  # a %scope, or the error
        return addr.version, int(addr)


def parse_prefix(text: str) -> tuple[int, int, int]:
    """(version, net, plen) of a prefix text; ValueError when it is none or has host bits."""
    if not isinstance(text, str):
        raise TypeError(f"prefix {text!r} is not text")
    addr, slash, length = text.partition("/")
    try:
        version, net = _pton(addr)
        width = WIDTH[version]
        plen = parse_decimal(length) if slash else width
        if plen <= width and not net & ((1 << (width - plen)) - 1):
            return version, net, plen
    except (OSError, ValueError):
        pass
    network = ipaddress.ip_network(text)  # a netmask, a %scope, or the error
    return network.version, int(network.network_address), network.prefixlen


def format_address(version: int, addr: int) -> str:
    if version == 4:
        return inet_ntop(AF_INET, addr.to_bytes(4, "big"))
    text = inet_ntop(AF_INET6, addr.to_bytes(16, "big"))
    return str(ipaddress.IPv6Address(addr)) if "." in text else text


def format_prefix(version: int, net: int, plen: int) -> str:
    return f"{format_address(version, net)}/{plen}"


def network(version: int, net: int, plen: int) -> IPNetwork:
    return (ipaddress.IPv6Network if version == 6 else ipaddress.IPv4Network)((net, plen))


class Prefixed:
    """A value at an integer prefix, equal to another and hashed by its ``key``.

    The prefix is given as an ipaddress network or as (version, net, plen);
    ``prefix`` builds an equal network when read.
    """

    __slots__ = ("version", "net", "plen", "key", "_hash")

    def _keyed(self, prefix: Prefix, *rest) -> None:
        if not isinstance(prefix, tuple):
            prefix = prefix.version, int(prefix.network_address), prefix.prefixlen
        self.version, self.net, self.plen = prefix
        self.key = (*prefix, *rest)
        self._hash = hash(self.key)

    @property
    def prefix(self) -> IPNetwork:
        return network(self.version, self.net, self.plen)

    def __eq__(self, other: object) -> bool:
        return self.key == other.key if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.key}"


class _Group(tuple):
    """Two or more distinct items stored at one prefix."""

    __slots__ = ()


class PrefixIndex:
    def __init__(self) -> None:
        # per family: plen -> {net >> (width - plen): an item, or a _Group of them}
        self._tables: dict[int, dict[int, dict[int, Any]]] = {4: {}, 6: {}}
        # per family: (plen, width - plen, table), ascending plen
        self._probes: dict[int, list[tuple[int, int, dict[int, Any]]]] = {4: [], 6: []}
        self._count = 0

    def add(self, version: int, net: int, plen: int, item: Any) -> None:
        """Store the item at net/plen, unless an equal one is stored there; never None."""
        if item is None:
            raise TypeError("None is not an item")
        tables, width = self._tables[version], WIDTH[version]
        table = tables.get(plen)
        if table is None:
            if not 0 <= plen <= width:
                raise ValueError(f"prefix length {plen} out of range")
            table = tables[plen] = {}
            self._probes[version] = sorted((p, width - p, t) for p, t in tables.items())
        key = net >> (width - plen)
        stored = table.get(key)
        if stored is None:
            table[key] = item
        elif type(stored) is _Group:
            if item in stored:
                return
            table[key] = _Group((*stored, item))
        elif stored == item:
            return
        else:
            table[key] = _Group((stored, item))
        self._count += 1

    def covering(self, version: int, net: int, plen: int) -> list[tuple[int, int, tuple]]:
        """(net, plen, items) of every stored prefix that covers net/plen, shortest first."""
        found = []
        for length, shift, table in self._probes[version]:
            if length > plen:  # and so is every length after it
                break
            items = table.get(net >> shift)
            if items is not None:
                group = items if type(items) is _Group else (items,)
                found.append((net >> shift << shift, length, group))
        return found

    def item_keys(self, version: int, addr: int) -> list[tuple[int, int, int, Any]]:
        """(version, net, plen, item) of every item stored at a prefix that contains the
        address, shortest prefix first: ``covering`` of the address, flat, in one walk."""
        keys = []
        for length, shift, table in self._probes[version]:
            items = table.get(addr >> shift)
            if items is not None:
                net = addr >> shift << shift
                if type(items) is _Group:
                    keys += [(version, net, length, item) for item in items]
                else:
                    keys.append((version, net, length, items))
        return keys

    def longest(self, version: int, addr: int) -> tuple[int, int] | None:
        """(plen, net >> (width - plen)) of the longest stored prefix that contains
        the address, if any."""
        for length, shift, table in reversed(self._probes[version]):
            key = addr >> shift
            if key in table:
                return length, key
        return None

    def __iter__(self) -> Iterator[tuple[int, int, int, tuple]]:
        """(version, net, plen, items) of every stored prefix."""
        for version, tables in self._tables.items():
            for plen, table in tables.items():
                shift = WIDTH[version] - plen
                for key, items in table.items():
                    yield version, key << shift, plen, items if type(items) is _Group else (items,)

    def __len__(self) -> int:
        """Number of stored items."""
        return self._count
