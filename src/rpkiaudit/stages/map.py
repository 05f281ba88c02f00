"""map: each resolved address to the prefix/origin pairs of the routes covering it."""

from __future__ import annotations

import gc
import zlib

from .. import rib_store
from .._prefix_index import format_prefix, parse_address
from ..cli import PipelineConfig, _open_input, _Outputs
from ..diagnostics import Diagnostics
from ..errors import DataError, NotUtf8Error, PathError


def _load_rib(cfg: PipelineConfig, diag: Diagnostics) -> rib_store.PrefixTrie:
    if not cfg.ribs:
        raise PathError("missing RIB source: <ribs>")
    trie = rib_store.PrefixTrie()
    for path in cfg.ribs:
        with _open_input(path, "RIB dump") as dump:  # read and decoded as it streams in
            try:
                trie.add_routes(rib_store.read_routes(dump, diag), diag)
            except (EOFError, OSError, NotUtf8Error, zlib.error) as exc:
                # a cut or corrupt gzip stream, or a text dump that is not UTF-8
                raise DataError(f"{path}: unreadable RIB dump ({exc})")
    # The index lives until the stage ends; kept out of the collector, it no
    # longer turns the first allocations after the build into a full pass.
    gc.freeze()
    return trie


def run(cfg: PipelineConfig, diag: Diagnostics, out: _Outputs, resolved) -> str:
    trie = _load_rib(cfg, diag)
    if len(trie) == 0 and trie.as_set_count == 0:
        raise DataError("RIB sources contained zero usable entries")
    origin_keys = trie.origin_keys

    def pair_rows(resolved_rows):
        # a row with the row before's addresses (a www name answered as its base) has its pairs
        last_addresses: object = object()  # equal to no row's addresses
        for row in resolved_rows:
            if row["addresses"] != last_addresses:
                last_addresses = row["addresses"]
                keys: set[tuple[int, int, int, int]] = set()
                unreachable = []
                for addr_text in last_addresses:
                    covering = origin_keys(*parse_address(addr_text))
                    if covering:
                        keys.update(covering)
                    else:
                        unreachable.append(addr_text)
                # (version, net, plen, origin) is PrefixOriginPair.key, so the order holds
                pairs = [
                    {"prefix": format_prefix(version, net, plen), "asn": origin}
                    for version, net, plen, origin in sorted(keys)
                ]
                unreachable.sort()
            if unreachable:
                diag.count("unreachable_addresses", len(unreachable))
            yield {
                "rank": row["rank"],
                "domain": row["domain"],
                "variant": row["variant"],
                "pairs": pairs,
                "unreachable": unreachable,
            }

    with resolved as resolved_rows:  # the primary resolver's rows, in resolved.jsonl's order
        count = out.write("pairs.jsonl", pair_rows(resolved_rows))
    return f"{count} rows against {len(trie)} prefix-origin pairs"
