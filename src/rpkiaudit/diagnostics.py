"""Counter-based diagnostics channel.

Parsers and pipeline stages report skipped records, malformed lines and
similar non-fatal events here instead of raising.  A single Diagnostics
object is threaded through a stage and serialized next to its artifacts.
"""

from __future__ import annotations

import json
import logging
from collections import Counter

log = logging.getLogger("rpkiaudit")


class Diagnostics:
    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] += n

    def get(self, key: str) -> int:
        return self.counters.get(key, 0)

    def warn(self, key: str, message: str) -> None:
        """Count an event and emit it on the logging channel."""
        self.count(key)
        log.warning("%s: %s", key, message)

    def as_dict(self) -> dict[str, int]:
        return {k: self.counters[k] for k in sorted(self.counters)}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def __repr__(self) -> str:
        return f"Diagnostics({dict(self.counters)!r})"
