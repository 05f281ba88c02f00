"""A bounded external merge sort of text lines by an integer key.

Balanced merging as in Knuth, *TAOCP* vol. 3 §5.4: the records are cut into
runs of ``RUN_LINES``, each sorted in memory and written to its own file, and
the runs are merged ``MERGE_FAN_IN`` at a time with ``heapq.merge``, in passes
while more are left, so the sort holds one run, or one line of each run it
merges, whatever the number of records.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
from pathlib import Path
from typing import Iterable, Iterator

RUN_LINES = 1024  # records sorted in memory at a time
MERGE_FAN_IN = 16  # runs read at once in a merge


def _key(record: bytes) -> tuple[int, int]:
    key, index, _ = record.split(b" ", 2)
    return int(key), int(index)


def sorted_texts(records: Iterable[tuple[int, int, str]], directory: str) -> Iterator[str]:
    """The texts of ``(key, index, text)`` records in (key, index) order.

    ``index`` breaks ties, so no two records may share it, and a text holds
    no newline.  Runs are files in ``directory``, each removed once merged;
    the caller removes the directory, so a sort that stops early leaves none.
    """
    names = (Path(directory, f"run{n}") for n in itertools.count())
    runs: list[Path] = []
    records = iter(records)
    while run := sorted(itertools.islice(records, RUN_LINES)):
        path = next(names)
        with open(path, "wb") as fh:
            fh.writelines(f"{key} {index} {text}\n".encode() for key, index, text in run)
        runs.append(path)
        del run  # hold no run while the next one is read
    while len(runs) > MERGE_FAN_IN:
        merged = []
        for start in range(0, len(runs), MERGE_FAN_IN):
            path = next(names)
            with open(path, "wb") as fh:
                fh.writelines(_merged(runs[start : start + MERGE_FAN_IN]))
            merged.append(path)
        runs = merged
    for record in _merged(runs):
        yield record.split(b" ", 2)[2][:-1].decode()


def _merged(runs: list[Path]) -> Iterator[bytes]:
    """The records of sorted run files in (key, index) order; the files are removed once read."""
    with contextlib.ExitStack() as files:
        yield from heapq.merge(*[files.enter_context(open(path, "rb")) for path in runs], key=_key)
    for path in runs:
        path.unlink()
