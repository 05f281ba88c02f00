"""validate: RFC 6811 origin validation of each pair, and each domain's coverage."""

from __future__ import annotations

import functools
from pathlib import Path

from .._prefix_index import parse_prefix
from ..cli import PipelineConfig, _artifact, _open_input, _text_chunks, _text_lines
from ..cli import _write_diag, _write_rows
from ..diagnostics import Diagnostics, log
from ..errors import UsageError
from ..roa_validation import RoaFormat, RoaIndex
from ..vocabulary import ValidationState, coverage_class, covered_share


def _roa_format(cfg: PipelineConfig) -> RoaFormat:
    if cfg.roa_format:
        try:
            return RoaFormat(cfg.roa_format)
        except ValueError:
            expected = "expected " + " or ".join(f.value for f in RoaFormat)
            raise UsageError(f"unknown ROA format {cfg.roa_format!r} ({expected})")
    return RoaFormat.JSON if Path(str(cfg.roas)).suffix.lower() == ".json" else RoaFormat.CSV


def run(cfg: PipelineConfig) -> None:
    diag = Diagnostics()
    pairs = _artifact(cfg, "pairs.jsonl", "map")
    export = _open_input(cfg.roas, "ROA export")
    with export:
        fmt = _roa_format(cfg)
        read = _text_lines if fmt is RoaFormat.CSV else _text_chunks  # as the index is built
        index = RoaIndex.load(read(export, "ROA export"), fmt, diag)

    # Rows come in rank order, base and www side by side, so recent pairs repeat most;
    # a bounded cache keeps most hits at a fixed cost.  True is not AS 1.
    @functools.lru_cache(maxsize=1024, typed=True)
    def state_of(prefix: str, asn: int) -> ValidationState:
        return index.state(*parse_prefix(prefix), asn)

    def validated_rows(pair_rows):
        for row in pair_rows:
            # map wrote the pairs sorted and distinct; a repeat is kept once, in place
            pairs = dict.fromkeys([(p["prefix"], p["asn"]) for p in row["pairs"]])
            states = [state_of(prefix, asn) for prefix, asn in pairs]
            valid, invalid = map(states.count, (ValidationState.VALID, ValidationState.INVALID))
            yield {
                "rank": row["rank"],
                "domain": row["domain"],
                "variant": row["variant"],
                "pairs": [  # a state is its text
                    {"prefix": prefix, "asn": asn, "state": state}
                    for (prefix, asn), state in zip(pairs, states)
                ],
                "covered": covered_share(valid + invalid, len(states)),
                "class": coverage_class(valid, invalid, len(states) - valid - invalid),
            }

    with pairs as pair_rows:
        count = _write_rows(cfg.out("validated.jsonl"), validated_rows(pair_rows))
    _write_diag(cfg, "validate", diag)
    log.info("validate: %d rows against %d ROAs", count, len(index))
