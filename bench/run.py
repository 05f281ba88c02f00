#!/usr/bin/env python3
"""rpkiaudit benchmark: seeded audit worlds through the six stage commands.

    python3 bench/run.py --workload full-table --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run generates a world from the seed (untimed), runs one warm-up pass of
the six stages, which is checked but not measured, then repeats passes
while the time budget allows another one.  Each stage is
its own child process, ``python -m rpkiaudit <stage> --config ...``, as a
user runs it.  Every pass is checked: each stage must exit 0, the analysis
artifacts must equal the independent reference byte for byte, and every
artifact must hash the same as in the first pass.

``--trace 0`` prints the end-to-end metrics, medians over the passes.
Single stage walls swing by a fifth or more between passes on a shared
machine, so they are reported per layer, as ``cli.<stage>.wall_s``.
``--trace 1`` alternates an untraced pass with a traced one, in which each
stage runs under ``tracing.py``, and prints the per-layer metrics and the
tracing overhead.  The last line of output is one JSON object; the exit
status is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing
import world

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STAGES = ("resolve", "map", "validate", "classify", "analyze", "report")
CHECKED = (
    "bins_base.csv", "bins_www.csv", "cdn_bins_base.csv", "cdn_bins_www.csv",
    "overlap.csv", "summary.json", "report.csv",
)
SETUP_SAMPLES_PER_PASS = 2
MB = 1 << 20


@dataclass
class Pass:
    walls: dict[str, float] = field(default_factory=dict)
    rss_mb: dict[str, float] = field(default_factory=dict)
    exits: dict[str, int] = field(default_factory=dict)
    hashes: dict[str, str] = field(default_factory=dict)
    artifact_bytes: int = 0
    traces: list[dict] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(self.walls.values())


class Launcher:
    """Timed children, started through ``launcher.py`` so that their RSS is their own."""

    def __init__(self, env: dict, log: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py"), str(log)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str]) -> tuple[float, float, int]:
        """Run one child to completion: (wall seconds, its max RSS in MB, exit code)."""
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        wall, rss_mb, code = json.loads(self.proc.stdout.readline())
        return wall, rss_mb, code

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()


def run_pass(config: Path, out_dir: Path, launcher: Launcher, span_dir: Path | None) -> Pass:
    shutil.rmtree(out_dir, ignore_errors=True)
    result = Pass()
    for stage in STAGES:
        if span_dir is None:
            cmd = [sys.executable, "-m", "rpkiaudit", stage, "--config", str(config)]
        else:
            spans = span_dir / f"{stage}.spans"
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans), stage,
                   "--config", str(config)]
        wall, rss, code = launcher.run(cmd)
        result.walls[stage], result.rss_mb[stage], result.exits[stage] = wall, rss, code
        if span_dir is not None and spans.exists():
            result.traces.append(tracing.summarize(spans))
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        with open(path, "rb") as fh:
            result.hashes[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
        result.artifact_bytes += path.stat().st_size
    return result


def check_pass(run: Pass, first: Pass, expected: dict[str, str]) -> list[str]:
    """Failed checks of one pass: stage exits, reference artifacts, determinism.

    ``expected`` maps each checked artifact to the sha256 of its reference bytes.
    """
    failed = [f"{stage} exited {code}" for stage, code in run.exits.items() if code != 0]
    for name in CHECKED:
        if run.hashes.get(name) != expected[name]:
            failed.append(f"{name} differs from the reference")
    if run is not first and run.hashes != first.hashes:
        failed.append("artifact hashes differ from the first pass")
    return failed


def checks_per_pass(run: Pass, first: Pass) -> int:
    return len(STAGES) + len(CHECKED) + (run is not first)


def median(values) -> float:
    return statistics.median(list(values))


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "total_s": (median(p.total for p in passes), "s"),
        "peak_rss_mb": (median(max(p.rss_mb.values()) for p in passes), "MB"),
        "setup_s": (median(setup), "s"),
        "artifact_mb": (passes[0].artifact_bytes / MB, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced: Pass, traced: Pass, rows: int) -> dict[str, tuple[float, str]]:
    totals: dict[str, dict[str, float]] = {}
    for trace in traced.traces:
        for name, entry in trace["totals"].items():
            into = totals.setdefault(name, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.TARGETS:
        metrics[f"{name}.s"] = (get(name, "s"), "s")
    for name, key in (
        ("domain_ingest.load_domain_list", "rows"), ("dns_resolution.fixture_load", "rows"),
        ("dns_resolution.resolve_records", "calls"), ("dns_resolution.apply_filter", "calls"),
        ("dns_resolution.apply_filter", "rejected"), ("dns_resolution.cross_check", "calls"),
        ("rib_store.parse_mrt", "entries"), ("rib_store.parse_text_rib", "entries"),
        ("rib_store.build_trie", "pairs"), ("rib_store.covering_pairs", "calls"),
        ("roa_validation.load_roas", "payloads"), ("roa_validation.validate", "calls"),
        ("roa_validation.validate", "valid"), ("roa_validation.validate", "invalid"),
        ("roa_validation.validate", "notfound"), ("cdn_classifier.classify_by_asn", "calls"),
        ("analytics.domain_coverage", "calls"), ("cli.read_jsonl", "rows"),
        ("cli.write_text", "bytes"),
    ):
        metrics[f"{name}.{key}"] = (get(name, key), "bytes" if key == "bytes" else "count")
    for name in ("rib_store.covering_pairs", "roa_validation.validate"):
        for family in (4, 6):
            us = 1e6 * _ratio(get(name, f"v{family}_s"), get(name, f"v{family}_calls"))
            metrics[f"{name}.v{family}_us_per_call"] = (us, "us")
    lookups = get("rib_store.covering_pairs", "calls")
    metrics["rib_store.covering_pairs.hit_ratio"] = (
        _ratio(get("rib_store.covering_pairs", "hits"), lookups), "ratio")
    metrics["rib_store.covering_pairs.pairs_per_call"] = (
        _ratio(get("rib_store.covering_pairs", "pairs"), lookups), "ratio")
    pairs, entries = get("rib_store.build_trie", "pairs"), get("rib_store.build_trie", "entries")
    metrics["rib_store.build_trie.pairs_per_entry"] = (_ratio(pairs, entries), "ratio")
    metrics["analytics.domain_coverage.calls_per_row"] = (
        _ratio(get("analytics.domain_coverage", "calls"), rows), "ratio")
    artifacts = sum(1 for key in totals.get("cli.read_jsonl", {}) if key.startswith("path:"))
    metrics["cli.read_jsonl.reads_per_artifact"] = (
        _ratio(get("cli.read_jsonl", "calls"), artifacts), "ratio")
    self_s = {trace["stage"]: trace["self_s"] for trace in traced.traces}
    for stage in STAGES:
        metrics[f"cli.{stage}.self_s"] = (self_s.get(f"cli.{stage}", 0.0), "s")
        metrics[f"cli.{stage}.wall_s"] = (untraced.walls[stage], "s")
        metrics[f"cli.{stage}.peak_rss_mb"] = (untraced.rss_mb[stage], "MB")
    metrics["trace.overhead_s"] = (traced.total - untraced.total, "s")
    return metrics


def stated_shape(built: world.World, expected: reference.Expected) -> dict:
    stats = expected.stats
    addresses = stats["v4_addresses"] + stats["v6_addresses"]
    reachable = addresses - stats["special_purpose"] - stats["unreachable"]
    pairs = stats["valid"] + stats["invalid"] + stats["notfound"]
    return {
        "names": len(expected.rows),
        "resolver_rows": len(built.inputs.dns),
        "v4_addresses": stats["v4_addresses"],
        "v6_addresses": stats["v6_addresses"],
        "special_purpose": stats["special_purpose"],
        "unreachable": stats["unreachable"],
        **built.shape,
        "pairs_per_address": round(_ratio(stats["covering_pairs"], reachable), 3),
        "roa_covered_pair_share": round(_ratio(stats["valid"] + stats["invalid"], pairs), 3),
        "cdn_name_share": round(
            _ratio(sum(r.ok and r.chain >= 2 for r in expected.rows), len(expected.rows)), 3),
    }


def main(argv: list[str] | None = None) -> int:
    # Turn a termination request into SystemExit, so that the running child
    # is killed and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(world.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    e2e_dir = ROOT / "tests" / "fixtures" / "e2e"
    if not (ROOT / "src" / "rpkiaudit" / "cli.py").is_file() or not (e2e_dir / "expected").is_dir():
        print(f"error: {ROOT} holds no rpkiaudit checkout (src/rpkiaudit, tests/fixtures/e2e)",
              file=sys.stderr)
        return 2

    problems = [f"reference self-check: {name} differs" for name in reference.self_check(e2e_dir)]
    attempted = 1
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    work.mkdir(parents=True)
    launcher = Launcher(env, work / "children.log")
    try:
        built = world.build(args.workload, args.seed, work / "inputs")
        expected = reference.expected_artifacts(built.inputs)
        expected_hashes = {
            name: hashlib.sha256(expected.artifacts[name]).hexdigest() for name in CHECKED
        }
        shape = json.dumps(stated_shape(built, expected))
        print(f"workload {args.workload} seed {args.seed}: {shape}")
        out_dir = work / "out"
        help_cmd = [sys.executable, "-m", "rpkiaudit", "--help"]
        launcher.run(help_cmd)  # compile bytecode once, as an installed package has it
        start = time.perf_counter()
        # The first pass after the world is written can run slower than the
        # ones after it, so it is checked but not measured.
        first = run_pass(built.config, out_dir, launcher, None)
        print(f"warm-up pass: {first.total:.3f}")
        attempted += checks_per_pass(first, first)
        problems += check_pass(first, first, expected_hashes)
        setup: list[float] = []
        passes: list[Pass] = []
        pairs: list[tuple[Pass, Pass]] = []
        while not problems:
            setup += [launcher.run(help_cmd)[0] for _ in range(SETUP_SAMPLES_PER_PASS)]
            batch = [run_pass(built.config, out_dir, launcher, None)]
            if args.trace:
                batch.append(run_pass(built.config, out_dir, launcher, work))
                pairs.append((batch[0], batch[1]))
            for run in batch:
                print(f"pass {len(passes) + 1}{' traced' if run.traces else ''}: "
                      + " ".join(f"{stage} {wall:.3f}" for stage, wall in run.walls.items())
                      + f" total {run.total:.3f}")
                passes.append(run)
                attempted += checks_per_pass(run, first)
                problems += check_pass(run, first, expected_hashes)
            elapsed = time.perf_counter() - start
            if elapsed + sum(r.total for r in batch) > args.seconds:
                break
        if problems:
            log_tail = (work / "children.log").read_text(errors="replace")[-2000:]
            print(f"child output (tail):\n{log_tail}", file=sys.stderr)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for name, digest in first.hashes.items():
        print(f"sha256 {digest} {name}")
    if not passes:
        metrics = {}
    elif args.trace:
        layer = [per_layer(u, t, len(expected.rows)) for u, t in pairs]
        metrics = {
            name: (median(m[name][0] for m in layer), unit) for name, (_, unit) in layer[0].items()
        }
        absent = sorted({a for _, t in pairs for trace in t.traces for a in trace["absent"]})
        if absent:
            print(f"absent spans (reported as 0): {', '.join(absent)}")
    else:
        metrics = end_to_end(passes, setup)
    print(f"passes {len(passes)}, failed checks {len(problems)} of {attempted}")
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
