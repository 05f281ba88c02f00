#!/usr/bin/env python3
"""Repeat the benchmark over seeds and record medians, quartiles and hashes.

    python3 bench/baseline.py --out bench/baseline.json

For each workload of ``BENCHMARK.json`` this runs ``run.py`` for seeds
1..10 with tracing off, then once with tracing on (seed 1), one process at a
time, each for the ``run_seconds`` of ``BENCHMARK.json``.  It records, per
end-to-end metric, the median, the quartiles and their distance as a share
of the median (``statistics.quantiles(values, n=4)``), the traced per-layer
numbers and the sha256 of every artifact per seed.  With ``--compare`` it
also reports, against an earlier record made with the same seeds, each
median's change as a share of the earlier one and any artifact whose bytes
changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["sha256"] = {
        name: digest for _, digest, name in (l.split() for l in lines if l.startswith("sha256 "))
    }
    result["shape"] = next(l.split(": ", 1)[1] for l in lines if l.startswith("workload "))
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", type=Path, help="earlier record with the same seeds")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, bench["run_seconds"], 0))
            print(f"{workload} seed {seed}: total_s {runs[-1]['metrics']['total_s']['value']:.3f}",
                  file=sys.stderr)
        entry = {
            "seeds": SEEDS,
            "shape": {str(s): json.loads(r["shape"]) for s, r in zip(SEEDS, runs)},
            "end_to_end": {
                name: dict(spread([r["metrics"][name]["value"] for r in runs]),
                           unit=runs[0]["metrics"][name]["unit"], bound=bounds[name])
                for name in bounds
            },
            "sha256": {str(s): r["sha256"] for s, r in zip(SEEDS, runs)},
        }
        entry["per_layer"] = run_once(workload, SEEDS[0], bench["run_seconds"], 1)["metrics"]
        record[workload] = entry
        for name, stats in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or stats["spread"] < stats["bound"] / 3 else "  <-- wide"
            print(f"{workload:10} {name:12} median {stats['median']:.4f} {stats['unit']:3} "
                  f"spread {stats['spread']:.3f} (bound {stats['bound']}){flag}")

    if args.compare:
        earlier = json.loads(args.compare.read_text())
        for workload, entry in record.items():
            old = earlier.get(workload)
            if old is None:
                continue
            for name, stats in entry["end_to_end"].items():
                change = stats["median"] / old["end_to_end"][name]["median"] - 1
                flag = "  <-- worse than bound" if change > stats["bound"] else ""
                print(f"{workload:10} {name:12} median change {change:+.3f}{flag}")
            for seed, hashes in entry["sha256"].items():
                if seed in old["sha256"] and hashes != old["sha256"][seed]:
                    changed = sorted(n for n in hashes if hashes[n] != old["sha256"][seed].get(n))
                    print(f"{workload:10} seed {seed}: artifact bytes changed: "
                          + ", ".join(changed))
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
