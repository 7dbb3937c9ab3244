#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload zoo_interactive --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``.  For every metric it prints the
values, their median and the distance between the first and third quartile
as a share of the median, next to the metric's bound.  A spread at or above
the bound fails (except ``setup_s``, whose bound limits only the median).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.accounting import quartile_spread  # noqa: E402


def _seeds(text: str) -> List[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}

    values: Dict[str, List[float]] = {}
    ok = True
    for seed in _seeds(args.seeds):
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                   timeout=600)
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if completed.returncode != 0 or result is None or not result["correct"]:
            ok = False
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stdout}"
                  f"{completed.stderr}", file=sys.stderr)
            continue
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{name}={entry['value']:.6g}"
                         for name, entry in result["metrics"].items()), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(float(entry["value"]))

    for name, series in values.items():
        if len(series) < 2:
            continue
        median = statistics.median(series)
        spread = quartile_spread(series) if median else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            steady = name == "setup_s" or spread < bound
            ok &= steady
            verdict = f" bound {bound}: {'ok' if steady else 'TOO WIDE'}" + \
                (" (below a third)" if spread < bound / 3 else "")
        print(f"{name}: median {median:.6g} spread {spread:.4f}{verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
