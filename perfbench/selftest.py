"""Shortened self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds 3]

Runs every workload of ``BENCHMARK.json`` for a few seconds, untraced and
traced, and checks that each run passes its correctness checks and emits
exactly the named metrics with their units.  It also checks the export
rule: everything the benchmark prints is treated as leaving the system,
so no query string and no result URL may appear in it.  Exits non-zero
on the first failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from ledger import ROWS  # noqa: E402
from repro.datasets import generate_log  # noqa: E402

SEED = 0


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def without_labels(text: str, labels) -> str:
    """Blank out the benchmark's own vocabulary (layer and metric names
    such as ``engine`` or ``broker`` are also one-word log queries)."""
    for label in sorted(labels, key=len, reverse=True):
        text = re.sub(rf"(?<![\w.]){re.escape(label)}(?![\w])", " ", text)
    return text


def leaked(text: str, queries) -> list:
    found = [query for query in queries
             if re.search(rf"(?<!\w){re.escape(query)}(?!\w)", text)]
    if "http" in text or "example.com" in text:
        found.append("<a URL>")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    labels = set(ROWS) | set(workloads) | set(expected[0]) | set(expected[1])
    queries = sorted({q.text for q in generate_log(seed=SEED)})
    for workload in workloads:
        for trace in (0, 1):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(SEED),
                "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            where = f"{workload} trace={trace}"
            if done.returncode != 0:
                fail(f"{where} exited {done.returncode}:\n"
                     f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where} result keys are {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                fail(f"{where} did not pass its checks")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected[trace]:
                fail(f"{where} metrics differ from BENCHMARK.json: "
                     f"{sorted(set(emitted) ^ set(expected[trace]))}")
            for name, metric in result["metrics"].items():
                if not math.isfinite(metric["value"]):
                    fail(f"{where} {name} is not finite")
            exposed = leaked(without_labels(done.stdout + done.stderr, labels),
                             queries)
            if exposed:
                fail(f"{where} output exposes {len(exposed)} query strings "
                     f"or URLs")
            print(f"ok: {where} ({len(emitted)} metrics, "
                  f"{result['attempted']} searches)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
