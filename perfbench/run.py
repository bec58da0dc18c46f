"""Command line of the dispatch benchmark.

    python3 perfbench/run.py --workload immediate --seed 1 --seconds 35 --trace 0

Run from the repository root. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
ledger with ``--trace 1``. The benchmark writes no files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.lines:
        print(line)
    if not result.metrics:
        print("a check failed: no metrics", file=sys.stderr)
    print(json.dumps(result.as_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
