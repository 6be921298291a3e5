"""Run one benchmark workload once and print its result as JSON.

From the root of a checkout::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (see
``perfbench/README.md``). The program under test is imported from
``src/`` of the same checkout; without it the command fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "figures": "perfbench.workloads.figures:Figures",
    "catalog": "perfbench.workloads.catalog:Catalog",
    "live": "perfbench.workloads.live:Live",
    "service": "perfbench.workloads.service:Service",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import measure

    module, _, cls = WORKLOADS[args.workload].partition(":")
    workload = getattr(importlib.import_module(module), cls)(args.seed)
    result = measure.run(workload, args.seconds, bool(args.trace))
    for problem in workload.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
