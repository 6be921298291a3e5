"""Steadiness check: do two sets of runs of one checkout agree?

From the root of a checkout::

    python3 perfbench/steady.py --runs 5 [--workloads figures,live]

For each workload it makes ``2 * runs`` runs of the benchmark command
in ``BENCHMARK.json``, alternating between set A and set B, each run
with its own seed. For every end-to-end metric it prints each set's
median and quartiles, each set's spread (interquartile distance over
its median), and whether the two medians agree within the metric's
bound — the test a later change is held to; the raw runs go to
``.perfbench/steady-<workload>.json``. ``setup_s`` is exempt from the
spread test, as the bounds in ``BENCHMARK.json`` are. The exit code is
0 only when every metric agrees, every spread is within its bound,
every run is correct, and both sets fail the same share of operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int,
             seconds: int) -> dict:
    out = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (two sets per workload)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed; run i uses seed + i")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if part in ("python", "python3") else part
               for part in spec["command"]]
    names = ([w["name"] for w in spec["workloads"]] if not args.workloads
             else args.workloads.split(","))
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    for workload in names:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        started = time.perf_counter()
        for i in range(2 * args.runs):
            label = "AB"[i % 2]
            sets[label].append(run_once(command, workload, args.seed + i,
                                        spec["run_seconds"]))
        wall = time.perf_counter() - started
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        (ROOT / ".perfbench" / f"steady-{workload}.json").write_text(
            json.dumps(sets, indent=1))
        print(f"\n{workload}: {2 * args.runs} runs in {wall:.0f} s")
        shares = {k: sum(r["failed"] for r in v) / sum(r["attempted"]
                                                       for r in v)
                  for k, v in sets.items()}
        correct = all(r["correct"] for v in sets.values() for r in v)
        print(f"  correct={correct} failed share A={shares['A']:.4f} "
              f"B={shares['B']:.4f}")
        ok &= correct and shares["A"] == shares["B"]
        print(f"  {'metric':<13}{'A q1/med/q3':>30}{'B q1/med/q3':>30}"
              f"{'spr A':>7}{'spr B':>7}{'shift':>8}{'bound':>7}  verdict")
        for name, meta in bounds.items():
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            qa, qb = quartiles(a), quartiles(b)
            spreads = [(q[2] - q[0]) / q[1] for q in (qa, qb)]
            spread = max(spreads)
            sign = 1 if meta["better"] == "lower" else -1
            shift = sign * (qb[1] - qa[1]) / qa[1]
            bound = meta["bound"]
            agree = abs(shift) <= bound
            steady = name == "setup_s" or spread <= bound
            verdict = ("ok" if agree and steady else
                       "DISAGREE" if not agree else "SPREAD")
            if agree and steady and name != "setup_s" and spread > bound / 3:
                verdict = "ok (spread above bound/3)"
            ok &= agree and steady
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"  {name:<13}{fmt(qa):>30}{fmt(qb):>30}"
                  f"{spreads[0]:>7.3f}{spreads[1]:>7.3f}{shift:>+8.3f}"
                  f"{bound:>7.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
