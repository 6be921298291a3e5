"""The benchmark's own plumbing: BENCHMARK.json agrees with the code,
spans fold into self times, and a checkout without the program fails.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from perfbench import layers, measure, run
from perfbench.spans import Tracer, percentile

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: measure.UNITS[name] for name in measure.END_TO_END}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        layers.PER_LAYER
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("bench.primary_s") as root:
        with tracer.span("child"):
            time.sleep(0.02)
        with tracer.span("child"):
            time.sleep(0.02)
    assert root.self_time(tracer.spans) < 0.01
    assert root.duration > 0.04
    children = [s for s in tracer.within(root)]
    assert [s.name for s in children] == ["child", "child"]
    assert all(s.parent == root.index for s in children)


class _Target:
    def work(self, n):
        return n + 1

    @classmethod
    def build(cls, n):
        return n * 2


def test_wrap_records_and_uninstall_restores():
    tracer = Tracer()
    original = _Target.__dict__["work"]
    tracer.wrap(_Target, "work", "layer.work",
                lambda span, args, kwargs, result:
                span.attrs.update(out=result))
    tracer.wrap(_Target, "build", "layer.build")
    assert _Target().work(1) == 2
    assert _Target.build(3) == 6
    assert [s.name for s in tracer.spans] == ["layer.work", "layer.build"]
    assert tracer.spans[0].attrs == {"out": 2}
    tracer.uninstall()
    assert _Target.__dict__["work"] is original
    assert isinstance(_Target.__dict__["build"], classmethod)
    _Target().work(1)
    assert len(tracer.spans) == 2


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.99) == 99
    assert percentile([], 0.5) == 0.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
