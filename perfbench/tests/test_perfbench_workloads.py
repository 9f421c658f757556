"""Each workload at toy size: it runs clean, repeats its output bytes for
the same seed, passes its checks on a second seed, and reports exactly the
metrics BENCHMARK.json names, with or without tracing."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

TOY = {
    "collocates": dict(tokens=100_000, vocab=2_000, docs=500),
    "diachronic": dict(tokens=100_000, vocab=2_000, docs=500),
    "cli-lifecycle": dict(tokens=20_000, vocab=500, docs=60),
}


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def units(record) -> dict[str, str]:
    return {name: m["unit"] for name, m in record["metrics"].items()}


@pytest.mark.parametrize("name", sorted(TOY))
def test_workload_is_correct_and_repeatable(name, tmp_path):
    first = run.run(name, 3, 0.0, False, sizes=TOY[name], work_root=str(tmp_path))
    assert first["problems"] == []
    assert first["correct"] and first["failed"] == 0 and first["attempted"] > 0
    assert units(first) == declared("end_to_end")
    again = run.run(name, 3, 0.0, False, sizes=TOY[name], work_root=str(tmp_path))
    assert again["output_digest"] == first["output_digest"]
    other = run.run(name, 4, 0.0, False, sizes=TOY[name], work_root=str(tmp_path))
    assert other["correct"] and other["failed"] == 0
    assert other["output_digest"] != first["output_digest"]


def test_traced_run_reports_every_layer_and_keeps_outputs(tmp_path):
    plain = run.run("cli-lifecycle", 3, 0.0, False, sizes=TOY["cli-lifecycle"], work_root=str(tmp_path))
    traced = run.run("cli-lifecycle", 3, 0.0, True, sizes=TOY["cli-lifecycle"], work_root=str(tmp_path))
    assert traced["correct"], traced["problems"]
    assert traced["output_digest"] == plain["output_digest"]
    assert units(traced) == declared("per_layer")
    assert traced["metrics"]["ingest.tokens"]["value"] == TOY["cli-lifecycle"]["tokens"]
    assert traced["metrics"]["indexio.load_s"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "collocates", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
