"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload emits each metric BENCHMARK.json names and the
layer metrics its mechanism should move, that the result digest repeats
across two runs, that the tracer leaves no wrapper behind, and that
``run.py`` keeps its output contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

TINY = {
    "stream-warm": replace(workloads.WORKLOADS["stream-warm"], n=8, T=8, setup_reps=1,
                           min_units=8, window_steps=64, tail_steps=64, trace_units=8),
    "stream-long": replace(workloads.WORKLOADS["stream-long"], n=8, T=64, setup_reps=1),
    "gauss-binned": replace(workloads.WORKLOADS["gauss-binned"], n=64, setup_reps=1),
    "sw-sweep": replace(workloads.WORKLOADS["sw-sweep"], setup_reps=1),
}

# layer metrics each workload's mechanism must reach (nonzero when traced)
REACHED = {
    "stream-warm": ["sources.gen_diagonal.s", "prospicient.steady.count",
                    "prospicient.deadline.count", "prospicient.solver_hit_ratio",
                    "gf2.prefactored_solve.count", "gf2.mul_vec.count", "gf2.from_bits.count"],
    "stream-long": ["prospicient.hash_matrix.count", "gf2.prefactor.count",
                    "gf2.prefactor.bytes", "prospicient.deadline.count", "prospicient.encode.s"],
    "gauss-binned": ["gaussian_stream.sr_encode.s", "gaussian_stream.sr_decode.s",
                     "gaussian_stream.layer_rearrange.s", "gaussian_stream.pipeline.self_s",
                     "prospicient.decode.self_s", "prospicient.design_bincode.s", "rates.calc.s"],
    "sw-sweep": ["markov.k_step.count", "sw_binning.ml_decode.count",
                 "sw_binning.sample_path.s", "sw_binning.experiment.self_s", "rates.calc.s"],
}


def _originals():
    return [vars(tracer._owner(sys.modules, m, c))[a] for m, c, a, _, _ in tracer.TARGETS]


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_metrics_digest_and_clean_tracer(name):
    wl = TINY[name]
    first = workloads.run_untraced(wl, seed=3, seconds=0)
    again = workloads.run_untraced(wl, seed=3, seconds=0)
    assert first["correct"], first["error"]
    assert set(first["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in first["metrics"].values()), first["metrics"]
    assert first["digest"] == again["digest"]

    before = _originals()
    traced = workloads.run_traced(wl, seed=3, spans_path=None)
    assert traced["correct"], traced["error"]
    assert set(traced["metrics"]) == PER_LAYER
    for metric in REACHED[name]:
        assert traced["metrics"][metric]["value"] > 0, metric
    tracer.assert_clean(sys.modules)
    assert all(a is b for a, b in zip(_originals(), before))


def test_control_workload_touches_no_codec():
    traced = workloads.run_traced(TINY["sw-sweep"], seed=4, spans_path=None)
    for metric in ("gf2.prefactor.count", "gf2.mul_vec.count", "gf2.from_bits.count",
                   "prospicient.hash_matrix.count"):
        assert traced["metrics"][metric]["value"] == 0, metric


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_py_prints_the_result_line_last():
    proc = _run(ROOT, "--workload", "sw-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert set(res["metrics"]) == END_TO_END


def test_run_py_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sw-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
