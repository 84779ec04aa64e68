"""Smoke test of the benchmark: each workload in both modes, a few requests.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from run import WORKLOADS  # noqa: E402

END_TO_END = {"checks_per_s": "1/s", "request_p50_ms": "ms",
              "request_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
              "error_rate": "ratio"}


def _run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _printed(lines):
    """metric name -> (value, unit) from the human-readable lines."""
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = _printed(lines)
    assert {k: printed[k][1] for k in END_TO_END} == END_TO_END
    assert printed["error_rate"][0] == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {k: u for k, u in END_TO_END.items() if k != "error_rate"}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = _printed(lines)
    units = layers.metric_units()
    assert len(units) == 109
    assert {k: printed[k][1] for k in units} == {k: u for k, (u, _) in units.items()}
    assert printed["error_rate"][0] == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(units)


def test_same_seed_same_digests():
    runs = [_run("exact-sweep", 0) for _ in range(2)]
    digests = [[l for l in r.stdout.splitlines() if l.startswith("digest ")]
               for r in runs]
    assert digests[0] and digests[0] == digests[1]


def test_benchmark_json_matches_printed_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: u for k, u in END_TO_END.items() if k != "error_rate"}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("exact-sweep", 0, cwd=tmp_path,
                script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_install_rebinds_every_binding():
    from tracer import Tracer
    from sixsphere import degree, frames, linalg, octonion, sampling, twistor
    originals = [octonion.batch_mul, frames.kernel_basis, frames.normalize,
                 frames.apply_matrix, linalg.kernel_basis, twistor.companion,
                 sampling.random_rational_unit_octonion,
                 sampling.random_rational_circle_point]
    tracer = Tracer()
    layers.install(tracer)
    try:
        for name, mod in list(sys.modules.items()):
            if name.startswith("sixsphere") and mod is not None:
                for key, value in vars(mod).items():
                    assert all(value is not f for f in originals), (name, key)
        assert degree.batch_mul is twistor.batch_mul is not originals[0]
    finally:
        tracer.restore()
    assert octonion.batch_mul is originals[0] and degree.batch_mul is originals[0]
