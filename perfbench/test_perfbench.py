"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from vpsep import dataset, metrics, network, optim, pipeline  # noqa: E402
from vpsep.config import ExperimentConfig  # noqa: E402

import run  # noqa: E402
from tracer import Tracer, installed  # noqa: E402


def test_tracer_sees_calls_made_through_pipeline(tmp_path):
    manifest = dataset.synth_dataset(tmp_path, seed=0, n_train=1, n_test=0, duration_s=1.0)
    config = ExperimentConfig(model="CVPNN", hidden_width=8, hidden_layers=1, epochs=1)
    tracer = Tracer()
    with installed(tracer) as missing:
        pipeline.train(config, manifest)
    assert missing == []
    assert tracer.calls["optim.adam_step"] > 0
    assert tracer.total_s["network.forward"] > 0
    assert tracer.calls["vecmat.vec_matmul"] > 0
    assert tracer.counters["vecmat.vec_matmul.flop"] > 0
    assert tracer.calls["dataset.load_training_frames"] == 1
    assert tracer.calls["pipeline.train"] == 1
    assert 0 < tracer.self_s["pipeline.train"] < tracer.total_s["pipeline.train"]
    # every binding is restored on exit
    assert pipeline.adam_step is optim.adam_step
    assert pipeline.vp_forward is network.vp_forward


def test_tracer_counts_nested_metric_calls():
    rng = np.random.default_rng(0)
    refs = rng.standard_normal((2, 2000))
    tracer = Tracer()
    with installed(tracer):
        metrics.sdr_only(refs[0] + 0.1 * refs[1], refs, target_index=0, filter_len=16)
    assert tracer.calls["metrics.bss_decompose"] == 1
    assert tracer.calls["metrics.cho_factor"] == 2
    assert tracer.counters["metrics.lstsq_fallbacks"] == 0
    assert metrics.sla is scipy.linalg


def test_reported_metrics_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload = SimpleNamespace(audio_s={"job": 1.0})
    bench = run.Run(workload, seed=0, seconds=1, trace=True, work=HERE)
    bench.setup_s = [1.0]
    bench.attempted, bench.failed = 2, 1
    bench.cycle_s = {False: [1.0, 1.0], True: [1.0]}
    end_to_end = bench.end_to_end({"job": 1.0})
    per_layer = bench.per_layer(Tracer())
    assert list(end_to_end) == [m["name"] for m in declared["end_to_end"]]
    assert list(per_layer) == [m["name"] for m in declared["per_layer"]]
    for section, reported in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        assert [u for _, u in reported.values()] == [m["unit"] for m in declared[section]]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
