"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

The file is named outside pytest's ``test_*`` pattern so that the program's
own test suite does not pick up these multi-minute runs.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tracer import Tracer, check_tree, self_times  # noqa: E402


def _run(workload, trace, seconds=1):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def _assert_tree(cols):
    t0, t1, parent = cols["t0"], cols["t1"], cols["parent"]
    child = np.nonzero(parent >= 0)[0]
    assert child.size > 0
    assert np.all(t0[child] >= t0[parent[child]])
    assert np.all(t1[child] <= t1[parent[child]])
    assert np.all(self_times(cols) >= -1e-9)
    assert check_tree(cols) == []


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_minimal_run_emits_every_metric_with_its_unit(workload, trace, group):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        _assert_tree(dict(np.load(ROOT / ".bench_out" / workload / "spans.npz")))


def test_span_tree_of_a_traced_step_is_well_formed():
    from cloudmae import AdamW, MaskedAutoencoder, build_dataset, desk_preset
    import cloudmae.autodiff as ad

    cfg = desk_preset()
    dataset = build_dataset(cfg.data, cfg.points, 5)
    tr = Tracer()
    original = ad.matmul
    tr.install()
    try:
        assert ad.matmul is not original
        model = MaskedAutoencoder(cfg.model, cfg.patch_size, seed=0)
        opt = AdamW(model.store)
        tr.run = 0
        step = tr.begin("training.step")
        loss, _ = model.pretrain_forward_batch(dataset.train[:4], cfg.n_patches,
                                               cfg.mask_ratio, seeds=[1, 2, 3, 4])
        ad.backward(loss)
        opt.step()
        tr.end(step)
    finally:
        tr.uninstall()
    assert ad.matmul is original
    cols = tr.arrays()
    _assert_tree(cols)
    names = set(cols["names"][cols["name"]])
    assert {"model.forward", "model.encoder_block", "model.decoder_block",
            "autodiff.backward", "autodiff.vjp.matmul", "params.adamw",
            "geometry.fps", "embed.patch_embedder"} <= names
    layers = tracer_mod.layer_metrics(cols, [0])
    assert layers["model.block_calls"] == cfg.model.encoder_depth + cfg.model.decoder_depth
    assert layers["params.adamw_elements"] == sum(t.size for t in model.store.tensors())
    assert layers["autodiff.matmul_gflop"] > 0


def test_untraced_run_installs_no_spans(tmp_path, monkeypatch):
    import worker

    def no_tracer():
        raise AssertionError("an untraced run created a tracer")

    monkeypatch.setattr(worker, "Tracer", no_tracer)
    monkeypatch.setattr(worker, "SETUP_REPS", 1)
    result = worker.run(worker.make_workload("desk_pretrain"), seed=2, seconds=0.5,
                        trace=False, out_dir=tmp_path, spawned_at=time.monotonic())
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk_eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
