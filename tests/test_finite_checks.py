"""Finiteness checks of training steps and forward-only passes.

Training steps and forward-only passes check only what leaves them, and on a
non-finite value replay with a check after every op. So each injected NaN or
Inf below must raise the op, epoch and batch seeds that checking every op as
it runs names; the expected values were recorded from such a run. Without a
non-finite value, deferring the checks changes no output bit.
"""

import contextlib
import dataclasses
import json

import numpy as np
import pytest

import cloudmae.training as training
from cloudmae import autodiff as ad
from cloudmae.autodiff import NumericsError, Tensor
from cloudmae.cli import main
from cloudmae.config import desk_preset
from cloudmae.data import build_dataset
from cloudmae.embed import CHUNK_ROWS
from cloudmae.geometry import PointCloud
from cloudmae.model import PointCloudClassifier
from cloudmae.params import ParamStore
from cloudmae.seeding import derive_seed
from cloudmae.training import (Checkpoint, TrainingAbort, fewshot_eval, finetune_classify,
                               pretrain, reconstruct)
from test_training import tiny_config

# the first batch of epoch 0 under tiny_config()'s seed
FIRST_BATCH = [14346561580474789979, 10825656801290860327, 9640603691827976107,
               8098738563380662801]
# the epoch-0 batch that holds train item 1
ITEM_1_BATCH = [3775856811390427626, 6469415324487317931, 3710897579100069033,
                8384790376020212687]
# the first batch of epoch 3, where a resumed tiny run starts
EPOCH_3_BATCH = [1342142524421453641, 15624332673339387996, 7780454288914666104,
                 10409209455631318935]
# the view seeds of fine-tuning's first batch under tiny_config()'s seed
FINETUNE_FIRST_BATCH = [14112544204032018060, 11918562245794124605, 3379406100059477046,
                        2369511563714086412]
# the feature seeds of the supports of the first few-shot run below
FEWSHOT_SUPPORTS = [8086930927626217430, 15776609772465059789]


@pytest.fixture(scope="module")
def tiny():
    cfg = tiny_config()
    dataset = build_dataset(cfg.data, cfg.points, derive_seed(cfg.seed, "dataset"))
    ckpt, _ = pretrain(cfg, dataset=dataset)
    return cfg, dataset, ckpt


@pytest.fixture
def poison(monkeypatch):
    """poison(name, value): every parameter called ``name`` is built holding ``value`` first."""
    add = ParamStore.add

    def install(name, value):
        def poisoned_add(store, pname, *args, **kwargs):
            t = add(store, pname, *args, **kwargs)
            if pname == name:
                t.data.flat[0] = value
            return t

        monkeypatch.setattr(ParamStore, "add", poisoned_add)

    return install


def _poisoned_checkpoint(ckpt, name, value):
    bad = Checkpoint.from_bytes(ckpt.to_bytes())
    bad.params[name].flat[0] = value
    return bad


def _assert_names(exc, op):
    assert str(exc).startswith(f"{op}: ") and exc.op == op


@pytest.mark.parametrize("name, value, op", [
    ("encoder.block0.mlp.lin1.w", np.nan, "linear"),
    ("encoder.block0.ln1.gain", 1e250, "matmul"),
    ("head.w", 1e200, "sqdist"),
    ("head.b", 1e154, "reduce_mean"),
])
def test_poisoned_parameter_in_pretrain(tiny, poison, tmp_path, name, value, op):
    cfg, dataset, _ = tiny
    poison(name, value)
    with np.errstate(all="ignore"), pytest.raises(TrainingAbort) as info:
        pretrain(cfg, dataset=dataset, out_dir=tmp_path)
    abort = info.value
    assert (abort.epoch, abort.item_seed, abort.op) == (0, FIRST_BATCH, op)
    _assert_names(abort.__cause__, op)
    dump = json.loads((tmp_path / "abort.json").read_text())
    assert (dump["epoch"], dump["item_seed"], dump["op"]) == (0, FIRST_BATCH, op)


def test_cloud_with_huge_finite_coordinates_in_pretrain(tiny):
    cfg, dataset, _ = tiny
    train = list(dataset.train)
    train[1] = PointCloud(train[1].points * 1e200, train[1].label)
    with np.errstate(all="ignore"), pytest.raises(TrainingAbort) as info:
        pretrain(cfg, dataset=dataclasses.replace(dataset, train=train))
    abort = info.value
    assert (abort.epoch, abort.item_seed, abort.op) == (0, ITEM_1_BATCH, "sqdist")
    assert derive_seed(cfg.seed, "item", 0, 1) in abort.item_seed
    _assert_names(abort.__cause__, "sqdist")


def test_poisoned_classifier_head_in_finetune(tiny, poison):
    cfg, dataset, ckpt = tiny
    poison("cls_head.lin2.w", np.nan)
    with pytest.raises(TrainingAbort) as info:
        finetune_classify(dataset, cfg, checkpoint=ckpt)
    abort = info.value
    assert (abort.epoch, abort.item_seed, abort.op) == (0, FINETUNE_FIRST_BATCH, "linear")
    assert str(abort).startswith(
        f"non-finite loss at epoch 0, batch seeds {FINETUNE_FIRST_BATCH}: linear: ")
    _assert_names(abort.__cause__, "linear")


def test_poisoned_fewshot_head(tiny, poison):
    _, dataset, ckpt = tiny
    pool = dataset.train + dataset.test
    poison("fewshot_head.lin2.w", np.nan)
    with pytest.raises(TrainingAbort) as info:
        fewshot_eval(ckpt, pool, 2, 1, runs=2, test_per_class=2, seed=3, head_epochs=3)
    abort = info.value
    assert (abort.epoch, abort.item_seed, abort.op) == (0, FEWSHOT_SUPPORTS, "linear")
    assert set(FEWSHOT_SUPPORTS) <= {derive_seed(3, "feat", k) for k in range(len(pool))}
    _assert_names(abort.__cause__, "linear")


@pytest.mark.parametrize("name, value, op", [
    ("encoder.block0.attn.k.w", np.nan, "linear"),
    ("embed.stage2.lin2.b", np.inf, "linear"),
    ("encoder.ln.bias", np.nan, "layer_norm"),
])
def test_poisoned_checkpoint_through_logits_batch(tiny, name, value, op):
    cfg, dataset, ckpt = tiny
    clf = PointCloudClassifier(cfg.model, cfg.patch_size, cfg.n_patches, 3, seed=1)
    clf.load_backbone(_poisoned_checkpoint(ckpt, name, value).params)
    with pytest.raises(NumericsError) as info:
        clf.logits_batch(dataset.test[:4], [1, 2, 3, 4])
    _assert_names(info.value, op)


@pytest.mark.parametrize("name, value", [
    ("embed.stage2.lin2.b", np.inf),
    ("encoder.block0.attn.k.w", np.nan),
])
def test_poisoned_checkpoint_through_a_chunked_logits_batch(tiny, name, value):
    # 17 clouds of 8 patches exceed one forward-only embedder chunk of 128
    cfg, dataset, ckpt = tiny
    clouds = (dataset.train + dataset.test)[:17]
    assert len(clouds) * cfg.n_patches > CHUNK_ROWS // cfg.patch_size
    clf = PointCloudClassifier(cfg.model, cfg.patch_size, cfg.n_patches, 3, seed=1)
    clf.load_backbone(_poisoned_checkpoint(ckpt, name, value).params)
    with pytest.raises(NumericsError) as info:
        clf.logits_batch(clouds, list(range(len(clouds))))
    _assert_names(info.value, "linear")


@pytest.mark.parametrize("name, value, op", [
    ("head.w", np.nan, "tensor"),        # building the model from the checkpoint checks it
    ("head.w", 1e200, "sqdist"),
    ("head.b", 1e154, "reduce_mean"),
    ("decoder.ln.gain", 1e250, "sqdist"),
])
def test_poisoned_checkpoint_through_reconstruct(tiny, tmp_path, name, value, op):
    _, dataset, ckpt = tiny
    bad = _poisoned_checkpoint(ckpt, name, value)
    with np.errstate(all="ignore"), pytest.raises(NumericsError) as info:
        reconstruct(bad, dataset.test[0], 0.6, tmp_path, seed=3)
    _assert_names(info.value, op)


def test_cli_numerical_failures_name_the_op(tiny, tmp_path, capsys):
    _, _, ckpt = tiny
    path = tmp_path / "bad.bin"
    _poisoned_checkpoint(ckpt, "head.b", 1e154).save(path)
    config = tmp_path / "config.json"
    config.write_text(tiny_config(epochs=5).to_json())
    with np.errstate(all="ignore"):
        assert main(["reconstruct", "--checkpoint", str(path), "--out", str(tmp_path)]) == 2
        assert "numerical failure in op reduce_mean: " in capsys.readouterr().err
        assert main(["pretrain", "--config", str(config), "--resume", str(path),
                     "--out", str(tmp_path / "run")]) == 2
    assert "numerical failure in op reduce_mean: " in capsys.readouterr().err
    dump = json.loads((tmp_path / "run" / "abort.json").read_text())
    assert (dump["epoch"], dump["item_seed"], dump["op"]) == (3, EPOCH_3_BATCH, "reduce_mean")


def test_step_whose_gradient_overflows_names_the_backward_op():
    store = ParamStore(0)
    w = store.add("w", (1,))
    w.data[0] = 1e-300
    c = Tensor([1e308])
    forward = lambda: ad.reduce_sum(w * c) + ad.reduce_sum(w * c)
    with np.errstate(all="ignore"), pytest.raises(NumericsError) as info:
        training._train_step(store, forward)
    _assert_names(info.value, "backward(mul)")


def test_a_desk_step_scans_only_its_loss_and_gradients(monkeypatch):
    cfg = desk_preset(epochs=1, warmup_epochs=0)
    dataset = build_dataset(cfg.data, cfg.points, derive_seed(cfg.seed, "dataset"))
    dataset = dataclasses.replace(dataset, train=dataset.train[:2 * cfg.batch_size])
    isfinite, step = np.isfinite, training._train_step
    scans, in_step = [], False     # finiteness scans per training step

    def counted_isfinite(x, *args, **kwargs):
        if in_step:
            scans[-1] += 1
        return isfinite(x, *args, **kwargs)

    def counted_step(store, forward):
        nonlocal in_step
        scans.append(0)
        in_step = True
        try:
            return step(store, forward)
        finally:
            in_step = False
            with_grad = sum(t.grad is not None for t in store.tensors())
            assert 1 <= scans[-1] <= 1 + with_grad

    monkeypatch.setattr(np, "isfinite", counted_isfinite)
    monkeypatch.setattr(training, "_train_step", counted_step)
    pretrain(cfg, dataset=dataset)
    assert len(scans) == 2


def test_deferring_the_checks_changes_no_output_bit(tiny, monkeypatch, tmp_path):
    cfg, dataset, _ = tiny

    def outputs():
        ckpt, metrics = pretrain(cfg, dataset=dataset)
        acc, clf, _ = finetune_classify(dataset, cfg, checkpoint=ckpt)
        logits = clf.logits_batch(dataset.test, list(range(len(dataset.test)))).data
        paths, _ = reconstruct(ckpt, dataset.test[0], 0.6, tmp_path, seed=3)
        episode = fewshot_eval(ckpt, dataset.train + dataset.test, 2, 1, runs=2,
                               test_per_class=2, seed=3, head_epochs=3)
        return (ckpt.to_bytes(), metrics.deterministic_records(), acc,
                clf.store.state_arrays(), logits.tobytes(),
                paths["reconstruction"].read_bytes(), episode)

    deferred = outputs()
    monkeypatch.setattr(ad, "_deferring", contextlib.nullcontext)
    eager = outputs()
    assert deferred[:3] == eager[:3] and deferred[4:] == eager[4:]
    assert all(deferred[3][k].tobytes() == eager[3][k].tobytes() for k in eager[3])
