"""What the benchmark (``perfbench/``) relies on: the names its tracer wraps,
the step probe of its pretrain workload and the request path of its eval workload."""

import importlib.util
from pathlib import Path

import numpy as np

from cloudmae import autodiff as ad
from cloudmae import model as model_mod
from cloudmae import params as params_mod
from cloudmae import training
from cloudmae.config import BackboneConfig, desk_preset
from cloudmae.data import SyntheticSpec, gen_synthetic

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer_mod = load_tracer()
    matmul = ad.matmul
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert ad.matmul is not matmul
        cfg = BackboneConfig(dim=16, encoder_depth=1, decoder_depth=1, heads=2,
                             embed_widths=(8, 16, 32))
        model = model_mod.MaskedAutoencoder(cfg, patch_size=8, seed=0)
        cloud = gen_synthetic(SyntheticSpec(family="cube", points=64, seed=1))
        model.pretrain_forward(cloud, 8, 0.5, seed=2)
    finally:
        tracer.uninstall()
    assert ad.matmul is matmul
    names = set(tracer.arrays()["names"])
    assert {"model.forward", "model.encoder_block", "model.decoder_block",
            "geometry.chamfer", "autodiff.matmul"} <= names
    assert np.isfinite(float(model.pretrain_forward(cloud, 8, 0.5, seed=2)[0].data))


def test_forward_only_calls_return_tape_free_tensors():
    # the benchmark's forward-only calls pass train=False; their outputs must
    # hold no tape, so no activation outlives a request
    cfg = BackboneConfig(dim=16, encoder_depth=1, decoder_depth=1, heads=2,
                         embed_widths=(8, 16, 32))
    clouds = [gen_synthetic(SyntheticSpec(family="cube", points=64, seed=s))
              for s in (3, 4)]
    clf = model_mod.PointCloudClassifier(cfg, patch_size=8, n_patches=8, n_classes=3,
                                         seed=0)
    model = model_mod.MaskedAutoencoder(cfg, patch_size=8, seed=0)
    loss, _ = model.pretrain_forward_batch(clouds, 8, 0.5, seeds=[5, 6], train=False)
    for out in (clf.logits_batch(clouds, [5, 6], train=False),
                clf.logits(clouds[0], 5, train=False), loss):
        assert out._vjp is None and out._parents == () and not out.requires_grad


def tiny_pretrain_config(**overrides):
    return desk_preset(**{**dict(
        epochs=3, warmup_epochs=1, batch_size=4, train_per_class=2, val_per_class=2,
        test_per_class=2, points=96, n_patches=8, patch_size=8, dim=24, encoder_depth=1,
        decoder_depth=1, heads=2, embed_widths=(8, 16, 32)), **overrides})


def test_pretrain_looks_up_cosine_lr_once_per_step(monkeypatch, tmp_path):
    # the pretrain workload marks step boundaries by replacing training.cosine_lr
    calls = []
    real_lr, real_step = training.cosine_lr, params_mod.AdamW.step

    def lr_probe(*args, **kwargs):
        calls.append("lr")
        return real_lr(*args, **kwargs)

    def step_probe(opt, *args, **kwargs):
        calls.append("step")
        return real_step(opt, *args, **kwargs)

    monkeypatch.setattr(training, "cosine_lr", lr_probe)
    monkeypatch.setattr(params_mod.AdamW, "step", step_probe)
    cfg = tiny_pretrain_config()
    steps_per_epoch = 3   # 12 clouds in batches of 4
    training.pretrain(cfg, out_dir=tmp_path, checkpoint_every=1)
    assert calls == ["lr", "step"] * (cfg.epochs * steps_per_epoch)
    calls.clear()
    mid = training.Checkpoint.load(tmp_path / "checkpoint_0001.bin")
    training.pretrain(cfg, resume=mid)
    assert calls == ["lr", "step"] * ((cfg.epochs - 1) * steps_per_epoch)


def test_pretrained_checkpoint_feeds_eval_request_path(tmp_path):
    # the eval workload loads the saved checkpoint per request, builds the
    # pretrained model and loads its parameters into a classifier backbone
    cfg = tiny_pretrain_config(epochs=1, warmup_epochs=0)
    ckpt, _ = training.pretrain(cfg)
    ckpt.save(tmp_path / "checkpoint.bin")
    loaded = training.Checkpoint.load(tmp_path / "checkpoint.bin")
    model = loaded.build_model()
    clf = model_mod.PointCloudClassifier(cfg.model, cfg.patch_size, cfg.n_patches,
                                         n_classes=3, seed=0)
    clf.load_backbone(loaded.params)
    for name, value in model.store.state_arrays().items():
        assert value.tobytes() == ckpt.params[name].tobytes()
    for name, value in clf.store.state_arrays().items():
        if not name.startswith("cls_head."):
            assert value.tobytes() == ckpt.params[name].tobytes()
    cloud = gen_synthetic(SyntheticSpec(family="cube", points=cfg.points, seed=1))
    assert np.isfinite(clf.logits(cloud, 2).data).all()
