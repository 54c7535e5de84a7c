"""The benchmark's tracer reaches the program by name; these names must resolve."""

import importlib.util
from pathlib import Path

import numpy as np

from cloudmae import autodiff as ad
from cloudmae import model as model_mod
from cloudmae.config import BackboneConfig
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
