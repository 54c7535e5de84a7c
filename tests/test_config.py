import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmae.cli import main
from cloudmae.config import SHAPE_FAMILIES, RunConfig, apply_overrides, desk_preset
from cloudmae.data import build_dataset
from cloudmae.model import MaskedAutoencoder
from cloudmae.params import AdamW
from cloudmae.seeding import derive_seed
from cloudmae.training import Checkpoint, finetune_classify, pretrain


def stored_dict(**model_extra):
    d = desk_preset().to_dict()
    d["model"].update(model_extra)
    return d


@pytest.mark.parametrize("section, key, name", [
    (None, "speed", "speed"), ("data", "colour", "data.colour"),
    ("model", "width", "model.width")])
def test_unknown_field_named(section, key, name):
    d = stored_dict()
    (d if section is None else d[section])[key] = 1
    with pytest.raises(ValueError, match=f"unknown config fields: {name}"):
        RunConfig.from_dict(d)


@pytest.mark.parametrize("key", ["to_dict", "bogus", "__post_init__"])
def test_override_that_names_no_field_rejected(key):
    with pytest.raises(ValueError, match=f"unknown config fields: {key}"):
        desk_preset(**{key: 1})


def test_overrides_routed_to_sections_without_touching_base():
    base = desk_preset()
    cfg = apply_overrides(base, dim=48, families=["cube", "sphere"], seed=3)
    assert (cfg.model.dim, cfg.data.families, cfg.seed) == (48, ("cube", "sphere"), 3)
    assert base == desk_preset()


def test_stored_zero_dropout_accepted():
    # configs stored in older checkpoints carry model.dropout = 0.0
    assert RunConfig.from_dict(stored_dict(dropout=0.0)) == desk_preset()


def test_nonzero_dropout_rejected():
    with pytest.raises(ValueError, match="dropout"):
        RunConfig.from_dict(stored_dict(dropout=0.1))


@pytest.mark.parametrize("overrides, message", [
    ({"heads": 0}, "heads"),
    ({"batch_size": 0}, "batch_size"),
    ({"mask_ratio": 1.0}, "no visible patch"),
    ({"mask_ratio": 0.97}, "no visible patch"),  # rounds up to all 16 patches
    ({"patch_size": 0}, "patch_size"),
    ({"families": ()}, "families"),
    ({"train_per_class": 0}, "train_per_class 0"),
    ({"test_per_class": 0}, "test_per_class 0"),
    ({"lr_max": -1.0}, "lr_max -1.0"),
    ({"finetune_lr": 0.0}, "finetune_lr 0.0"),
    ({"lr_min": -1e-6}, "lr_min -1e-06"),
    ({"epochs": 10, "warmup_epochs": 10}, "warmup_epochs"),
    ({"families": ("sphere", "pyramid")}, "families"),
    ({"families": ("cube", "cube")}, "families"),
    ({"noise_sigma": -0.01}, "noise_sigma -0.01"),
    ({"noise_sigma": math.inf}, "noise_sigma inf"),
    ({"val_per_class": -1}, "val_per_class -1"),
    ({"embed_widths": (0, 0, 0)}, "embed_widths"),
    ({"mlp_ratio": 0}, "mlp_ratio"),
    ({"epochs": -1}, "epochs"),
    ({"warmup_epochs": -1}, "warmup_epochs"),
    ({"finetune_epochs": -1}, "finetune_epochs"),
], ids=["heads", "batch_size", "mask_ratio_1", "mask_ratio_rounds_to_all", "patch_size",
        "families", "train_per_class", "test_per_class", "lr_max", "finetune_lr", "lr_min",
        "warmup_epochs", "unknown_family", "repeated_family", "negative_noise",
        "infinite_noise", "val_per_class", "embed_widths", "mlp_ratio", "negative_epochs",
        "negative_warmup", "negative_finetune_epochs"])
def test_config_that_cannot_train_rejected_at_build(overrides, message):
    with pytest.raises(ValueError, match=message):
        desk_preset(**overrides)


def test_edge_configs_that_can_train_accepted():
    assert desk_preset(mask_ratio=0.95).mask_ratio == 0.95  # 15 of 16 masked
    assert desk_preset(epochs=0, warmup_epochs=0).epochs == 0


def test_cli_bad_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(stored_dict(width=5)))
    assert main(["finetune", "--config", str(path)]) == 1
    assert "model.width" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, name, expected", [
    ("dim", "a", "model.dim", "an int"),
    ("dim", True, "model.dim", "an int"),
    ("dim", 96.0, "model.dim", "an int"),
    ("seed", None, "seed", "an int"),
    ("lr_max", True, "lr_max", "an int or a float"),
    ("lr_max", "1e-3", "lr_max", "an int or a float"),
    ("mask_type", 3, "mask_type", "a str"),
    ("embed_widths", 64, "model.embed_widths", "a list of int"),
    ("embed_widths", [64, "128", 256], "model.embed_widths", "a list of int"),
    ("families", "cube", "data.families", "a list of str"),
    ("families", ["cube", 1], "data.families", "a list of str"),
])
def test_wrongly_typed_field_rejected(key, value, name, expected):
    with pytest.raises(ValueError, match=f"config field {name} must be {expected}, got"):
        desk_preset(**{key: value})


@pytest.mark.parametrize("d, name", [([1], "config"), ({"model": 3}, "config field model"),
                                     ({"data": None}, "config field data")])
def test_section_that_is_not_an_object_rejected(d, name):
    with pytest.raises(ValueError, match=f"{name} must be an object"):
        RunConfig.from_dict(d)


def test_int_accepted_in_float_field():
    assert desk_preset(lr_max=1, noise_sigma=0).lr_max == 1


def test_cli_wrongly_typed_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"model": {"dim": "a"}}')
    assert main(["finetune", "--config", str(path)]) == 1
    assert "config field model.dim must be an int, got 'a'" in capsys.readouterr().err


# a tiny config that runs in well under a second; each example overrides a few fields
_TINY = dict(epochs=1, warmup_epochs=0, batch_size=4, train_per_class=1, val_per_class=0,
             test_per_class=1, families=("sphere", "cube"), points=32, n_patches=4,
             patch_size=8, dim=8, heads=2, encoder_depth=1, decoder_depth=1, mlp_ratio=1,
             embed_widths=(4, 4, 4), finetune_epochs=1)

_VALUES = {
    "epochs": st.integers(-1, 2),
    "warmup_epochs": st.integers(-1, 2),
    "finetune_epochs": st.integers(-1, 2),
    "batch_size": st.sampled_from([-1, 0, 1, 3, 64]),
    "train_per_class": st.integers(-1, 2),
    "val_per_class": st.integers(-1, 1),
    "test_per_class": st.integers(-1, 2),
    "families": st.lists(st.sampled_from(SHAPE_FAMILIES + ("pyramid",)), max_size=3),
    "noise_sigma": st.sampled_from([-0.1, 0.0, 0.05, math.inf, math.nan]),
    "points": st.integers(-1, 40),
    "n_patches": st.integers(-1, 8),
    "patch_size": st.integers(-1, 12),
    "mask_ratio": st.one_of(st.sampled_from([-0.1, 0.0, 1.0, math.nan]),
                            st.floats(0.0, 1.0)),
    "mask_type": st.sampled_from(["random", "block", "diagonal"]),
    "mask_token_placement": st.sampled_from(["decoder", "encoder", "middle"]),
    "dim": st.integers(-1, 12),
    "heads": st.integers(-1, 4),
    "encoder_depth": st.integers(-1, 2),
    "decoder_depth": st.integers(-1, 2),
    "mlp_ratio": st.integers(-1, 2),
    "embed_widths": st.lists(st.integers(-1, 6), min_size=2, max_size=4).map(tuple),
    "seed": st.integers(-(2 ** 40), 2 ** 40),
}


@st.composite
def _tiny_overrides(draw):
    keys = draw(st.sets(st.sampled_from(sorted(_VALUES)), max_size=4))
    return {key: draw(_VALUES[key]) for key in sorted(keys)}


@settings(max_examples=400, deadline=None)
@given(overrides=_tiny_overrides())
def test_accepted_config_pretrains_and_finetunes(overrides):
    """A config is rejected when built, or one pretrain and one fine-tune complete."""
    try:
        cfg = desk_preset(**{**_TINY, **overrides})
    except ValueError:
        return
    ckpt, _ = pretrain(cfg)
    dataset = build_dataset(cfg.data, cfg.points, derive_seed(cfg.seed, "dataset"))
    accuracy, _, metrics = finetune_classify(dataset, cfg, checkpoint=ckpt)
    assert 0.0 <= accuracy <= 1.0
    assert len(metrics.records) == cfg.finetune_epochs


@settings(max_examples=200, deadline=None)
@given(overrides=_tiny_overrides())
def test_accepted_config_round_trips(overrides):
    """Every config that builds equals itself after JSON and after a checkpoint."""
    try:
        cfg = desk_preset(**{**_TINY, **overrides})
    except ValueError:
        return
    assert RunConfig.from_json(cfg.to_json()) == cfg
    model = MaskedAutoencoder(cfg.model, cfg.patch_size)
    ckpt = Checkpoint.capture(model, AdamW(model.store, lr=cfg.lr_max), cfg, epoch=0)
    assert Checkpoint.from_bytes(ckpt.to_bytes()).config() == cfg
