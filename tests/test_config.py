import json

import pytest

from cloudmae.cli import main
from cloudmae.config import RunConfig, desk_preset


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
], ids=["heads", "batch_size", "mask_ratio_1", "mask_ratio_rounds_to_all", "patch_size",
        "families", "train_per_class", "test_per_class", "lr_max", "finetune_lr", "lr_min",
        "warmup_epochs"])
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
