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


def test_cli_bad_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(stored_dict(width=5)))
    assert main(["finetune", "--config", str(path)]) == 1
    assert "model.width" in capsys.readouterr().err
