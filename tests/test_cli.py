import json

import numpy as np
import pytest

from cloudmae import cli
from cloudmae.cli import main
from cloudmae.config import RunConfig, desk_preset
from cloudmae.data import load_points
from cloudmae.params import write_container
from cloudmae.training import pretrain, reconstruct


@pytest.fixture
def tiny_config_file(tmp_path):
    cfg = desk_preset(
        epochs=2, warmup_epochs=1, batch_size=4,
        train_per_class=2, val_per_class=2, test_per_class=2,
        points=96, n_patches=8, patch_size=8,
        dim=24, encoder_depth=1, decoder_depth=1, heads=2,
        embed_widths=(8, 16, 32), finetune_epochs=2,
    )
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return path


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "matmul" in out and "FAIL" not in out


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1
    assert main(["pretrain", "--mask-type", "diagonal"]) == 1


def test_malformed_checkpoint_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"CMAE\x05")
    assert main(["fewshot", "--checkpoint", str(path)]) == 1
    assert "bad.bin: container: truncated header length" in capsys.readouterr().err


def test_checkpoint_without_meta_exits_1(tmp_path, capsys):
    path = tmp_path / "bare.bin"
    path.write_bytes(write_container({}, {}))
    assert main(["reconstruct", "--checkpoint", str(path), "--out", str(tmp_path)]) == 1
    assert "bare.bin: checkpoint: meta lacks 'config'" in capsys.readouterr().err


def test_missing_checkpoint_file_is_usage_error(tmp_path):
    assert main(["reconstruct", "--checkpoint", str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path)]) == 1


def test_pretrain_then_downstream_commands(tmp_path, tiny_config_file, capsys):
    out_dir = tmp_path / "run"
    rc = main(["pretrain", "--config", str(tiny_config_file),
               "--out", str(out_dir)])
    assert rc == 0
    ckpt = out_dir / "checkpoint_final.bin"
    assert ckpt.exists()
    assert (out_dir / "metrics.jsonl").exists()
    capsys.readouterr()

    rc = main(["finetune", "--config", str(tiny_config_file),
               "--checkpoint", str(ckpt)])
    assert rc == 0
    assert "test accuracy" in capsys.readouterr().out

    rc = main(["fewshot", "--config", str(tiny_config_file),
               "--checkpoint", str(ckpt), "--n-way", "2", "--m-shot", "1",
               "--runs", "2", "--test-per-class", "2"])
    assert rc == 0
    assert "2-way 1-shot" in capsys.readouterr().out

    recon_dir = tmp_path / "recon"
    rc = main(["reconstruct", "--config", str(tiny_config_file),
               "--checkpoint", str(ckpt), "--out", str(recon_dir),
               "--mask-ratio", "0.5"])
    assert rc == 0
    for name in ("input.ply", "masked.ply", "reconstruction.ply"):
        assert load_points(recon_dir / name).p > 0


def test_reconstruct_honours_mask_type(tmp_path, tiny_config_file, monkeypatch):
    cfg = RunConfig.from_json(tiny_config_file.read_text())
    cfg.epochs = cfg.warmup_epochs = 0
    ckpt_path = tmp_path / "init.bin"
    pretrain(cfg)[0].save(ckpt_path)
    reports = []

    def recording(*args, **kwargs):
        paths, report = reconstruct(*args, **kwargs)
        reports.append(report)
        return paths, report

    monkeypatch.setattr(cli, "reconstruct", recording)
    rc = main(["reconstruct", "--config", str(tiny_config_file),
               "--checkpoint", str(ckpt_path), "--out", str(tmp_path / "recon"),
               "--mask-type", "block"])
    assert rc == 0
    assert reports[0]["mask"].anchor is not None


def test_gen_data_writes_manifest(tmp_path, tiny_config_file):
    out_dir = tmp_path / "data"
    rc = main(["gen-data", "--config", str(tiny_config_file),
               "--out", str(out_dir)])
    assert rc == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest) == {"train", "val", "test"}
    entry = manifest["train"][0]
    cloud = load_points(out_dir / entry["file"])
    assert cloud.p == 96


def test_ablate_mask_tiny_grid(tmp_path, tiny_config_file, capsys):
    rc = main(["ablate-mask", "--config", str(tiny_config_file),
               "--ratios", "0.5", "--types", "random", "--no-encoder-cell",
               "--out", str(tmp_path / "abl")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "loss(x1000)" in out
    rows = json.loads((tmp_path / "abl" / "ablation.json").read_text())
    assert len(rows) == 1 and rows[0]["ratio"] == 0.5


def test_ablate_mask_invalid_ratio_exits_1(tmp_path, tiny_config_file, capsys):
    rc = main(["ablate-mask", "--config", str(tiny_config_file),
               "--ratios", "0.5,1.0", "--types", "random", "--no-encoder-cell",
               "--out", str(tmp_path / "abl")])
    assert rc == 1
    assert "mask_ratio 1.0 leaves no visible patch" in capsys.readouterr().err
    assert not (tmp_path / "abl" / "ablation.json").exists()
