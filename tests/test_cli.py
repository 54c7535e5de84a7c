import argparse
import json

import numpy as np
import pytest

from cloudmae import cli
from cloudmae.cli import build_parser, main
from cloudmae.config import SHAPE_FAMILIES, RunConfig, apply_overrides, desk_preset
from cloudmae.data import SyntheticSpec, gen_synthetic, load_points, save_ply, save_xyz
from cloudmae.params import write_container
from cloudmae.training import Checkpoint, pretrain, reconstruct

from test_finite_checks import FINETUNE_FIRST_BATCH


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
    assert len({line.index("max rel err") for line in out.splitlines()}) == 1


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_gradcheck_fewer_than_one_trial_exits_1(trials, capsys):
    assert main(["gradcheck", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert "--trials" in captured.err and captured.out == ""


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


@pytest.mark.parametrize("args", [
    ["fewshot", "--checkpoint", "{dir}"],
    ["reconstruct", "--checkpoint", "{dir}", "--out", "{out}"],
    ["reconstruct", "--checkpoint", "{ckpt}", "--input", "{dir}", "--out", "{out}"],
    ["finetune", "--config", "{dir}"],
], ids=["fewshot_checkpoint", "reconstruct_checkpoint", "reconstruct_input", "config"])
def test_directory_in_place_of_a_file_exits_1(tmp_path, tiny_config_file, args, capsys):
    cfg = RunConfig.from_json(tiny_config_file.read_text())
    cfg.epochs = cfg.warmup_epochs = 0
    ckpt_path = tmp_path / "init.bin"
    pretrain(cfg)[0].save(ckpt_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    names = {"dir": folder, "out": tmp_path / "out", "ckpt": ckpt_path}
    argv = [a.format(**names) for a in args]
    if "--config" not in argv:
        argv += ["--config", str(tiny_config_file)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(folder) in err


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


def test_negative_checkpoint_every_exits_1_and_writes_nothing(tmp_path, tiny_config_file,
                                                               capsys):
    out = tmp_path / "run"
    assert main(["pretrain", "--config", str(tiny_config_file), "--out", str(out),
                 "--checkpoint-every", "-2"]) == 1
    assert "checkpoint_every must be >= 0, got -2" in capsys.readouterr().err
    assert not out.exists()


def test_resume_checks_config_and_progress(tmp_path, tiny_config_file, capsys):
    assert main(["pretrain", "--config", str(tiny_config_file), "--out", str(tmp_path / "a"),
                 "--checkpoint-every", "1"]) == 0
    mid, final = tmp_path / "a" / "checkpoint_0001.bin", tmp_path / "a" / "checkpoint_final.bin"
    capsys.readouterr()
    assert main(["pretrain", "--config", str(tiny_config_file), "--resume", str(mid),
                 "--seed", "5", "--mask-ratio", "0.5", "--out", str(tmp_path / "b")]) == 1
    assert "config differs from the checkpoint's in mask_ratio, seed" in capsys.readouterr().err
    assert main(["pretrain", "--config", str(tiny_config_file), "--resume", str(final),
                 "--out", str(tmp_path / "b")]) == 1
    assert "epochs 2 leaves nothing to train" in capsys.readouterr().err
    longer = tmp_path / "longer.json"
    longer.write_text(apply_overrides(RunConfig.from_json(tiny_config_file.read_text()),
                                      epochs=3).to_json())
    assert main(["pretrain", "--config", str(longer), "--resume", str(final),
                 "--out", str(tmp_path / "c")]) == 0
    assert Checkpoint.load(tmp_path / "c" / "checkpoint_final.bin").meta["epoch"] == 3


def test_resume_from_checkpoint_missing_a_moment_exits_1(tmp_path, tiny_config_file, capsys):
    ckpt, _ = pretrain(RunConfig.from_json(tiny_config_file.read_text()))
    del ckpt.opt_m["head.b"]
    path = tmp_path / "partial.bin"
    ckpt.save(path)
    assert main(["pretrain", "--config", str(tiny_config_file), "--resume", str(path),
                 "--out", str(tmp_path / "run")]) == 1
    assert "partial.bin: checkpoint: opt_m/ does not match param/ at 'head.b'" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", [
    ["reconstruct", "--out", "recon"],
    ["fewshot", "--n-way", "2", "--m-shot", "1", "--runs", "1", "--test-per-class", "2"],
    ["finetune"],
])
def test_checkpoint_missing_a_parameter_exits_1(tmp_path, tiny_config_file, command, capsys):
    ckpt, _ = pretrain(apply_overrides(RunConfig.from_json(tiny_config_file.read_text()),
                                       epochs=0, warmup_epochs=0))
    for group in (ckpt.params, ckpt.opt_m, ckpt.opt_v):
        del group["encoder.block0.attn.q.w"]
    path = tmp_path / "partial.bin"
    ckpt.save(path)
    argv = command[:1] + ["--config", str(tiny_config_file), "--checkpoint", str(path)]
    argv += [str(tmp_path / a) if a == "recon" else a for a in command[1:]]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: missing parameter 'encoder.block0.attn.q.w' in loaded arrays\n")


def test_finetune_on_a_checkpoint_with_a_nan_exits_2_naming_op_epoch_and_batch(
        tmp_path, tiny_config_file, capsys):
    ckpt, _ = pretrain(apply_overrides(RunConfig.from_json(tiny_config_file.read_text()),
                                       epochs=0, warmup_epochs=0))
    ckpt.params["encoder.block0.attn.k.w"].flat[0] = np.nan
    path = tmp_path / "nan.bin"
    ckpt.save(path)
    assert main(["finetune", "--config", str(tiny_config_file), "--checkpoint", str(path)]) == 2
    # the config file holds tiny_config()'s data, batch size and seed
    assert capsys.readouterr().err.startswith(
        "numerical failure in op linear: non-finite loss at epoch 0, "
        f"batch seeds {FINETUNE_FIRST_BATCH}: linear: ")


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


def test_reconstruct_input_file(tmp_path, tiny_config_file, capsys):
    cfg = RunConfig.from_json(tiny_config_file.read_text())
    cfg.epochs = cfg.warmup_epochs = 0
    ckpt_path = tmp_path / "init.bin"
    pretrain(cfg)[0].save(ckpt_path)
    points = gen_synthetic(SyntheticSpec(family="cone", points=96, seed=3)).points
    args = ["reconstruct", "--config", str(tiny_config_file), "--checkpoint", str(ckpt_path),
            "--out", str(tmp_path / "recon"), "--input"]
    xyz = tmp_path / "cloud.xyz"
    save_xyz(xyz, points)
    assert main(args + [str(xyz)]) == 0
    assert np.array_equal(load_points(tmp_path / "recon" / "input.ply").points, points)

    bad = tmp_path / "corrupt.ply"
    save_ply(bad, [points])
    lines = bad.read_text().splitlines()
    lines[11] = "0.5 oops 0.5 180 180 180"    # the second vertex row
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(args + [str(bad)]) == 1
    assert f"{bad}:12: non-numeric coordinate" in capsys.readouterr().err


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


@pytest.mark.parametrize("families", [("cube", "sphere"), ("torus",)])
def test_gen_data_names_files_by_the_label_family(tmp_path, tiny_config_file, families):
    path = tmp_path / "families.json"
    path.write_text(apply_overrides(RunConfig.from_json(tiny_config_file.read_text()),
                                    families=families).to_json())
    out_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(path), "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    entries = [entry for split in manifest.values() for entry in split]
    assert {entry["family"] for entry in entries} == set(families)
    for entry in entries:
        family = SHAPE_FAMILIES[entry["label"]]
        assert entry["family"] == family
        assert entry["file"].split("/")[-1].startswith(f"{family}_")
        assert load_points(out_dir / entry["file"]).p == 96


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


_COMMON = {"--config", "--preset", "--seed"}
_FLAGS = {
    "pretrain": _COMMON | {"--mask-ratio", "--mask-type", "--mask-tokens-at", "--out",
                           "--resume", "--checkpoint-every"},
    "finetune": _COMMON | {"--checkpoint"},
    "fewshot": _COMMON | {"--checkpoint", "--n-way", "--m-shot", "--runs",
                          "--test-per-class"},
    "ablate-mask": _COMMON | {"--mask-ratio", "--out", "--types", "--ratios",
                              "--no-encoder-cell"},
    "reconstruct": _COMMON | {"--mask-ratio", "--mask-type", "--out", "--checkpoint",
                              "--input", "--family"},
    "gradcheck": {"--trials"},
    "gen-data": _COMMON | {"--out"},
}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {flag for action in p._actions for flag in action.option_strings
                  if flag not in ("-h", "--help")}
           for name, p in sub.choices.items()}
    assert got == _FLAGS
    assert sum(map(len, got.values())) == 43


_VALUE = {"--mask-ratio": "0.5", "--mask-type": "block", "--mask-tokens-at": "encoder",
          "--out": "elsewhere"}
_REQUIRED = {"fewshot": ["--checkpoint", "c.bin"], "reconstruct": ["--checkpoint", "c.bin"]}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in ("finetune", "fewshot")
    for flag in ("--mask-ratio", "--mask-type", "--mask-tokens-at", "--out")
] + [("ablate-mask", "--mask-type"), ("ablate-mask", "--mask-tokens-at"),
     ("reconstruct", "--mask-tokens-at"), ("gen-data", "--mask-ratio"),
     ("gen-data", "--mask-type"), ("gen-data", "--mask-tokens-at")])
def test_flag_the_subcommand_does_not_read_is_rejected(command, flag, capsys):
    argv = [command, *_REQUIRED.get(command, []), flag, _VALUE[flag]]
    assert main(argv) == 1
    assert f"unrecognized arguments: {flag} {_VALUE[flag]}" in capsys.readouterr().err


def test_pretrain_of_zero_epochs_writes_checkpoint_and_exits_0(tmp_path, tiny_config_file,
                                                               capsys):
    path = tmp_path / "zero.json"
    path.write_text(apply_overrides(RunConfig.from_json(tiny_config_file.read_text()),
                                    epochs=0, warmup_epochs=0).to_json())
    assert main(["pretrain", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "final loss" not in out and "checkpoint_final.bin" in out
    assert Checkpoint.load(tmp_path / "run" / "checkpoint_final.bin").meta["epoch"] == 0


@pytest.mark.parametrize("flag", ["--runs", "--n-way", "--m-shot", "--test-per-class"])
def test_fewshot_count_below_one_exits_1(tmp_path, tiny_config_file, flag, capsys):
    cfg = RunConfig.from_json(tiny_config_file.read_text())
    ckpt_path = tmp_path / "ckpt.bin"
    pretrain(apply_overrides(cfg, epochs=1, warmup_epochs=0))[0].save(ckpt_path)
    argv = ["fewshot", "--config", str(tiny_config_file), "--checkpoint", str(ckpt_path),
            "--n-way", "2", "--m-shot", "1", "--runs", "1", "--test-per-class", "2"]
    argv[argv.index(flag) + 1] = "0"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"{flag[2:].replace('-', '_')} must be at least 1, got 0" in captured.err
    assert "nan" not in captured.out


def test_ablate_mask_of_zero_epochs_exits_1(tmp_path, tiny_config_file, capsys):
    path = tmp_path / "zero.json"
    path.write_text(apply_overrides(RunConfig.from_json(tiny_config_file.read_text()),
                                    epochs=0, warmup_epochs=0).to_json())
    rc = main(["ablate-mask", "--config", str(path), "--ratios", "0.5",
               "--no-encoder-cell", "--out", str(tmp_path / "abl")])
    assert rc == 1
    assert "epochs must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "abl" / "ablation.json").exists()
