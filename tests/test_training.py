import json
import re

import numpy as np
import pytest

from cloudmae.autodiff import NumericsError, no_grad
from cloudmae.config import RunConfig, desk_preset
from cloudmae.data import build_dataset, gen_synthetic, load_points, SyntheticSpec
from cloudmae.geometry import PointCloud
from cloudmae import params as params_mod
from cloudmae.model import MaskedAutoencoder, PointCloudClassifier
from cloudmae.params import write_container
from cloudmae.seeding import derive_seed
from cloudmae.training import (Checkpoint, Metrics, TrainingAbort, ablate_mask,
                               evaluate_classifier, fewshot_eval,
                               finetune_classify, pretrain, reconstruct,
                               reconstruction_report)


def tiny_config(**overrides):
    base = dict(
        epochs=3, warmup_epochs=1, batch_size=4,
        train_per_class=2, val_per_class=2, test_per_class=2,
        points=96, n_patches=8, patch_size=8,
        dim=24, encoder_depth=1, decoder_depth=1, heads=2,
        embed_widths=(8, 16, 32),
        finetune_epochs=2,
    )
    base.update(overrides)
    return desk_preset(**base)


@pytest.fixture(scope="module")
def tiny_run():
    cfg = tiny_config()
    ckpt, metrics = pretrain(cfg)
    dataset = build_dataset(cfg.data, cfg.points, derive_seed(cfg.seed, "dataset"))
    return cfg, dataset, ckpt, metrics


class TestPretrain:
    def test_zero_epochs_returns_initialization(self):
        cfg = tiny_config(epochs=0, warmup_epochs=0)
        ckpt, metrics = pretrain(cfg)
        model = MaskedAutoencoder(cfg.model, cfg.patch_size,
                                  seed=derive_seed(cfg.seed, "init"))
        for name, value in model.store.state_arrays().items():
            assert np.array_equal(ckpt.params[name], value)
        assert metrics.records == []

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        cfg = tiny_config(epochs=4)
        full_ckpt, full_metrics = pretrain(cfg, out_dir=tmp_path, checkpoint_every=2)

        mid_ckpt = Checkpoint.load(tmp_path / "checkpoint_0002.bin")
        resumed_ckpt, resumed_metrics = pretrain(cfg, resume=mid_ckpt)

        full_tail = full_metrics.deterministic_records()[2:]
        assert resumed_metrics.deterministic_records() == full_tail
        for name in full_ckpt.params:
            assert np.array_equal(full_ckpt.params[name], resumed_ckpt.params[name])

    @pytest.mark.parametrize("change, named", [
        ({"seed": 1}, "seed"), ({"mask_ratio": 0.5}, "mask_ratio"),
        ({"lr_max": 2e-3}, "lr_max"), ({"heads": 4, "seed": 1}, "model.heads, seed")],
        ids=["seed", "mask_ratio", "lr_max", "heads_and_seed"])
    def test_resume_refuses_changed_config(self, tiny_run, change, named):
        _, _, ckpt, _ = tiny_run
        with pytest.raises(ValueError, match=f"config differs from the checkpoint's in {named}$"):
            pretrain(tiny_config(epochs=4, **change), resume=ckpt)

    def test_resume_with_more_epochs_matches_longer_run(self, tmp_path):
        # the warmup part of the schedule does not depend on epochs, so a
        # shorter run's checkpoint at the end of warmup continues the longer run
        longer = tiny_config(epochs=4, warmup_epochs=2)
        full_ckpt, full_metrics = pretrain(longer)
        pretrain(tiny_config(epochs=3, warmup_epochs=2), out_dir=tmp_path, checkpoint_every=2)
        mid = Checkpoint.load(tmp_path / "checkpoint_0002.bin")
        mid_bytes = mid.to_bytes()
        resumed, resumed_metrics = pretrain(
            tiny_config(epochs=4, warmup_epochs=2, out_dir="elsewhere"), resume=mid)
        assert resumed_metrics.deterministic_records() == full_metrics.deterministic_records()[2:]
        assert resumed.meta["config"]["out_dir"] == "elsewhere"
        resumed.meta["config"]["out_dir"] = longer.out_dir
        assert resumed.to_bytes() == full_ckpt.to_bytes()
        assert mid.to_bytes() == mid_bytes      # resuming copies the moments

    def test_checkpoint_with_legacy_seed_meta_loads_and_resumes(self, tiny_run):
        _, _, ckpt, _ = tiny_run
        assert set(ckpt.meta) == {"config", "epoch", "opt_step_count"}
        legacy = Checkpoint.from_bytes(ckpt.to_bytes())
        legacy.meta["seed"] = legacy.meta["config"]["seed"]   # written by older versions
        legacy = Checkpoint.from_bytes(legacy.to_bytes())
        resumed, _ = pretrain(tiny_config(epochs=4), resume=legacy)
        expected, _ = pretrain(tiny_config(epochs=4), resume=ckpt)
        assert resumed.to_bytes() == expected.to_bytes()

    def test_checkpoint_with_legacy_global_step_meta_loads_and_resumes(self, tiny_run):
        # older versions stored a step counter next to the optimizer's, always equal to it
        _, _, ckpt, _ = tiny_run
        legacy = Checkpoint.from_bytes(ckpt.to_bytes())
        legacy.meta["global_step"] = legacy.meta["opt_step_count"]
        legacy = Checkpoint.from_bytes(legacy.to_bytes())
        assert legacy.meta["global_step"] == ckpt.meta["opt_step_count"]
        resumed, resumed_metrics = pretrain(tiny_config(epochs=4), resume=legacy)
        expected, expected_metrics = pretrain(tiny_config(epochs=4), resume=ckpt)
        assert resumed.to_bytes() == expected.to_bytes()
        assert (resumed_metrics.deterministic_records()
                == expected_metrics.deterministic_records())

    def test_resume_needs_epochs_left(self, tiny_run):
        _, _, ckpt, _ = tiny_run
        with pytest.raises(ValueError, match="epochs 3 leaves nothing to train after the "
                                             "checkpoint's epoch 3"):
            pretrain(tiny_config(), resume=ckpt)

    def test_loss_curve_recorded(self, tiny_run):
        _, _, _, metrics = tiny_run
        assert [r["epoch"] for r in metrics.records] == [0, 1, 2]
        assert all(r["loss_x1000"] > 0 for r in metrics.records)

    def test_abort_on_numerics_error(self, monkeypatch, tmp_path):
        cfg = tiny_config()

        def explode(*args, **kwargs):
            raise NumericsError("synthetic failure")

        monkeypatch.setattr(MaskedAutoencoder, "pretrain_forward_batch", explode)
        with pytest.raises(TrainingAbort, match="seeds"):
            pretrain(cfg, out_dir=tmp_path)
        dump = json.loads((tmp_path / "abort.json").read_text())
        assert dump["epoch"] == 0 and dump["item_seed"]

    def test_checkpoint_files_written(self, tmp_path):
        cfg = tiny_config(epochs=2)
        pretrain(cfg, out_dir=tmp_path, checkpoint_every=1)
        assert (tmp_path / "checkpoint_0001.bin").exists()
        assert (tmp_path / "checkpoint_final.bin").exists()
        assert (tmp_path / "metrics.jsonl").exists()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tiny_run, tmp_path):
        _, _, ckpt, _ = tiny_run
        path = tmp_path / "ckpt.bin"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.meta == ckpt.meta
        for name in ckpt.params:
            assert ckpt.params[name].tobytes() == loaded.params[name].tobytes()
            assert ckpt.opt_m[name].tobytes() == loaded.opt_m[name].tobytes()

    def test_load_names_file_of_malformed_checkpoint(self, tiny_run, tmp_path):
        _, _, ckpt, _ = tiny_run
        path = tmp_path / "trailing.bin"
        path.write_bytes(ckpt.to_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing.bin: container: 1 trailing bytes"):
            Checkpoint.load(path)
        with pytest.raises(ValueError, match="unexpected array name 'grad/w'"):
            Checkpoint.from_bytes(write_container({"grad/w": np.zeros(2)}, {}))

    def test_build_model_restores_weights(self, tiny_run):
        _, _, ckpt, _ = tiny_run
        model = ckpt.build_model()
        for name, value in model.store.state_arrays().items():
            assert np.array_equal(value, ckpt.params[name])

    def test_build_model_matches_build_then_load_without_draws(self, tiny_run, monkeypatch):
        cfg, _, ckpt, _ = tiny_run
        old = MaskedAutoencoder(cfg.model, cfg.patch_size, seed=derive_seed(cfg.seed, "init"))
        old.store.load_arrays(ckpt.params)

        def no_draws(*args, **kwargs):
            raise AssertionError("build_model drew an initial value")

        monkeypatch.setattr("cloudmae.params.truncated_normal", no_draws)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        new = ckpt.build_model()
        assert list(new.store.state_arrays()) == list(old.store.state_arrays())
        for name, value in new.store.state_arrays().items():
            assert value.tobytes() == old.store[name].data.tobytes()

    @pytest.mark.parametrize("kind, name, value", [
        ("opt_m", "head.w", None), ("opt_v", "head.b", np.zeros(1)),
        ("opt_m", "extra.w", np.zeros(2))])
    def test_moments_must_match_parameters(self, tiny_run, tmp_path, kind, name, value):
        _, _, ckpt, _ = tiny_run
        moments = dict(getattr(ckpt, kind))
        if value is None:
            del moments[name]
        else:
            moments[name] = value
        bad = Checkpoint(**{**vars(ckpt), kind: moments})
        path = tmp_path / "moments.bin"
        bad.save(path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint: {kind}/ "
                                             f"does not match param/ at '{name}'$"):
            Checkpoint.load(path)

    def test_using_a_checkpoint_leaves_it_unchanged(self, tiny_run):
        cfg, dataset, _, _ = tiny_run
        ckpt, _ = pretrain(tiny_config(epochs=2))
        blob = ckpt.to_bytes()
        finetune_classify(dataset, cfg, checkpoint=ckpt)
        assert ckpt.to_bytes() == blob
        pretrain(tiny_config(epochs=3), resume=ckpt)
        assert ckpt.to_bytes() == blob
        fewshot_eval(ckpt, dataset.train + dataset.test, 2, 1, runs=2, test_per_class=2,
                     head_epochs=2)
        assert ckpt.to_bytes() == blob

    def test_build_model_missing_parameter_raises(self, tiny_run):
        _, _, ckpt, _ = tiny_run
        params = dict(ckpt.params)
        del params["head.w"]
        partial = Checkpoint(params=params, opt_m={}, opt_v={}, meta=ckpt.meta)
        with pytest.raises(KeyError, match="head.w"):
            partial.build_model()

    def test_meta_without_counters_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="meta lacks 'config', 'epoch', "
                                             "'opt_step_count'"):
            Checkpoint.from_bytes(write_container({}, {}))
        path = tmp_path / "bare.bin"
        path.write_bytes(write_container({}, {"config": {}, "epoch": 0}))
        with pytest.raises(ValueError, match="bare.bin: checkpoint: meta lacks "
                                             "'opt_step_count'$"):
            Checkpoint.load(path)


class TestMetrics:
    def test_epochs_strictly_increasing(self):
        m = Metrics()
        m.append(epoch=0, loss_x1000=1.0)
        with pytest.raises(ValueError):
            m.append(epoch=0, loss_x1000=2.0)

    def test_jsonl_roundtrip(self, tmp_path):
        m = Metrics()
        m.append(epoch=0, loss_x1000=12.5, lr=1e-3, wall_time=0.1)
        m.append(epoch=1, loss_x1000=10.0, lr=9e-4, wall_time=0.1)
        path = tmp_path / "metrics.jsonl"
        m.save(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == m.records

    def test_deterministic_records_strip_wall_time(self):
        m = Metrics()
        m.append(epoch=0, loss_x1000=1.0, wall_time=123.0)
        assert m.deterministic_records() == [{"epoch": 0, "loss_x1000": 1.0}]


class TestFinetune:
    def test_single_class_dataset_is_perfect(self, tiny_run):
        cfg, dataset, ckpt, _ = tiny_run
        single = type(dataset)(
            train=[c for c in dataset.train if c.label == 0],
            val=[], test=[c for c in dataset.test if c.label == 0])
        acc, _, _ = finetune_classify(single, cfg, checkpoint=ckpt)
        assert acc == 1.0

    def test_single_step_runs_without_warmup(self, tiny_run):
        cfg, dataset, ckpt, _ = tiny_run
        one_step = tiny_config(finetune_epochs=1, batch_size=64)
        _, _, metrics = finetune_classify(dataset, one_step, checkpoint=ckpt)
        assert [r["lr"] for r in metrics.records] == [one_step.finetune_lr]

    def test_accuracy_in_range_and_metrics(self, tiny_run):
        cfg, dataset, ckpt, _ = tiny_run
        acc, clf, metrics = finetune_classify(dataset, cfg, checkpoint=ckpt)
        assert 0.0 <= acc <= 1.0
        assert len(metrics.records) == cfg.finetune_epochs


class TestFewshot:
    def test_degenerate_cases(self, tiny_run):
        cfg, dataset, ckpt, _ = tiny_run
        pool = dataset.train + dataset.val + dataset.test
        one = fewshot_eval(ckpt, pool, n_way=2, m_shot=1, runs=1,
                           test_per_class=2, seed=3, head_epochs=2)
        assert one["std"] == 0.0
        single = fewshot_eval(ckpt, pool, n_way=1, m_shot=1, runs=2,
                              test_per_class=2, seed=3, head_epochs=2)
        assert single["mean"] == 1.0

    def test_deterministic_over_invocations(self, tiny_run):
        cfg, dataset, ckpt, _ = tiny_run
        pool = dataset.train + dataset.val + dataset.test
        a = fewshot_eval(ckpt, pool, 2, 1, runs=3, test_per_class=2, seed=5,
                         head_epochs=2)
        b = fewshot_eval(ckpt, pool, 2, 1, runs=3, test_per_class=2, seed=5,
                         head_epochs=2)
        assert a["per_run"] == b["per_run"]

    def test_init_free_backbone_matches_build_then_load(self, tiny_run, monkeypatch):
        cfg, dataset, ckpt, _ = tiny_run
        pool = dataset.train + dataset.val + dataset.test
        draws = []
        real_draw = params_mod.truncated_normal

        def counted(rng, shape):
            draws.append(tuple(shape))
            return real_draw(rng, shape)

        monkeypatch.setattr(params_mod, "truncated_normal", counted)
        want = fewshot_eval(ckpt, pool, 2, 1, runs=2, test_per_class=2, seed=6,
                            head_epochs=3)
        head_w = [(2 * cfg.model.dim, cfg.model.dim), (cfg.model.dim, 2)]
        assert draws == head_w * 2      # only the two runs' few-shot heads draw
        monkeypatch.undo()

        # the classifier built, drawn and then loaded that few-shot features came from
        clf = PointCloudClassifier(cfg.model, cfg.patch_size, cfg.n_patches,
                                   n_classes=2, seed=0)
        clf.load_backbone(ckpt.params)
        backbone = ckpt.build_model()
        for i, cloud in enumerate(pool[:4]):
            seed = derive_seed(6, "feat", i)
            assert (backbone.features_batch([cloud], cfg.n_patches, [seed]).data.tobytes()
                    == clf.features(cloud, seed).data.tobytes())
        monkeypatch.setattr(Checkpoint, "build_model", lambda self: clf.backbone)
        got = fewshot_eval(ckpt, pool, 2, 1, runs=2, test_per_class=2, seed=6,
                           head_epochs=3)
        assert got["per_run"] == want["per_run"]

    def test_batched_features_match_per_cloud_bits(self, tiny_run):
        cfg, dataset, ckpt, _ = tiny_run
        clouds = dataset.train[:3] + dataset.test[:3]
        seeds = [derive_seed(7, "feat", i) for i in range(len(clouds))]
        backbone = ckpt.build_model()
        with no_grad():
            batch = backbone.features_batch(clouds, cfg.n_patches, seeds).data
            for row, cloud, seed in zip(batch, clouds, seeds):
                one = backbone.features_batch([cloud], cfg.n_patches, [seed]).data
                assert one.tobytes() == row.tobytes()

    def test_one_feature_pass_per_stacked_call_with_new_clouds(self, tiny_run, monkeypatch):
        cfg, dataset, ckpt, _ = tiny_run
        pool = dataset.train + dataset.val + dataset.test
        want = fewshot_eval(ckpt, pool, 2, 1, runs=3, test_per_class=2, seed=8,
                            head_epochs=2)
        calls = []
        real = MaskedAutoencoder.features_batch

        def counted(model, clouds, n_patches, seeds):
            keys = [next(i for i, c in enumerate(pool) if c is cloud) for cloud in clouds]
            calls.append(keys)
            assert seeds == [derive_seed(8, "feat", k) for k in keys]
            return real(model, clouds, n_patches, seeds)

        monkeypatch.setattr(MaskedAutoencoder, "features_batch", counted)
        got = fewshot_eval(ckpt, pool, 2, 1, runs=3, test_per_class=2, seed=8,
                           head_epochs=2)
        assert got["per_run"] == want["per_run"]
        # supports then queries per run; a call holds only clouds no earlier call embedded
        assert 2 <= len(calls) <= 6 and len(calls[0]) == 2 and len(calls[1]) == 4
        assert all(keys == sorted(set(keys)) for keys in calls)
        flat = [k for keys in calls for k in keys]
        assert len(flat) == len(set(flat))

    @pytest.mark.parametrize("name", ["n_way", "m_shot", "runs", "test_per_class"])
    def test_counts_below_one_rejected(self, tiny_run, name):
        _, dataset, ckpt, _ = tiny_run
        counts = {"n_way": 2, "m_shot": 1, "runs": 1, "test_per_class": 2, name: 0}
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got 0"):
            fewshot_eval(ckpt, dataset.train + dataset.test, **counts)

    def test_insufficient_items_names_class(self, tiny_run):
        cfg, dataset, ckpt, _ = tiny_run
        pool = dataset.train
        with pytest.raises(ValueError, match="class 0"):
            fewshot_eval(ckpt, pool, n_way=2, m_shot=1, runs=1,
                         test_per_class=50, seed=0)


class TestReconstruct:
    def test_zero_ratio_reproduces_input(self, tiny_run, tmp_path):
        cfg, dataset, ckpt, _ = tiny_run
        cloud = dataset.val[0]
        paths, report = reconstruct(ckpt, cloud, 0.0, tmp_path, seed=1)
        recon = load_points(paths["reconstruction"])
        assert np.allclose(np.sort(recon.points, axis=0),
                           np.sort(cloud.points, axis=0), atol=1e-12)

    def test_triad_parses_and_counts_sum(self, tiny_run, tmp_path):
        cfg, dataset, ckpt, _ = tiny_run
        cloud = dataset.val[1]
        paths, report = reconstruct(ckpt, cloud, 0.6, tmp_path, seed=2)
        inp = load_points(paths["input"])
        masked = load_points(paths["masked"])
        recon = load_points(paths["reconstruction"])
        assert inp.p == cloud.p
        assert masked.p == report["visible_points"].shape[0]
        assert recon.p == masked.p + report["predicted_points"].shape[0]

    def test_block_mask_type_used(self, tiny_run, tmp_path):
        cfg, dataset, ckpt, _ = tiny_run
        _, report = reconstruct(ckpt, dataset.val[1], 0.5, tmp_path, seed=2,
                                mask_type="block")
        assert report["mask"].anchor is not None
        _, report = reconstruct(ckpt, dataset.val[1], 0.5, tmp_path, seed=2)
        assert report["mask"].anchor is None

    def test_ratio_out_of_range(self, tiny_run, tmp_path):
        cfg, dataset, ckpt, _ = tiny_run
        with pytest.raises(ValueError):
            reconstruct(ckpt, dataset.val[0], 1.5, tmp_path)

    def test_ratio_that_masks_every_patch_named(self, tiny_run, tmp_path):
        cfg, dataset, ckpt, _ = tiny_run
        message = f"mask_ratio 1.0 leaves no visible patch of {cfg.n_patches}"
        with pytest.raises(ValueError, match=message):
            reconstruct(ckpt, dataset.val[0], 1.0, tmp_path)
        with pytest.raises(ValueError, match=message):
            reconstruction_report(ckpt.build_model(), dataset.val[0], cfg.n_patches, 1.0, seed=3)

    def test_report_contains_baseline(self, tiny_run):
        cfg, dataset, ckpt, _ = tiny_run
        model = ckpt.build_model()
        report = reconstruction_report(model, dataset.val[0], cfg.n_patches,
                                       0.6, seed=3)
        assert report["chamfer"] > 0.0
        assert report["baseline_chamfer"] > 0.0


class TestAblate:
    def test_single_cell_matches_direct_run(self):
        cfg = tiny_config()
        rows = ablate_mask(cfg, types=("random",), ratios=(0.6,), encoder_cell=False)
        assert len(rows) == 1
        cell = rows[0]

        direct_cfg = tiny_config()
        direct_cfg.mask_ratio = 0.6
        direct_cfg.mask_type = "random"
        direct_cfg.seed = derive_seed(cfg.seed, "ablate", 0)
        _, metrics = pretrain(direct_cfg)
        assert cell["loss_x1000"] == metrics.final("loss_x1000")

    def test_invalid_cell_rejected_before_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a cell trained before the grid was validated")

        monkeypatch.setattr("cloudmae.training.pretrain", no_training)
        with pytest.raises(ValueError, match="ratio 1.0 leaves no visible patch"):
            ablate_mask(tiny_config(), ratios=(0.5, 1.0), encoder_cell=False)
        with pytest.raises(ValueError, match="bad mask_type 'diagonal'"):
            ablate_mask(tiny_config(), types=("random", "diagonal"), ratios=(0.5,))

    def test_zero_epochs_rejected_before_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a cell trained before epochs was checked")

        monkeypatch.setattr("cloudmae.training.pretrain", no_training)
        with pytest.raises(ValueError, match="epochs must be at least 1, got 0"):
            ablate_mask(tiny_config(epochs=0, warmup_epochs=0), ratios=(0.5,))

    def test_grid_includes_encoder_cell(self):
        cfg = tiny_config(epochs=1, warmup_epochs=0)
        rows = ablate_mask(cfg, types=("random",), ratios=(0.5,), encoder_cell=True)
        assert [r["placement"] for r in rows] == ["decoder", "encoder"]
        assert {r["mask_type"] for r in rows} == {"random"}
