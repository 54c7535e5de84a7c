"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a PASS line when it
holds; run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale
training runs make this the slow suite (roughly 15 minutes on one CPU).
"""

import time

import numpy as np
import pytest

from cloudmae import autodiff as ad
from cloudmae.autodiff import Tensor
from cloudmae.config import BackboneConfig, desk_preset
from cloudmae.data import build_dataset, load_points
from cloudmae.embed import PatchEmbedder
from cloudmae.geometry import (PointCloud, build_patches, chamfer_l2,
                               farthest_point_sampling, knn, pairwise_sqdist)
from cloudmae.gradcheck import run_gradient_suite
from cloudmae.masking import masked_count, random_mask, split_patches
from cloudmae.model import MaskedAutoencoder, TokenSequence
from cloudmae.params import ParamStore
from cloudmae.seeding import derive_seed
from cloudmae.training import (fewshot_eval, finetune_classify, pretrain,
                               reconstruct, reconstruction_report)

from test_geometry import chamfer_loop_oracle, greedy_maxmin_oracle


def report(criterion, detail):
    print(f"\n[PASS] criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# shared desk-scale runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_cfg():
    return desk_preset()


@pytest.fixture(scope="module")
def desk_run(desk_cfg):
    t0 = time.perf_counter()
    ckpt, metrics = pretrain(desk_cfg)
    runtime = time.perf_counter() - t0
    dataset = build_dataset(desk_cfg.data, desk_cfg.points,
                            derive_seed(desk_cfg.seed, "dataset"))
    return ckpt, metrics, runtime, dataset


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    results = run_gradient_suite(trials=10, eps=1e-5)
    elapsed = time.perf_counter() - t0
    worst = max(results.values())
    assert worst < 1e-4, f"worst op error {worst:.3e}"
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    report(1, f"{len(results)} ops, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(202)
    for trial in range(100):
        p = int(rng.integers(2, 65))
        n = int(rng.integers(1, p + 1))
        cloud = PointCloud(points=rng.normal(size=(p, 3)))
        first = int(rng.integers(p))
        got = farthest_point_sampling(cloud, n, first_index=first)
        want = greedy_maxmin_oracle(cloud.points, n, first)
        assert np.array_equal(got, want), f"fps mismatch on trial {trial}"

        k = int(rng.integers(1, p + 1))
        centers = rng.normal(size=(4, 3))
        got_k = knn(cloud, centers, k)
        want_k = np.argsort(pairwise_sqdist(centers, cloud.points),
                            axis=1, kind="stable")[:, :k]
        assert np.array_equal(got_k, want_k), f"knn mismatch on trial {trial}"

    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(int(rng.integers(1, 33)), 3))
        b = rng.normal(size=(int(rng.integers(1, 33)), 3))
        got = float(chamfer_l2(a, b).data)
        worst = max(worst, abs(got - chamfer_loop_oracle(a, b)))
    assert worst < 1e-12
    report(2, f"fps/knn exact on 100 clouds; chamfer vs loop worst {worst:.2e}")


def test_criterion_3_invariance_and_no_leakage():
    store = ParamStore(33)
    embed = PatchEmbedder(store, dim=48, widths=(32, 64, 128))
    rng = np.random.default_rng(303)
    for _ in range(200):
        k = int(rng.integers(2, 24))
        patch = rng.normal(size=(1, k, 3))
        perm = rng.permutation(k)
        a = embed(Tensor(patch)).data
        b = embed(Tensor(patch[:, perm, :])).data
        assert np.max(np.abs(a - b)) <= 1e-12

    cfg = BackboneConfig(dim=48, encoder_depth=2, decoder_depth=1, heads=4,
                         embed_widths=(32, 64, 128))
    model = MaskedAutoencoder(cfg, patch_size=8, seed=5)
    cloud = PointCloud(points=rng.normal(size=(128, 3)))
    ps = build_patches(cloud, 16, 8, seed=6)
    spec = random_mask(16, 0.6, seed=7)

    def encode_tokens(patchset):
        (vis, vis_c), _ = split_patches(patchset, spec)
        seq = TokenSequence(model.embedder(Tensor(vis)), vis_c,
                            tuple("visible" for _ in spec.visible))
        return model.encode(seq).tokens.data

    before = encode_tokens(ps)
    ps.patches[spec.masked] = rng.normal(size=ps.patches[spec.masked].shape)
    after = encode_tokens(ps)
    assert np.array_equal(before, after)
    report(3, "200-patch permutation invariance <=1e-12; encoder output "
              "bit-identical under masked-content randomization")


def test_criterion_4_mask_accounting():
    golden = random_mask(8, 0.5, seed=42)
    assert golden.masked.tolist() == [0, 2, 5, 6]
    checked = 0
    for n in (8, 16, 64):
        for m in (0.0, 0.4, 0.6, 0.8, 0.9):
            for seed in range(5):
                spec = random_mask(n, m, seed)
                assert spec.masked.size == masked_count(n, m)
                union = np.concatenate([spec.masked, spec.visible])
                assert sorted(union.tolist()) == list(range(n))
                again = random_mask(n, m, seed)
                assert np.array_equal(spec.masked, again.masked)
                checked += 1
    report(4, f"{checked} (n, m, seed) combinations partition correctly; "
              f"golden seed-42 set stable")


def test_criterion_5_shape_chain_at_paper_config():
    cfg = BackboneConfig()  # 384 dim, 12/4 blocks, 6 heads
    model = MaskedAutoencoder(cfg, patch_size=32, seed=55)
    cloud = PointCloud(points=np.random.default_rng(505).normal(size=(1024, 3)))
    ps = build_patches(cloud, 64, 32, seed=1)
    assert ps.patches.shape == (64, 32, 3)
    spec = random_mask(64, 0.6, seed=2)
    (vis, vis_c), (gt, gt_c) = split_patches(ps, spec)
    assert vis.shape == (26, 32, 3)

    tokens = model.embedder(Tensor(vis))
    assert tokens.shape == (26, 384)
    encoded = model.encode(TokenSequence(tokens, vis_c,
                                         tuple("visible" for _ in range(26))))
    assert encoded.tokens.shape == (26, 384)
    t_m = model.mask_token.expand(38)
    centers_all = np.concatenate([vis_c, gt_c], axis=0)
    assert centers_all.shape == (64, 3)
    h_m = model.decode(encoded.tokens, t_m, centers_all)
    assert h_m.shape == (38, 384)
    predicted = model.predict(h_m)
    assert predicted.shape == (38, 32, 3)
    report(5, "1024 -> 64 patches -> 26 visible tokens -> decoder input 64 "
              "-> H 38x384 -> predictions 38x32x3")


@pytest.mark.slow
def test_criterion_6_desk_pretraining(desk_cfg, desk_run):
    ckpt, metrics, runtime, _ = desk_run
    assert runtime < 600.0, f"pretraining took {runtime:.0f}s"
    first = metrics.records[0]["loss_x1000"]
    final = metrics.records[-1]["loss_x1000"]
    assert final <= 0.4 * first, f"final {final:.2f} vs epoch-1 {first:.2f}"

    rerun_ckpt, rerun_metrics = pretrain(desk_cfg)
    assert rerun_metrics.deterministic_records() == metrics.deterministic_records()
    for name in ckpt.params:
        assert ckpt.params[name].tobytes() == rerun_ckpt.params[name].tobytes()
    report(6, f"{runtime:.0f}s for 60 epochs; loss {first:.1f} -> {final:.1f} "
              f"(ratio {final / first:.2f}); re-run bit-identical")


@pytest.mark.slow
def test_criterion_7_ablation_directions():
    ratios = (0.4, 0.6, 0.8)
    mono_wins, leak_wins = 0, 0
    acc_dec, acc_enc = [], []
    for s in range(3):
        seed = derive_seed(77, "ablate-seed", s)
        losses = {}
        finals = {}
        for ratio in ratios:
            cfg = desk_preset(mask_ratio=ratio, seed=seed)
            ckpt, metrics = pretrain(cfg)
            losses[ratio] = metrics.final("loss_x1000")
            finals[ratio] = (cfg, ckpt)
        if losses[0.4] < losses[0.6] < losses[0.8]:
            mono_wins += 1

        cfg_enc = desk_preset(mask_ratio=0.6, mask_token_placement="encoder",
                              seed=seed)
        ckpt_enc, metrics_enc = pretrain(cfg_enc)
        if metrics_enc.final("loss_x1000") < losses[0.6]:
            leak_wins += 1

        cfg_dec, ckpt_dec = finals[0.6]
        dataset = build_dataset(cfg_dec.data, cfg_dec.points,
                                derive_seed(seed, "dataset"))
        a_dec, _, _ = finetune_classify(dataset, cfg_dec, checkpoint=ckpt_dec)
        a_enc, _, _ = finetune_classify(dataset, cfg_enc, checkpoint=ckpt_enc)
        acc_dec.append(a_dec)
        acc_enc.append(a_enc)
        print(f"  seed {s}: losses {losses[0.4]:.2f}/{losses[0.6]:.2f}/"
              f"{losses[0.8]:.2f} enc {metrics_enc.final('loss_x1000'):.2f} "
              f"acc dec/enc {a_dec:.3f}/{a_enc:.3f}")

    # every failed sub-check is named, not only the first
    failures = [message for holds, message in (
        (mono_wins >= 2, f"ratio monotonicity in {mono_wins}/3 seeds"),
        (leak_wins >= 2, f"encoder-placement lower loss in {leak_wins}/3 seeds"),
        (np.mean(acc_dec) >= np.mean(acc_enc),
         f"decoder {np.mean(acc_dec):.3f} vs encoder {np.mean(acc_enc):.3f}"),
    ) if not holds]
    assert not failures, "; ".join(failures)
    report(7, f"loss monotonic in {mono_wins}/3 seeds; leakage loss lower in "
              f"{leak_wins}/3; finetune acc decoder {np.mean(acc_dec):.3f} >= "
              f"encoder {np.mean(acc_enc):.3f}")


def test_criterion_8_transfer_direction(desk_cfg, desk_run):
    ckpt, _, _, dataset = desk_run
    pre, scratch = [], []
    for s in range(3):
        fs = derive_seed(88, "pair", s)
        a, _, _ = finetune_classify(dataset, desk_cfg, checkpoint=ckpt, seed=fs)
        b, _, _ = finetune_classify(dataset, desk_cfg, checkpoint=None, seed=fs)
        pre.append(a)
        scratch.append(b)
        print(f"  pair seed {s}: pretrained {a:.3f} scratch {b:.3f}")
    assert np.mean(pre) >= np.mean(scratch) - 0.02, \
        f"pretrained {np.mean(pre):.3f} vs scratch {np.mean(scratch):.3f}"
    report(8, f"pretrained {np.mean(pre):.3f} vs scratch {np.mean(scratch):.3f} "
              f"over 3 paired seeds")


def test_criterion_9_reconstruction_quality(desk_cfg, desk_run, tmp_path):
    ckpt, _, _, dataset = desk_run
    model = ckpt.build_model()
    wins = 0
    clouds = dataset.val[:50]
    assert len(clouds) == 50
    for i, cloud in enumerate(clouds):
        rep = reconstruction_report(model, cloud, desk_cfg.n_patches, 0.6,
                                    seed=derive_seed(99, "recon", i))
        if rep["chamfer"] < rep["baseline_chamfer"]:
            wins += 1
    assert wins >= 45, f"beat baseline on {wins}/50 clouds"

    paths, _ = reconstruct(ckpt, clouds[0], 0.6, tmp_path, seed=7)
    total = sum(load_points(p).p for p in paths.values())
    assert total > 0
    report(9, f"model beats centers-only baseline on {wins}/50 validation "
              f"clouds; PLY triad round-trips")


def test_criterion_10_fewshot_harness(desk_run):
    ckpt, _, _, dataset = desk_run
    pool = dataset.train + dataset.val + dataset.test
    result = fewshot_eval(ckpt, pool, n_way=5, m_shot=1, runs=10,
                          test_per_class=20, seed=1010)
    again = fewshot_eval(ckpt, pool, n_way=5, m_shot=1, runs=10,
                         test_per_class=20, seed=1010)
    assert result["per_run"] == again["per_run"]
    assert result["runs"] == 10 and len(result["per_run"]) == 10

    one = fewshot_eval(ckpt, pool, n_way=5, m_shot=1, runs=1,
                       test_per_class=20, seed=4)
    assert one["std"] == 0.0
    degenerate = fewshot_eval(ckpt, pool, n_way=1, m_shot=1, runs=2,
                              test_per_class=20, seed=5)
    assert degenerate["mean"] == 1.0
    report(10, f"5-way/1-shot {100 * result['mean']:.1f} +/- "
               f"{100 * result['std']:.1f} over 10 runs, deterministic; "
               f"degenerate cases exact")
