import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmae.geometry import PointCloud, build_patches, pairwise_sqdist
from cloudmae.masking import (MaskSpec, block_mask, make_mask, masked_count,
                              random_mask, split_patches)


class TestMaskedCount:
    @pytest.mark.parametrize("n,m,want", [
        (64, 0.6, 38),   # 38.4 rounds down
        (8, 0.5, 4),
        (10, 0.45, 5),   # 4.5 rounds half up
        (64, 0.0, 0),
        (64, 1.0, 64),
    ])
    def test_round_half_up(self, n, m, want):
        assert masked_count(n, m) == want


class TestRandomMask:
    def test_zero_ratio_masks_nothing(self):
        spec = random_mask(16, 0.0, seed=0)
        assert spec.masked.size == 0
        assert spec.visible.tolist() == list(range(16))

    def test_paper_ratio_at_64(self):
        spec = random_mask(64, 0.6, seed=0)
        assert spec.masked.size == 38
        assert spec.visible.size == 26

    def test_golden_seed_42(self):
        spec = random_mask(8, 0.5, seed=42)
        assert spec.masked.tolist() == [0, 2, 5, 6]
        assert spec.visible.tolist() == [1, 3, 4, 7]

    def test_same_seed_is_bit_stable(self):
        a = random_mask(33, 0.7, seed=9)
        b = random_mask(33, 0.7, seed=9)
        assert np.array_equal(a.masked, b.masked)

    @given(n=st.integers(1, 128),
           m=st.floats(0.0, 1.0, allow_nan=False),
           seed=st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_partition_properties(self, n, m, seed):
        spec = random_mask(n, m, seed)
        union = np.concatenate([spec.masked, spec.visible])
        assert sorted(union.tolist()) == list(range(n))
        assert spec.masked.size == masked_count(n, m)
        assert np.all(np.diff(spec.masked) > 0)
        assert np.all(np.diff(spec.visible) > 0)

    def test_matches_scalar_draw_shuffle(self):
        # reference: Fisher-Yates with one scalar draw per swap
        for n in (1, 2, 3, 5, 16, 17, 64):
            for seed in range(150):
                rng = np.random.default_rng(seed)
                idx = np.arange(n)
                for i in range(n - 1):
                    j = int(rng.integers(i, n))
                    idx[i], idx[j] = idx[j], idx[i]
                for ratio in (0.0, 0.6, 0.9):
                    want = np.sort(idx[:masked_count(n, ratio)])
                    assert random_mask(n, ratio, seed).masked.tolist() == want.tolist()

    def test_empirical_frequency(self):
        n, m, trials = 16, 0.5, 600
        hits = np.zeros(n)
        for seed in range(trials):
            hits[random_mask(n, m, seed).masked] += 1
        freq = hits / trials
        sigma = np.sqrt(m * (1 - m) / trials)
        assert np.all(np.abs(freq - m) <= 3 * sigma + 1e-9)


class TestBlockMask:
    def test_single_patch_masks_anchor_only(self):
        centers = np.random.default_rng(0).normal(size=(10, 3))
        spec = block_mask(centers, 0.1, seed=4)
        assert spec.masked.size == 1
        assert spec.masked[0] == spec.anchor

    def test_collinear_block(self):
        centers = np.zeros((8, 3))
        centers[:, 0] = np.arange(8)
        for seed in range(100):
            spec = block_mask(centers, 0.5, seed=seed)
            if spec.anchor == 0:
                assert spec.masked.tolist() == [0, 1, 2, 3]
                return
        pytest.fail("no seed produced anchor 0")

    def test_masked_are_nearest_to_anchor(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            centers = rng.normal(size=(24, 3))
            spec = block_mask(centers, 0.6, seed=seed)
            d = pairwise_sqdist(centers[spec.anchor:spec.anchor + 1], centers)[0]
            want = np.sort(np.argsort(d, kind="stable")[:spec.masked.size])
            assert np.array_equal(spec.masked, want)

    def test_zero_count_has_no_anchor(self):
        centers = np.random.default_rng(0).normal(size=(5, 3))
        spec = block_mask(centers, 0.0, seed=1)
        assert spec.anchor is None and spec.masked.size == 0


class TestSplitPatches:
    def make(self, n=8, k=4):
        cloud = PointCloud(points=np.random.default_rng(3).normal(size=(64, 3)))
        return build_patches(cloud, n, k, seed=5)

    def test_zero_ratio_keeps_everything_visible(self):
        ps = self.make()
        (vis, vis_c), (gt, gt_c) = split_patches(ps, random_mask(8, 0.0, seed=0))
        assert np.array_equal(vis, ps.patches)
        assert gt.shape == (0, 4, 3)

    def test_counts_at_paper_ratio(self):
        cloud = PointCloud(points=np.random.default_rng(4).normal(size=(2048, 3)))
        ps = build_patches(cloud, 64, 32, seed=6)
        (vis, _), (gt, _) = split_patches(ps, random_mask(64, 0.6, seed=1))
        assert gt.shape == (38, 32, 3)
        assert vis.shape == (26, 32, 3)

    def test_partition_reassembles(self):
        ps = self.make()
        spec = random_mask(8, 0.4, seed=2)
        (vis, vis_c), (gt, gt_c) = split_patches(ps, spec)
        rebuilt = np.empty_like(ps.patches)
        rebuilt[spec.visible] = vis
        rebuilt[spec.masked] = gt
        assert np.array_equal(rebuilt, ps.patches)

    def test_size_mismatch_rejected(self):
        ps = self.make()
        with pytest.raises(ValueError):
            split_patches(ps, random_mask(9, 0.5, seed=0))


def test_make_mask_dispatch():
    centers = np.random.default_rng(1).normal(size=(12, 3))
    assert make_mask("random", 12, centers, 0.5, 0).anchor is None
    assert make_mask("block", 12, centers, 0.5, 0).anchor is not None
    with pytest.raises(ValueError):
        make_mask("learned", 12, centers, 0.5, 0)


def test_spec_validates_partition():
    with pytest.raises(ValueError):
        MaskSpec(n=4, ratio=0.5, masked=np.array([0, 1]),
                 visible=np.array([1, 2]), seed=0)
