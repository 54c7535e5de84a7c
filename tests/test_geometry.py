import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmae.autodiff import Tensor, backward, gradient_check
from cloudmae.geometry import (PatchSet, PointCloud, batch_chamfer,
                               build_patches, chamfer_l2,
                               farthest_point_sampling, knn, pairwise_sqdist)


def random_cloud(rng, p):
    return PointCloud(points=rng.normal(size=(p, 3)))


def greedy_maxmin_oracle(points, n, first):
    """Exhaustive reference: recompute all pairwise distances at every pick."""
    chosen = [first]
    for _ in range(n - 1):
        best_idx, best_score = -1, -1.0
        for cand in range(len(points)):
            score = min(float(np.sum((points[cand] - points[c]) ** 2))
                        for c in chosen)
            if score > best_score:
                best_idx, best_score = cand, score
        chosen.append(best_idx)
    return np.array(chosen)


class TestFPS:
    def test_single_point(self):
        cloud = PointCloud(points=np.zeros((1, 3)))
        assert farthest_point_sampling(cloud, 1, seed=0).tolist() == [0]

    def test_square_corners_pick_diagonal(self):
        corners = PointCloud(points=np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float))
        idx = farthest_point_sampling(corners, 2, first_index=0)
        assert idx.tolist() == [0, 3]

    def test_matches_greedy_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = int(rng.integers(2, 64))
            n = int(rng.integers(1, p + 1))
            cloud = random_cloud(rng, p)
            first = int(rng.integers(p))
            got = farthest_point_sampling(cloud, n, first_index=first)
            want = greedy_maxmin_oracle(cloud.points, n, first)
            assert np.array_equal(got, want)

    def test_permutation_covariance(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 40)
        idx = farthest_point_sampling(cloud, 8, first_index=5)
        perm = rng.permutation(40)
        permuted = PointCloud(points=cloud.points[perm])
        # remap the first pick into the permuted index space
        new_first = int(np.where(perm == 5)[0][0])
        idx2 = farthest_point_sampling(permuted, 8, first_index=new_first)
        assert np.allclose(np.sort(cloud.points[idx], axis=0),
                           np.sort(permuted.points[idx2], axis=0))

    def test_bounds(self):
        cloud = random_cloud(np.random.default_rng(0), 5)
        with pytest.raises(ValueError):
            farthest_point_sampling(cloud, 6, seed=0)
        with pytest.raises(ValueError):
            PointCloud(points=np.zeros((0, 3)))


class TestKNN:
    def test_coincident_center(self):
        cloud = random_cloud(np.random.default_rng(2), 10)
        idx = knn(cloud, cloud.points[4:5], 1)
        assert idx.tolist() == [[4]]

    def test_collinear(self):
        pts = np.zeros((4, 3))
        pts[:, 0] = [0.0, 1.0, 2.0, 3.0]
        idx = knn(PointCloud(points=pts), pts[0:1], 2)
        assert idx.tolist() == [[0, 1]]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = int(rng.integers(2, 64))
            k = int(rng.integers(1, p + 1))
            cloud = random_cloud(rng, p)
            centers = rng.normal(size=(5, 3))
            got = knn(cloud, centers, k)
            d = pairwise_sqdist(centers, cloud.points)
            want = np.argsort(d, axis=1, kind="stable")[:, :k]
            assert np.array_equal(got, want)

    def test_row_distances_non_decreasing(self):
        rng = np.random.default_rng(17)
        cloud = random_cloud(rng, 50)
        centers = rng.normal(size=(7, 3))
        idx = knn(cloud, centers, 20)
        for row, c in zip(idx, centers):
            d = np.sum((cloud.points[row] - c) ** 2, axis=1)
            assert np.all(np.diff(d) >= 0)

    def test_k_too_large(self):
        cloud = random_cloud(np.random.default_rng(0), 4)
        with pytest.raises(ValueError):
            knn(cloud, cloud.points[:1], 5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        cloud = random_cloud(np.random.default_rng(0), 4)
        with pytest.raises(ValueError, match=f"knn: need 1 <= k <= p, got k={k}, p=4"):
            knn(cloud, cloud.points[:1], k)

    def test_ties_at_kth_distance_match_stable_sort(self):
        # a 4x4x4 grid, half of it duplicated, plus 32 off-grid points, shuffled:
        # centers on grid points see shells of tied distances, off-grid
        # centers see only the duplicates tie
        rng = np.random.default_rng(5)
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        points = np.stack([np.concatenate([grid, grid[:32], rng.uniform(0, 3, size=(32, 3))])
                           [rng.permutation(128)] for _ in range(3)])
        centers = np.concatenate([points[:, :6], rng.uniform(0, 3, size=(3, 6, 3))], axis=1)
        d = pairwise_sqdist(centers, points)
        want = np.argsort(d, axis=-1, kind="stable")
        ordered = np.sort(d, axis=-1)
        for k in (1, 2, 5, 9, 16, 33, 127, 128):
            assert np.array_equal(knn(points, centers, k), want[..., :k])
            if k < 128:  # rows whose k-th distance is shared past the k-th place
                straddle = ordered[..., k - 1] == ordered[..., k]
                assert straddle.any() and not straddle.all(), k
        for b in range(3):
            assert np.array_equal(knn(PointCloud(points[b]), centers[b], 9), want[b, :, :9])


class TestPatches:
    def test_center_has_zero_offset(self):
        cloud = random_cloud(np.random.default_rng(5), 64)
        ps = build_patches(cloud, 8, 8, seed=1)
        for i in range(ps.n):
            j = np.where(ps.point_indices[i] == ps.center_indices[i])[0]
            assert j.size >= 1
            assert np.array_equal(ps.patches[i, j[0]], np.zeros(3))

    def test_offsets_are_exact_differences(self):
        cloud = random_cloud(np.random.default_rng(6), 64)
        ps = build_patches(cloud, 8, 8, seed=2)
        want = cloud.points[ps.point_indices] - ps.centers[:, None, :]
        assert np.array_equal(ps.patches, want)

    def test_absolute_roundtrip(self):
        cloud = random_cloud(np.random.default_rng(6), 64)
        ps = build_patches(cloud, 8, 8, seed=2)
        # (x - c) + c can differ from x in the last ulp
        assert np.allclose(ps.absolute_patches(),
                           cloud.points[ps.point_indices], atol=1e-14)

    def test_shapes_at_full_config(self):
        cloud = random_cloud(np.random.default_rng(7), 1024)
        ps = build_patches(cloud, 64, 32, seed=3)
        assert ps.centers.shape == (64, 3)
        assert ps.patches.shape == (64, 32, 3)

    def test_union_subset_of_source(self):
        cloud = random_cloud(np.random.default_rng(8), 32)
        ps = build_patches(cloud, 4, 8, seed=4)
        recovered = ps.absolute_patches().reshape(-1, 3)
        d = pairwise_sqdist(recovered, cloud.points)
        assert np.all(d.min(axis=1) < 1e-24)


def patchify_loop_oracle(points, n, k, first):
    """One cloud at a time: FPS, then a stable sort of each center's distances."""
    min_d = np.sum((points - points[first]) ** 2, axis=1)
    chosen = [first]
    for _ in range(n - 1):
        chosen.append(int(np.argmax(min_d)))
        min_d = np.minimum(min_d, np.sum((points - points[chosen[-1]]) ** 2, axis=1))
    centers = points[chosen]
    d = np.sum((centers[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    idx = np.argsort(d, axis=1, kind="stable")[:, :k]
    return np.array(chosen), idx, points[idx] - centers[:, None, :]


class TestBatchedPatchify:
    @settings(max_examples=60, deadline=None)
    @given(b=st.integers(1, 4), p=st.integers(1, 40), data=st.data(),
           quantized=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_per_cloud_loop_oracle(self, b, p, data, quantized, seed):
        n = data.draw(st.integers(1, p), label="n")
        k = data.draw(st.integers(1, p), label="k")
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(b, p, 3))
        if quantized:  # coarse grid: equal distances, duplicate points
            points = np.round(points * 2.0) / 2.0
        clouds = [PointCloud(points=pts) for pts in points]
        seeds = [int(s) for s in rng.integers(0, 2**31, size=b)]
        firsts = [int(np.random.default_rng(s).integers(p)) for s in seeds]

        got = build_patches(clouds, n, k, seeds)
        fps = farthest_point_sampling(points, n, first_index=firsts)
        assert np.array_equal(farthest_point_sampling(points, n, seed=seeds), fps)
        near = knn(points, points[np.arange(b)[:, None], fps], k)
        for i in range(b):
            chosen, idx, patches = patchify_loop_oracle(points[i], n, k, firsts[i])
            assert np.array_equal(fps[i], chosen)
            assert np.array_equal(near[i], idx)
            assert np.array_equal(got.center_indices[i], chosen)
            assert np.array_equal(got.point_indices[i], idx)
            assert np.array_equal(got.patches[i], patches)
            assert np.array_equal(got.centers[i], points[i][chosen])

    def test_one_cloud_is_a_batch_of_one(self):
        rng = np.random.default_rng(21)
        clouds = [random_cloud(rng, 50) for _ in range(3)]
        batch = build_patches(clouds, 6, 5, [7, 8, 9]).unstack()
        for cloud, seed, ps in zip(clouds, (7, 8, 9), batch):
            single = build_patches(cloud, 6, 5, seed=seed)
            for field in ("centers", "patches", "point_indices", "center_indices"):
                assert np.array_equal(getattr(single, field), getattr(ps, field))

    def test_clouds_of_different_sizes_stack(self):
        rng = np.random.default_rng(22)
        clouds = [random_cloud(rng, 30), random_cloud(rng, 45)]
        batch = build_patches(clouds, 4, 6, [1, 2])
        assert batch.patches.shape == (2, 4, 6, 3) and batch.n == 4 and batch.k == 6
        for cloud, seed, ps in zip(clouds, (1, 2), batch.unstack()):
            assert np.array_equal(build_patches(cloud, 4, 6, seed=seed).patches, ps.patches)

    def test_plane_sums_match_axis_sum_bits(self):
        rng = np.random.default_rng(23)
        a, b = rng.normal(size=(2, 7, 3)), rng.normal(size=(2, 9, 3))
        diff = a[:, :, None, :] - b[:, None, :, :]
        assert pairwise_sqdist(a, b).tobytes() == np.sum(diff * diff, axis=-1).tobytes()

    def test_first_index_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            farthest_point_sampling(np.zeros((2, 5, 3)), 2, first_index=[0, 5])
        with pytest.raises(ValueError, match="one per cloud"):
            farthest_point_sampling(np.zeros((2, 5, 3)), 2, first_index=[0])


def chamfer_loop_oracle(a, b):
    fwd = sum(min(float(np.sum((x - y) ** 2)) for y in b) for x in a) / len(a)
    bwd = sum(min(float(np.sum((x - y) ** 2)) for x in a) for y in b) / len(b)
    return fwd + bwd


class TestChamfer:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(0).normal(size=(9, 3))
        assert float(chamfer_l2(pts, pts).data) == 0.0

    def test_forced_arithmetic(self):
        val = chamfer_l2(np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]))
        assert float(val.data) == 2.0

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        a, b = rng.normal(size=(6, 3)), rng.normal(size=(9, 3))
        assert float(chamfer_l2(a, b).data) == float(chamfer_l2(b, a).data)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            a = rng.normal(size=(int(rng.integers(1, 32)), 3))
            b = rng.normal(size=(int(rng.integers(1, 32)), 3))
            got = float(chamfer_l2(a, b).data)
            assert abs(got - chamfer_loop_oracle(a, b)) < 1e-12
        # leading axes index aligned pairs; the result is the mean over pairs
        a, b = rng.normal(size=(2, 3, 7, 3)), rng.normal(size=(2, 3, 11, 3))
        want = np.mean([chamfer_loop_oracle(a[i, j], b[i, j])
                        for i in range(2) for j in range(3)])
        assert abs(float(chamfer_l2(a, b).data) - want) < 1e-12

    def test_mismatched_leading_axes_rejected(self):
        with pytest.raises(ValueError):
            chamfer_l2(np.zeros((2, 4, 3)), np.zeros((3, 4, 3)))
        with pytest.raises(ValueError):
            chamfer_l2(np.zeros((2, 4, 3)), np.zeros((4, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        pred = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        gt = Tensor(rng.normal(size=(7, 3)))
        err = gradient_check(lambda p, g: chamfer_l2(p, g), [pred, gt])
        assert err < 1e-4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chamfer_l2(np.zeros((0, 3)), np.zeros((1, 3)))

    def test_nonnegative_and_zero_iff_mutual_subsets(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a = rng.normal(size=(8, 3))
            b = rng.normal(size=(5, 3))
            assert float(chamfer_l2(a, b).data) >= 0.0
        base = rng.normal(size=(6, 3))
        # each set a subset of the other (as point sets) -> exactly zero
        sub = base[[0, 2, 4, 0, 2, 4]]
        full = base[[0, 2, 4]]
        assert float(chamfer_l2(sub, full).data) == 0.0
        # one stray point -> strictly positive
        stray = np.vstack([full, [[10.0, 0.0, 0.0]]])
        assert float(chamfer_l2(stray, full).data) > 0.0


class TestBatchChamfer:
    def test_perfect_batch_zero(self):
        p = np.random.default_rng(1).normal(size=(4, 6, 3))
        assert float(batch_chamfer(p, p).data) == 0.0

    def test_mean_of_patches(self):
        perfect = np.zeros((1, 1, 3))
        off = np.array([[[1.0, 0.0, 0.0]]])
        pred = np.concatenate([perfect, perfect])
        gt = np.concatenate([perfect, off])
        assert float(batch_chamfer(pred, gt).data) == pytest.approx(1.0)

    def test_matches_per_patch_loop(self):
        rng = np.random.default_rng(31)
        pred = rng.normal(size=(6, 10, 3))
        gt = rng.normal(size=(6, 10, 3))
        got = float(batch_chamfer(pred, gt).data)
        want = np.mean([chamfer_loop_oracle(pred[i], gt[i]) for i in range(6)])
        assert got == pytest.approx(want, abs=1e-12)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            batch_chamfer(np.zeros((2, 4, 3)), np.zeros((3, 4, 3)))
