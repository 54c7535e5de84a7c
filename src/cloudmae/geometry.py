"""Point-cloud kernels: farthest point sampling, KNN, patch building, Chamfer.

Everything works on squared Euclidean distances (no square roots) and is
brute-force by design; at a few thousand points this is fast and keeps the
kernels trivially comparable against exhaustive oracles.

Patchify has one implementation, over a leading batch axis:
``farthest_point_sampling``, ``knn`` and ``build_patches`` take a batch of
clouds, and one ``PointCloud`` runs as a batch of one.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, coordinate_planes, pairwise_sqdist, plane_sqdist


@dataclass
class PointCloud:
    """p x 3 coordinate array with an optional integer category label."""

    points: np.ndarray
    label: int | None = None

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"point cloud must be p x 3, got {self.points.shape}")
        if self.points.shape[0] < 1:
            raise ValueError("point cloud is empty")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("point cloud contains non-finite coordinates")

    @property
    def p(self):
        return self.points.shape[0]


@dataclass
class PatchSet:
    """n patches of k center-normalized points plus their provenance.

    patches[i][j] == source.points[point_indices[i][j]] - centers[i]; every
    center is itself a source point. Patches may share points. A batched set
    carries a leading batch axis on every array.
    """

    centers: np.ndarray        # [B x] n x 3
    patches: np.ndarray        # [B x] n x k x 3, offsets from center
    point_indices: np.ndarray  # [B x] n x k into the source cloud
    center_indices: np.ndarray # [B x] n into the source cloud

    @property
    def n(self):
        return self.centers.shape[-2]

    @property
    def k(self):
        return self.patches.shape[-2]

    def absolute_patches(self):
        """Patches back in source coordinates: offsets + centers."""
        return self.patches + self.centers[..., None, :]

    def unstack(self):
        """Per-instance patch sets (views) of a batched set."""
        return [PatchSet(*arrays) for arrays in zip(*vars(self).values())]


def farthest_point_sampling(cloud, n, seed=0, first_index=None):
    """Greedy max-min sampling of ``n`` center indices.

    ``cloud`` is one PointCloud, giving (n,) indices, or a (B, p, 3) array of
    B equal-size clouds, giving (B, n); for a batch, ``seed`` and
    ``first_index`` hold one entry per cloud. The first index is drawn
    uniformly from the seeded generator (or forced via ``first_index``);
    every later pick maximizes the minimum squared distance to the points
    already chosen in its cloud, ties broken by lowest index. All clouds
    advance together over one (B, p) min-distance array.
    """
    single = isinstance(cloud, PointCloud)
    points = cloud.points[None] if single else np.asarray(cloud, dtype=np.float64)
    if points.ndim != 3 or points.shape[-1] != 3:
        raise ValueError(f"fps: need a PointCloud or a (B, p, 3) array, got {points.shape}")
    b, p, _ = points.shape
    if not 1 <= n <= p:
        raise ValueError(f"fps: need 1 <= n <= p, got n={n}, p={p}")
    if first_index is None:
        first = [int(np.random.default_rng(s).integers(p)) for s in ([seed] if single else seed)]
    else:
        first = [first_index] if single else first_index
    first = np.asarray(first, dtype=np.intp)
    if first.shape != (b,) or np.any((first < 0) | (first >= p)):
        raise ValueError(f"fps: first indices {first.tolist()} outside [0, {p}) "
                         f"or not one per cloud")
    planes = coordinate_planes(points)           # 3 x B x p
    rows = np.arange(b)
    chosen = np.empty((b, n), dtype=np.intp)
    chosen[:, 0] = first
    min_d = plane_sqdist(planes, planes[:, rows, first, None])
    for i in range(1, n):
        nxt = np.argmax(min_d, axis=1)           # argmax takes the lowest index on ties
        chosen[:, i] = nxt
        if i + 1 < n:
            np.minimum(min_d, plane_sqdist(planes, planes[:, rows, nxt, None]), out=min_d)
    return chosen[0] if single else chosen


def knn(cloud, centers, k):
    """Indices of the k nearest source points per center.

    ``cloud`` is one PointCloud with (n, 3) centers, giving (n, k), or a
    (B, p, 3) array of B clouds with (B, n, 3) centers, giving (B, n, k).
    One stable argsort over the squared distances sorts each row ascending,
    ties broken by lowest index; a center that coincides with a source point
    includes that point at distance zero.
    """
    points = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
    if k > points.shape[-2]:
        raise ValueError(f"knn: k={k} exceeds cloud size {points.shape[-2]}")
    d = pairwise_sqdist(centers, points)
    return np.argsort(d, axis=-1, kind="stable")[..., :k].astype(np.intp)


def build_patches(cloud, n, k, seed=0):
    """FPS centers, KNN grouping, then center-normalization of each patch.

    ``cloud`` is one PointCloud, giving one ``PatchSet``, or a sequence of
    clouds with a sequence of seeds, one per cloud, giving a ``PatchSet``
    with a leading batch axis. Equal-size clouds share one FPS and one KNN
    call; clouds of different sizes take one call each and are stacked.
    """
    if isinstance(cloud, PointCloud):
        return _patch_batch(cloud.points[None], n, k, [seed]).unstack()[0]
    clouds, seeds = list(cloud), list(seed)
    if len({c.p for c in clouds}) == 1:
        return _patch_batch(np.stack([c.points for c in clouds]), n, k, seeds)
    parts = [_patch_batch(c.points[None], n, k, [s]) for c, s in zip(clouds, seeds)]
    return PatchSet(*map(np.concatenate, zip(*(vars(ps).values() for ps in parts))))


def _patch_batch(points, n, k, seeds):
    """Batched ``PatchSet`` of the (B, p, 3) clouds ``points``."""
    center_idx = farthest_point_sampling(points, n, seed=seeds)
    rows = np.arange(points.shape[0])[:, None]
    centers = points[rows, center_idx]
    point_idx = knn(points, centers, k)
    patches = points[rows[..., None], point_idx] - centers[:, :, None, :]
    return PatchSet(centers=centers, patches=patches, point_indices=point_idx,
                    center_indices=center_idx)


def chamfer_l2(pred, gt):
    """Symmetric l2 Chamfer distance between point sets.

    Mean over ``pred`` of the squared distance to its nearest ``gt`` point,
    plus the same with the roles swapped. Differentiable through the
    nearest-neighbor assignments (ties route to the lowest-index neighbor).
    Leading axes index aligned pairs of sets; every set in a stack has the
    same size, so the mean of the per-pair distances is one reduction.

    Args:
        pred: Tensor or array of shape (..., a, 3).
        gt: Tensor or array of shape (..., b, 3), same leading axes.

    Returns:
        Scalar Tensor.
    """
    pred = pred if isinstance(pred, Tensor) else Tensor(pred)
    gt = gt if isinstance(gt, Tensor) else Tensor(gt)
    if (min(pred.ndim, gt.ndim) < 2 or pred.shape[:-2] != gt.shape[:-2]
            or pred.size == 0 or gt.size == 0):
        raise ValueError(
            f"chamfer: need non-empty (..., a, 3)/(..., b, 3), got {pred.shape}, {gt.shape}")
    d = ad.sqdist(pred, gt)                       # ... x a x b
    fwd = ad.reduce_mean(ad.reduce_min(d, axis=-1))
    bwd = ad.reduce_mean(ad.reduce_min(d, axis=-2))
    return fwd + bwd


def batch_chamfer(pred_patches, gt_patches):
    """Mean of per-patch Chamfer distances over aligned, equal-shape patch stacks."""
    if pred_patches.shape != gt_patches.shape:
        raise ValueError(f"batch_chamfer: shape mismatch {pred_patches.shape} "
                         f"vs {gt_patches.shape}")
    return chamfer_l2(pred_patches, gt_patches)
