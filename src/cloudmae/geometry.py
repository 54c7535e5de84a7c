"""Point-cloud kernels: farthest point sampling, KNN, patch building, Chamfer.

Everything works on squared Euclidean distances (no square roots) and is
brute-force by design; at a few thousand points this is fast and keeps the
kernels trivially comparable against exhaustive oracles.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


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
    center is itself a source point. Patches may share points.
    """

    centers: np.ndarray        # n x 3
    patches: np.ndarray        # n x k x 3, offsets from center
    point_indices: np.ndarray  # n x k into the source cloud
    center_indices: np.ndarray # n into the source cloud

    @property
    def n(self):
        return self.centers.shape[0]

    @property
    def k(self):
        return self.patches.shape[1]

    def absolute_patches(self):
        """Patches back in source coordinates: offsets + centers."""
        return self.patches + self.centers[:, None, :]


def pairwise_sqdist(a, b):
    """Plain-numpy squared distance matrix between (p,3) and (q,3) arrays."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sum(diff * diff, axis=-1)


def farthest_point_sampling(cloud, n, seed=0, first_index=None):
    """Greedy max-min sampling of ``n`` center indices.

    The first index is drawn uniformly from the seeded generator (or forced
    via ``first_index``); every subsequent pick maximizes the minimum squared
    distance to all previously selected points, ties broken by lowest index.
    """
    pts = cloud.points
    p = pts.shape[0]
    if not 1 <= n <= p:
        raise ValueError(f"fps: need 1 <= n <= p, got n={n}, p={p}")
    if first_index is None:
        first = int(np.random.default_rng(seed).integers(p))
    else:
        first = int(first_index)
        if not 0 <= first < p:
            raise ValueError(f"fps: first_index {first} outside [0, {p})")
    chosen = np.empty(n, dtype=np.intp)
    chosen[0] = first
    min_d = np.sum((pts - pts[first]) ** 2, axis=1)
    for i in range(1, n):
        nxt = int(np.argmax(min_d))  # argmax takes the lowest index on ties
        chosen[i] = nxt
        d = np.sum((pts - pts[nxt]) ** 2, axis=1)
        min_d = np.minimum(min_d, d)
    return chosen


def knn(cloud, centers, k):
    """Indices of the k nearest source points per center.

    Rows are sorted by ascending squared distance, ties broken by lowest
    index; a center that coincides with a source point includes that point at
    distance zero.
    """
    pts = cloud.points
    if k > pts.shape[0]:
        raise ValueError(f"knn: k={k} exceeds cloud size {pts.shape[0]}")
    d = pairwise_sqdist(np.asarray(centers, dtype=np.float64), pts)
    order = np.argsort(d, axis=1, kind="stable")
    return order[:, :k].astype(np.intp)


def build_patches(cloud, n, k, seed=0):
    """FPS centers, KNN grouping, then center-normalization of each patch."""
    center_idx = farthest_point_sampling(cloud, n, seed=seed)
    centers = cloud.points[center_idx]
    point_idx = knn(cloud, centers, k)
    patches = cloud.points[point_idx] - centers[:, None, :]
    return PatchSet(
        centers=centers,
        patches=patches,
        point_indices=point_idx,
        center_indices=center_idx,
    )


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
