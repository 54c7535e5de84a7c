"""Masked/visible partitions of patch indices.

Masking always operates on whole patch indices, never on raw points, so
overlapping patches stay intact. The masked count is round-half-up of
``ratio * n``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PatchSet, pairwise_sqdist


def masked_count(n, ratio):
    """Round-half-up of ratio * n."""
    return int(math.floor(ratio * n + 0.5))


def check_mask_ratio(n, ratio):
    """Raise ValueError unless masking ``ratio`` of ``n`` patches leaves one visible."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"mask_ratio {ratio} outside [0, 1]")
    if masked_count(n, ratio) >= n:
        raise ValueError(f"mask_ratio {ratio} leaves no visible patch of {n}")


@dataclass
class MaskSpec:
    """Disjoint, exhaustive partition of {0..n-1} into masked and visible."""

    n: int
    ratio: float
    masked: np.ndarray   # sorted indices, size masked_count(n, ratio)
    visible: np.ndarray  # sorted indices, the complement
    seed: int
    anchor: int | None = None  # block masking's seed patch, None for random

    def __post_init__(self):
        self.masked = np.asarray(self.masked, dtype=np.intp)
        self.visible = np.asarray(self.visible, dtype=np.intp)
        union = np.concatenate([self.masked, self.visible])
        if len(np.unique(union)) != self.n or union.size != self.n:
            raise ValueError("mask spec does not partition the index range")


def _fisher_yates_prefix(n, count, rng):
    # classic shuffle; the first `count` entries are a uniform subset. One call
    # draws every swap target j_i in [i, n), the same stream as n - 1 scalar draws.
    idx = list(range(n))
    for i, j in enumerate(rng.integers(np.arange(n - 1), n).tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx[:count], dtype=np.intp)


def random_mask(n, ratio, seed):
    """Uniformly random mask of round-half-up(ratio * n) patch indices."""
    if n < 1 or not 0.0 <= ratio <= 1.0:
        raise ValueError(f"random_mask: invalid n={n} or ratio={ratio}")
    count = masked_count(n, ratio)
    rng = np.random.default_rng(seed)
    masked = np.sort(_fisher_yates_prefix(n, count, rng))
    visible = np.setdiff1d(np.arange(n), masked)
    return MaskSpec(n=n, ratio=ratio, masked=masked, visible=visible, seed=seed)


def block_mask(centers, ratio, seed):
    """Mask one uniformly chosen seed patch plus its nearest neighbors.

    Neighbors are ranked by Euclidean distance between patch centers, ties
    broken by lowest index, until round-half-up(ratio * n) patches are masked.
    """
    centers = np.asarray(centers, dtype=np.float64)
    n = centers.shape[0]
    if n < 1 or not 0.0 <= ratio <= 1.0:
        raise ValueError(f"block_mask: invalid n={n} or ratio={ratio}")
    count = masked_count(n, ratio)
    rng = np.random.default_rng(seed)
    anchor = None
    if count == 0:
        masked = np.empty(0, dtype=np.intp)
    else:
        anchor = int(rng.integers(n))
        d = pairwise_sqdist(centers[anchor:anchor + 1], centers)[0]
        order = np.argsort(d, kind="stable")  # anchor first (distance 0)
        masked = np.sort(order[:count])
    visible = np.setdiff1d(np.arange(n), masked)
    return MaskSpec(n=n, ratio=ratio, masked=masked, visible=visible, seed=seed,
                    anchor=anchor)


def make_mask(kind, n, centers, ratio, seed):
    if kind == "random":
        return random_mask(n, ratio, seed)
    if kind == "block":
        return block_mask(centers, ratio, seed)
    raise ValueError(f"unknown mask type {kind!r}")


def split_patches(patchset: PatchSet, spec: MaskSpec):
    """Route patches into (visible, masked ground truth) by mask indices.

    Returns two (patches, centers) pairs, each ordered by ascending original
    index. Masked patches are returned verbatim for use as the
    reconstruction target.
    """
    if spec.n != patchset.n:
        raise ValueError(f"mask over {spec.n} patches, patch set has {patchset.n}")
    if spec.masked.size and spec.masked.max() >= patchset.n:
        raise IndexError("mask index out of range")
    vis = (patchset.patches[spec.visible], patchset.centers[spec.visible])
    masked = (patchset.patches[spec.masked], patchset.centers[spec.masked])
    return vis, masked
