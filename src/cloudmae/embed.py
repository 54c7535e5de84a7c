"""Token embedding: mini-PointNet over patches, positional MLPs, mask token.

The patch embedder is permutation invariant by construction: point features
pass through shared per-point MLPs and only interact via max pooling, so
reordering the k points inside a patch cannot change the token.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class PatchEmbedder:
    """Two-stage local/global point MLP with max pooling.

    Per point: 3 -> w1 -> w2; the w2-wide patch max is concatenated back onto
    every point feature (2*w2) and refined 2*w2 -> w3 -> dim; a final max
    pool yields one token per patch. Default widths (128, 256, 512).

    The concatenation is never built. With W3 = [W3_pool; W3_point] split by
    rows, concat([tile(pool), h]) @ W3 + b3 = h @ W3_point + (pool @ W3_pool
    + b3), so the pooled term is one (v, w3) GEMM broadcast over the k points
    and the point term halves the stage-2 GEMM. W3 stays one (2*w2, w3)
    parameter, so parameter names and the checkpoint layout are unchanged.
    """

    def __init__(self, store, dim, prefix="embed", widths=(128, 256, 512)):
        self.dim = dim
        w1, w2, w3 = widths
        self.local_dim = w2
        p = prefix
        self.w1 = store.add(f"{p}.stage1.lin1.w", (3, w1))
        self.b1 = store.add(f"{p}.stage1.lin1.b", (w1,), init="zeros")
        self.w2 = store.add(f"{p}.stage1.lin2.w", (w1, w2))
        self.b2 = store.add(f"{p}.stage1.lin2.b", (w2,), init="zeros")
        self.w3 = store.add(f"{p}.stage2.lin1.w", (2 * w2, w3))
        self.b3 = store.add(f"{p}.stage2.lin1.b", (w3,), init="zeros")
        self.w4 = store.add(f"{p}.stage2.lin2.w", (w3, dim))
        self.b4 = store.add(f"{p}.stage2.lin2.b", (dim,), init="zeros")

    def __call__(self, patches):
        """Embed (v, k, 3) patches into (v, dim) tokens."""
        x = patches if isinstance(patches, Tensor) else Tensor(patches)
        if x.ndim != 3 or x.shape[2] != 3:
            raise ValueError(f"patch embedder expects (v, k, 3), got {x.shape}")
        v, k, _ = x.shape
        w2 = self.local_dim
        h = ad.reshape(x, (v * k, 3))
        h = ad.gelu(ad.linear(h, self.w1, self.b1))
        h = ad.linear(h, self.w2, self.b2)                      # v*k x w2
        pooled = ad.reduce_max(ad.reshape(h, (v, k, w2)), axis=1)  # v x w2
        w3_pool = ad.gather(self.w3, np.arange(w2))
        w3_point = ad.gather(self.w3, np.arange(w2, 2 * w2))
        g = ad.reshape(ad.linear(pooled, w3_pool, self.b3), (v, 1, -1))
        h = ad.reshape(ad.matmul(h, w3_point), (v, k, -1)) + g  # v x k x w3
        h = ad.linear(ad.gelu(h), self.w4, self.b4)
        return ad.reduce_max(h, axis=1)                         # v x dim


class PositionalMLP:
    """Learnable map from 3-D center coordinates to the embedding dimension."""

    def __init__(self, store, dim, prefix, hidden=128):
        self.w1 = store.add(f"{prefix}.lin1.w", (3, hidden))
        self.b1 = store.add(f"{prefix}.lin1.b", (hidden,), init="zeros")
        self.w2 = store.add(f"{prefix}.lin2.w", (hidden, dim))
        self.b2 = store.add(f"{prefix}.lin2.b", (dim,), init="zeros")

    def __call__(self, centers):
        c = centers if isinstance(centers, Tensor) else Tensor(centers)
        if c.ndim != 2 or c.shape[1] != 3:
            raise ValueError(f"positional MLP expects (count, 3), got {c.shape}")
        return ad.linear(ad.gelu(ad.linear(c, self.w1, self.b1)), self.w2, self.b2)


class MaskToken:
    """One shared learnable vector broadcast to every masked slot.

    Gradients from all broadcast positions accumulate into the single
    parameter.
    """

    def __init__(self, store, dim, name="mask_token"):
        self.dim = dim
        self.param = store.add(name, (dim,))

    def expand(self, count):
        if count < 0:
            raise ValueError("mask token count must be >= 0")
        return ad.broadcast_to(self.param, (count, self.dim))
