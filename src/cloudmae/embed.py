"""Token embedding: the shared MLP, mini-PointNet over patches, positional MLPs, mask token.

The patch embedder is permutation invariant by construction: point features
pass through shared per-point MLPs and only interact via max pooling, so
reordering the k points inside a patch cannot change the token.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

CHUNK_ROWS = 1024  # point rows per patch-embedder chunk in a forward-only pass


class MLP:
    """Linear -> GELU -> Linear on the last axis, registered as ``{prefix}.lin1``/``lin2``."""

    def __init__(self, store, prefix, in_dim, hidden, out_dim):
        self.w1 = store.add(f"{prefix}.lin1.w", (in_dim, hidden))
        self.b1 = store.add(f"{prefix}.lin1.b", (hidden,), init="zeros")
        self.w2 = store.add(f"{prefix}.lin2.w", (hidden, out_dim))
        self.b2 = store.add(f"{prefix}.lin2.b", (out_dim,), init="zeros")

    def __call__(self, x):
        return self.from_hidden(ad.linear(x, self.w1, self.b1))

    def from_hidden(self, pre):
        """GELU and the second layer, applied to a first-layer pre-activation."""
        return ad.linear(ad.gelu(pre), self.w2, self.b2)


class PatchEmbedder:
    """Two-stage local/global point MLP with max pooling.

    Per point: 3 -> w1 -> w2; the w2-wide patch max is concatenated back onto
    every point feature (2*w2) and refined 2*w2 -> w3 -> dim; a final max
    pool yields one token per patch. Default widths (128, 256, 512).

    The concatenation is never built. With W3 = [W3_pool; W3_point] split by
    rows, concat([tile(pool), h]) @ W3 + b3 = h @ W3_point + (pool @ W3_pool
    + b3), so the pooled term is one (v, w3) GEMM and the point term halves
    the stage-2 GEMM. The pooled term enters that GEMM as a (v, 1, w3) bias
    broadcast over the k points and added in place, so no second (v, k, w3)
    array is made. W3 stays one (2*w2, w3) parameter, ``stage2.w1``, so
    parameter names and the checkpoint layout are unchanged.
    """

    def __init__(self, store, dim, widths=(128, 256, 512)):
        w1, w2, w3 = widths
        self.local_dim = w2
        self.stage1 = MLP(store, "embed.stage1", 3, w1, w2)
        self.stage2 = MLP(store, "embed.stage2", 2 * w2, w3, dim)

    def __call__(self, patches):
        """Embed (v, k, 3) patches into (v, dim) tokens.

        Without a tape (inside ``no_grad``) the patches go through in chunks of
        ``max(2, CHUNK_ROWS // k)``, so a forward-only pass holds hidden arrays
        of about ``CHUNK_ROWS`` point rows instead of ``v * k``. Each token
        depends only on its own patch, so the tokens are bit-identical to one
        pass. A last chunk of one patch joins the chunk before it: numpy
        multiplies a one-row matrix as a vector, which rounds differently from
        the GEMM of one pass. With a tape it is one pass: backward keeps every
        activation anyway, and one weight-gradient GEMM keeps its summation
        order.
        """
        x = patches if isinstance(patches, Tensor) else Tensor(patches)
        if x.ndim != 3 or x.shape[2] != 3:
            raise ValueError(f"patch embedder expects (v, k, 3), got {x.shape}")
        v, k, _ = x.shape
        bounds = [*range(0, v - 1, max(2, CHUNK_ROWS // k)), v]
        if ad._recording or len(bounds) <= 2:
            return self._embed(x)
        return ad.concat([self._embed(Tensor(x.data[start:end]))
                          for start, end in zip(bounds, bounds[1:])])

    def _embed(self, x):
        v, k, _ = x.shape
        w2 = self.local_dim
        h = ad.reshape(self.stage1(ad.reshape(x, (v * k, 3))), (v, k, w2))
        pooled = ad.reduce_max(h, axis=1)                              # v x w2
        w3_pool = ad.gather(self.stage2.w1, np.arange(w2))
        w3_point = ad.gather(self.stage2.w1, np.arange(w2, 2 * w2))
        g = ad.reshape(ad.linear(pooled, w3_pool, self.stage2.b1), (v, 1, -1))
        h = ad.linear(h, w3_point, g)                                  # v x k x w3
        return ad.reduce_max(self.stage2.from_hidden(h), axis=1)      # v x dim


class PositionalMLP:
    """Learnable map from 3-D centers to the embedding dimension via 128 hidden units."""

    def __init__(self, store, dim, prefix):
        self.mlp = MLP(store, prefix, 3, 128, dim)

    def __call__(self, centers):
        c = centers if isinstance(centers, Tensor) else Tensor(centers)
        if c.ndim != 2 or c.shape[1] != 3:
            raise ValueError(f"positional MLP expects (count, 3), got {c.shape}")
        return self.mlp(c)


class MaskToken:
    """One shared learnable vector broadcast to every masked slot.

    Gradients from all broadcast positions accumulate into the single
    parameter.
    """

    def __init__(self, store, dim):
        self.dim = dim
        self.param = store.add("mask_token", (dim,))

    def expand(self, *counts):
        """The token broadcast to ``counts + (dim,)``, e.g. ``expand(b, mn)``."""
        if min(counts) < 0:
            raise ValueError("mask token count must be >= 0")
        return ad.broadcast_to(self.param, counts + (self.dim,))
