"""Transformer autoencoder over patch tokens.

The encoder sees only visible tokens; mask tokens normally join at the
decoder input together with a full set of positional embeddings, and the
decoded mask tokens feed a fully connected head that regresses the masked
patch coordinates. An ablation flag moves the mask tokens to the encoder
input instead (the decoder is then skipped), which leaks patch locations to
the encoder early.

Every forward pass is batch-first: ``pretrain_forward_batch`` and
``MaskedAutoencoder.features_batch`` patchify the whole batch in one
``build_patches`` call and run a leading batch axis through one encoder stack
and one decoder stack. The per-instance methods (``pretrain_forward``,
``encode``, ``decode``, ``features``, ``logits``) are thin wrappers that run a
batch of one.

The ``train`` flag of the forward passes says whether a backward will follow.
With ``train=False`` the pass runs under ``autodiff.no_grad``: the same ops in
the same order, so the outputs are bit-identical, but no tape is recorded and
no activation outlives the pass. A loss computed that way cannot be
differentiated; ``backward`` on it raises ``GraphError``.
"""

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .embed import MaskToken, PatchEmbedder, PositionalMLP
from .geometry import batch_chamfer, build_patches
from .masking import make_mask, split_patches
from .params import ParamStore
from .seeding import derive_seed


@dataclass
class TokenSequence:
    """Aligned tokens, center coordinates, and per-token role tags."""

    tokens: Tensor        # count x dim
    centers: np.ndarray   # count x 3
    roles: tuple

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64).reshape(-1, 3)
        if not self.tokens.shape[0] == self.centers.shape[0] == len(self.roles):
            raise ValueError(
                f"token/center/role counts differ: {self.tokens.shape[0]}, "
                f"{self.centers.shape[0]}, {len(self.roles)}")


class TransformerBlock:
    """Pre-norm block; positional embeddings enter at the attention input.

    x <- x + MHSA(LN(x + pe)); x <- x + MLP(LN(x)).
    """

    def __init__(self, store, prefix, dim, heads, mlp_ratio=4):
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.head_dim = dim // heads
        self.scale = 1.0 / math.sqrt(self.head_dim)
        hidden = mlp_ratio * dim
        p = prefix
        self.ln1_g = store.add(f"{p}.ln1.gain", (dim,), init="ones")
        self.ln1_b = store.add(f"{p}.ln1.bias", (dim,), init="zeros")
        self.wq = store.add(f"{p}.attn.q.w", (dim, dim))
        self.bq = store.add(f"{p}.attn.q.b", (dim,), init="zeros")
        self.wk = store.add(f"{p}.attn.k.w", (dim, dim))
        self.bk = store.add(f"{p}.attn.k.b", (dim,), init="zeros")
        self.wv = store.add(f"{p}.attn.v.w", (dim, dim))
        self.bv = store.add(f"{p}.attn.v.b", (dim,), init="zeros")
        self.wo = store.add(f"{p}.attn.out.w", (dim, dim))
        self.bo = store.add(f"{p}.attn.out.b", (dim,), init="zeros")
        self.ln2_g = store.add(f"{p}.ln2.gain", (dim,), init="ones")
        self.ln2_b = store.add(f"{p}.ln2.bias", (dim,), init="zeros")
        self.w_mlp1 = store.add(f"{p}.mlp.lin1.w", (dim, hidden))
        self.b_mlp1 = store.add(f"{p}.mlp.lin1.b", (hidden,), init="zeros")
        self.w_mlp2 = store.add(f"{p}.mlp.lin2.w", (hidden, dim))
        self.b_mlp2 = store.add(f"{p}.mlp.lin2.b", (dim,), init="zeros")

    def _attention(self, h):
        # h is (..., s, dim); heads split to (..., heads, s, head_dim)
        n = h.ndim
        head_shape = h.shape[:-1] + (self.heads, self.head_dim)
        perm = tuple(range(n - 2)) + (n - 1, n - 2, n)
        last2 = tuple(range(n - 1)) + (n, n - 1)
        q = ad.linear(h, self.wq, self.bq)
        k = ad.linear(h, self.wk, self.bk)
        v = ad.linear(h, self.wv, self.bv)
        split = lambda t: ad.transpose(ad.reshape(t, head_shape), perm)
        qh, kh, vh = split(q), split(k), split(v)
        scores = ad.matmul(qh, ad.transpose(kh, last2)) * self.scale
        ctx = ad.matmul(ad.softmax(scores), vh)
        ctx = ad.reshape(ad.transpose(ctx, perm), h.shape)
        return ad.linear(ctx, self.wo, self.bo)

    def __call__(self, x, pe):
        if x.shape != pe.shape:
            raise ValueError(f"block: token shape {x.shape} != pe shape {pe.shape}")
        x = x + self._attention(ad.layer_norm(x + pe, self.ln1_g, self.ln1_b))
        h = ad.gelu(ad.linear(ad.layer_norm(x, self.ln2_g, self.ln2_b),
                              self.w_mlp1, self.b_mlp1))
        return x + ad.linear(h, self.w_mlp2, self.b_mlp2)


def _run_stack(x, centers, pe_mlp, blocks, ln_g, ln_b):
    """Positional MLP -> blocks -> layer norm on (B, s, dim) tokens at (B, s, 3) centers."""
    pe = ad.reshape(pe_mlp(np.reshape(centers, (-1, 3))), x.shape)
    for block in blocks:
        x = block(x, pe)
    return ad.layer_norm(x, ln_g, ln_b)


def _tape(train):
    """Context of a forward pass: the tape is recorded only when ``train``."""
    return nullcontext() if train else ad.no_grad()


class ClassifierHead:
    """Two-layer GELU MLP from pooled features to logits, on (B, in_dim) rows."""

    def __init__(self, store, prefix, in_dim, hidden, n_out):
        self.w1 = store.add(f"{prefix}.lin1.w", (in_dim, hidden))
        self.b1 = store.add(f"{prefix}.lin1.b", (hidden,), init="zeros")
        self.w2 = store.add(f"{prefix}.lin2.w", (hidden, n_out))
        self.b2 = store.add(f"{prefix}.lin2.b", (n_out,), init="zeros")

    def __call__(self, features):
        h = ad.gelu(ad.linear(features, self.w1, self.b1))
        return ad.linear(h, self.w2, self.b2)


class MaskedAutoencoder:
    """Asymmetric encoder/decoder with a shared mask token and FC head."""

    def __init__(self, cfg, patch_size, seed=0, store=None, include_decoder=True):
        self.cfg = cfg
        self.patch_size = patch_size
        self.store = store if store is not None else ParamStore(seed)
        dim = cfg.dim
        self.embedder = PatchEmbedder(self.store, dim, widths=cfg.embed_widths)
        self.pe_encoder = PositionalMLP(self.store, dim, "pe_enc")
        self.encoder_blocks = [
            TransformerBlock(self.store, f"encoder.block{i}", dim, cfg.heads, cfg.mlp_ratio)
            for i in range(cfg.encoder_depth)
        ]
        self.enc_ln_g = self.store.add("encoder.ln.gain", (dim,), init="ones")
        self.enc_ln_b = self.store.add("encoder.ln.bias", (dim,), init="zeros")
        if include_decoder:
            self.pe_decoder = PositionalMLP(self.store, dim, "pe_dec")
            self.mask_token = MaskToken(self.store, dim)
            self.decoder_blocks = [
                TransformerBlock(self.store, f"decoder.block{i}", dim, cfg.heads,
                                 cfg.mlp_ratio)
                for i in range(cfg.decoder_depth)
            ]
            self.dec_ln_g = self.store.add("decoder.ln.gain", (dim,), init="ones")
            self.dec_ln_b = self.store.add("decoder.ln.bias", (dim,), init="zeros")
            self.head_w = self.store.add("head.w", (dim, 3 * patch_size))
            self.head_b = self.store.add("head.b", (3 * patch_size,), init="zeros")

    def embed_batch(self, patches):
        """(B, s, k, 3) patch offsets -> (B, s, dim) tokens."""
        b, s, k, _ = patches.shape
        return ad.reshape(self.embedder(patches.reshape(b * s, k, 3)), (b, s, self.cfg.dim))

    def encoder_stack(self, x, centers):
        """Encoder over (B, s, dim) tokens at (B, s, 3) centers."""
        return _run_stack(x, centers, self.pe_encoder, self.encoder_blocks,
                          self.enc_ln_g, self.enc_ln_b)

    def decoder_stack(self, x, centers):
        """Decoder over (B, s, dim) tokens at (B, s, 3) centers."""
        return _run_stack(x, centers, self.pe_decoder, self.decoder_blocks,
                          self.dec_ln_g, self.dec_ln_b)

    def encode(self, seq: TokenSequence) -> TokenSequence:
        """Run the encoder stack over one token sequence.

        In decoder placement, mask-role tokens at the encoder input are a
        contract violation (they would leak masked-patch locations) and
        raise.
        """
        if self.cfg.mask_token_placement == "decoder" and "mask" in seq.roles:
            raise ValueError("encoder received mask tokens in decoder placement mode")
        x = self.encoder_stack(ad.reshape(seq.tokens, (1,) + seq.tokens.shape), seq.centers)
        return TokenSequence(ad.reshape(x, seq.tokens.shape), seq.centers,
                             ("encoded",) * len(seq.roles))

    def decode(self, encoded, mask_tokens, centers_all):
        """Decode concat(encoded, mask tokens); return only the mask positions."""
        v, mn = encoded.shape[0], mask_tokens.shape[0]
        centers_all = np.asarray(centers_all, dtype=np.float64).reshape(-1, 3)
        if centers_all.shape[0] != v + mn:
            raise ValueError(
                f"decode: {centers_all.shape[0]} centers for {v}+{mn} tokens")
        x = ad.reshape(ad.concat([encoded, mask_tokens], axis=0), (1, v + mn, self.cfg.dim))
        x = self.decoder_stack(x, centers_all)
        return ad.reshape(ad.gather(x, np.arange(v, v + mn), axis=1), (mn, self.cfg.dim))

    def predict(self, decoded_mask_tokens):
        """FC head, then reshape (..., mn, dim) tokens to (..., mn, k, 3) patch offsets."""
        flat = ad.linear(decoded_mask_tokens, self.head_w, self.head_b)
        return ad.reshape(flat, decoded_mask_tokens.shape[:-1] + (self.patch_size, 3))

    def features_batch(self, clouds, n_patches, seeds):
        """(B, 2*dim) max- and mean-pooled encoder features; all patches visible."""
        ps = build_patches(clouds, n_patches, self.patch_size,
                           [derive_seed(s, "patches") for s in seeds])
        x = self.encoder_stack(self.embed_batch(ps.patches), ps.centers)
        return ad.concat([ad.reduce_max(x, axis=1), ad.reduce_mean(x, axis=1)], axis=1)

    def pretrain_forward(self, cloud, n_patches, ratio, seed, mask_type="random",
                         train=True):
        """Full masked-reconstruction pass on one cloud: a batch of one.

        Returns (loss, diagnostics); diagnostics carry the patch set, mask
        spec, predicted patches, and ground-truth patches so callers can
        export reconstructions.
        """
        loss, batch = self.pretrain_forward_batch([cloud], n_patches, ratio, [seed],
                                                  mask_type=mask_type, train=train)
        diagnostics = {
            "patchset": batch["patchsets"][0],
            "mask": batch["masks"][0],
            "visible_count": batch["visible_count"],
            "masked_count": batch["masked_count"],
            "predicted": batch["predicted"][0],
            "target": batch["target"][0],
            "loss": float(loss.data),
        }
        return loss, diagnostics

    def pretrain_forward_batch(self, clouds, n_patches, ratio, seeds,
                               mask_type="random", train=True):
        """Batched pretraining pass; the loss is the mean over instances.

        Each instance derives its patch and mask seeds from its own seed. All
        instances share (n, ratio), so visible/masked counts align and the
        whole batch runs as one graph with a leading batch axis. With
        ``train=False`` the pass records no tape (see the module docstring).
        Returns (loss, diagnostics) with per-instance patch sets and masks
        and (B, mn, k, 3) predicted and target patches.
        """
        patchsets = build_patches(clouds, n_patches, self.patch_size,
                                  [derive_seed(s, "patches") for s in seeds]).unstack()
        masks, vis, gt, vis_c, all_c = [], [], [], [], []
        for patchset, seed in zip(patchsets, seeds):
            spec = make_mask(mask_type, patchset.n, patchset.centers, ratio,
                             derive_seed(seed, "mask"))
            (vis_p, vc), (gt_p, gc) = split_patches(patchset, spec)
            masks.append(spec)
            vis.append(vis_p)
            gt.append(gt_p)
            vis_c.append(vc)
            all_c.append(np.concatenate([vc, gc], axis=0))
        vis, gt = np.stack(vis), np.stack(gt)     # B x v x k x 3, B x mn x k x 3
        b, v, mn = len(clouds), vis.shape[1], gt.shape[1]
        centers_all = np.stack(all_c)              # B x (v+mn) x 3

        with _tape(train):
            tokens = self.embed_batch(vis)
            t_m = ad.broadcast_to(self.mask_token.param, (b, mn, self.cfg.dim))
            if self.cfg.mask_token_placement == "decoder":
                x = ad.concat([self.encoder_stack(tokens, np.stack(vis_c)), t_m], axis=1)
                x = self.decoder_stack(x, centers_all)
            else:
                x = self.encoder_stack(ad.concat([tokens, t_m], axis=1), centers_all)
            predicted = self.predict(ad.gather(x, np.arange(v, v + mn), axis=1))
            loss = batch_chamfer(predicted, Tensor(gt)) if mn else Tensor(0.0)
        return loss, {"visible_count": v, "masked_count": mn, "patchsets": patchsets,
                      "masks": masks, "predicted": predicted.data, "target": gt}


class PointCloudClassifier:
    """Encoder plus pooled classification head; no masking, no decoder.

    Features are the concatenation of max- and mean-pooled encoded tokens
    over all patches, followed by a two-layer MLP.
    """

    def __init__(self, cfg, patch_size, n_patches, n_classes, seed=0):
        self.cfg = cfg
        self.n_patches = n_patches
        self.store = ParamStore(seed)
        self.backbone = MaskedAutoencoder(cfg, patch_size, store=self.store,
                                          include_decoder=False)
        self.head = ClassifierHead(self.store, "cls_head", 2 * cfg.dim, cfg.dim, n_classes)

    def load_backbone(self, arrays):
        """Load encoder/embedder weights from a pretraining checkpoint.

        The head keeps its own values unless ``arrays`` carries them; decoder
        parameters in ``arrays`` are ignored.
        """
        head = {k: v for k, v in self.store.state_arrays().items() if k.startswith("cls_head.")}
        self.store.load_arrays({**head, **arrays})

    def features_batch(self, clouds, seeds):
        """(B, 2*dim) pooled encoder features; all patches visible."""
        return self.backbone.features_batch(clouds, self.n_patches, seeds)

    def features(self, cloud, seed):
        """(1, 2*dim) pooled encoder features for one cloud."""
        return self.features_batch([cloud], [seed])

    def logits(self, cloud, seed, train=False):
        """(1, n_classes) logits for one cloud."""
        return self.logits_batch([cloud], [seed], train=train)

    def logits_batch(self, clouds, seeds, train=False):
        """(B, n_classes) logits for a batch of clouds in one graph.

        Inference by default: the pass records a tape only with
        ``train=True``, which a caller that runs backward must pass.
        """
        with _tape(train):
            return self.head(self.features_batch(clouds, seeds))


def cross_entropy_batch(logits, labels):
    """Mean negative log-softmax over rows; logits (B, n_classes), labels (B,)."""
    b, n_classes = logits.shape
    shift = ad.reshape(ad.reduce_max(logits, axis=1), (b, 1))
    shifted = logits - shift
    log_norm = ad.reshape(ad.log(ad.reduce_sum(ad.exp(shifted), axis=1)), (b, 1))
    onehot = np.zeros((b, n_classes))
    onehot[np.arange(b), np.asarray(labels, dtype=np.intp)] = 1.0
    picked = ad.reduce_sum(ad.mul(shifted - log_norm, Tensor(onehot)), axis=1)
    return -ad.reduce_mean(picked)
