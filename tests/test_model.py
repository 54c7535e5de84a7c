import dataclasses
import hashlib

import numpy as np
import pytest

from cloudmae import autodiff as ad
from cloudmae.autodiff import GraphError, Tensor, backward, gradient_check
from cloudmae.config import BackboneConfig
from cloudmae.data import SyntheticSpec, gen_synthetic
from cloudmae.geometry import batch_chamfer, build_patches
from cloudmae.masking import random_mask, split_patches
from cloudmae.model import (MaskedAutoencoder, PointCloudClassifier,
                            TokenSequence, TransformerBlock, cross_entropy_batch)
from cloudmae.params import ParamStore

SMALL = BackboneConfig(dim=32, encoder_depth=2, decoder_depth=1, heads=4,
                       embed_widths=(16, 32, 64))


def small_model(placement="decoder", seed=0):
    cfg = BackboneConfig(dim=32, encoder_depth=2, decoder_depth=1, heads=4,
                         embed_widths=(16, 32, 64),
                         mask_token_placement=placement)
    return MaskedAutoencoder(cfg, patch_size=8, seed=seed)


def cloud_for(seed=0, points=128):
    return gen_synthetic(SyntheticSpec(family="torus", points=points,
                                       noise_sigma=0.01, seed=seed))


def as_bytes(value):
    """A diagnostics value as comparable bytes: arrays, dataclasses and lists of them."""
    if isinstance(value, list):
        return [as_bytes(v) for v in value]
    if dataclasses.is_dataclass(value):
        return [as_bytes(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return value.tobytes() if isinstance(value, np.ndarray) else repr(value)


class TestTransformerBlock:
    def test_shape_preserved(self):
        store = ParamStore(0)
        block = TransformerBlock(store, "b", dim=32, heads=4)
        rng = np.random.default_rng(0)
        for s in (1, 26, 64):
            x = Tensor(rng.normal(size=(s, 32)))
            pe = Tensor(rng.normal(size=(s, 32)))
            assert block(x, pe).shape == (s, 32)

    def test_single_token_attention_is_value_path(self):
        # softmax over one token is exactly 1, so attention reduces to
        # out-proj(v(ln(x+pe)))
        store = ParamStore(1)
        block = TransformerBlock(store, "b", dim=16, heads=2)
        rng = np.random.default_rng(1)
        x, pe = Tensor(rng.normal(size=(1, 16))), Tensor(rng.normal(size=(1, 16)))
        h = ad.layer_norm(x + pe, block.ln1_g, block.ln1_b)
        v = ad.linear(h, block.wv, block.bv)
        want = ad.linear(v, block.wo, block.bo)
        got = block._attention(h)
        assert np.allclose(got.data, want.data, atol=1e-12)

    def test_zeroed_out_projection_leaves_mlp_path(self):
        store = ParamStore(2)
        block = TransformerBlock(store, "b", dim=16, heads=2)
        block.wo.data = np.zeros_like(block.wo.data)
        block.bo.data = np.zeros_like(block.bo.data)
        rng = np.random.default_rng(2)
        x, pe = Tensor(rng.normal(size=(5, 16))), Tensor(rng.normal(size=(5, 16)))
        got = block(x, pe)
        mlp = ad.linear(ad.gelu(ad.linear(
            ad.layer_norm(x, block.ln2_g, block.ln2_b),
            block.mlp.w1, block.mlp.b1)), block.mlp.w2, block.mlp.b2)
        assert np.allclose(got.data, (x + mlp).data, atol=1e-12)

    def test_pe_shape_mismatch_rejected(self):
        store = ParamStore(3)
        block = TransformerBlock(store, "b", dim=16, heads=2)
        with pytest.raises(ValueError):
            block(Tensor(np.zeros((4, 16))), Tensor(np.zeros((5, 16))))

    def test_batched_matches_unbatched(self):
        store = ParamStore(4)
        block = TransformerBlock(store, "b", dim=16, heads=4)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 6, 16))
        pe = rng.normal(size=(3, 6, 16))
        batched = block(Tensor(x), Tensor(pe)).data
        for i in range(3):
            single = block(Tensor(x[i]), Tensor(pe[i])).data
            assert np.allclose(batched[i], single, atol=1e-12)


class TestEncode:
    def test_no_leakage_bit_identical(self):
        model = small_model()
        cloud = cloud_for(3)
        ps = build_patches(cloud, 16, 8, seed=1)
        spec = random_mask(16, 0.6, seed=2)

        def encode_visible(patchset):
            (vis, vis_c), _ = split_patches(patchset, spec)
            tokens = model.embedder(Tensor(vis))
            seq = TokenSequence(tokens, vis_c, tuple("visible" for _ in range(len(spec.visible))))
            return model.encode(seq).tokens.data

        before = encode_visible(ps)
        ps.patches[spec.masked] = np.random.default_rng(9).normal(
            size=ps.patches[spec.masked].shape)
        after = encode_visible(ps)
        assert np.array_equal(before, after)

    def test_mask_tokens_rejected_in_decoder_mode(self):
        model = small_model("decoder")
        seq = TokenSequence(Tensor(np.zeros((3, 32))), np.zeros((3, 3)),
                            ("visible", "mask", "visible"))
        with pytest.raises(ValueError, match="mask tokens"):
            model.encode(seq)

    def test_mask_tokens_allowed_in_encoder_mode(self):
        model = small_model("encoder")
        seq = TokenSequence(Tensor(np.zeros((2, 32))), np.zeros((2, 3)),
                            ("visible", "mask"))
        out = model.encode(seq)
        assert out.tokens.shape == (2, 32)
        assert out.roles == ("encoded", "encoded")

    def test_permutation_equivariance(self):
        model = small_model()
        rng = np.random.default_rng(5)
        tokens = rng.normal(size=(10, 32))
        centers = rng.normal(size=(10, 3))
        out = model.encode(TokenSequence(Tensor(tokens), centers,
                                         tuple("visible" for _ in range(10)))).tokens.data
        perm = rng.permutation(10)
        out_p = model.encode(TokenSequence(Tensor(tokens[perm]), centers[perm],
                                           tuple("visible" for _ in range(10)))).tokens.data
        assert np.allclose(out_p, out[perm], atol=1e-10)


class TestDecode:
    def test_output_restricted_to_mask_positions(self):
        model = small_model()
        rng = np.random.default_rng(6)
        enc = Tensor(rng.normal(size=(5, 32)))
        masks = Tensor(rng.normal(size=(3, 32)))
        out = model.decode(enc, masks, rng.normal(size=(8, 3)))
        assert out.shape == (3, 32)

    def test_empty_mask_set(self):
        model = small_model()
        rng = np.random.default_rng(7)
        out = model.decode(Tensor(rng.normal(size=(5, 32))),
                           Tensor(np.zeros((0, 32))), rng.normal(size=(5, 3)))
        assert out.shape == (0, 32)

    def test_center_count_mismatch(self):
        model = small_model()
        with pytest.raises(ValueError, match="centers"):
            model.decode(Tensor(np.zeros((2, 32))), Tensor(np.zeros((1, 32))),
                         np.zeros((5, 3)))

    def test_decoder_attends_to_encoded_tokens(self):
        model = small_model()
        rng = np.random.default_rng(8)
        enc = rng.normal(size=(5, 32))
        masks = Tensor(rng.normal(size=(3, 32)))
        centers = rng.normal(size=(8, 3))
        a = model.decode(Tensor(enc), masks, centers).data
        b = model.decode(Tensor(np.zeros_like(enc)), masks, centers).data
        assert not np.allclose(a, b)

    def test_batch_equals_stacked_sequences(self):
        model = small_model()
        rng = np.random.default_rng(11)
        enc = rng.normal(size=(3, 5, 32))
        masks = rng.normal(size=(3, 4, 32))
        centers = rng.normal(size=(3, 9, 3))
        batched = model.decode(Tensor(enc), Tensor(masks), centers).data
        singles = [model.decode(Tensor(enc[i]), Tensor(masks[i]), centers[i]).data
                   for i in range(3)]
        assert batched.shape == (3, 4, 32)
        assert batched.tobytes() == np.stack(singles).tobytes()

    def test_batch_center_count_mismatch(self):
        model = small_model()
        with pytest.raises(ValueError, match=r"^decode: 8 centers for 5\+4 tokens$"):
            model.decode(Tensor(np.zeros((3, 5, 32))), Tensor(np.zeros((3, 4, 32))),
                         np.zeros((3, 8, 3)))

    @pytest.mark.parametrize("placement, calls", [("decoder", 1), ("encoder", 0)])
    def test_training_pass_decodes_through_decode(self, placement, calls, monkeypatch):
        model = small_model(placement)
        seen, decode = [], model.decode

        def recording_decode(encoded, *rest):
            seen.append(encoded.shape)
            return decode(encoded, *rest)

        monkeypatch.setattr(model, "decode", recording_decode)
        model.pretrain_forward_batch([cloud_for(15), cloud_for(16)], 16, 0.6, [1, 2])
        assert seen == [(2, 6, 32)] * calls


class TestPredict:
    def test_zero_head_predicts_centers(self):
        model = small_model()
        model.head_w.data = np.zeros_like(model.head_w.data)
        model.head_b.data = np.zeros_like(model.head_b.data)
        out = model.predict(Tensor(np.random.default_rng(9).normal(size=(4, 32))))
        assert np.array_equal(out.data, np.zeros((4, 8, 3)))

    def test_reshape_roundtrip(self):
        x = np.random.default_rng(10).normal(size=(4, 8, 3))
        assert np.array_equal(ad.reshape(ad.reshape(Tensor(x), (4, 24)),
                                         (4, 8, 3)).data, x)


class TestPretrainForward:
    def test_loss_floor_and_positivity(self):
        model = small_model()
        loss, diag = model.pretrain_forward(cloud_for(11), 16, 0.6, seed=21)
        assert float(loss.data) > 0.0
        assert diag["visible_count"] == 6 and diag["masked_count"] == 10

    def test_zero_ratio_gives_zero_loss(self):
        model = small_model()
        loss, diag = model.pretrain_forward(cloud_for(12), 16, 0.0, seed=22)
        assert float(loss.data) == 0.0
        assert diag["masked_count"] == 0

    def test_gradient_reaches_every_parameter_decoder_mode(self):
        model = small_model()
        loss, _ = model.pretrain_forward(cloud_for(13), 16, 0.6, seed=23)
        backward(loss)
        for name, g in model.store.gradients().items():
            assert np.any(g != 0.0), f"no gradient reached {name}"

    def test_encoder_mode_leaves_decoder_untouched(self):
        model = small_model("encoder")
        loss, _ = model.pretrain_forward(cloud_for(14), 16, 0.6, seed=24)
        backward(loss)
        for name, g in model.store.gradients().items():
            if name.startswith(("decoder.", "pe_dec.")):
                assert np.array_equal(g, np.zeros_like(g)), name
            elif name == "mask_token" or name.startswith(("encoder.", "head.", "embed.", "pe_enc.")):
                assert np.any(g != 0.0), f"no gradient reached {name}"

    def test_batch_path_matches_sequential(self):
        model = small_model(seed=5)
        clouds = [cloud_for(s) for s in (31, 32, 33)]
        seeds = [41, 42, 43]
        singles = [float(model.pretrain_forward(c, 16, 0.6, seed=s)[0].data)
                   for c, s in zip(clouds, seeds)]
        batched, info = model.pretrain_forward_batch(clouds, 16, 0.6, seeds=seeds)
        assert float(batched.data) == pytest.approx(np.mean(singles), abs=1e-12)
        assert info["masked_count"] == 10

    @pytest.mark.parametrize("placement", ["decoder", "encoder"])
    def test_single_instance_equals_batch_of_one(self, placement):
        model = small_model(placement, seed=6)
        cloud = cloud_for(34)
        loss, diag = model.pretrain_forward(cloud, 16, 0.6, seed=44)
        b_loss, batch = model.pretrain_forward_batch([cloud], 16, 0.6, seeds=[44])
        assert loss.data.tobytes() == b_loss.data.tobytes()
        assert diag.keys() == batch.keys()
        for key in diag:
            assert as_bytes(diag[key]) == as_bytes(batch[key]), key

    @pytest.mark.parametrize("placement", ["decoder", "encoder"])
    def test_single_instance_equals_composed_pieces(self, placement):
        # embed -> encode -> (decode) -> predict -> chamfer, one sequence at a time
        model = small_model(placement, seed=7)
        cloud = cloud_for(35)
        loss, diag = model.pretrain_forward(cloud, 16, 0.6, seed=45)
        (vis, vis_c), (gt, gt_c) = split_patches(diag["patchsets"][0], diag["masks"][0])
        v, mn = len(vis), len(gt)
        tokens = model.embedder(Tensor(vis))
        centers = np.concatenate([vis_c, gt_c])
        if placement == "decoder":
            enc = model.encode(TokenSequence(tokens, vis_c, ("visible",) * v))
            h_m = model.decode(enc.tokens, model.mask_token.expand(mn), centers)
        else:
            seq = TokenSequence(ad.concat([tokens, model.mask_token.expand(mn)]),
                                centers, ("visible",) * v + ("mask",) * mn)
            h_m = ad.gather(model.encode(seq).tokens, np.arange(v, v + mn))
        predicted = model.predict(h_m)
        assert np.array_equal(predicted.data, diag["predicted"][0])
        assert np.array_equal(batch_chamfer(predicted, gt).data, loss.data)

    def test_single_instance_overfit_loss_decreases(self):
        from cloudmae.params import AdamW
        from cloudmae.autodiff import backward

        model = small_model(seed=17)
        opt = AdamW(model.store, lr=2e-4, weight_decay=0.0)
        cloud = cloud_for(99)
        losses = []
        for _ in range(200):
            model.store.zero_grad()
            loss, _ = model.pretrain_forward(cloud, 16, 0.6, seed=300)
            backward(loss)
            opt.step()
            losses.append(float(loss.data))
        drops = sum(b < a for a, b in zip(losses, losses[1:]))
        assert drops / (len(losses) - 1) >= 0.95
        assert losses[-1] < 0.5 * losses[0]


class TestTrainFlag:
    """``train=False`` runs the same ops tape-free; ``train=True`` records."""

    @staticmethod
    def assert_tape_free(t):
        assert t._vjp is None and t._parents == () and not t.requires_grad

    @pytest.mark.parametrize("placement", ["decoder", "encoder"])
    def test_pretrain_forward_outputs_bit_identical(self, placement):
        model = small_model(placement, seed=8)
        clouds, seeds = [cloud_for(36), cloud_for(37)], [46, 47]
        loss_t, diag_t = model.pretrain_forward_batch(clouds, 16, 0.6, seeds, train=True)
        loss_e, diag_e = model.pretrain_forward_batch(clouds, 16, 0.6, seeds, train=False)
        assert loss_t.requires_grad
        self.assert_tape_free(loss_e)
        assert loss_e.data.tobytes() == loss_t.data.tobytes()
        assert diag_e["predicted"].tobytes() == diag_t["predicted"].tobytes()
        with pytest.raises(GraphError):
            backward(loss_e)
        single, _ = model.pretrain_forward(clouds[0], 16, 0.6, seed=46, train=False)
        self.assert_tape_free(single)

    @pytest.mark.parametrize("placement", ["decoder", "encoder"])
    def test_logits_bit_identical(self, placement):
        cfg = BackboneConfig(dim=32, encoder_depth=2, decoder_depth=1, heads=4,
                             embed_widths=(16, 32, 64), mask_token_placement=placement)
        clf = PointCloudClassifier(cfg, patch_size=8, n_patches=16, n_classes=3, seed=5)
        clouds, seeds = [cloud_for(38), cloud_for(39)], [9, 10]
        recorded = clf.logits_batch(clouds, seeds, train=True)
        free = clf.logits_batch(clouds, seeds)
        assert recorded.requires_grad
        self.assert_tape_free(free)
        self.assert_tape_free(clf.logits(clouds[0], seeds[0]))
        assert free.data.tobytes() == recorded.data.tobytes()
        with pytest.raises(GraphError):
            backward(cross_entropy_batch(free, [0, 1]))
        backward(cross_entropy_batch(recorded, [0, 1]))
        assert clf.store["cls_head.lin2.w"].grad is not None


class TestClassifier:
    def test_feature_and_logit_shapes(self):
        clf = PointCloudClassifier(SMALL, patch_size=8, n_patches=16,
                                   n_classes=6, seed=1)
        f = clf.features(cloud_for(15), seed=3)
        assert f.shape == (1, 64)
        logits = clf.logits(cloud_for(15), seed=3)
        assert logits.shape == (1, 6)

    def test_batched_logits_match_single(self):
        clf = PointCloudClassifier(SMALL, patch_size=8, n_patches=16,
                                   n_classes=4, seed=2)
        clouds = [cloud_for(16), cloud_for(17)]
        batched = clf.logits_batch(clouds, seeds=[5, 6]).data
        for i, c in enumerate(clouds):
            single = clf.logits(c, seed=[5, 6][i]).data[0]
            assert np.allclose(batched[i], single, atol=1e-10)

    @pytest.mark.parametrize("placement", ["decoder", "encoder"])
    def test_single_instance_equals_batch_of_one(self, placement):
        cfg = BackboneConfig(dim=32, encoder_depth=2, decoder_depth=1, heads=4,
                             embed_widths=(16, 32, 64), mask_token_placement=placement)
        clf = PointCloudClassifier(cfg, patch_size=8, n_patches=16, n_classes=3, seed=4)
        clouds = [cloud_for(18), cloud_for(19)]
        for cloud, seed in zip(clouds, (7, 8)):
            assert np.array_equal(clf.features(cloud, seed).data,
                                  clf.features_batch([cloud], [seed]).data)
            assert np.array_equal(clf.logits(cloud, seed).data,
                                  clf.logits_batch([cloud], [seed]).data)

    def test_load_backbone_ignores_decoder_params(self):
        pretrain_model = small_model(seed=7)
        clf = PointCloudClassifier(SMALL, patch_size=8, n_patches=16,
                                   n_classes=3, seed=8)
        clf.load_backbone(pretrain_model.store.state_arrays())
        assert np.array_equal(clf.store["encoder.block0.attn.q.w"].data,
                              pretrain_model.store["encoder.block0.attn.q.w"].data)

    def test_load_backbone_missing_params_rejected(self):
        clf = PointCloudClassifier(SMALL, patch_size=8, n_patches=16,
                                   n_classes=3, seed=9)
        with pytest.raises(ValueError, match="missing parameter 'embed.stage1.lin1.b'"):
            clf.load_backbone({"embed.stage1.lin1.w": np.zeros((3, 16))})



def layout_digest(store):
    """SHA-256 over parameter names, shapes and initial bytes, in registration order."""
    digest = hashlib.sha256()
    for name, value in store.state_arrays().items():
        digest.update(f"{name}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
    return digest.hexdigest()


class TestParameterLayout:
    # checkpoints name their arrays and models draw their initial values in
    # registration order, so a refactor that renames, reorders or reshapes a
    # parameter, or draws one differently, changes these digests
    @pytest.mark.parametrize("placement", ["decoder", "encoder"])
    def test_autoencoder_layout_pinned(self, placement):
        assert layout_digest(small_model(placement).store) == (
            "5a777505d64ccfbdbb681e976f5474a5508810872f4ee0b8b1cd8ce39b4ea55f")

    def test_classifier_layout_pinned(self):
        clf = PointCloudClassifier(SMALL, patch_size=8, n_patches=8, n_classes=3, seed=0)
        assert layout_digest(clf.store) == (
            "a63bcbe7ec7ba34b7d3bb574c1f4512f27b705d4a4f42119caf5af29d4686209")

class TestCrossEntropy:
    def test_single_class_is_zero_loss(self):
        assert float(cross_entropy_batch(Tensor([[3.0]]), [0]).data) == pytest.approx(0.0)

    def test_uniform_logits(self):
        loss = cross_entropy_batch(Tensor([[0.0, 0.0, 0.0, 0.0]]), [2])
        assert float(loss.data) == pytest.approx(np.log(4))

    def test_batch_mean(self):
        logits = Tensor([[2.0, 0.0], [0.0, 2.0]])
        a = float(cross_entropy_batch(logits, [0, 1]).data)
        b = float(cross_entropy_batch(Tensor([[2.0, 0.0]]), [0]).data)
        assert a == pytest.approx(b)

    def test_gradient(self):
        rng = np.random.default_rng(19)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        err = gradient_check(lambda t: cross_entropy_batch(t, [1, 4, 0]), [logits])
        assert err < 1e-4
