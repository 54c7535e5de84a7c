import numpy as np
import pytest

from cloudmae import autodiff as ad
from cloudmae.autodiff import Tensor, backward
from cloudmae.embed import CHUNK_ROWS, MaskToken, PatchEmbedder, PositionalMLP
from cloudmae.params import ParamStore


@pytest.fixture
def store():
    return ParamStore(11)


def test_permutation_invariance(store):
    embed = PatchEmbedder(store, dim=32, widths=(16, 32, 64))
    rng = np.random.default_rng(0)
    for _ in range(50):
        patch = rng.normal(size=(1, 12, 3))
        shuffled = patch[:, rng.permutation(12), :]
        a = embed(Tensor(patch)).data
        b = embed(Tensor(shuffled)).data
        assert np.array_equal(a, b)


def test_identical_points_match_single_point_patch(store):
    embed = PatchEmbedder(store, dim=16, widths=(8, 16, 32))
    point = np.random.default_rng(1).normal(size=(1, 1, 3))
    repeated = np.repeat(point, 9, axis=1)
    # different row counts can take different BLAS kernels; agreement is to
    # the last ulp, not bit-exact
    diff = np.abs(embed(Tensor(point)).data - embed(Tensor(repeated)).data)
    assert diff.max() < 1e-15


def test_output_shape_at_full_width(store):
    embed = PatchEmbedder(store, dim=384)
    out = embed(Tensor(np.random.default_rng(2).normal(size=(26, 32, 3))))
    assert out.shape == (26, 384)


def test_non_finite_patch_rejected(store):
    embed = PatchEmbedder(store, dim=8, widths=(4, 8, 16))
    bad = np.zeros((1, 4, 3))
    bad[0, 0, 0] = np.inf
    with pytest.raises(Exception):
        embed(Tensor(bad))


def concat_form(embed, patches):
    """The embedder as written in the paper: the pooled feature tiled and concatenated."""
    x = Tensor(patches)
    v, k, _ = x.shape
    w2 = embed.local_dim
    h = ad.gelu(ad.linear(ad.reshape(x, (v * k, 3)), embed.stage1.w1, embed.stage1.b1))
    h = ad.reshape(ad.linear(h, embed.stage1.w2, embed.stage1.b2), (v, k, w2))
    tiled = ad.broadcast_to(ad.reshape(ad.reduce_max(h, axis=1), (v, 1, w2)), (v, k, w2))
    h = ad.gelu(ad.linear(ad.concat([tiled, h], axis=2), embed.stage2.w1, embed.stage2.b1))
    return ad.reduce_max(ad.linear(h, embed.stage2.w2, embed.stage2.b2), axis=1)


def test_split_stage2_matches_concat_form(store):
    embed = PatchEmbedder(store, dim=32, widths=(16, 32, 64))
    rng = np.random.default_rng(4)
    for t in store.tensors():  # non-zero biases, so where b3 is added matters
        t.data = t.data + rng.normal(0.0, 0.02, size=t.data.shape)
    patches = rng.normal(size=(6, 10, 3))
    proj = rng.normal(size=(6, 32))
    results = []
    for fn in (embed, lambda p: concat_form(embed, p)):
        store.zero_grad()
        out = fn(patches)
        backward(ad.reduce_sum(out * proj))
        results.append([out.data] + [t.grad for t in store.tensors()])
    for split, concat in zip(*results):
        assert np.abs(split - concat).max() <= 1e-12 * np.abs(concat).max()


def tiny_embedder(store):
    """A tiny embedder, its biases non-zero, and its chunk in patches of 8 points."""
    embed = PatchEmbedder(store, dim=24, widths=(8, 16, 32))
    rng = np.random.default_rng(5)
    for t in store.tensors():
        t.data = t.data + rng.normal(0.0, 0.02, size=t.data.shape)
    return embed, CHUNK_ROWS // 8


@pytest.mark.parametrize("patches, chunks", [(320, 3), (257, 2), (130, 2)])
def test_forward_only_chunks_match_one_pass(store, monkeypatch, patches, chunks):
    # 2.5 chunks end on a short chunk; one patch past two chunks joins the
    # second, since numpy's one-row product rounds differently from a GEMM
    embed, step = tiny_embedder(store)
    assert step == 128
    x = np.random.default_rng(6).normal(size=(patches, 8, 3))
    calls = []

    def counted(t):
        calls.append(t.shape[0])
        return PatchEmbedder._embed(embed, t)

    with ad.no_grad():
        one_pass = embed._embed(Tensor(x))
        monkeypatch.setattr(embed, "_embed", counted)
        chunked = embed(x)
    assert len(calls) == chunks and min(calls) > 1 and sum(calls) == patches
    assert chunked.data.tobytes() == one_pass.data.tobytes()


def test_taped_pass_is_one_pass(store):
    embed, step = tiny_embedder(store)
    patches = np.random.default_rng(7).normal(size=(5 * step // 2, 8, 3))
    proj = np.random.default_rng(8).normal(size=(patches.shape[0], 24))
    runs = []
    for fn in (embed, lambda p: embed._embed(Tensor(p))):
        store.zero_grad()
        out = fn(patches)
        ops = [node._op for node in ad._topo_order(out)]
        backward(ad.reduce_sum(out * proj))
        runs.append((ops, out.data.tobytes(), [t.grad.tobytes() for t in store.tensors()]))
    assert runs[0][0][-1] == "reduce_max" and "concat" not in runs[0][0]
    assert runs[0] == runs[1]


class TestPositionalMLP:
    def test_same_center_same_embedding(self, store):
        pe = PositionalMLP(store, dim=24, prefix="pe")
        centers = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])
        out = pe(Tensor(centers)).data
        assert np.array_equal(out[0], out[1])

    def test_encoder_and_decoder_differ(self, store):
        pe_enc = PositionalMLP(store, dim=24, prefix="pe_enc")
        pe_dec = PositionalMLP(store, dim=24, prefix="pe_dec")
        c = Tensor(np.array([[0.5, -0.5, 0.25]]))
        assert not np.allclose(pe_enc(c).data, pe_dec(c).data)

    def test_shape(self, store):
        pe = PositionalMLP(store, dim=384, prefix="p")
        out = pe(Tensor(np.random.default_rng(3).normal(size=(64, 3))))
        assert out.shape == (64, 384)


class TestMaskToken:
    def test_empty_expansion(self, store):
        token = MaskToken(store, dim=16)
        assert token.expand(0).shape == (0, 16)

    def test_rows_identical(self, store):
        token = MaskToken(store, dim=16)
        out = token.expand(5).data
        assert all(np.array_equal(out[i], out[0]) for i in range(5))

    def test_gradient_accumulates_over_positions(self, store):
        token = MaskToken(store, dim=8)
        mn = 7
        backward(ad.reduce_sum(token.expand(mn)))
        assert np.array_equal(token.param.grad, np.full(8, float(mn)))
