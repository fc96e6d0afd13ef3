"""Modules that hand each op its operands in the shape they already hold.

The pooled token mixer feeds its (C,) summary to `linear` as one row, the
attention moves K's token axis last in one step, the modality summarizer
flattens its volume once, and the Dice loss sums over the leading axes.
Each must give exactly (np.array_equal, dtypes included) the output and
every gradient of the form that reshaped or transposed around the op, for
any op worker count.
"""

import numpy as np
import pytest
from test_row_split import set_workers  # noqa: F401 (a fixture)
from test_tensor import assert_same_numbers, value_and_grads

from mmvseg import autodiff as ad
from mmvseg.autodiff import Tape, Tensor
from mmvseg.encoder import GlobalPoolBlock
from mmvseg.fusion import AttentionConfig, MultiHeadAttention, TokenSummarizer
from mmvseg.training import soft_dice_loss

DTYPES = (np.float32, np.float64)
WORKERS = (1, 2, 3)


def draw(rng, shape, dtype, scale=1.0):
    return Tensor((scale * rng.standard_normal(shape)).astype(dtype), requires_grad=True)


# -- linear on a (C,) vector -----------------------------------------------------

@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("c, cout", [(1, 3), (5, 1), (128, 128)])
@pytest.mark.parametrize("dtype", DTYPES)
def test_linear_on_a_vector_is_the_one_row_call(dtype, c, cout, bias):
    rng = np.random.default_rng(0)
    x, w = draw(rng, (c,), dtype), draw(rng, (c, cout), dtype)
    b = [draw(rng, (cout,), dtype)] if bias else []
    leaves = [x, w, *b]
    want = value_and_grads(lambda: ad.reshape(ad.linear(ad.reshape(x, (1, c)), w, *b), (cout,)), leaves)
    got = value_and_grads(lambda: ad.linear(x, w, *b), leaves)
    assert got[0].shape == (cout,)
    assert_same_numbers(got, want)


# -- the pooled block: global_pool -> linear -> feed_forward's shift -------------

def old_pooled_block(block, x):
    c = x.shape[-1]
    pooled = ad.global_pool(x, block.norm1.gamma, block.norm1.beta)
    summary = block.pool_proj(ad.reshape(pooled, (1, c)))
    return block.mlp.residual(x, block.norm2, shift=ad.reshape(summary, (c,)))


# the larger volume splits feed_forward's GEMMs and global_pool's chunks
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("shape", [(3, 4, 5, 6), (16, 16, 17, 32)], ids=["small", "split"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_pooled_block_matches_the_reshaped_summary(set_workers, dtype, shape, workers):
    set_workers(workers)
    block = GlobalPoolBlock(shape[-1], 4, np.random.default_rng(1), dtype)
    for p in block.params():  # nonzero biases and norms, so every term counts
        p.data[:] = np.random.default_rng(p.size).standard_normal(p.shape)
    x = draw(np.random.default_rng(2), shape, dtype, 3.0)
    leaves = [x] + block.params()
    assert_same_numbers(value_and_grads(lambda: block(x), leaves),
                        value_and_grads(lambda: old_pooled_block(block, x), leaves))


# -- attention: K's token axis moved last in one step ----------------------------

def old_attention(attn, q_in, kv_in, bias=None):
    """MultiHeadAttention with heads moved forward on K too, then K's last
    two axes swapped for the scores."""
    def split(z):
        return ad.moveaxis(ad.reshape(z, z.shape[:-1] + (attn.heads, attn.dh)), -2, -3)

    q, k, v = split(attn.q(q_in)), split(attn.k(kv_in)), split(attn.v(kv_in))
    scores = ad.matmul(q, ad.moveaxis(k, -1, -2)) * (1.0 / np.sqrt(attn.dh))
    if bias is not None:
        scores = ad.add(scores, bias)
    ctx = ad.moveaxis(ad.matmul(ad.softmax_last(scores), v), -3, -2)
    return attn.out(ad.reshape(ctx, ctx.shape[:-2] + (attn.heads * attn.dh,)))


# (query shape, key/value shape, heads, with a (heads, T, S) bias); the
# window case splits the projections' GEMMs, as the 3D windows do
ATTENTION_CASES = {
    "tiles": ((4, 3, 8), (4, 3, 8), 2, False),
    "windows": ((64, 8, 128), (64, 8, 128), 8, True),
    "cross": ((512, 128), (64, 128), 8, False),
}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("case", list(ATTENTION_CASES))
@pytest.mark.parametrize("dtype", DTYPES)
def test_attention_matches_the_double_transpose(set_workers, dtype, case, workers):
    set_workers(workers)
    q_shape, kv_shape, heads, with_bias = ATTENTION_CASES[case]
    c = q_shape[-1]
    cfg = AttentionConfig(heads=heads, dim=c, window=(1, 1, 1), qkv_dim=c, ffn_ratio=1)
    attn = MultiHeadAttention(cfg, np.random.default_rng(3), dtype)
    rng = np.random.default_rng(4)
    q_in, kv_in = draw(rng, q_shape, dtype), draw(rng, kv_shape, dtype)
    bias = [draw(rng, (heads, q_shape[-2], kv_shape[-2]), dtype)] if with_bias else []
    leaves = [q_in, kv_in, *bias] + attn.params()
    assert_same_numbers(value_and_grads(lambda: attn(q_in, kv_in, *bias), leaves),
                        value_and_grads(lambda: old_attention(attn, q_in, kv_in, *bias), leaves))


def test_self_attention_moves_k_once():
    cfg = AttentionConfig(heads=2, dim=8, window=(1, 1, 1), qkv_dim=8, ffn_ratio=1)
    attn = MultiHeadAttention(cfg, np.random.default_rng(5), np.float64)
    x = draw(np.random.default_rng(6), (4, 3, 8), np.float64)
    with Tape() as tape:
        attn(x, x)
    ops = [n.op for n in tape.nodes]
    # q, k and v each one reshape and one moveaxis; the context one of each
    assert ops.count("moveaxis") == 4 and ops.count("reshape") == 4
    k_node = next(n for n in tape.nodes if n.op == "moveaxis" and n.output.shape == (4, 2, 4, 3))
    assert k_node.output.data.flags.c_contiguous


# -- the summarizer: one flattened volume for the scores and the average ---------

def old_summarizer(summ, feat):
    d, w, h, c = feat.shape
    n, p = d * w * h, summ.score.fc2.w.shape[1]
    logits = ad.moveaxis(ad.reshape(summ.score(feat), (n, p)), 0, 1)
    return ad.matmul(ad.softmax_last(logits), ad.reshape(feat, (n, c)))


# the larger volume splits the score MLP's GEMMs
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("shape, p", [((2, 3, 4, 6), 3), ((8, 8, 8, 128), 32)], ids=["small", "split"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_summarizer_matches_the_reshaped_scores(set_workers, dtype, shape, p, workers):
    set_workers(workers)
    summ = TokenSummarizer(shape[-1], p, np.random.default_rng(7), dtype)
    feat = draw(np.random.default_rng(8), shape, dtype)
    leaves = [feat] + summ.params()
    # the fusion's token embedding reads the volume before the summarizer
    # does, so its gradient joins the summarizer's last, as here
    def summaries(summarize):
        return lambda: ad.add(ad.tmean(feat, axis=(0, 1, 2)), summarize(feat))

    assert_same_numbers(value_and_grads(summaries(summ), leaves),
                        value_and_grads(summaries(lambda f: old_summarizer(summ, f)), leaves))


# -- the Dice loss: sums over the leading axes -----------------------------------

def old_soft_dice_loss(logits, target, smooth=1e-5):
    n_classes = logits.shape[-1]
    onehot = Tensor(np.eye(n_classes, dtype=logits.dtype)[target])
    flat_p = ad.reshape(ad.softmax_last(logits), (-1, n_classes))
    flat_g = ad.reshape(onehot, (-1, n_classes))
    inter = ad.tsum(ad.mul(flat_p, flat_g), axis=0)
    sums = ad.add(ad.tsum(flat_p, axis=0), ad.tsum(flat_g, axis=0))
    return 1.0 - ad.tmean(ad.div(2.0 * inter + smooth, sums + smooth))


# the default model's 32^3 logits, whose elementwise ops split, and odd extents
DICE_SHAPES = [(1, 1, 1, 2), (3, 5, 7, 3), (32, 32, 32, 3), (32, 32, 32, 4), (16, 16, 17, 4)]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("shape", DICE_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("dtype", DTYPES)
def test_dice_loss_matches_the_flattened_sums(set_workers, dtype, shape, workers):
    set_workers(workers)
    rng = np.random.default_rng(9)
    logits = draw(rng, shape, dtype, 2.0)
    target = rng.integers(0, shape[-1], size=shape[:-1])
    assert_same_numbers(value_and_grads(lambda: soft_dice_loss(logits, target), [logits]),
                        value_and_grads(lambda: old_soft_dice_loss(logits, target), [logits]))


@pytest.mark.parametrize("shape", DICE_SHAPES + [(64, 64, 64, 4), (128, 8, 8, 5)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("dtype", DTYPES)
def test_numpy_sums_leading_axes_as_one_flattened_axis(dtype, shape):
    a = np.random.default_rng(10).random(shape).astype(dtype)
    assert np.array_equal(a.sum(axis=(0, 1, 2)), a.reshape(-1, shape[-1]).sum(axis=0))
