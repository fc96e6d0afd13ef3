"""Ops that read a value from arrays the tape keeps anyway.

`global_pool(x, gamma, beta)`, `feed_forward(..., shift)` and `conv3d(x, k,
b, skip)` each replace a chain whose middle array (the normalized volume,
x + shift, the channel concatenation) only fed the next op.  Each must give
exactly (np.array_equal, dtypes included) the chain's output and every
gradient, for any op worker count, and its node must hold no such array.
"""

import numpy as np
import pytest
from test_feed_forward import SHAPES as FF_SHAPES
from test_feed_forward import ff_params
from test_row_split import set_workers  # noqa: F401 (a fixture)
from test_tensor import assert_same_numbers, value_and_grads

from mmvseg import autodiff as ad
from mmvseg.autodiff import Tape, Tensor
from mmvseg.decoder import Decoder, DecoderConfig
from mmvseg.encoder import GlobalPoolBlock
from mmvseg.errors import ShapeError
from mmvseg.model import Model, ModelConfig
from mmvseg.training import cross_entropy_loss, soft_dice_loss

DTYPES = (np.float32, np.float64)
WORKERS = (1, 2, 3)


def draw(rng, shape, dtype, scale=1.0):
    return Tensor((scale * rng.standard_normal(shape)).astype(dtype), requires_grad=True)


# -- global_pool: layer_norm -> tmean -----------------------------------------

# volumes below and above _SPLIT_MIN elements, and above _CHUNK_ROWS rows
POOL_SHAPES = {
    "one-voxel": (1, 1, 1, 4),
    "small": (3, 4, 5, 3),
    "one-channel": (17, 16, 16, 1),
    "split-chunked": (16, 16, 17, 32),
}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("shape", list(POOL_SHAPES))
@pytest.mark.parametrize("dtype", DTYPES)
def test_global_pool_matches_layer_norm_then_mean(set_workers, dtype, shape, workers):
    set_workers(workers)
    rng = np.random.default_rng(1)
    x, c = draw(rng, POOL_SHAPES[shape], dtype, 3.0), POOL_SHAPES[shape][-1]
    gamma, beta = draw(rng, (c,), dtype), draw(rng, (c,), dtype)
    leaves = [x, gamma, beta]
    want = value_and_grads(lambda: ad.tmean(ad.layer_norm(x, gamma, beta), axis=(0, 1, 2)), leaves)
    assert_same_numbers(value_and_grads(lambda: ad.global_pool(x, gamma, beta), leaves), want)
    assert np.array_equal(ad.global_pool(x, gamma, beta).data, want[0])


def test_global_pool_bad_shapes():
    x, gamma = Tensor(np.ones((2, 2, 2, 3))), Tensor(np.ones(3))
    for args in ((Tensor(np.ones((2, 2, 3))), gamma, gamma), (x, Tensor(np.ones(4)), gamma),
                 (x, gamma, Tensor(np.ones((1, 3))))):
        with pytest.raises(ShapeError):
            ad.global_pool(*args)


# -- feed_forward's shift: add -> feed_forward --------------------------------

@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("shape", list(FF_SHAPES))
@pytest.mark.parametrize("dtype", DTYPES)
def test_shift_matches_add_then_feed_forward(set_workers, dtype, shape, workers):
    set_workers(workers)
    params = ff_params(*FF_SHAPES[shape], dtype)
    shift = draw(np.random.default_rng(2), params[0].shape[-1:], dtype)
    leaves = params + [shift]
    want = value_and_grads(lambda: ad.feed_forward(ad.add(params[0], shift), *params[1:]), leaves)
    got = value_and_grads(lambda: ad.feed_forward(*params, shift), leaves)
    assert_same_numbers(got, want)
    assert np.array_equal(ad.feed_forward(*params, shift).data, want[0])


def test_shift_gradient_joins_a_later_use_of_x_in_the_chains_order():
    # x also feeds a later op, whose gradient reaches x first
    params = ff_params((5, 3, 4), 8, np.float32, seed=3)
    x, shift = params[0], draw(np.random.default_rng(4), (4,), np.float32)
    leaves = params + [shift]
    want = value_and_grads(lambda: ad.mul(ad.feed_forward(ad.add(x, shift), *params[1:]), x), leaves)
    assert_same_numbers(value_and_grads(lambda: ad.mul(ad.feed_forward(*params, shift), x), leaves), want)


@pytest.mark.parametrize("shift_shape", [(5,), (1, 4), ()])
def test_shift_bad_shapes(shift_shape):
    params = ff_params((3, 4), 8, np.float64, requires_grad=False)
    with pytest.raises(ShapeError):
        ad.feed_forward(*params, Tensor(np.ones(shift_shape)))


# -- conv3d's skip: concat -> conv3d ------------------------------------------

# (extents, x channels, skip channels, Cout, kernel extents); the largest
# splits its forward GEMMs and its kernel-gradient chunks over the workers
CONV_CASES = {
    "one-voxel": ((1, 1, 1), 1, 2, 3, (3, 3, 3)),
    "small": ((3, 4, 5), 2, 3, 2, (3, 3, 3)),
    "anisotropic": ((4, 5, 3), 3, 1, 2, (3, 1, 5)),
    "decoder-split": ((16, 16, 16), 32, 16, 32, (3, 3, 3)),
}


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("case", list(CONV_CASES))
@pytest.mark.parametrize("dtype", DTYPES)
def test_skip_matches_concat_then_conv3d(set_workers, dtype, case, workers, bias):
    set_workers(workers)
    extents, cx, cs, cout, ksize = CONV_CASES[case]
    rng = np.random.default_rng(5)
    x, skip = draw(rng, extents + (cx,), dtype), draw(rng, extents + (cs,), dtype)
    k = draw(rng, ksize + (cx + cs, cout), dtype, 0.2)
    b = [draw(rng, (cout,), dtype)] if bias else []
    leaves = [x, skip, k, *b]
    want = value_and_grads(lambda: ad.conv3d(ad.concat([x, skip], axis=3), k, *b), leaves)
    got = value_and_grads(lambda: ad.conv3d(x, k, b[0] if b else None, skip), leaves)
    assert_same_numbers(got, want)
    assert np.array_equal(ad.conv3d(x, k, b[0] if b else None, skip).data, want[0])


def test_skip_of_another_dtype_promotes_as_concat_does():
    rng = np.random.default_rng(6)
    x, skip = draw(rng, (4, 4, 4, 2), np.float32), draw(rng, (4, 4, 4, 3), np.float64)
    k, b = draw(rng, (3, 3, 3, 5, 2), np.float32), draw(rng, (2,), np.float32)
    leaves = [x, skip, k, b]
    want = value_and_grads(lambda: ad.conv3d(ad.concat([x, skip], axis=3), k, b), leaves)
    assert_same_numbers(value_and_grads(lambda: ad.conv3d(x, k, b, skip), leaves), want)


def test_skip_node_lists_x_and_kernel_first():
    rng = np.random.default_rng(7)
    x, skip = draw(rng, (2, 2, 2, 1), np.float64), draw(rng, (2, 2, 2, 2), np.float64)
    k, b = draw(rng, (3, 3, 3, 3, 2), np.float64), draw(rng, (2,), np.float64)
    with Tape() as tape:
        ad.conv3d(x, k, b, skip)
        ad.conv3d(x, k, skip=skip)
    assert [n.inputs for n in tape.nodes] == [(x, k, b, skip), (x, k, skip)]


@pytest.mark.parametrize("bad", ["extents", "channels", "rank"])
def test_skip_bad_shapes(bad):
    x, k = Tensor(np.ones((4, 4, 4, 2))), Tensor(np.ones((3, 3, 3, 5, 1)))
    skip = {"extents": np.ones((4, 4, 2, 3)), "channels": np.ones((4, 4, 4, 2)), "rank": np.ones((4, 4, 3))}[bad]
    with pytest.raises(ShapeError):
        ad.conv3d(x, k, None, Tensor(skip))


# -- what the tape holds --------------------------------------------------------

def held_arrays(node):
    """The arrays a node keeps for its backward: its inputs' data and every
    array its backward closure reaches, through tuples, lists, Tensors and
    nested closures."""
    found, seen = [], set()

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, Tensor):
            visit(obj.data)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)
        elif callable(obj):
            for cell in getattr(obj, "__closure__", None) or ():
                visit(cell.cell_contents)

    for t in node.inputs:
        visit(t)
    visit(node.backward)
    return found


def full_size(tape, rows, channels):
    """The distinct (rows, channels)-sized arrays the tape's nodes keep, by
    the memory they view."""
    arrays = [a for node in tape.nodes for a in held_arrays(node)
              if a.size == rows * channels and a.shape[-1] == channels]
    distinct = []
    for a in arrays:
        if not any(np.shares_memory(a, b) for b in distinct):
            distinct.append(a)
    return distinct


def closure_vars(fn):
    return dict(zip(fn.__code__.co_freevars, (cell.cell_contents for cell in fn.__closure__)))


def test_pooled_block_keeps_only_its_input_and_output():
    # mlp_ratio 1, so a kept gelu cdf would have the block's width too
    c, shape = 6, (4, 4, 4, 6)
    block = GlobalPoolBlock(c, 1, np.random.default_rng(8), np.float64)
    x = Tensor(np.random.default_rng(9).normal(size=shape), requires_grad=True)
    with Tape() as tape:
        out = block(x)
    assert [n.op for n in tape.nodes] == ["global_pool", "linear", "feed_forward"]
    # feed_forward keeps two floats a row: each row's mean and inv
    assert [a.shape for a in closure_vars(tape.nodes[-1].backward)["state"]] == [(64, 1), (64, 1)]
    kept = full_size(tape, 64, c)
    # neither layer_norm(x), x + summary nor gelu's cdf is kept
    assert len(kept) == 2
    for want in (x.data, out.data):
        assert sum(np.shares_memory(a, want) for a in kept) == 1


def test_default_training_tape_holds_under_80_mb():
    """The distinct arrays, parameters aside, that the tape of one default
    32^3 2-modality forward and both losses keeps: 68 MB, where a tape whose
    feed_forward and gelu nodes kept gelu's cdf held 162 MB."""
    model = Model(ModelConfig(modalities=2, input_shape=(32, 32, 32)))
    rng = np.random.default_rng(0)
    volume = rng.normal(size=(32, 32, 32, 2)).astype(np.float32)
    target = rng.integers(0, 4, size=(32, 32, 32))
    with Tape() as tape:
        logits = model(volume)
        ad.add(soft_dice_loss(logits, target), cross_entropy_loss(logits, target))
    params = [p.data for p in model.params()]
    held = {}
    for a in (a for node in tape.nodes for a in held_arrays(node)):
        while isinstance(a.base, np.ndarray):
            a = a.base
        if not any(np.shares_memory(a, p) for p in params):
            held[id(a)] = a
    assert sum(a.nbytes for a in held.values()) < 80e6


def test_decoder_level_keeps_no_concatenation():
    # one level above an 2^3 bottleneck of 3 channels, with a 2-channel skip
    dec = Decoder(3, 1, (2, 1, 1, 1), DecoderConfig(level_channels=(4, 1, 1, 1)), np.random.default_rng(10),
                  np.float64, gated=False)
    rng = np.random.default_rng(11)
    bottleneck = Tensor(rng.normal(size=(2, 2, 2, 3)), requires_grad=True)
    skip = Tensor(rng.normal(size=(4, 4, 4, 2)), requires_grad=True)
    with Tape() as tape:
        low = ad.upsample2x(bottleneck)
        dec.convs[0](low, skip)
    assert [n.op for n in tape.nodes] == ["upsample2x", "conv3d"]
    conv = tape.nodes[1]
    assert conv.inputs[0] is low and conv.inputs[-1] is skip
    # nothing on the tape has the concatenation's 3 + 2 channels
    assert full_size(tape, 64, 5) == []
