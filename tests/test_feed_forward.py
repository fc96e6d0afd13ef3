"""The fused pre-norm feed-forward and the ops that keep no backward state.

`feed_forward` must give exactly (np.array_equal, dtypes included) the output
and all seven gradients of the five-node chain it replaces, for any row
count and op worker count.  Untaped, it and `gelu`/`layer_norm` must not
allocate the arrays only a backward pass needs.
"""

import tracemalloc

import numpy as np
import pytest
from test_row_split import set_workers  # noqa: F401 (a fixture)
from test_tensor import assert_same_numbers, value_and_grads

from mmvseg import autodiff as ad
from mmvseg.autodiff import Tape, Tensor
from mmvseg.errors import ShapeError

DTYPES = (np.float32, np.float64)


def chain(x, gamma, beta, w1, b1, w2, b2):
    return ad.add(x, ad.linear(ad.gelu(ad.linear(ad.layer_norm(x, gamma, beta), w1, b1)), w2, b2))


def ff_params(shape, hidden, dtype, seed=0, requires_grad=True):
    """x, gamma, beta, w1, b1, w2, b2 for an input of `shape`."""
    rng = np.random.default_rng(seed)
    c = shape[-1]

    def draw(s, scale=1.0):
        return Tensor((scale * rng.standard_normal(s)).astype(dtype), requires_grad=requires_grad)

    return [draw(shape, 3.0), draw((c,)), draw((c,)), draw((c, hidden), 0.3), draw((hidden,)),
            draw((hidden, c), 0.3), draw((c,))]


# rows of a GEMM of _GEMM_MIN multiply-adds at 8 channels and hidden width 32
GEMM_MIN_ROWS = ad._GEMM_MIN // (8 * 32)

# (input shape, hidden width).  Row counts are odd where they are large, so
# neither the worker count nor the block divides them.
SHAPES = {
    "tokens-1-row": ((1, 8), 32),
    "tokens-2-rows": ((2, 8), 32),
    "tokens-3-rows": ((3, 8), 32),
    "tokens-below-split": ((2 * GEMM_MIN_ROWS - 1, 8), 32),
    "tokens-multiblock": ((5 * GEMM_MIN_ROWS + 1, 8), 32),
    "tokens-c128": ((157, 128), 512),
    "volume-c32": ((9, 10, 11, 32), 128),
    "volume-odd": ((3, 31, 97, 8), 32),
    "volume-one-voxel": ((1, 1, 1, 4), 16),
    "one-channel": ((4099, 1), 1),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("dtype", DTYPES)
def test_matches_the_five_node_chain(set_workers, dtype, shape, workers):
    set_workers(workers)
    params = ff_params(*SHAPES[shape], dtype)
    want = value_and_grads(lambda: chain(*params), params)
    got = value_and_grads(lambda: ad.feed_forward(*params), params)
    assert len(got[1]) == 7
    assert_same_numbers(got, want)
    # the untaped forward computes the same output
    assert np.array_equal(ad.feed_forward(*params).data, want[0])


def test_records_one_node_listing_x_twice():
    params = ff_params((4, 8), 16, np.float64)
    with Tape() as tape:
        out = ad.feed_forward(*params)
    assert [n.op for n in tape.nodes] == ["feed_forward"]
    assert tape.nodes[0].inputs == (params[0], *params)
    assert out.shape == params[0].shape and out.requires_grad


def test_residual_gradient_is_summed_first():
    # x also feeds a later op, so backward adds three gradients into it in
    # the chain's order: the later op's, the residual, then layer_norm's
    params = ff_params((5, 3, 4), 8, np.float32, seed=3)
    x = params[0]
    want = value_and_grads(lambda: ad.mul(chain(*params), x), params)
    got = value_and_grads(lambda: ad.mul(ad.feed_forward(*params), x), params)
    assert_same_numbers(got, want)


@pytest.mark.parametrize("blocks", [5, 7])
def test_block_loop_leaves_no_short_tail(set_workers, blocks):
    """Every kernel call of a blocked split gets at least a block of rows,
    though the two ranges' row counts are not multiples of a block."""
    set_workers(2)
    step, c = 3, 4
    seen = []
    out = np.empty((blocks * step, c))
    ad._by_rows(lambda o: seen.append(len(o)), (), out, block=step * c, k=ad._GEMM_MIN)
    assert sum(seen) == blocks * step and min(seen) >= step


@pytest.mark.parametrize("bad", ["gamma", "w1", "w2", "b2", "rank1"])
def test_bad_shapes(bad):
    x, gamma, beta, w1, b1, w2, b2 = ff_params((3, 4), 8, np.float64, requires_grad=False)
    if bad == "gamma":
        gamma = Tensor(np.ones(5))
    elif bad == "w1":
        w1 = Tensor(np.ones((5, 8)))
    elif bad == "w2":
        w2 = Tensor(np.ones((8, 5)))
    elif bad == "b2":
        b2 = Tensor(np.ones(8))
    else:
        x = Tensor(np.ones(4))
    with pytest.raises(ShapeError):
        ad.feed_forward(x, gamma, beta, w1, b1, w2, b2)


# -- untaped ops keep no backward state ---------------------------------------

def traced_peak(fn):
    """Bytes traced at fn()'s peak above what was traced when it started,
    and fn()'s result."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start, out


def test_untaped_feed_forward_never_holds_the_hidden_layer():
    # stage 1 of the encoder on a 32^3 volume: 32 channels, hidden width 128
    params = ff_params((32, 32, 32, 32), 128, np.float32)
    hidden_nbytes = 32 ** 3 * 128 * 4
    extra, out = traced_peak(lambda: ad.feed_forward(*params))
    assert extra - out.data.nbytes < hidden_nbytes // 4, extra
    # the same call under a tape keeps the hidden layer for its backward
    with Tape():
        taped, _ = traced_peak(lambda: ad.feed_forward(*params))
    assert taped - out.data.nbytes > 2 * hidden_nbytes, taped


@pytest.mark.parametrize("op", ["gelu", "layer_norm"])
def test_untaped_gelu_and_layer_norm_allocate_little_beyond_their_output(op):
    x, gamma, beta = ff_params((32, 32, 32, 64), 1, np.float32)[:3]
    call = (lambda: ad.gelu(x)) if op == "gelu" else (lambda: ad.layer_norm(x, gamma, beta))
    extra, out = traced_peak(call)
    assert extra - out.data.nbytes < out.data.nbytes // 4, extra
    # under a tape, the backward state is a second output-sized array
    with Tape():
        taped, _ = traced_peak(call)
    assert taped - out.data.nbytes >= out.data.nbytes, taped
