"""The fused pre-norm feed-forward and the ops that keep no backward state.

`feed_forward` must give exactly (np.array_equal, dtypes included) the output
and all seven gradients of the five-node chain it replaces, for any row
count and op worker count.  Untaped, it and `gelu`/`layer_norm` must not
allocate the arrays only a backward pass needs; taped, `feed_forward` and
`layer_norm` keep row statistics from which the backward rebuilds the
forward's normalized input bit for bit.
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


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("constant", [False, True], ids=["random-rows", "constant-rows"])
@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("dtype", DTYPES)
def test_backward_rebuilds_the_forwards_xhat(set_workers, monkeypatch, dtype, shape, constant, workers):
    """Every xhat that layer_norm's and feed_forward's backwards rebuild from
    the row mean and inv is np.array_equal to the forward's: with gamma 1
    and beta 0, layer_norm's output is the forward's xhat itself.  Constant
    rows normalize to the rounding error of their mean."""
    set_workers(workers)
    x, _, _, w1, b1, w2, b2 = ff_params(*SHAPES[shape], dtype)
    if constant:
        x = Tensor(np.repeat(x.data[..., :1], x.shape[-1], axis=-1), requires_grad=True)
    c = x.shape[-1]
    gamma, beta = Tensor(np.ones(c, dtype), requires_grad=True), Tensor(np.zeros(c, dtype), requires_grad=True)
    rows = x.data.reshape(-1, c)
    rebuild, rebuilt = ad._ln_xhat, []

    def spy(x_rows, mean, inv):
        xhat = rebuild(x_rows, mean, inv)
        offset = x_rows.__array_interface__["data"][0] - rows.__array_interface__["data"][0]
        rebuilt.append((offset // rows.strides[0], xhat.copy()))
        return xhat

    monkeypatch.setattr(ad, "_ln_xhat", spy)
    for op in (lambda: ad.layer_norm(x, gamma, beta), lambda: ad.feed_forward(x, gamma, beta, w1, b1, w2, b2)):
        with Tape() as tape:
            loss = ad.tsum(op())
        want = ad.layer_norm(x, gamma, beta).data.reshape(-1, c)
        rebuilt.clear()
        ad.backward(loss, tape)
        assert sum(len(xhat) for _, xhat in rebuilt) == len(rows)
        for lo, xhat in rebuilt:
            assert xhat.dtype == dtype and np.array_equal(xhat, want[lo:lo + len(xhat)])


def test_float32_input_with_float64_parameters_matches_the_chain():
    # the recorded row statistics take x's dtype, as the untaped forward's
    # scratch does, so the taped forward is the untaped one
    params = ff_params((5000, 8), 32, np.float64)
    params[0] = Tensor(params[0].data.astype(np.float32), requires_grad=True)
    want = value_and_grads(lambda: chain(*params), params)
    assert_same_numbers(value_and_grads(lambda: ad.feed_forward(*params), params), want)
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
    # under a tape it keeps gelu's cdf, one hidden layer, and two floats a
    # row; the backward rebuilds layer_norm's output and the first linear's
    with Tape():
        taped, _ = traced_peak(lambda: ad.feed_forward(*params))
    assert hidden_nbytes <= taped - out.data.nbytes < 1.5 * hidden_nbytes, taped


@pytest.mark.parametrize("op", ["gelu", "layer_norm"])
def test_untaped_gelu_and_layer_norm_allocate_little_beyond_their_output(op):
    x, gamma, beta = ff_params((32, 32, 32, 64), 1, np.float32)[:3]
    call = (lambda: ad.gelu(x)) if op == "gelu" else (lambda: ad.layer_norm(x, gamma, beta))
    extra, out = traced_peak(call)
    assert extra - out.data.nbytes < out.data.nbytes // 4, extra
    with Tape():
        taped, _ = traced_peak(call)
    if op == "gelu":
        # under a tape, gelu's cdf is a second output-sized array
        assert taped - out.data.nbytes >= out.data.nbytes, taped
    else:
        # layer_norm keeps only each row's mean and inv
        assert taped - out.data.nbytes < out.data.nbytes // 4, taped
