"""Ops that split large outputs into row ranges across the op workers.

Each split op must give exactly (np.array_equal, dtypes included) what its
single-call numpy expression gives, on both sides of the size threshold,
for row counts the worker count does not divide, and for any worker count.
The GEMMs of `linear` and `conv3d` split by their own size rule (see
`_by_rows`), and are checked the same way at the model's layer shapes.
"""

import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from mmvseg import autodiff as ad
from mmvseg.autodiff import Tape, Tensor

DTYPES = (np.float32, np.float64)
N = ad._SPLIT_MIN


# -- the single-call expressions the split ops must reproduce ---------------

def serial_gelu(x, g):
    cdf = 0.5 * (1.0 + erf(x * ad._INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * ad._INV_SQRT2PI
    return x * cdf, g * (cdf + x * pdf)


def serial_layer_norm(x, gamma, beta, g):
    c = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    dxhat = g * gamma
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    dgamma = (g * xhat).reshape(-1, c).sum(axis=0)
    dbeta = g.reshape(-1, c).sum(axis=0)
    return xhat * gamma + beta, (dx, dgamma, dbeta)


def serial_linear(x, w, b, g):
    """linear's output and gradients, each GEMM one numpy call: the forward
    is flat, the backward batched over the leading extents."""
    y = np.matmul(x.reshape(-1, w.shape[0]), w) + b
    gx = np.matmul(g, w.T)
    gw = unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), w.shape)
    return y.reshape(g.shape), (gx, gw, unbroadcast(g, b.shape))


def serial_conv3d(x, k, b, stride, padding, g):
    """conv3d's output and gradients by the per-tap slab loop, each GEMM one
    numpy call, summed in lexicographic tap order."""
    xp = np.pad(x, [(p, p) for p in padding] + [(0, 0)])
    ksize, (cin, cout) = k.shape[:3], k.shape[3:]
    out_sp = tuple((xp.shape[i] - ksize[i]) // stride[i] + 1 for i in range(3))
    gm = g.reshape(-1, cout)
    out = np.empty(gm.shape, np.result_type(xp, k))
    dw = np.empty(k.shape, np.result_type(xp, gm))
    dxp = np.zeros_like(xp)
    for i, tap in enumerate(np.ndindex(*ksize)):
        window = tuple(slice(o, o + n * s, s) for o, n, s in zip(tap, out_sp, stride))
        slab = xp[window].reshape(-1, cin)
        if i:
            out += np.matmul(slab, k[tap])
        else:
            np.matmul(slab, k[tap], out=out)
        np.matmul(slab.T, gm, out=dw[tap])
        dxp[window] += np.matmul(gm, k[tap].T).reshape(out_sp + (cin,))
    dx = dxp[tuple(slice(p, p + n) for p, n in zip(padding, x.shape))]
    return (out + b).reshape(out_sp + (cout,)), (dx, dw, gm.sum(axis=0))


def unbroadcast(g, shape):
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


BINARY = {
    "add": (ad.add, lambda x, y: x + y, lambda g, x, y: (g, g)),
    "sub": (ad.sub, lambda x, y: x - y, lambda g, x, y: (g, -g)),
    "mul": (ad.mul, lambda x, y: x * y, lambda g, x, y: (g * y, g * x)),
}


# -- helpers ------------------------------------------------------------------

def draw(rng, shape, dtype, scale=3.0):
    return (scale * rng.standard_normal(shape)).astype(dtype)


def run_op(op, *arrays):
    """The op's output and its backward for a seeded upstream gradient."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*leaves)
    g = draw(np.random.default_rng(99), out.shape, out.dtype, scale=1.0)
    grads = tape.nodes[-1].backward(g)
    return out.data, g, grads


def assert_exact(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


# row counts are odd, so two workers never split them evenly; "below" and
# "above" sit a few elements either side of the threshold
UNARY_SHAPES = [
    pytest.param((N // 8 - 1, 8), id="below"),
    pytest.param((N // 8 + 1, 8), id="above"),
    pytest.param((7, 129, 160), id="above-c160"),
    pytest.param((9, 97, 3, 64), id="above-multiblock"),
    pytest.param((N + 3,), id="above-1d"),
]

BROADCAST = [
    pytest.param((64, 64, 64, 32), (32,), id="volume+channel"),
    pytest.param((N // 8 + 1, 8), (1, 1, 1, 8), id="tokens+bcast4d"),
    pytest.param((N // 8 - 1, 8), (1, 1, 1, 8), id="tokens+bcast4d-below"),
    pytest.param((8, 257, 64), (8, 1, 64), id="batched-rows"),
    pytest.param((8, 255, 64), (8, 1, 64), id="batched-rows-below"),
    pytest.param((5, 1, 30001), (5, 7, 1), id="outer"),
    pytest.param((1, N // 8 + 1, 8), (8,), id="leading-one"),
    pytest.param((N + 1,), (), id="scalar"),
]


# -- bit identity -------------------------------------------------------------

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", UNARY_SHAPES)
def test_gelu_matches_serial_expression(shape, dtype):
    x = draw(np.random.default_rng(0), shape, dtype)
    y, g, (dx,) = run_op(ad.gelu, x)
    ref_y, ref_dx = serial_gelu(x, g)
    assert_exact(y, ref_y)
    assert_exact(dx, ref_dx)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", UNARY_SHAPES)
def test_layer_norm_matches_serial_expression(shape, dtype):
    rng = np.random.default_rng(1)
    c = shape[-1]
    x = draw(rng, shape, dtype) + 2.0
    gamma, beta = draw(rng, (c,), dtype), draw(rng, (c,), dtype)
    y, g, grads = run_op(ad.layer_norm, x, gamma, beta)
    ref_y, ref_grads = serial_layer_norm(x, gamma, beta, g)
    assert_exact(y, ref_y)
    for got, want in zip(grads, ref_grads, strict=True):
        assert_exact(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("sa,sb", BROADCAST)
@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary_matches_serial_expression(name, sa, sb, dtype):
    op, fwd, bwd = BINARY[name]
    rng = np.random.default_rng(2)
    x, y = draw(rng, sa, dtype), draw(rng, sb, dtype)
    for a, b in ((x, y), (y, x)):
        out, g, (ga, gb) = run_op(op, a, b)
        assert_exact(out, fwd(a, b))
        ref_ga, ref_gb = bwd(g, a, b)
        assert_exact(ga, unbroadcast(ref_ga, a.shape))
        assert_exact(gb, unbroadcast(ref_gb, b.shape))


@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary_mixed_dtypes_promote_like_numpy(name):
    op, fwd, _ = BINARY[name]
    rng = np.random.default_rng(3)
    x, y = draw(rng, (N // 8 + 1, 8), np.float32), draw(rng, (8,), np.float64)
    assert_exact(op(Tensor(x), Tensor(y)).data, fwd(x, y))


# -- GEMMs at the model's layer shapes, either side of the split size --------

# (C, Cout) of the model's Linear layers: encoder MLPs at each stage width,
# the fusion embed, the skip gates, a two-class head, and K = 1
LINEAR_LAYERS = [(1, 32), (32, 128), (128, 32), (64, 256), (128, 512), (512, 128),
                 (128, 4), (32, 2)]

# (Cin, Cout, kernel, stride, padding): the stage-1 1x1 embed of one
# modality, two 2x2x2 stride-2 embeds, two decoder 3x3x3 convs and the head
CONV_LAYERS = {
    "embed-1x1": (1, 32, 1, 1, 0),
    "embed-2x2x2-32": (32, 64, 2, 2, 0),
    "embed-2x2x2-128": (128, 128, 2, 2, 0),
    "decoder-3x3x3-96": (96, 32, 3, 1, 1),
    "decoder-3x3x3-256": (256, 128, 3, 1, 1),
    "head-1x1": (32, 2, 1, 1, 0),
}

# multiply-adds of each GEMM (rows * Cin * Cout) relative to _GEMM_MIN:
# one short of two ranges' worth, and enough for two or three ranges
GEMM_SIZES = {"below": 2, "above": 2, "above-3": 3}


def gemm_rows(size, c, cout, unit=1):
    """The smallest row count, in multiples of `unit`, whose GEMM reaches
    GEMM_SIZES[size] ranges of _GEMM_MIN, minus one unit below the split."""
    units = -(-GEMM_SIZES[size] * ad._GEMM_MIN // (c * cout * unit))
    return units - 1 if size == "below" else units


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("size", list(GEMM_SIZES))
@pytest.mark.parametrize("layout", ["tokens", "volume"])
@pytest.mark.parametrize("c,cout", LINEAR_LAYERS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_linear_gemms_match_serial_expression(set_workers, dtype, c, cout, layout, size, workers):
    set_workers(workers)
    rng = np.random.default_rng(c * cout)
    if layout == "tokens":
        shape = (gemm_rows(size, c, cout), c)
    else:
        shape = (gemm_rows(size, c, cout, unit=12), 3, 4, c)
    x, w, b = draw(rng, shape, dtype), draw(rng, (c, cout), dtype), draw(rng, (cout,), dtype)
    y, g, grads = run_op(ad.linear, x, w, b)
    ref_y, ref_grads = serial_linear(x, w, b, g)
    assert_exact(y, ref_y)
    for got, want in zip(grads, ref_grads, strict=True):
        assert_exact(got, want)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("size", list(GEMM_SIZES))
@pytest.mark.parametrize("layer", list(CONV_LAYERS))
@pytest.mark.parametrize("dtype", DTYPES)
def test_conv3d_gemms_match_serial_expression(set_workers, dtype, layer, size, workers):
    set_workers(workers)
    cin, cout, ksize, stride, padding = CONV_LAYERS[layer]
    # output extents (d, 3, 4): d planes of 12 voxels
    planes = gemm_rows(size, cin, cout, unit=12)
    shape = tuple(stride * n + ksize - stride - 2 * padding for n in (planes, 3, 4)) + (cin,)
    rng = np.random.default_rng(cin * cout)
    x = draw(rng, shape, dtype)
    k = draw(rng, (ksize,) * 3 + (cin, cout), dtype, scale=0.1)
    b = draw(rng, (cout,), dtype)
    op = lambda x_, k_, b_: ad.conv3d(x_, k_, b_, stride=stride, padding=padding)
    y, g, grads = run_op(op, x, k, b)
    ref_y, ref_grads = serial_conv3d(x, k, b, (stride,) * 3, (padding,) * 3, g)
    assert_exact(y, ref_y)
    for got, want in zip(grads, ref_grads, strict=True):
        assert_exact(got, want)


def test_gemm_rule_selects_the_split_path(monkeypatch):
    ranges = []
    real = ad._split_rows

    def counting(n, kernel):
        ranges.append(n)
        return real(n, kernel)

    monkeypatch.setattr(ad, "_split_rows", counting)
    rng = np.random.default_rng(6)
    w = draw(rng, (32, 128), np.float32)
    for size, split in (("below", False), ("above", True)):
        ranges.clear()
        x = draw(rng, (gemm_rows(size, 32, 128), 32), np.float32)
        ad.linear(Tensor(x), Tensor(w))
        assert len(ranges) == (1 if split else 0), size


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_gemm_ranges_keep_two_rows_and_stay_whole_at_one_column(set_workers, workers):
    """However much work a GEMM holds, no range gets a single row, and a
    one-column product is never split."""
    set_workers(workers)
    for rows, cols in ((5, 1), (3, 4), (5, 2), (9, 4)):
        seen = []
        out = np.empty((rows, cols))
        ad._by_rows(lambda a, o: seen.append(len(o)), (out,), out, k=ad._GEMM_MIN)
        assert sum(seen) == rows and min(seen) >= 2
        assert len(seen) == (1 if cols == 1 else min(workers, rows // 2))


# -- the split path is taken, and its result does not depend on the workers --

@pytest.fixture
def set_workers(monkeypatch):
    """Sets OP_WORKERS; a one-CPU host gets a pool for the extra ranges."""
    if ad._POOL is None:
        monkeypatch.setattr(ad, "_POOL", ThreadPoolExecutor(1))
    return lambda n: monkeypatch.setattr(ad, "OP_WORKERS", n)


def _op_calls(seed, rows, dtype):
    """Every split op with operands of `rows` rows of 8 channels."""
    rng = np.random.default_rng(seed)
    x = draw(rng, (rows, 8), dtype)
    gamma, beta = draw(rng, (8,), dtype), draw(rng, (8,), dtype)
    return ((ad.gelu, (x,)), (ad.layer_norm, (x, gamma, beta)),
            (ad.add, (x, gamma)), (ad.sub, (beta, x)), (ad.mul, (x, x)))


def _all_ops(seed, rows, dtype):
    """Output and input gradients of every split op."""
    results = []
    for op, args in _op_calls(seed, rows, dtype):
        out, _, grads = run_op(op, *args)
        results.append((out, grads))
    return results


@pytest.mark.parametrize("rows,split", [(N // 8 - 1, False), (N // 8 + 1, True)])
def test_threshold_selects_the_split_path(monkeypatch, rows, split):
    ranges = []
    real = ad._split_rows

    def counting(n, kernel):
        ranges.append(n)
        return real(n, kernel)

    monkeypatch.setattr(ad, "_split_rows", counting)
    _all_ops(4, rows, np.float32)
    # gelu forward and backward, layer_norm forward and dx, add, sub, mul
    assert len(ranges) == (7 if split else 0)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("workers", [1, 3])
def test_worker_count_does_not_change_results(set_workers, workers, dtype):
    rows = N // 8 + 5
    want = _all_ops(5, rows, dtype)
    set_workers(workers)
    got = _all_ops(5, rows, dtype)
    for (out_a, grads_a), (out_b, grads_b) in zip(want, got, strict=True):
        assert_exact(out_b, out_a)
        for a, b in zip(grads_a, grads_b, strict=True):
            assert_exact(b, a)


def test_split_rows_covers_every_row_once(set_workers):
    for workers in (1, 2, 3, 5):
        set_workers(workers)
        for n in (0, 1, 2, 3, 7, 10):
            seen = np.zeros(n, dtype=int)

            def kernel(lo, hi, seen=seen):
                seen[lo:hi] += 1

            ad._split_rows(n, kernel)
            assert (seen == 1).all()


def test_kernel_error_reaches_the_caller(set_workers):
    set_workers(2)

    def kernel(lo, hi):
        if lo > 0:
            raise ValueError("second range")

    with pytest.raises(ValueError, match="second range"):
        ad._split_rows(4, kernel)


def _forwards(seed):
    # no tape: the active tape is one per process
    return [op(*map(Tensor, args)).data for op, args in _op_calls(seed, N // 8 + 3, np.float32)]


def test_concurrent_callers_on_an_oversubscribed_pool(monkeypatch):
    """Three caller threads (library callers on their own threads) share
    a pool of four threads that runs eight ranges per op, with a short
    switch interval; every output still equals the one-worker result."""
    monkeypatch.setattr(ad, "OP_WORKERS", 1)
    want = [_forwards(seed) for seed in range(6)]
    pool = ThreadPoolExecutor(4)
    monkeypatch.setattr(ad, "_POOL", pool)
    monkeypatch.setattr(ad, "OP_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(3) as callers:
            futures = [callers.submit(_forwards, seed) for seed in range(6)]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    for outs_want, outs_got in zip(want, got, strict=True):
        for a, b in zip(outs_want, outs_got, strict=True):
            assert_exact(b, a)


def _split_in_child():
    rng = np.random.default_rng(7)
    x = draw(rng, (N // 8 + 1, 8), np.float32)
    y, _ = serial_gelu(x, x)
    ok = np.array_equal(ad.gelu(Tensor(x)).data, y)
    # a split linear and a split conv3d, forward and backward
    x = draw(rng, (gemm_rows("above-3", 32, 128), 32), np.float32)
    w, b = draw(rng, (32, 128), np.float32), draw(rng, (128,), np.float32)
    y, g, grads = run_op(ad.linear, x, w, b)
    ref_y, ref_grads = serial_linear(x, w, b, g)
    ok &= all(np.array_equal(a, e) for a, e in zip((y, *grads), (ref_y, *ref_grads)))
    x = draw(rng, (40, 6, 6, 48), np.float32)
    k, b = draw(rng, (3, 3, 3, 48, 32), np.float32, scale=0.1), draw(rng, (32,), np.float32)
    y, g, grads = run_op(lambda *t: ad.conv3d(*t, padding=1), x, k, b)
    ref_y, ref_grads = serial_conv3d(x, k, b, (1, 1, 1), (1, 1, 1), g)
    ok &= all(np.array_equal(a, e) for a, e in zip((y, *grads), (ref_y, *ref_grads)))
    os._exit(0 if ok else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_splits_on_a_pool_of_its_own():
    """A child forked after the pool thread started (multiprocessing's
    default on Linux) inherits the pool without its thread; it must still
    finish a split op."""
    ad.gelu(Tensor(np.ones((N // 8 + 1, 8), np.float32)))
    child = multiprocessing.get_context("fork").Process(target=_split_in_child)
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0


FRESH_PROCESS_CHECK = """
import numpy as np
from mmvseg import autodiff as ad
before = dict(vars(ad))
x = ad.Tensor(np.ones((ad._SPLIT_MIN // 8 + 1, 8), np.float32), requires_grad=True)
gamma = ad.Tensor(np.ones(8, np.float32), requires_grad=True)
beta = ad.Tensor(np.zeros(8, np.float32), requires_grad=True)
w = ad.Tensor(np.ones((8, 64), np.float32), requires_grad=True)
vol = ad.Tensor(np.ones((40, 6, 6, 48), np.float32), requires_grad=True)
kernel = ad.Tensor(np.ones((3, 3, 3, 48, 32), np.float32), requires_grad=True)
with ad.Tape() as tape:
    h = ad.layer_norm(ad.gelu(x), gamma, beta)
    loss = ad.tsum(ad.mul(ad.add(h, x), x)) + ad.tsum(ad.linear(x, w))
    loss = loss + ad.tsum(ad.conv3d(vol, kernel, padding=1))
ad.backward(loss, tape)
assert vars(ad) == before, sorted(k for k in vars(ad) if vars(ad)[k] is not before.get(k))
"""


def test_split_forward_leaves_the_module_unchanged():
    """The first forward and backward on the split path, in a fresh process,
    rebinds no attribute of the autodiff module: the pool exists from import
    on, so wrappers patched around the ops can be restored exactly."""
    src = str(Path(ad.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", FRESH_PROCESS_CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


BLAS_CHECK = """
import ctypes
import mmvseg
from mmvseg import autodiff as ad
counts = []
for path in sorted({line.split(maxsplit=5)[5].strip() for line in open("/proc/self/maps")
                    if "openblas" in line.rsplit("/", 1)[-1]}):
    lib = ctypes.CDLL(path)
    counts += [getattr(lib, name)() for name in ("openblas_get_num_threads",
                                                 "scipy_openblas_get_num_threads64_",
                                                 "openblas_get_num_threads64_",
                                                 "scipy_openblas_get_num_threads")
               if hasattr(lib, name)]
print(ad.OP_WORKERS, ad.blas_threads(), *counts)
"""


def test_import_runs_openblas_on_one_thread():
    """Launched with OPENBLAS_NUM_THREADS=2, a fresh interpreter finds every
    OpenBLAS it loaded set to one thread once mmvseg is imported."""
    if not Path("/proc/self/maps").exists():
        pytest.skip("needs /proc/self/maps to find the BLAS libraries")
    src = str(Path(ad.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", BLAS_CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    workers, reported, *counts = proc.stdout.split()
    if not counts:
        pytest.skip("no OpenBLAS is loaded")
    if workers == "1":
        pytest.skip("one op worker: BLAS keeps its own thread count")
    assert counts == ["1"] * len(counts) and reported == "1"
