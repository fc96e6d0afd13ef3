"""Ops that split large outputs into row ranges across the op workers.

Each split op must give exactly (np.array_equal, dtypes included) what its
single-call numpy expression gives, on both sides of the size threshold,
for row counts the worker count does not divide, and for any worker count.
The GEMMs of `linear`, `patch_linear` and `conv3d` split by their own size
rule (see `_by_rows`), and are checked the same way at the model's layer
shapes.  The parameter gradients of `linear`, `patch_linear`, `layer_norm`,
`feed_forward` and `conv3d` are fixed-chunk sums over rows: their exact
oracles write the chunk rule out (`chunk_sums`), and they must also lie
within float tolerance of the whole-array sums they replace.
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
from test_tensor import SLAB_GEOMETRIES, assert_same_numbers, value_and_grads

DTYPES = (np.float32, np.float64)
N = ad._SPLIT_MIN


# -- the single-call expressions the split ops must reproduce ---------------

def serial_gelu(x, g):
    z = x * ad._INV_SQRT2
    cdf = 0.5 * (1.0 + (rational_erf32(z) if x.dtype == np.float32 else erf(z)))
    pdf = np.exp(-0.5 * x * x) * ad._INV_SQRT2PI
    return x * cdf, g * (cdf + x * pdf)


# float32 erf(z) = z P(z^2) / Q(z^2) for z clamped to [-4, 4] (Eigen's
# generic_fast_erf_float); test_rational_erf32_error_bound ties it to erf
ERF32_P = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                    -1.60960333262415e-02], np.float32)
ERF32_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                    -7.37332916720468e-03, -1.42647390514189e-02], np.float32)


def rational_erf32(z):
    z = np.clip(z, np.float32(-4), np.float32(4))
    s = z * z
    p = s * ERF32_P[0] + ERF32_P[1]
    for c in ERF32_P[2:]:
        p = p * s + c
    q = s * ERF32_Q[0] + ERF32_Q[1]
    for c in ERF32_Q[2:]:
        q = q * s + c
    return z * p / q


# the fixed-chunk rule of the parameter gradient sums, written out: n items
# (rows, or output depth planes of `unit` voxels) are cut into k chunks of
# bounds n * i // k, and each sum's partials are added in chunk order
CHUNK_ROWS = 2048
MAX_CHUNKS = 16


def chunk_sums(n, partials, unit=1):
    """The sums whose partials over items lo:hi are partials(lo, hi)."""
    k = max(1, min(n, n * unit // CHUNK_ROWS, MAX_CHUNKS))
    totals = None
    for i in range(k):
        parts = partials(n * i // k, n * (i + 1) // k)
        totals = parts if totals is None else tuple(t + p for t, p in zip(totals, parts, strict=True))
    return totals


def assert_near(got, want, scale):
    """`got` is `want` summed in another order: within 1e-5 (float32) or
    1e-12 (float64) of `scale`, a bound on the sum of the terms' sizes."""
    assert got.dtype == want.dtype and got.shape == want.shape
    tol = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}[got.dtype]
    assert np.all(np.abs(got - want) <= tol * scale)


def serial_layer_norm(x, gamma, beta, g):
    """layer_norm's output and gradients, with dgamma and dbeta as fixed-chunk
    sums over the rows; then dgamma and dbeta as whole-array sums, and a
    bound on their terms."""
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
    rows, xhat_rows = g.reshape(-1, c), xhat.reshape(-1, c)
    dgamma, dbeta = chunk_sums(len(rows), lambda lo, hi: ((rows[lo:hi] * xhat_rows[lo:hi]).sum(axis=0),
                                                          rows[lo:hi].sum(axis=0)))
    whole = ((g * xhat).reshape(-1, c).sum(axis=0), g.reshape(-1, c).sum(axis=0))
    size = np.abs(rows).sum(axis=0)
    return xhat * gamma + beta, (dx, dgamma, dbeta), (whole, (np.abs(xhat).max() * size, size))


def serial_linear(x, w, b, g):
    """linear's output and gradients: the forward and the input gradient one
    flat GEMM each, the weight and bias gradients fixed-chunk sums over the
    rows of x[chunk].T @ g[chunk] and g[chunk].sum(axis=0)."""
    rows, g_rows = x.reshape(-1, w.shape[0]), g.reshape(-1, w.shape[1])
    y = np.matmul(rows, w) + b
    gx = np.matmul(g_rows, w.T).reshape(x.shape)
    gw, gb = chunk_sums(len(rows), lambda lo, hi: (np.matmul(rows[lo:hi].T, g_rows[lo:hi]),
                                                   g_rows[lo:hi].sum(axis=0)))
    return y.reshape(g.shape), (gx, gw, gb)


def batched_linear(x, w, g):
    """linear's gradients as the adjoints of a batched matmul and a bias add,
    summed over the leading extents; then a bound on each one's terms."""
    gx = np.matmul(g, w.T)
    gw = unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), w.shape)
    size = unbroadcast(np.abs(g), w.shape[1:])
    return (gx, gw, unbroadcast(g, w.shape[1:])), (np.matmul(np.abs(g), np.abs(w).T),
                                                   np.abs(x).max() * size, size)


def serial_patch_linear(x, k, b, g):
    """patch_linear's output and gradients: serial_linear on the rows of
    x's patches, each patch's values gathered in (a, b, c, Cin) order by a
    loop over the offsets in a patch, and the input gradient's rows put
    back the same way.  Then the whole-array kernel and bias gradients and
    a bound on their terms, as batched_linear gives them."""
    patch, (cin, cout) = k.shape[:3], k.shape[3:]
    grid = tuple(n // p for n, p in zip(x.shape, patch))
    offsets = [tuple(slice(o, None, p) for o, p in zip(offset, patch)) for offset in np.ndindex(*patch)]
    rows = np.stack([x[window] for window in offsets], axis=3).reshape(-1, k[..., 0].size)
    w = k.reshape(-1, cout)
    y, (gx, gw, gb) = serial_linear(rows, w, b, g)
    dx = np.empty_like(x)
    for window, gx_offset in zip(offsets, np.moveaxis(gx.reshape(grid + (len(offsets), cin)), 3, 0)):
        dx[window] = gx_offset
    (_, *whole), (_, *size) = batched_linear(rows, w, g.reshape(-1, cout))
    return y, (dx, gw.reshape(k.shape), gb), ((whole[0].reshape(k.shape), whole[1]), size)


def serial_conv3d(x, k, b, g):
    """The 'same' conv3d's output and gradients by the per-tap slab loop
    over the input zero padded by k // 2, each GEMM one numpy call, summed
    in lexicographic tap order, with the kernel and bias gradients
    chunked_conv_grads's.  Then the slab loop's kernel and bias gradients,
    whole-volume sums, and a bound on their terms."""
    padding = [n // 2 for n in k.shape[:3]]
    xp = np.pad(x, [(p, p) for p in padding] + [(0, 0)])
    ksize, (cin, cout) = k.shape[:3], k.shape[3:]
    out_sp = tuple(xp.shape[i] - ksize[i] + 1 for i in range(3))
    gm = g.reshape(-1, cout)
    out = np.empty(gm.shape, np.result_type(xp, k))
    dw = np.empty(k.shape, np.result_type(xp, gm))
    dxp = np.zeros_like(xp)
    for i, tap in enumerate(np.ndindex(*ksize)):
        window = tuple(slice(o, o + n) for o, n in zip(tap, out_sp))
        slab = xp[window].reshape(-1, cin)
        if i:
            out += np.matmul(slab, k[tap])
        else:
            np.matmul(slab, k[tap], out=out)
        np.matmul(slab.T, gm, out=dw[tap])
        dxp[window] += np.matmul(gm, k[tap].T).reshape(out_sp + (cin,))
    dx = dxp[tuple(slice(p, p + n) for p, n in zip(padding, x.shape))]
    size = np.abs(gm).sum(axis=0)
    return ((out + b).reshape(out_sp + (cout,)), (dx, *chunked_conv_grads(xp, g, ksize)),
            ((dw, gm.sum(axis=0)), (np.abs(x).max() * size, size)))


def chunked_conv_grads(xp, g, ksize):
    """A conv3d's kernel and bias gradients for padded input `xp`,
    as fixed-chunk sums over output depth planes: per chunk, g's planes in a
    frame of xp's H and W extents (zeros past the output), and dw[tap] the
    chunk's padded planes, flattened, at the tap's row offset, transposed,
    times the frame's rows up to the last voxel's."""
    (kd, kh, kw), (cin, (planes, ho, wo, cout)) = ksize, (xp.shape[3], g.shape)
    hp, wp = xp.shape[1:3]
    offsets = [(a * hp + b) * wp + c for a, b, c in np.ndindex(*ksize)]

    def partials(lo, hi):
        flat = xp[lo:hi + kd - 1].reshape(-1, cin)
        frame = np.pad(g[lo:hi], [(0, 0), (0, kh - 1), (0, kw - 1), (0, 0)]).reshape(-1, cout)
        rows = (hi - lo) * hp * wp - (kh - 1) * wp - (kw - 1)
        dw = np.stack([np.matmul(flat[o:o + rows].T, frame[:rows]) for o in offsets])
        return dw.reshape(ksize + (cin, cout)), g[lo:hi].reshape(-1, cout).sum(axis=0)

    return chunk_sums(planes, partials, unit=ho * wo)


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


# -- float32 GELU's rational erf ---------------------------------------------

def erf_points():
    """2,000,001 points evenly over [-10, 10] and 10^6 N(0, 2^2) draws."""
    draws = np.random.default_rng(11).normal(0.0, 2.0, 10 ** 6)
    return np.concatenate([np.linspace(-10.0, 10.0, 2_000_001), draws]).astype(np.float32)


def library_erf32(z):
    z = z.copy()
    ad._erf32(z, np.empty_like(z))
    return z


def test_rational_erf32_error_bound():
    z = erf_points()
    exact = erf(z.astype(np.float64))
    got = library_erf32(z)
    assert got.dtype == np.float32
    assert np.abs(got - exact).max() <= 5e-7
    assert np.abs(rational_erf32(z) - exact).max() <= 5e-7
    assert_exact(got, rational_erf32(z))


def test_rational_erf32_is_odd_bit_for_bit():
    z = erf_points()
    assert np.array_equal(library_erf32(-z).view(np.uint32), (-library_erf32(z)).view(np.uint32))


def test_rational_erf32_special_values_map_as_erf():
    z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 4.0, -4.0, 1e30, -1e30], np.float32)
    got, want = library_erf32(z), erf(z)
    assert_exact(np.signbit(got), np.signbit(want))
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("dtype", DTYPES)
def test_gelu_on_the_erf_grid_matches_serial_expression(dtype):
    # float64 is scipy's erf bit for bit; float32 is the rational form
    x = erf_points().astype(dtype)
    y = ad.gelu(Tensor(x)).data
    assert_exact(y, serial_gelu(x, x)[0])


def test_float32_gelu_and_feed_forward_do_not_depend_on_the_workers(set_workers):
    rng = np.random.default_rng(12)
    x = draw(rng, (N // 8 + 5, 8), np.float32)
    ff = [draw(rng, s, np.float32, scale) for s, scale in
          (((N // 32 + 3, 32), 3.0), ((32,), 1.0), ((32,), 1.0), ((32, 128), 0.3), ((128,), 1.0),
           ((128, 32), 0.3), ((32,), 1.0))]
    results = []
    for workers in (1, 2, 3):
        set_workers(workers)
        y, _, (dx,) = run_op(ad.gelu, x)
        ff_y, _, ff_grads = run_op(ad.feed_forward, *ff)
        untaped = (ad.gelu(Tensor(x)).data, ad.feed_forward(*map(Tensor, ff)).data)
        results.append((y, dx, ff_y, *ff_grads, *untaped))
    for got in results[1:]:
        for a, b in zip(results[0], got, strict=True):
            assert_exact(b, a)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", UNARY_SHAPES)
def test_layer_norm_matches_serial_expression(shape, dtype):
    rng = np.random.default_rng(1)
    c = shape[-1]
    x = draw(rng, shape, dtype) + 2.0
    gamma, beta = draw(rng, (c,), dtype), draw(rng, (c,), dtype)
    y, g, grads = run_op(ad.layer_norm, x, gamma, beta)
    ref_y, ref_grads, (whole, size) = serial_layer_norm(x, gamma, beta, g)
    assert_exact(y, ref_y)
    for got, want in zip(grads, ref_grads, strict=True):
        assert_exact(got, want)
    for got, want, bound in zip(grads[1:], whole, size, strict=True):
        assert_near(got, want, bound)


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

# (Cin, Cout, kernel, op) of the model's convolutions: the stage-1 1x1
# embed of one modality, two 2x2x2 patch embeds and the head, which are
# patch_linear, and two decoder 3x3x3 convs
CONV_LAYERS = {
    "embed-1x1": (1, 32, 1, ad.patch_linear),
    "embed-2x2x2-32": (32, 64, 2, ad.patch_linear),
    "embed-2x2x2-128": (128, 128, 2, ad.patch_linear),
    "decoder-3x3x3-96": (96, 32, 3, ad.conv3d),
    "decoder-3x3x3-256": (256, 128, 3, ad.conv3d),
    "head-1x1": (32, 2, 1, ad.patch_linear),
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
    for got, want, bound in zip(grads, *batched_linear(x, w, g), strict=True):
        assert_near(got, want, bound)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("size", list(GEMM_SIZES))
@pytest.mark.parametrize("layer", list(CONV_LAYERS))
@pytest.mark.parametrize("dtype", DTYPES)
def test_conv3d_gemms_match_serial_expression(set_workers, dtype, layer, size, workers):
    set_workers(workers)
    cin, cout, ksize, op = CONV_LAYERS[layer]
    # output extents (d, 3, 4): d planes of 12 voxels; a patch embed's GEMM
    # multiplies a whole patch, a conv's one tap, by the weights
    if op is ad.patch_linear:
        planes = gemm_rows(size, ksize ** 3 * cin, cout, unit=12)
        shape = tuple(ksize * n for n in (planes, 3, 4)) + (cin,)
    else:
        shape = (gemm_rows(size, cin, cout, unit=12), 3, 4, cin)
    rng = np.random.default_rng(cin * cout)
    x = draw(rng, shape, dtype)
    k = draw(rng, (ksize,) * 3 + (cin, cout), dtype, scale=0.1)
    b = draw(rng, (cout,), dtype)
    y, g, grads = run_op(op, x, k, b)
    serial = serial_patch_linear if op is ad.patch_linear else serial_conv3d
    ref_y, ref_grads, (whole, size) = serial(x, k, b, g)
    assert_exact(y, ref_y)
    for got, want in zip(grads, ref_grads, strict=True):
        assert_exact(got, want)
    for got, want, bound in zip(grads[1:], whole, size, strict=True):
        assert_near(got, want, bound)


# (x shape, kernel shape) of 'same' convolutions: the decoder's 3x3x3
# convs at volumes whose worker ranges hold several blocks of output planes
# (no block size or worker count divides the depth), and the geometries of
# test_tensor's slab test
PLANE_GEOMETRIES = {
    "decoder-3x3x3-96": ((23, 20, 20, 96), (3, 3, 3, 96, 32)),
    "decoder-3x3x3-256": ((13, 12, 12, 256), (3, 3, 3, 256, 128)),
    **SLAB_GEOMETRIES,
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("geometry", list(PLANE_GEOMETRIES))
@pytest.mark.parametrize("dtype", DTYPES)
def test_conv3d_plane_blocks_match_serial_forward(set_workers, dtype, geometry, workers):
    """The plane blocks compute the forward, the input gradient
    and, as fixed-chunk sums, the kernel and bias gradients: the first two
    match the serial loop, the others their chunked oracle exactly and the
    serial loop's whole-volume sums within tolerance."""
    set_workers(workers)
    x_shape, k_shape = PLANE_GEOMETRIES[geometry]
    rng = np.random.default_rng(sum(k_shape[3:]))
    x = draw(rng, x_shape, dtype)
    k = draw(rng, k_shape, dtype, scale=0.1)
    b = draw(rng, k_shape[4:], dtype)
    y, g, grads = run_op(ad.conv3d, x, k, b)
    ref_y, ref_grads, (whole, size) = serial_conv3d(x, k, b, g)
    assert_exact(y, ref_y)
    for got, want, bound in zip(grads[1:], whole, size, strict=True):
        assert_near(got, want, bound)
    for name, got, want in zip(("dx", "dw", "db"), grads, ref_grads, strict=True):
        if geometry == "kernel-fills-padded-input" and name == "dx":
            # one output voxel, so each of the serial loop's per-tap input
            # gradient products has one row, which BLAS may sum as a
            # matrix-vector product in another order than the plane blocks'
            # GEMMs of several rows; checked within the im2col test's
            # float64 tolerance, and 1e-5 of the largest value in float32
            assert got.dtype == want.dtype and got.shape == want.shape
            tol = {np.float32: 1e-5, np.float64: 1e-10}[dtype] * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        else:
            assert_exact(got, want)


# volumes at the encoder's stage widths whose rows fall into one chunk,
# into several (no chunk or worker count divides them), and into the most
# chunks a sum takes
CHUNKED_VOLUMES = {
    "one-chunk": ((5, 6, 7, 32), 128),
    "chunks": ((37, 16, 16, 32), 128),
    "most-chunks": ((45, 31, 29, 8), 32),
}


def serial_feed_forward(x, gamma, beta, w1, b1, w2, b2, g):
    """feed_forward's parameter gradients as whole-array sums, and a bound on
    each one's terms."""
    c = x.shape[-1]
    rows, g = x.reshape(-1, c), g.reshape(-1, c)
    xc = rows - rows.mean(axis=-1, keepdims=True)
    xhat = xc * (1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5))
    y = xhat * gamma + beta
    h, ga = serial_gelu(y @ w1 + b1, g @ w2.T)
    gy = ga @ w1.T
    sums = ((gy * xhat).sum(axis=0), gy.sum(axis=0), y.T @ ga, ga.sum(axis=0), h.T @ g, g.sum(axis=0))
    sizes = [np.abs(v).sum(axis=0) for v in (gy, ga, g)]
    bounds = (np.abs(xhat).max() * sizes[0], sizes[0], np.abs(y).max() * sizes[1], sizes[1],
              np.abs(h).max() * sizes[2], sizes[2])
    return sums, bounds


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("volume", list(CHUNKED_VOLUMES))
@pytest.mark.parametrize("dtype", DTYPES)
def test_linear_and_layer_norm_sum_fixed_chunks_at_any_worker_count(set_workers, dtype, volume, workers):
    """On the volume layout, `linear`'s weight and bias gradients and
    `layer_norm`'s gamma and beta gradients equal their chunked oracles and
    lie within tolerance of the whole-array sums."""
    set_workers(workers)
    shape, cout = CHUNKED_VOLUMES[volume]
    c = shape[-1]
    rng = np.random.default_rng(c + cout)
    x, w, b = draw(rng, shape, dtype), draw(rng, (c, cout), dtype, 0.3), draw(rng, (cout,), dtype)
    _, g, grads = run_op(ad.linear, x, w, b)
    _, ref_grads = serial_linear(x, w, b, g)
    for got, want in zip(grads, ref_grads, strict=True):
        assert_exact(got, want)
    for got, want, bound in zip(grads, *batched_linear(x, w, g), strict=True):
        assert_near(got, want, bound)
    gamma, beta = draw(rng, (c,), dtype), draw(rng, (c,), dtype)
    _, g, grads = run_op(ad.layer_norm, x, gamma, beta)
    _, ref_grads, (whole, size) = serial_layer_norm(x, gamma, beta, g)
    for got, want in zip(grads, ref_grads, strict=True):
        assert_exact(got, want)
    for got, want, bound in zip(grads[1:], whole, size, strict=True):
        assert_near(got, want, bound)


@pytest.mark.parametrize("volume", list(CHUNKED_VOLUMES))
@pytest.mark.parametrize("dtype", DTYPES)
def test_feed_forward_sums_fixed_chunks_at_any_worker_count(set_workers, dtype, volume):
    """feed_forward's six parameter gradients are the same at 1, 2 and 3 op
    workers, and within tolerance of the whole-array sums."""
    shape, hidden = CHUNKED_VOLUMES[volume]
    c = shape[-1]
    rng = np.random.default_rng(c * hidden)
    params = [draw(rng, s, dtype, scale) for s, scale in
              ((shape, 3.0), ((c,), 1.0), ((c,), 1.0), ((c, hidden), 0.3), ((hidden,), 1.0),
               ((hidden, c), 0.3), ((c,), 1.0))]
    results = []
    for workers in (1, 2, 3):
        set_workers(workers)
        _, g, grads = run_op(ad.feed_forward, *params)
        results.append(grads)
    for got in results[1:]:
        for a, b in zip(results[0], got, strict=True):
            assert_exact(b, a)
    for got, want, bound in zip(results[0][2:], *serial_feed_forward(*params, g), strict=True):
        assert_near(got, want, bound)


def chain_gated_sum(gates, feats):
    """The take, mul and add chain that `gated_sum` replaces: each feature
    times its gate channel, summed in modality order."""
    out = None
    for i, feat in enumerate(feats):
        gated = ad.mul(feat, ad.take(gates, [i], axis=-1))
        out = gated if out is None else ad.add(out, gated)
    return out


# volumes above the split threshold whose rows no block or worker count
# divides: blocks of _BLOCK elements are 2048 rows at 32 channels, 13107 at 5
GATED_VOLUMES = {"c32": (37, 16, 16, 32), "c5": (53, 40, 13, 5)}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("volume", list(GATED_VOLUMES))
@pytest.mark.parametrize("dtype", DTYPES)
def test_gated_sum_matches_the_chain(set_workers, dtype, volume, m, workers):
    set_workers(workers)
    shape = GATED_VOLUMES[volume]
    rng = np.random.default_rng(m)
    gates = Tensor(rng.uniform(size=shape[:-1] + (m,)).astype(dtype), requires_grad=True)
    feats = [Tensor(draw(rng, shape, dtype), requires_grad=True) for _ in range(m)]
    leaves = [gates, *feats]
    assert_same_numbers(value_and_grads(lambda: ad.gated_sum(gates, feats), leaves),
                        value_and_grads(lambda: chain_gated_sum(gates, feats), leaves))


def test_gemm_rule_selects_the_split_path(monkeypatch):
    ranges = []
    real = ad._split_rows

    def counting(n, kernel, *parts):
        ranges.append(n)
        return real(n, kernel, *parts)

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

    def counting(n, kernel, *parts):
        ranges.append(n)
        return real(n, kernel, *parts)

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
            for parts in (None, 1, 2, 3, 4, 5):
                seen = np.zeros(n, dtype=int)
                ranges = []

                def kernel(lo, hi, seen=seen, ranges=ranges):
                    seen[lo:hi] += 1
                    ranges.append((lo, hi))

                ad._split_rows(n, kernel, parts)
                assert (seen == 1).all()
                assert len(ranges) <= (workers if parts is None else min(workers, parts))


def test_kernel_error_reaches_the_caller(set_workers):
    set_workers(2)

    def kernel(lo, hi):
        if lo > 0:
            raise ValueError("second range")

    with pytest.raises(ValueError, match="second range"):
        ad._split_rows(4, kernel)


def _outputs_and_grads(seed):
    # each caller thread records onto a tape of its own
    return [a for out, grads in _all_ops(seed, N // 8 + 3, np.float32) for a in (out, *grads)]


def test_concurrent_callers_on_an_oversubscribed_pool(monkeypatch):
    """Three caller threads (library callers on their own threads) share
    a pool of four threads that runs eight ranges or chunks per op, with a
    short switch interval; every output and gradient still equals the
    one-worker result."""
    monkeypatch.setattr(ad, "OP_WORKERS", 1)
    want = [_outputs_and_grads(seed) for seed in range(6)]
    pool = ThreadPoolExecutor(4)
    monkeypatch.setattr(ad, "_POOL", pool)
    monkeypatch.setattr(ad, "OP_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(3) as callers:
            futures = [callers.submit(_outputs_and_grads, seed) for seed in range(6)]
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
    y, g, grads = run_op(ad.conv3d, x, k, b)
    ref_y, ref_grads, _ = serial_conv3d(x, k, b, g)
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
    loss = loss + ad.tsum(ad.conv3d(vol, kernel))
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
