"""Tensor core: forward semantics, backward pass, finite-difference checks."""

import math
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mmvseg import autodiff as ad
from mmvseg.autodiff import Tape, Tensor, backward, grad_check
from mmvseg.errors import ContractError, NumericError, ShapeError
from mmvseg.nn import Linear


def t(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = t(rng.normal(size=(3, 4)))
        out = ad.matmul(a, t(np.eye(4)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_expansion(self):
        out = ad.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_zero_matrix(self):
        b = t(np.random.default_rng(1).normal(size=(3, 5)))
        out = ad.matmul(t(np.zeros((2, 3))), b)
        np.testing.assert_array_equal(out.data, np.zeros((2, 5)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 5))))

    def test_batched_broadcast(self):
        rng = np.random.default_rng(2)
        a = t(rng.normal(size=(5, 2, 3)))
        b = t(rng.normal(size=(3, 4)))
        out = ad.matmul(a, b)
        assert out.shape == (5, 2, 4)
        np.testing.assert_allclose(out.data, a.data @ b.data)


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax_last(t([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_closed_form(self):
        out = ad.softmax_last(t([0.0, math.log(2.0)]))
        np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)

    def test_single_element(self):
        out = ad.softmax_last(t([17.0]))
        np.testing.assert_array_equal(out.data, [1.0])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            shape = tuple(rng.integers(1, 6, size=rng.integers(1, 4)))
            x = t(rng.normal(scale=50.0, size=shape))
            y = ad.softmax_last(x).data
            assert (y >= 0).all()
            np.testing.assert_allclose(y.sum(axis=-1), np.ones(shape[:-1]), atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            ad.softmax_last(t([0.0, np.inf]))


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        out = ad.layer_norm(t([4.0, 4.0, 4.0]), t(np.ones(3)), t(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-12)

    def test_two_point_row(self):
        out = ad.layer_norm(t([1.0, 3.0]), t(np.ones(2)), t(np.zeros(2)))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-4)

    def test_zero_gamma_collapses_to_beta(self):
        rng = np.random.default_rng(4)
        x = t(rng.normal(size=(2, 5, 3)))
        beta = t([1.0, -2.0, 0.5])
        out = ad.layer_norm(x, t(np.zeros(3)), beta)
        np.testing.assert_array_equal(out.data, np.broadcast_to(beta.data, x.shape))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ad.layer_norm(t(np.zeros((2, 3))), t(np.zeros(4)), t(np.zeros(4)))


class TestConv3d:
    def test_box_kernel_on_constant(self):
        # each output voxel sums the input voxels of its 3x3x3 window; the
        # zero padding leaves 2 of 3 per axis at the faces
        v = 2.5
        x = t(np.full((4, 4, 4, 1), v))
        out = ad.conv3d(x, t(np.ones((3, 3, 3, 1, 1))))
        per_axis = np.array([2.0, 3.0, 3.0, 2.0])
        want = v * np.einsum("i,j,k->ijk", per_axis, per_axis, per_axis)[..., None]
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_zero_kernel_gives_bias(self):
        x = t(np.random.default_rng(6).normal(size=(3, 3, 3, 2)))
        out = ad.conv3d(x, t(np.zeros((3, 3, 3, 2, 4))), t([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(out.data, np.broadcast_to([1.0, 2.0, 3.0, 4.0], (3, 3, 3, 4)))

    @pytest.mark.parametrize("ksize", [(1, 1, 1), (2, 2, 2), (3, 3, 2), (2, 1, 1), (3, 4, 3)])
    def test_bad_kernel_extents_raise_before_allocating(self, ksize):
        # even extents have no 'same' padding; a 1x1x1 kernel is patch_linear
        x = t(np.zeros((16, 16, 16, 8)))
        k = t(np.zeros(ksize + (8, 8)))
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match=r"odd kernel extents.*patch_linear"):
                ad.conv3d(x, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.data.nbytes // 16, peak

    def test_bad_bias_shape_raises_before_allocating(self):
        x = t(np.zeros((16, 16, 16, 8)))
        k = t(np.zeros((3, 3, 3, 8, 4)))
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match="bias shape"):
                ad.conv3d(x, k, t(np.zeros(3)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.data.nbytes // 16, peak


class TestPatchLinear:
    def test_output_extents(self):
        x = t(np.zeros((8, 6, 4, 1)))
        assert ad.patch_linear(x, t(np.zeros((2, 2, 2, 1, 3)))).shape == (4, 3, 2, 3)
        assert ad.patch_linear(x, t(np.zeros((2, 3, 1, 1, 3)))).shape == (4, 2, 4, 3)

    @pytest.mark.parametrize("k_shape", [(2, 2, 2, 1, 3), (3, 1, 1, 1, 3), (0, 1, 1, 1, 3), (1, 1, 1, 2, 3),
                                         (2, 2, 3)])
    def test_patches_that_do_not_tile_raise(self, k_shape):
        with pytest.raises(ShapeError, match="patch_linear"):
            ad.patch_linear(t(np.zeros((4, 5, 4, 1))), t(np.zeros(k_shape)))

    def test_pointwise_patches_are_a_view_and_the_op_is_linear(self):
        rng = np.random.default_rng(17)
        x = t(rng.normal(size=(3, 4, 5, 6)), requires_grad=True)
        k = t(rng.normal(size=(1, 1, 1, 6, 2)), requires_grad=True)
        b = t(rng.normal(size=2), requires_grad=True)
        assert np.shares_memory(ad._patch_view(x.data, (1, 1, 1)).reshape(-1, 6), x.data)
        w = t(k.data.reshape(6, 2), requires_grad=True)
        got, got_grads = value_and_grads(lambda: ad.patch_linear(x, k, b), [x, k, b])
        want, want_grads = value_and_grads(lambda: ad.linear(x, w, b), [x, w, b])
        assert np.array_equal(got, want)
        for a, e in zip(got_grads, want_grads, strict=True):
            assert np.array_equal(a, e.reshape(a.shape))

    def test_backward_allocates_little_beyond_its_gradients(self, monkeypatch):
        # two op workers; the chunks of the kernel gradient cut their own
        # patches, and the input gradient is made a block of planes at a time
        if ad._POOL is None:
            monkeypatch.setattr(ad, "_POOL", ThreadPoolExecutor(1))
        monkeypatch.setattr(ad, "OP_WORKERS", 2)
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(64, 64, 64, 8)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 2, 2, 8, 16)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(16, np.float32), requires_grad=True)
        with Tape() as tape:
            out = ad.patch_linear(x, k, b)
        g = rng.normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            grads = tape.nodes[-1].backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - sum(a.nbytes for a in grads) < x.data.nbytes // 4, peak

    def test_taped_node_holds_no_patch_copy(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(32, 32, 32, 16)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 2, 2, 16, 32)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(32, np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = ad.patch_linear(x, k, b)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        assert held - out.data.nbytes < x.data.nbytes // 20, held


def _im2col(xp, ksize, stride, out_sp):
    kd, kh, kw = ksize
    od, oh, ow = out_sp
    cin = xp.shape[3]
    cols = np.empty((od, oh, ow, kd, kh, kw, cin), dtype=xp.dtype)
    for a in range(kd):
        for b in range(kh):
            for c in range(kw):
                cols[:, :, :, a, b, c, :] = xp[
                    a: a + od * stride[0]: stride[0],
                    b: b + oh * stride[1]: stride[1],
                    c: c + ow * stride[2]: stride[2],
                ]
    return cols.reshape(od * oh * ow, kd * kh * kw * cin)


def slab_conv3d(x, k, b):
    """Reference 'same' conv3d forward as the per-tap slab loop: each tap
    copies its window of the input, zero padded by k // 2, into a (P, Cin)
    slab, and the tap products are summed in lexicographic tap order."""
    xp = np.pad(x, [(n // 2, n // 2) for n in k.shape[:3]] + [(0, 0)])
    ksize, (cin, cout) = k.shape[:3], k.shape[3:]
    out_sp = tuple(xp.shape[i] - ksize[i] + 1 for i in range(3))
    out = np.empty((int(np.prod(out_sp)), cout), dtype=np.result_type(xp, k))
    prod = np.empty_like(out)
    for i, (a, bb, c) in enumerate(np.ndindex(*ksize)):
        slab = xp[a: a + out_sp[0], bb: bb + out_sp[1], c: c + out_sp[2]].reshape(-1, cin)
        np.matmul(slab, k[a, bb, c], out=prod if i else out)
        if i:
            out += prod
    if b is not None:
        out += b
    return out.reshape(out_sp + (cout,))


def _col2im(dcols, xp_shape, ksize, stride, out_sp):
    kd, kh, kw = ksize
    od, oh, ow = out_sp
    dcols = dcols.reshape(od, oh, ow, kd, kh, kw, xp_shape[3])
    dxp = np.zeros(xp_shape)
    for a in range(kd):
        for b in range(kh):
            for c in range(kw):
                dxp[
                    a: a + od * stride[0]: stride[0],
                    b: b + oh * stride[1]: stride[1],
                    c: c + ow * stride[2]: stride[2],
                ] += dcols[:, :, :, a, b, c, :]
    return dxp


def im2col_conv3d(x, k, b, stride, padding, g):
    """Reference conv3d by one float64 column-matrix GEMM, at a `stride` and
    zero `padding` per axis: (out, dx, dw, db) for upstream gradient `g`."""
    ksize, cout = k.shape[:3], k.shape[4]
    xp = np.pad(x, [(p, p) for p in padding] + [(0, 0)])
    out_sp = tuple((xp.shape[i] - ksize[i]) // stride[i] + 1 for i in range(3))
    cols = _im2col(xp, ksize, stride, out_sp)
    out = (cols @ k.reshape(-1, cout) + b).reshape(out_sp + (cout,))
    gm = g.reshape(-1, cout)
    dxp = _col2im(gm @ k.reshape(-1, cout).T, xp.shape, ksize, stride, out_sp)
    dx = dxp[tuple(slice(p, p + n) for p, n in zip(padding, x.shape[:3]))]
    return out, dx, (cols.T @ gm).reshape(k.shape), gm.sum(axis=0)


# (x shape, kernel shape, op): patch_linear is the convolution at a stride
# of the kernel's own extents without padding, conv3d the 'same' one at
# stride 1, padded by k // 2
CONV_GEOMETRIES = {
    "patchify": ((8, 6, 4, 3), (2, 2, 2, 3, 5), ad.patch_linear),
    "patchify-1x1x1": ((5, 6, 7, 3), (1, 1, 1, 3, 4), ad.patch_linear),
    "patchify-2x1x2": ((4, 3, 6, 2), (2, 1, 2, 2, 3), ad.patch_linear),
    "3x3x3-pad1": ((6, 6, 6, 3), (3, 3, 3, 3, 4), ad.conv3d),
    "anisotropic": ((5, 6, 7, 2), (3, 1, 5, 2, 3), ad.conv3d),
    "depth-5": ((6, 4, 3, 2), (5, 3, 3, 2, 3), ad.conv3d),
    "extents-1-and-2": ((1, 2, 5, 2), (3, 3, 3, 2, 3), ad.conv3d),
    "kernel-larger-than-volume": ((3, 4, 2, 2), (5, 7, 3, 2, 3), ad.conv3d),
    "kernel-fills-padded-input": ((1, 1, 1, 2), (3, 5, 7, 2, 3), ad.conv3d),
}


class TestConv3dAgainstIm2col:
    @pytest.mark.parametrize("geometry", list(CONV_GEOMETRIES))
    def test_forward_and_gradients_match(self, geometry):
        x_shape, k_shape, op = CONV_GEOMETRIES[geometry]
        ksize = k_shape[:3]
        if op is ad.patch_linear:
            stride, padding = ksize, (0, 0, 0)
        else:
            stride, padding = (1, 1, 1), tuple(n // 2 for n in ksize)
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        k = Tensor(rng.normal(size=k_shape), requires_grad=True)
        b = Tensor(rng.normal(size=k_shape[4]), requires_grad=True)
        for bias in (b, None):
            with Tape() as tape:
                out = op(x, k, bias)
            g = rng.normal(size=out.shape)
            got = (out.data,) + tuple(tape.nodes[-1].backward(g))
            want = im2col_conv3d(x.data, k.data, 0.0 if bias is None else b.data, stride, padding, g)
            assert len(got) == (4 if bias is b else 3)
            for name, a, e in zip(("out", "dx", "dw", "db"), got, want):
                assert a.shape == e.shape, name
                np.testing.assert_allclose(a, e, rtol=0, atol=1e-12 * np.abs(e).max(), err_msg=name)

    def test_extra_memory_stays_linear_in_the_input(self):
        # an im2col column matrix alone would be 27x the input
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(16, 16, 16, 16)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3, 3, 16, 8)), requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)
        g = rng.normal(size=(16, 16, 16, 8))
        tracemalloc.start()
        try:
            with Tape() as tape:
                ad.conv3d(x, k, b)
            grads = tape.nodes[-1].backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grads[0].shape == x.shape
        assert peak <= 4 * (x.data.nbytes + g.nbytes), peak

    def test_forward_pads_a_block_of_planes_at_a_time(self, monkeypatch):
        # two op workers, each range of 16 output planes cut into several
        # blocks, so the padded scratch is a few blocks, not the volume
        if ad._POOL is None:
            monkeypatch.setattr(ad, "_POOL", ThreadPoolExecutor(1))
        monkeypatch.setattr(ad, "OP_WORKERS", 2)
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(32, 32, 32, 96)).astype(np.float32))
        k = Tensor(rng.normal(size=(3, 3, 3, 96, 32)).astype(np.float32))
        b = Tensor(rng.normal(size=32).astype(np.float32))
        padded_bytes = 34 ** 3 * 96 * 4
        tracemalloc.start()
        try:
            out = ad.conv3d(x, k, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.data.nbytes < padded_bytes // 2, peak

    def test_backward_allocates_little_beyond_its_gradients(self, monkeypatch):
        # the decoder's level-1 conv at 32^3 on two op workers: the kernel
        # gradient pads one block of output planes at a time, and copies no
        # tap's window of the input
        if ad._POOL is None:
            monkeypatch.setattr(ad, "_POOL", ThreadPoolExecutor(1))
        monkeypatch.setattr(ad, "OP_WORKERS", 2)
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(32, 32, 32, 96)).astype(np.float32), requires_grad=True)
        k = Tensor((0.1 * rng.normal(size=(3, 3, 3, 96, 32))).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(32, np.float32), requires_grad=True)
        with Tape() as tape:
            out = ad.conv3d(x, k, b)
        g = rng.normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            grads = tape.nodes[-1].backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - sum(a.nbytes for a in grads) < x.data.nbytes // 2, peak

    def test_taped_forward_holds_only_its_output(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(24, 24, 24, 32)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3, 3, 32, 16)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(16, np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = ad.conv3d(x, k, b)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        assert held - out.data.nbytes < x.data.nbytes // 20, held


# (x shape, kernel shape) of 'same' convolutions; "1x1" names a kernel whose
# in-plane extents are 1, so only its depth taps read padding
SLAB_GEOMETRIES = {
    "1x1": ((5, 6, 7, 3), (3, 1, 1, 3, 4)),
    "1x1-pad1": ((3, 4, 2, 3), (3, 1, 1, 3, 2)),
    "3x3x3-pad1": ((6, 6, 6, 5), (3, 3, 3, 5, 4)),
    "pad-1-0-1": ((5, 6, 7, 2), (3, 1, 3, 2, 3)),
    "depth-5": ((6, 5, 4, 3), (5, 3, 3, 3, 4)),
    "non-cubic": ((3, 9, 4, 6), (3, 3, 3, 6, 5)),
    "non-cubic-kernel": ((4, 5, 6, 3), (3, 5, 1, 3, 2)),
    "extent-1": ((1, 1, 1, 4), (3, 3, 3, 4, 2)),
    "extent-2": ((2, 2, 2, 3), (3, 3, 3, 3, 4)),
    "extents-1-and-2": ((1, 2, 7, 3), (3, 3, 3, 3, 3)),
    "kernel-larger-than-volume": ((3, 4, 2, 2), (5, 7, 3, 2, 3)),
    "kernel-fills-padded-input": ((1, 1, 1, 2), (3, 5, 7, 2, 3)),
    "decoder-like": ((8, 8, 8, 48), (3, 3, 3, 48, 16)),
    "bias-add-split-by-rows": ((16, 16, 16, 8), (3, 3, 3, 8, 32)),
    # 37 output planes cut into blocks of 2 to 4 planes, several per worker
    # range; no block size or worker count divides the depth
    "blocks-3x3x3-pad1": ((37, 16, 16, 64), (3, 3, 3, 64, 64)),
    "blocks-pad-1-0-2": ((37, 14, 15, 64), (3, 1, 5, 64, 48)),
    "blocks-depth-1": ((37, 16, 16, 64), (1, 3, 3, 64, 64)),
    "blocks-1x1": ((37, 16, 16, 64), (3, 1, 1, 64, 64)),
    "blocks-1x1-depth-pad2": ((37, 16, 16, 64), (5, 1, 1, 64, 64)),
}


class TestConv3dStride1AgainstSlabs:
    # taps read row ranges of a block's flat padded scratch instead of
    # copying slabs; the products and their order are unchanged, so the
    # outputs must be bit-identical to the slab loop
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("geometry", list(SLAB_GEOMETRIES))
    def test_forward_is_bit_identical(self, geometry, dtype):
        x_shape, k_shape = SLAB_GEOMETRIES[geometry]
        rng = np.random.default_rng(13)
        x = rng.normal(size=x_shape).astype(dtype)
        k = rng.normal(size=k_shape).astype(dtype)
        b = rng.normal(size=k_shape[4]).astype(dtype)
        for bias in (b, None):
            got = ad.conv3d(Tensor(x), Tensor(k), None if bias is None else Tensor(bias)).data
            want = slab_conv3d(x, k, bias)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous
            assert np.array_equal(got, want), geometry


class TestGlobalPool:
    """global_pool(x, gamma, beta) is the spatial mean of layer_norm(x, gamma, beta)."""

    def test_constant_volume(self):
        # constant rows normalize to exactly zero, so every row is beta
        beta = t([0.5, -1.0, 2.0, 0.25, 3.0])
        out = ad.global_pool(t(np.full((2, 3, 4, 5), 1.25)), t(np.full(5, 7.0)), beta)
        np.testing.assert_allclose(out.data, beta.data)

    def test_single_voxel_identity(self):
        x, gamma, beta = t(np.array([0.5, -1.0, 2.0]).reshape(1, 1, 1, 3)), t([1.0, 2.0, -1.0]), t([0.0, 1.0, 2.0])
        want = ad.layer_norm(x, gamma, beta).data.reshape(-1)
        np.testing.assert_array_equal(ad.global_pool(x, gamma, beta).data, want)

    def test_two_voxel_mean(self):
        # rows (0, 4) and (4, 0) normalize to opposite signs, so their mean is beta
        x = np.zeros((2, 1, 1, 2))
        x[0, 0, 0, 1] = x[1, 0, 0, 0] = 4.0
        out = ad.global_pool(t(x), t([1.0, 1.0]), t([0.5, -0.5]))
        np.testing.assert_allclose(out.data, [0.5, -0.5], atol=1e-15)


def upsample_axis_plan(n):
    """Per output index o along an axis of extent n: the two clamped input
    indices sampled at (o + 0.5)/2 - 0.5 and the weight of the second."""
    o = np.arange(2 * n)
    s = (o + 0.5) / 2.0 - 0.5
    i0f = np.floor(s)
    i0 = np.clip(i0f.astype(np.intp), 0, n - 1)
    i1 = np.clip(i0f.astype(np.intp) + 1, 0, n - 1)
    return i0, i1, s - i0f


def gather_upsample(arr):
    """Reference forward of one 2x upsampling: two np.take gathers per axis."""
    for axis in range(3):
        i0, i1, w1 = upsample_axis_plan(arr.shape[axis])
        w1b = w1.reshape((-1,) + (1,) * (arr.ndim - axis - 1)).astype(arr.dtype)
        arr = (1.0 - w1b) * np.take(arr, i0, axis=axis) + w1b * np.take(arr, i1, axis=axis)
    return arr


def scatter_add_upsample_adjoint(g):
    """Reference adjoint of one 2x upsampling: np.add.at over the output index."""
    for axis in (2, 1, 0):
        n_in = g.shape[axis] // 2
        i0, i1, w1 = upsample_axis_plan(n_in)
        gm = np.moveaxis(g, axis, 0)
        w1b = w1.reshape((-1,) + (1,) * (gm.ndim - 1)).astype(g.dtype)
        out = np.zeros((n_in,) + gm.shape[1:], dtype=g.dtype)
        np.add.at(out, i0, (1.0 - w1b) * gm)
        np.add.at(out, i1, w1b * gm)
        g = np.moveaxis(out, 0, axis)
    return g


class TestUpsample:
    def test_constant_volume(self):
        x = t(np.full((2, 2, 2, 1), 3.5))
        out = ad.upsample2x(ad.upsample2x(x))
        assert out.shape == (8, 8, 8, 1)
        np.testing.assert_allclose(out.data, np.full((8, 8, 8, 1), 3.5), atol=1e-12)

    def test_1d_ramp(self):
        x = np.zeros((1, 1, 2, 1))
        x[0, 0, 1, 0] = 1.0
        out = ad.upsample2x(t(x))
        np.testing.assert_allclose(out.data[0, 0, :, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_equals_gather(self, dtype):
        rng = np.random.default_rng(10)
        for shape in [(1, 1, 1, 3), (1, 3, 2, 1), (2, 1, 5, 3), (5, 7, 3, 4), (8, 8, 8, 128)]:
            x = rng.normal(size=shape).astype(dtype)
            got = ad._upsample_once(x)
            assert got.dtype == dtype and got.flags.c_contiguous
            np.testing.assert_array_equal(got, gather_upsample(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adjoint_equals_scatter_add(self, dtype):
        rng = np.random.default_rng(9)
        for shape in [(1, 1, 1, 2), (1, 3, 2, 1), (2, 1, 5, 3), (4, 5, 6, 3)]:
            g = rng.normal(size=tuple(2 * s for s in shape[:3]) + shape[3:]).astype(dtype)
            got = ad._upsample_once_adjoint(g)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, scatter_add_upsample_adjoint(g))

    def test_envelope_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.normal(size=(rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 4), 2))
            out = t(x)
            for _ in range(rng.integers(1, 3)):
                out = ad.upsample2x(out)
            out = out.data
            assert out.min() >= x.min() - 1e-12
            assert out.max() <= x.max() + 1e-12


class TestBackward:
    def test_threads_record_onto_their_own_tapes(self):
        # both tapes are entered before either thread records, and neither
        # is left before both have recorded
        entered, recorded = threading.Barrier(2), threading.Barrier(2)

        def record(scale):
            x = t(np.ones(4), requires_grad=True)
            with Tape() as tape:
                entered.wait()
                outs = [x * scale]
                for _ in range(5):
                    outs.append(outs[-1] + x)
                recorded.wait()
            return tape, outs

        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(record, (2.0, 3.0)))
        for tape, outs in results:
            assert len(tape) == len(outs) and all(n.output is o for n, o in zip(tape.nodes, outs))
        assert ad._active_tape.tape is None

    def test_sum_gives_ones(self):
        x = t(np.random.default_rng(9).normal(size=(3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = x.sum()
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_square_sum(self):
        x = t(np.random.default_rng(10).normal(size=(5,)), requires_grad=True)
        with Tape() as tape:
            loss = (x * x).sum()
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_unused_parameter_gets_zero_grad(self):
        x = t(np.ones(3), requires_grad=True)
        unused = t(np.ones(2), requires_grad=True)
        with Tape() as tape:
            loss = x.sum()
        backward(loss, tape, leaves=[x, unused])
        np.testing.assert_array_equal(unused.grad, np.zeros(2))

    def test_non_scalar_loss_rejected(self):
        x = t(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = x * x
        with pytest.raises(ContractError):
            backward(y, tape)

    def test_grads_accumulate_across_uses(self):
        x = t([2.0], requires_grad=True)
        with Tape() as tape:
            loss = (x + x).sum()
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_grads_accumulate_across_calls(self):
        x = t([1.0, 2.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = x.sum()
            backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_backward_consumes_the_tape(self):
        # each node is freed once its backward has run, so the hidden layer
        # dies with the backward although the caller still holds the tape
        rng = np.random.default_rng(11)
        x, w = t(rng.normal(size=(64, 32)), requires_grad=True), t(rng.normal(size=(32, 256)), requires_grad=True)
        with Tape() as tape:
            hidden = ad.linear(x, w)
            loss = ad.gelu(hidden).sum()
        held = weakref.ref(hidden.data)
        del hidden
        assert held() is not None and len(tape) == 3
        backward(loss, tape)
        assert len(tape) == 0 and held() is None
        grad = x.grad.copy()
        # a second backward would add every gradient again
        with pytest.raises(ContractError, match="consumed"):
            backward(loss, tape)
        assert np.array_equal(x.grad, grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("axis", [None, 1, -1, (0, 2), (-1, 0), ()])
@pytest.mark.parametrize("op", ["sum", "mean"])
def test_reduction_matches_numpy_exactly(op, axis, keepdims, dtype):
    # values bit for bit against numpy's sum/mean; the gradient spreads each
    # output entry over its terms, divided by their count for the mean
    x = t(np.random.default_rng(4).normal(size=(3, 5, 7)).astype(dtype), requires_grad=True)
    with Tape() as tape:
        y = {"sum": ad.tsum, "mean": ad.tmean}[op](x, axis=axis, keepdims=keepdims)
    want = getattr(x.data, op)(axis=axis, keepdims=keepdims)
    assert y.data.dtype == want.dtype and y.shape == np.shape(want)
    np.testing.assert_array_equal(y.data, want)
    (node,) = tape.nodes
    assert node.op == op
    axes = range(3) if axis is None else [a % 3 for a in (axis if isinstance(axis, tuple) else (axis,))]
    count = math.prod(x.shape[a] for a in axes) if op == "mean" else 1
    g = np.random.default_rng(5).normal(size=y.shape).astype(dtype)
    spread = g.reshape([1 if a in axes else n for a, n in enumerate(x.shape)])
    dx = node.backward(g)[0]
    assert dx.dtype == dtype
    np.testing.assert_array_equal(dx, np.broadcast_to(spread / count, x.shape))


def test_tensor_operators_record_the_module_ops():
    # the operators a Tensor keeps; `a - b` of two tensors needs __sub__, as
    # Python tries no reflected method between operands of one type
    a, b = t([1.0, -2.0]), t([0.5, 4.0])
    for got, want in ((a + b, ad.add(a, b)), (a + 2.0, ad.add(a, t(2.0))), (a - b, ad.sub(a, b)),
                      (a - 2.0, ad.sub(a, t(2.0))), (2.0 - a, ad.sub(t(2.0), a)), (a * b, ad.mul(a, b)),
                      (a * 2.0, ad.mul(a, t(2.0))), (2.0 * a, ad.mul(t(2.0), a)), (-a, ad.neg(a)),
                      (a.sum(), ad.tsum(a))):
        np.testing.assert_array_equal(got.data, want.data)


class TestGradCheck:
    def test_linear_is_exact(self):
        x = t(np.random.default_rng(11).normal(size=(4,)), requires_grad=True)
        assert grad_check(lambda: x.sum(), [x]) < 1e-10

    def test_softmax_log_loss(self):
        rng = np.random.default_rng(12)
        logits = t(rng.normal(size=(5, 3)), requires_grad=True)
        onehot = t(np.eye(3)[rng.integers(0, 3, size=5)])

        def f():
            p = ad.softmax_last(logits)
            return -(onehot * ad.tlog(p)).sum()

        assert grad_check(f, [logits]) < 1e-6

    def test_fourth_order_differences_resolve_a_steep_exponential(self):
        # at eps 1e-4 the two-point difference of exp(1000 x) is off by
        # (1000 eps)^2 / 6 of the derivative, eight times the tolerance
        x = t(1e-3 * np.random.default_rng(13).normal(size=(4,)), requires_grad=True)
        assert grad_check(lambda: ad.texp(x * 1000.0).sum(), [x], eps=1e-4) < 1e-5

    def test_flags_a_backward_scaled_by_one_percent(self):
        x = t(np.random.default_rng(14).normal(size=(6,)), requires_grad=True)

        def sine(scale):
            return lambda: ad._record("sine", (x,), np.sin(x.data), lambda g: (scale * g * np.cos(x.data),)).sum()

        assert grad_check(sine(1.0), [x], eps=1e-4) < 1e-8
        assert grad_check(sine(1.01), [x], eps=1e-4) == pytest.approx(0.01 / 2.01, rel=1e-4)

    def test_non_finite_taped_gradient_raises(self):
        # max(0.0, nan) is 0.0, so a NaN gradient must not reach the error max
        x = t(np.random.default_rng(15).normal(size=(6,)), requires_grad=True)
        f = lambda: ad._record("sine", (x,), np.sin(x.data), lambda g: (np.full(x.shape, np.nan),)).sum()
        with pytest.raises(NumericError, match="taped gradient is non-finite"):
            grad_check(f, [x], eps=1e-4)


OP_CASES = [
    ("add", lambda rng: _binary_case(rng, ad.add)),
    ("sub", lambda rng: _binary_case(rng, ad.sub)),
    ("mul", lambda rng: _binary_case(rng, ad.mul)),
    ("div", lambda rng: _binary_case(rng, ad.div, offset=2.0)),
    ("exp", lambda rng: _unary_case(rng, ad.texp)),
    ("log", lambda rng: _unary_case(rng, ad.tlog, positive=True)),
    ("gelu", lambda rng: _unary_case(rng, ad.gelu)),
    ("sigmoid", lambda rng: _unary_case(rng, ad.sigmoid)),
    ("matmul", lambda rng: _matmul_case(rng)),
    ("softmax", lambda rng: _unary_case(rng, ad.softmax_last)),
    ("layer_norm", lambda rng: _layer_norm_case(rng)),
    ("conv3d", lambda rng: _conv_case(rng, spatial=(2, 1, 3))),
    ("avg_pool3d", lambda rng: _unary_vol_case(rng, ad.avg_pool3d)),
    ("global_pool", lambda rng: _global_pool_case(rng)),
    ("upsample2x", lambda rng: _unary_vol_case(rng, ad.upsample2x)),
    ("sum_axis", lambda rng: _unary_case(rng, lambda x: ad.tsum(x, axis=-1))),
    ("mean_axis", lambda rng: _unary_case(rng, lambda x: ad.tmean(x, axis=0, keepdims=True))),
    ("concat", lambda rng: _concat_case(rng)),
    ("layer_moveaxis", lambda rng: _unary_case(rng, lambda x: ad.moveaxis(x, 0, -1))),
    ("conv3d_3x3x3_pad1", lambda rng: _conv_case(rng)),
    ("conv3d_anisotropic", lambda rng: _conv_case(rng, spatial=(4, 5, 3), ksize=(3, 1, 5))),
    ("patch_linear", lambda rng: _patch_case(rng, (2, 2, 2))),
    ("patch_linear_no_bias", lambda rng: _patch_case(rng, (2, 2, 2), bias=False)),
    ("patch_linear_1x1x1", lambda rng: _patch_case(rng, (1, 1, 1))),
    ("patch_linear_1x1x1_no_bias", lambda rng: _patch_case(rng, (1, 1, 1), bias=False)),
    ("patch_linear_2x1x2", lambda rng: _patch_case(rng, (2, 1, 2))),
    ("patch_linear_2x1x2_no_bias", lambda rng: _patch_case(rng, (2, 1, 2), bias=False)),
    ("take", lambda rng: _take_case(rng)),
    ("neg", lambda rng: _unary_case(rng, ad.neg)),
    ("reshape", lambda rng: _unary_case(rng, lambda x: ad.reshape(x, (1, -1)))),
    ("linear", lambda rng: _linear_case(rng)),
    ("feed_forward", lambda rng: _feed_forward_case(rng)),
    ("gated_sum", lambda rng: _gated_sum_case(rng)),
    ("conv3d_skip", lambda rng: _conv_case(rng, spatial=(3, 2, 4), skip=True)),
    ("feed_forward_shift", lambda rng: _feed_forward_case(rng, shift=True)),
]

# OP_CASES names of the taped primitives whose function name differs
OP_CASE_NAMES = {"texp": "exp", "tlog": "log", "softmax_last": "softmax",
                 "tsum": "sum_axis", "tmean": "mean_axis", "moveaxis": "layer_moveaxis"}


def _weighted_sum(out, rng):
    r = Tensor(rng.normal(size=out.shape))
    return (out * r).sum()


def _unary_case(rng, op, positive=False):
    shape = tuple(rng.integers(2, 5, size=rng.integers(1, 4)))
    base = rng.normal(size=shape)
    if positive:
        base = np.abs(base) + 0.5
    x = Tensor(base, requires_grad=True)
    r = rng.normal(size=op(Tensor(base)).shape)
    return lambda: (op(x) * Tensor(r)).sum(), [x]


def _unary_vol_case(rng, op):
    shape = tuple(rng.integers(1, 4, size=3)) + (int(rng.integers(1, 4)),)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    r = rng.normal(size=op(Tensor(x.data)).shape)
    return lambda: (op(x) * Tensor(r)).sum(), [x]


def _binary_case(rng, op, offset=0.0):
    shape = tuple(rng.integers(2, 5, size=2))
    a = Tensor(rng.normal(size=shape), requires_grad=True)
    b = Tensor(rng.normal(size=shape[-1:]) + offset, requires_grad=True)
    r = rng.normal(size=shape)
    return lambda: (op(a, b) * Tensor(r)).sum(), [a, b]


def _matmul_case(rng):
    m, k, n = rng.integers(2, 5, size=3)
    a = Tensor(rng.normal(size=(int(m), int(k))), requires_grad=True)
    b = Tensor(rng.normal(size=(int(k), int(n))), requires_grad=True)
    r = rng.normal(size=(int(m), int(n)))
    return lambda: (ad.matmul(a, b) * Tensor(r)).sum(), [a, b]


def _linear_case(rng):
    # a rank-3 input, so the weight gradient sums over a batch of products
    lead = (int(rng.integers(1, 4)), int(rng.integers(2, 4)))
    c, cout = (int(n) for n in rng.integers(1, 5, size=2))
    x = Tensor(rng.normal(size=lead + (c,)), requires_grad=True)
    w = Tensor(rng.normal(size=(c, cout)), requires_grad=True)
    b = Tensor(rng.normal(size=cout), requires_grad=True)
    r = rng.normal(size=lead + (cout,))
    return lambda: (ad.linear(x, w, b) * Tensor(r)).sum(), [x, w, b]


def _feed_forward_case(rng, shift=False):
    # a rank-3 input, so the linear weight gradients sum over a batch
    shape = (int(rng.integers(1, 3)), int(rng.integers(2, 4)), int(rng.integers(2, 5)))
    c, hidden = shape[-1], int(rng.integers(1, 6))
    draw = lambda s: Tensor(rng.normal(size=s), requires_grad=True)
    params = [draw(shape), draw(c), draw(c), draw((c, hidden)), draw(hidden), draw((hidden, c)), draw(c)]
    params += [draw(c)] if shift else []
    r = rng.normal(size=shape)
    return lambda: (ad.feed_forward(*params) * Tensor(r)).sum(), params


def _gated_sum_case(rng):
    # M features of one shape, each weighted by its channel of the gates
    lead = tuple(int(n) for n in rng.integers(1, 4, size=int(rng.integers(1, 4))))
    m, c = (int(n) for n in rng.integers(1, 4, size=2))
    gates = Tensor(rng.normal(size=lead + (m,)), requires_grad=True)
    feats = [Tensor(rng.normal(size=lead + (c,)), requires_grad=True) for _ in range(m)]
    r = rng.normal(size=lead + (c,))
    return lambda: (ad.gated_sum(gates, feats) * Tensor(r)).sum(), [gates, *feats]


def _layer_norm_case(rng):
    shape = (int(rng.integers(2, 5)), int(rng.integers(2, 6)))
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    gamma = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
    beta = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
    r = rng.normal(size=shape)
    return lambda: (ad.layer_norm(x, gamma, beta) * Tensor(r)).sum(), [x, gamma, beta]


def _global_pool_case(rng):
    shape = tuple(rng.integers(1, 4, size=3)) + (int(rng.integers(1, 4)),)
    x, gamma, beta = (Tensor(rng.normal(size=s), requires_grad=True) for s in (shape, shape[-1:], shape[-1:]))
    r = rng.normal(size=shape[-1:])
    return lambda: (ad.global_pool(x, gamma, beta) * Tensor(r)).sum(), [x, gamma, beta]


def _conv_case(rng, spatial=(4, 4, 4), ksize=(3, 3, 3), skip=False):
    cin, cout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    x = Tensor(rng.normal(size=spatial + (cin,)), requires_grad=True)
    s = [Tensor(rng.normal(size=spatial + (int(rng.integers(1, 3)),)), requires_grad=True)] if skip else []
    k = Tensor(rng.normal(size=ksize + (cin + sum(v.shape[3] for v in s), cout)), requires_grad=True)
    b = Tensor(rng.normal(size=cout), requires_grad=True)
    r = rng.normal(size=spatial + (cout,))
    return lambda: (ad.conv3d(x, k, b, *s) * Tensor(r)).sum(), [x, k, b, *s]


def _patch_case(rng, patch, bias=True):
    # one to three patches per axis, so rows come from several patches
    grid = tuple(int(n) for n in rng.integers(1, 4, size=3))
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    x = Tensor(rng.normal(size=tuple(g * p for g, p in zip(grid, patch)) + (cin,)), requires_grad=True)
    k = Tensor(rng.normal(size=patch + (cin, cout)), requires_grad=True)
    params = [x, k] + ([Tensor(rng.normal(size=cout), requires_grad=True)] if bias else [])
    r = rng.normal(size=grid + (cout,))
    return lambda: (ad.patch_linear(*params) * Tensor(r)).sum(), params


def _concat_case(rng):
    c1, c2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    a = Tensor(rng.normal(size=(3, c1)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, c2)), requires_grad=True)
    r = rng.normal(size=(3, c1 + c2))
    return lambda: (ad.concat([a, b], axis=-1) * Tensor(r)).sum(), [a, b]


def _take_case(rng):
    # gathers along axis 1 with a 2-d index that repeats an entry, so the
    # adjoint has to sum two gradient entries into one slot
    a = Tensor(rng.normal(size=(2, int(rng.integers(2, 5)), 3)), requires_grad=True)
    idx = rng.integers(0, a.shape[1], size=(2, 3))
    idx[1, 2] = idx[0, 0]
    r = rng.normal(size=(2, 2, 3, 3))
    return lambda: (ad.take(a, idx, axis=1) * Tensor(r)).sum(), [a]


@pytest.mark.parametrize("case", range(len(OP_CASES)), ids=[c[0] for c in OP_CASES])
def test_op_gradients(case):
    # every differentiable op, three random shapes each
    name, factory = OP_CASES[case]
    for seed in (0, 1, 2):
        rng = np.random.default_rng(1000 * case + seed)
        f, params = factory(rng)
        assert grad_check(f, params) < 1e-4, f"{name} seed {seed}"


def test_every_taped_primitive_has_an_op_case():
    # a function that records tape nodes needs a float64 gradcheck above
    # (`linear` and `patch_linear` record through the private `_affine`)
    taped = [name for name, fn in vars(ad).items() if not name.startswith("_") and callable(fn)
             and {"_record", "_affine"} & set(getattr(getattr(fn, "__code__", None), "co_names", ()))]
    assert {"take", "upsample2x", "linear", "patch_linear"} <= set(taped)
    cases = {c[0] for c in OP_CASES}
    missing = [n for n in taped if OP_CASE_NAMES.get(n, n) not in cases]
    assert missing == []


class TestTake:
    def test_forward_is_np_take(self):
        a = t(np.arange(24.0).reshape(2, 3, 4))
        idx = np.array([[2, 0], [2, 2]])
        assert np.array_equal(ad.take(a, idx, axis=-1).data, np.take(a.data, idx, axis=-1))
        assert ad.take(a, [1], axis=1).shape == (2, 1, 4)

    def test_adjoint_scatter_adds_repeats(self):
        a = t(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            out = ad.take(a, [2, 0, 2, 2], axis=0)
            loss = (out * t([1.0, 2.0, 3.0, 4.0])).sum()
        backward(loss, tape)
        assert np.array_equal(a.grad, [2.0, 0.0, 8.0])


def value_and_grads(fn, leaves, seed=0):
    """fn()'s value and the gradient of sum(fn() * r) for every leaf, where r
    is a seeded normal draw of the output's shape and dtype, so two forms of
    one computation see the same upstream gradient."""
    for p in leaves:
        p.grad = None
    with Tape() as tape:
        out = fn()
        r = np.random.default_rng(seed).normal(size=out.shape).astype(out.dtype)
        loss = ad.tsum(ad.mul(out, Tensor(r)))
    backward(loss, tape, leaves=leaves)
    return out.data.copy(), [p.grad.copy() for p in leaves]


def assert_same_numbers(a, b):
    """Exact equality of (value, grads) pairs, dtypes included."""
    (va, ga), (vb, gb) = a, b
    assert va.dtype == vb.dtype and np.array_equal(va, vb)
    for x, y in zip(ga, gb, strict=True):
        assert x.dtype == y.dtype and np.array_equal(x, y)


LINEAR_SHAPES = {
    # a token-wise MLP on a volume; fc1's output is large enough that its
    # bias add splits by rows
    "encoder-fc1": ((8, 16, 16, 32), 128),
    "encoder-fc2": ((3, 4, 4, 128), 32),
    "fusion": ((27, 128), 128),  # a token sequence
}


class TestLinear:
    def _params(self, shape, dtype, seed=21):
        x_shape, cout = LINEAR_SHAPES[shape]
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=x_shape).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(x_shape[-1], cout)).astype(dtype), requires_grad=True)
        b = Tensor(rng.normal(size=cout).astype(dtype), requires_grad=True)
        return x, w, b

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", list(LINEAR_SHAPES))
    def test_forward_is_one_flat_gemm_plus_bias(self, shape, dtype):
        x, w, b = self._params(shape, dtype)
        out = ad.linear(x, w, b).data
        want = x.data.reshape(-1, w.shape[0]) @ w.data + b.data
        assert out.dtype == want.dtype and out.shape == x.shape[:-1] + (w.shape[1],)
        assert np.array_equal(out.reshape(want.shape), want)

    # linear's backward takes the input gradient as one flat GEMM and sums
    # the weight and bias gradients by fixed chunks of rows, where `matmul`
    # and `add` take batched products and whole-array sums: the same terms
    # in another order, so equal within float tolerance (the exact oracles
    # are in tests/test_row_split.py)
    @staticmethod
    def _assert_same_sums(got, want):
        for g, e in zip(got, want, strict=True):
            assert g.dtype == e.dtype and g.shape == e.shape
            tol = 1e-5 if e.dtype == np.float32 else 1e-12
            np.testing.assert_allclose(g, e, rtol=0, atol=tol * np.abs(e).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", list(LINEAR_SHAPES))
    def test_gradients_equal_matmul_then_add(self, shape, dtype):
        x, w, b = self._params(shape, dtype)
        _, got = value_and_grads(lambda: ad.linear(x, w, b), [x, w, b])
        _, want = value_and_grads(lambda: ad.add(ad.matmul(x, w), b), [x, w, b])
        self._assert_same_sums(got, want)

    def test_without_bias_gradients_equal_matmul(self):
        x, w, _ = self._params("encoder-fc1", np.float64)
        _, got = value_and_grads(lambda: ad.linear(x, w), [x, w])
        _, want = value_and_grads(lambda: ad.matmul(x, w), [x, w])
        self._assert_same_sums(got, want)

    def test_layer_records_one_node(self):
        layer = Linear(8, 4, np.random.default_rng(0), dtype=np.float64)
        x = Tensor(np.ones((2, 3, 8)), requires_grad=True)
        with Tape() as tape:
            layer(x)
        assert [n.op for n in tape.nodes] == ["linear"]

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((), (5, 3), (3,)),            # a scalar input has no channel extent
        ((2, 5), (4, 3), (3,)),        # inner extents differ
        ((2, 5), (5, 3), (4,)),        # bias of the wrong width
    ])
    def test_bad_shapes(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeError):
            ad.linear(t(np.zeros(x_shape)), t(np.zeros(w_shape)), t(np.zeros(b_shape)))
