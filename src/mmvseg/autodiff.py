"""Dense N-d float tensors with taped reverse-mode differentiation.

Every differentiable operation in the package is built from the primitives
in this module.  Ops compute eagerly with numpy; when a `Tape` is active and
an input requires gradients, a node holding the backward closure is recorded.
`backward` then replays the tape in reverse and accumulates gradients into
the participating leaf tensors.

Volumes are laid out channels-last and row-major: a feature map has shape
(d, w, h, C) and flattens to tokens in C order (h fastest).

`gelu`, `layer_norm` (forward and `dx`), the forward of `add`, `sub` and
`mul`, the bias adds of `linear` and `conv3d`, and the GEMMs of `linear` and
`conv3d` (forward and backward) split large outputs into contiguous ranges
of rows, one per op worker.  Every element and every per-row reduction is
computed by the same numpy call as on a single thread, so the results do not
depend on the split.  The op pool is the process's one parallel runtime: at
import, every OpenBLAS library loaded in the process is set to one thread.
"""

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import erf, expit

from .errors import ContractError, NumericError, ShapeError

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

_active_tape = None

_SPLIT_MIN = 1 << 17  # output elements; smaller outputs take one kernel call
_GEMM_MIN = 1 << 21  # multiply-adds per range of a split GEMM
_BLOCK = 1 << 16  # elements per block of a multi-pass kernel, so temporaries stay in L2

# One op worker per CPU this process may run on.  The caller runs the first
# range itself, so the pool holds one thread fewer.  The pool is built at
# import (its thread starts on the first split), never on first use, which
# would rebind a module attribute mid-run.
if hasattr(os, "sched_getaffinity"):
    OP_WORKERS = len(os.sched_getaffinity(0))
else:
    OP_WORKERS = os.cpu_count() or 1


def _new_pool():
    """Build the op pool: at import, and again in a forked child, which
    inherits the pool but not its thread, so work queued on it would never
    run."""
    global _POOL
    _POOL = ThreadPoolExecutor(OP_WORKERS - 1, "mmvseg-op") if OP_WORKERS > 1 else None


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _openblas_on_one_thread():
    """Set every OpenBLAS library mapped into this process (numpy's and
    scipy's each bundle one) to one thread when there are several op
    workers, so that BLAS's idle threads never spin on the cores the op
    workers need; the large GEMMs are split over the op pool instead.
    Returns each library's thread-count getter: none without
    /proc/self/maps or under another BLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    getters = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas_%s_num_threads", "scipy_openblas_%s_num_threads64_",
                     "openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads"):
            if hasattr(lib, name % "set"):
                set_threads, get_threads = getattr(lib, name % "set"), getattr(lib, name % "get")
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                if OP_WORKERS > 1:
                    set_threads(1)
                getters.append(get_threads)
                break
    return getters


_OPENBLAS_THREADS = _openblas_on_one_thread()


def blas_threads():
    """The most threads any loaded OpenBLAS runs one call on, or None when
    no OpenBLAS is loaded."""
    return max((get() for get in _OPENBLAS_THREADS), default=None)


class Tensor:
    """A contiguous float32/float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_leaf")

    def __init__(self, data, requires_grad=False, dtype=None):
        # note: ascontiguousarray would promote 0-d scalars to shape (1,)
        arr = np.asarray(data, dtype=dtype, order="C")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._leaf = True

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # arithmetic sugar; scalars are promoted to constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __radd__(self, other):
        return add(_as_tensor(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    def __rmul__(self, other):
        return mul(_as_tensor(other, self.dtype), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other, self.dtype))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


class Node:
    """One recorded operation: inputs, output, and the backward closure."""

    __slots__ = ("op", "inputs", "output", "backward")

    def __init__(self, op, inputs, output, backward):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward = backward


class Tape:
    """Single-owner, append-only record of operations in execution order.

    Use as a context manager around the forward pass that should be
    differentiated.  A tape must not be shared across concurrent recordings.
    """

    def __init__(self):
        self.nodes = []
        self._prev = None

    def __enter__(self):
        global _active_tape
        self._prev = _active_tape
        _active_tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active_tape
        _active_tape = self._prev
        self._prev = None
        return False

    def __len__(self):
        return len(self.nodes)


def _record(op, inputs, out_data, backward):
    """Wrap `out_data` in a Tensor, recording a node if gradients are needed."""
    out = Tensor(out_data)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._leaf = False
        if _active_tape is not None:
            _active_tape.nodes.append(Node(op, tuple(inputs), out, backward))
    return out


def backward(loss, tape, leaves=None):
    """Accumulate d(loss)/d(leaf) into `.grad` of every reachable leaf.

    `loss` must be a scalar produced under `tape`.  Gradients add into any
    existing `.grad`, and multiple uses of a tensor within the graph sum.
    When `leaves` is given, every listed tensor is guaranteed a gradient
    buffer afterwards (zeros if the loss does not depend on it).
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.output), None)
        if g is None:
            continue
        gins = node.backward(g)
        for t, gi in zip(node.inputs, gins):
            if gi is None or not t.requires_grad:
                continue
            if t._leaf:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += gi.astype(t.data.dtype, copy=False).reshape(t.shape)
            else:
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + gi
                else:
                    grads[key] = gi
    if leaves is not None:
        for p in leaves:
            if p.requires_grad and p.grad is None:
                p.zero_grad()


def _split_rows(n, kernel):
    """Call kernel(lo, hi) on contiguous ranges that cover range(n), one
    range per op worker; the caller runs the first and waits for the rest.
    Each kernel writes its rows of a preallocated output in place, and never
    calls _split_rows itself: the pool has a thread fewer than there are
    workers, so a nested split could wait forever."""
    k = max(1, min(OP_WORKERS, n))
    bounds = [n * i // k for i in range(k + 1)]
    futures = [_POOL.submit(kernel, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        kernel(bounds[0], bounds[1])
    finally:
        for f in futures:
            f.result()


def _by_rows(kernel, args, *outs, block=None, k=None):
    """kernel(*args, *outs) for a kernel that computes each row (index on
    the first axis) of its outputs from the same rows of its inputs and
    writes it with out= ufuncs; returns outs[0].  Below _SPLIT_MIN output
    elements this is one call.  Above it, the op workers take contiguous
    ranges of rows, which a `block` (in elements) cuts further so that a
    kernel's temporaries stay in cache.  An input of lower rank than the
    outputs, or of extent 1 on the first axis, broadcasts and is passed
    whole.

    A GEMM kernel passes its inner extent `k`, and one size rule splits it:
    one range per op worker, but every range keeps at least _GEMM_MIN
    multiply-adds (outs[0].size * k in all) and two rows, and a product with
    one column stays whole.  So a small product stays one BLAS call, and no
    range is a one-row or one-column product, which BLAS may hand to a
    matrix-vector kernel that sums in another order.  Each range computes
    exactly the dot products of the unsplit call."""
    out = outs[0]
    if k is None:
        units = out.shape[0] if out.size >= _SPLIT_MIN else 1
    else:
        units = _gemm_units(out.size, k, out.shape)
    if units < 2:
        kernel(*args, *outs)
        return out
    n = out.shape[0]
    step = n if block is None else max(1, block * n // out.size)

    def rows(a, s, e):
        return a if a.ndim < out.ndim or a.shape[0] == 1 else a[s:e]

    def work(lo, hi):
        for s in range(lo, hi, step):
            e = min(s + step, hi)
            kernel(*(rows(a, s, e) for a in args), *(o[s:e] for o in outs))

    _split_units(n, units, work)
    return out


def _gemm_units(size, k, shape):
    """_by_rows's GEMM size rule: how many runs of whole rows the rows of a
    product of `shape` (`size` elements, inner extent `k`) fall into; below
    2 it stays one call."""
    return min(size * k // _GEMM_MIN, shape[0] // 2) if shape[-1] > 1 else 1


def _split_units(n, units, work):
    """work(lo, hi) over ranges that cover range(n), which falls into
    `units` runs of rows that no range cuts; one call when units < 2."""
    if units < 2:
        work(0, n)
    else:
        _split_rows(units, lambda i, j: work(n * i // units, n * j // units))


def _gemm(a, b):
    """np.matmul(a, b) for a 2-d `b`, or a batched `b` with a's leading
    extents, split by _by_rows's GEMM rule over the first axis of `a` and of
    the product: a's rows, or the leading batch axis.  A product with fewer
    multiply-adds than two ranges need is one plain call."""
    if a.size * b.shape[-1] < 2 * _GEMM_MIN:
        return np.matmul(a, b)
    k = a.shape[-1]
    out = np.empty(a.shape[:-1] + b.shape[-1:], np.result_type(a, b))
    if b.ndim > 2:
        return _by_rows(np.matmul, (a, b), out, k=k)
    return _by_rows(lambda a_rows, out_rows: np.matmul(a_rows, b, out=out_rows), (a,), out, k=k)


def _empty(*arrays):
    """An uninitialized array of the shape and dtype numpy's broadcasting
    gives `arrays`."""
    return np.empty(np.broadcast(*arrays).shape, dtype=np.result_type(*arrays))


def _unbroadcast(g, shape):
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and structural primitives
# ---------------------------------------------------------------------------

def add(a, b):
    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", (a, b), _by_rows(np.add, (a.data, b.data), _empty(a.data, b.data)), bwd)


def sub(a, b):
    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record("sub", (a, b), _by_rows(np.subtract, (a.data, b.data), _empty(a.data, b.data)), bwd)


def mul(a, b):
    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record("mul", (a, b), _by_rows(np.multiply, (a.data, b.data), _empty(a.data, b.data)), bwd)


def div(a, b):
    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _record("div", (a, b), a.data / b.data, bwd)


def neg(a):
    return _record("neg", (a,), -a.data, lambda g: (-g,))


def texp(a):
    out_data = np.exp(a.data)
    return _record("exp", (a,), out_data, lambda g: (g * out_data,))


def tlog(a):
    return _record("log", (a,), np.log(a.data), lambda g: (g / a.data,))


def gelu(a):
    """Exact (erf-based) Gaussian error linear unit."""
    x = a.data.reshape(-1)
    cdf = np.empty_like(x)
    y = _by_rows(_gelu_forward, (x,), np.empty_like(x), cdf, block=_BLOCK)

    def bwd(g):
        g = g.reshape(-1)
        return (_by_rows(_gelu_grad, (x, cdf, g), _empty(g, x), block=_BLOCK).reshape(a.shape),)

    return _record("gelu", (a,), y.reshape(a.shape), bwd)


def _gelu_forward(x, y, cdf):
    # cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2)) and y = x * cdf, op by op
    np.multiply(x, _INV_SQRT2, out=cdf)
    erf(cdf, out=cdf)
    np.add(cdf, 1.0, out=cdf)
    np.multiply(cdf, 0.5, out=cdf)
    np.multiply(x, cdf, out=y)


def _gelu_grad(x, cdf, g, dx):
    # g * (cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT2PI)), op by op
    p = np.multiply(x, -0.5)
    np.multiply(p, x, out=p)
    np.exp(p, out=p)
    np.multiply(p, _INV_SQRT2PI, out=p)
    np.multiply(x, p, out=p)
    np.add(cdf, p, out=p)
    np.multiply(g, p, out=dx)


def sigmoid(a):
    y = expit(a.data)
    return _record("sigmoid", (a,), y, lambda g: (g * y * (1.0 - y),))


def tsum(a, axis=None, keepdims=False):
    axes = _norm_axes(axis, a.ndim)

    def bwd(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record("sum", (a,), a.data.sum(axis=axes, keepdims=keepdims), bwd)


def tmean(a, axis=None, keepdims=False):
    axes = _norm_axes(axis, a.ndim)
    if axes is None:
        n = a.size
    else:
        n = int(np.prod([a.shape[i] for i in axes]))

    def bwd(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / n, a.shape).copy(),)

    return _record("mean", (a,), a.data.mean(axis=axes, keepdims=keepdims), bwd)


def _norm_axes(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def reshape(a, shape):
    shape = tuple(shape)
    old = a.shape

    def bwd(g):
        return (g.reshape(old),)

    return _record("reshape", (a,), a.data.reshape(shape), bwd)


def take(a, indices, axis):
    """Gather along `axis` by an integer index array (`np.take`); the output
    replaces that extent with the index array's shape.  The adjoint
    scatter-adds each gradient entry into its source slot, in index order."""
    indices = np.asarray(indices, dtype=np.intp)
    lead = (slice(None),) * (axis % a.ndim)

    def bwd(g):
        ga = np.zeros(a.shape, dtype=g.dtype)
        np.add.at(ga, lead + (indices,), g)
        return (ga,)

    return _record("take", (a,), np.take(a.data, indices, axis=axis), bwd)


def moveaxis(a, source, destination):
    def bwd(g):
        return (np.ascontiguousarray(np.moveaxis(g, destination, source)),)

    return _record("moveaxis", (a,), np.ascontiguousarray(np.moveaxis(a.data, source, destination)), bwd)


def concat(tensors, axis):
    tensors = list(tensors)
    axis = axis % tensors[0].ndim
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _record("concat", tuple(tensors), np.concatenate([t.data for t in tensors], axis=axis), bwd)


# ---------------------------------------------------------------------------
# linear algebra and normalization
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product; leading extents broadcast (batched form)."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")

    def bwd(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _record("matmul", (a, b), np.matmul(a.data, b.data), bwd)


def linear(x, w, b=None):
    """Affine map on the last extent, x @ w + b: one (P, C) @ (C, Cout) GEMM
    over the flattened leading extents, with the bias added in place.  The
    backward is the adjoint of the batched `matmul` followed by `add`."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear needs (..., C) @ (C, Cout) with rank >= 2 input, got {x.shape} @ {w.shape}")
    if b is not None and b.shape != w.shape[1:]:
        raise ShapeError(f"linear bias shape {b.shape} != ({w.shape[1]},)")
    y = _gemm(x.data.reshape(-1, w.shape[0]), w.data)
    if b is not None:
        y = _by_rows(np.add, (y, b.data), y if y.dtype == np.result_type(y, b.data) else _empty(y, b.data))

    def bwd(g):
        gx = _gemm(g, w.data.T)
        gw = _unbroadcast(_gemm(np.swapaxes(x.data, -1, -2), g), w.shape)
        if b is None:
            return gx, gw
        return gx, gw, _unbroadcast(g, b.shape)

    inputs = (x, w) if b is None else (x, w, b)
    return _record("linear", inputs, y.reshape(x.shape[:-1] + w.shape[1:]), bwd)


def softmax_last(a):
    """Numerically stabilized softmax over the last extent; rows sum to 1."""
    if a.shape[-1] < 1:
        raise ShapeError("softmax_last needs a nonempty last extent")
    if not np.isfinite(a.data).all():
        raise NumericError("softmax_last received non-finite input")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _record("softmax", (a,), y, bwd)


def layer_norm(x, gamma, beta):
    """Zero-mean unit-variance normalization over the channel (last) extent
    (variance offset 1e-5), followed by the gamma/beta affine map."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"layer_norm channel extent {c} does not match gamma {gamma.shape} / beta {beta.shape}"
        )
    rows = x.data.reshape(-1, c)
    xhat = np.empty_like(rows)
    inv = np.empty((rows.shape[0], 1), dtype=x.dtype)
    y = _by_rows(_ln_forward, (rows, gamma.data, beta.data), _empty(rows, gamma.data, beta.data),
                 xhat, inv, block=_BLOCK)

    def bwd(g):
        g = g.reshape(-1, c)
        # dgamma and dbeta sum over rows, so they are never split
        dgamma = (g * xhat).sum(axis=0)
        dbeta = g.sum(axis=0)
        dx = _by_rows(_ln_dx, (g, gamma.data, xhat, inv), _empty(g, gamma.data, xhat), block=_BLOCK)
        return dx.reshape(x.shape), dgamma, dbeta

    return _record("layer_norm", (x, gamma, beta), y.reshape(x.shape), bwd)


def _ln_forward(x, gamma, beta, y, xhat, inv):
    xc = x - x.mean(axis=-1, keepdims=True)
    np.divide(1.0, np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5), out=inv)
    np.multiply(xc, inv, out=xhat)
    np.add(xhat * gamma, beta, out=y)


def _ln_dx(g, gamma, xhat, inv, dx):
    dxhat = g * gamma
    np.multiply(inv, dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True), out=dx)


# ---------------------------------------------------------------------------
# volumetric primitives
# ---------------------------------------------------------------------------

def _triple(v):
    if isinstance(v, int):
        return (v, v, v)
    return tuple(v)


def conv3d(x, kernel, bias=None, stride=1, padding=0):
    """3D convolution over a channels-last volume.

    x: (D, H, W, Cin); kernel: (kd, kh, kw, Cin, Cout); valid-style output
    extents floor((in + 2p - k)/stride) + 1 with symmetric zero padding.
    Computed by shift-and-accumulate over the kernel taps, so the extra
    memory is O(input) rather than an im2col matrix k^3 times the input.
    Stride-1 taps read row ranges of the flat padded input in place; strided
    taps and the backward pass copy each tap's window into a slab.
    """
    if x.ndim != 4 or kernel.ndim != 5:
        raise ShapeError(f"conv3d expects x rank 4 and kernel rank 5, got {x.shape} and {kernel.shape}")
    kd, kh, kw, cin, cout = kernel.shape
    if x.shape[3] != cin:
        raise ShapeError(f"conv3d input channels {x.shape[3]} != kernel Cin {cin}")
    stride = _triple(stride)
    padding = _triple(padding)
    if min(stride) < 1:
        raise ShapeError(f"conv3d stride must be >= 1 per axis, got {stride}")
    padded = tuple(x.shape[i] + 2 * padding[i] for i in range(3))
    if padded[0] < kd or padded[1] < kh or padded[2] < kw:
        raise ShapeError(
            f"conv3d kernel {(kd, kh, kw)} larger than padded input {padded}"
        )
    out_sp = tuple((padded[i] - k) // stride[i] + 1 for i, k in enumerate((kd, kh, kw)))

    xp = x.data
    if any(padding):
        xp = np.pad(xp, ((padding[0],) * 2, (padding[1],) * 2, (padding[2],) * 2, (0, 0)))
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv3d bias shape {bias.shape} != ({cout},)")
    w = kernel.data
    taps = _conv_taps((kd, kh, kw), stride, out_sp)

    # one (rows, Cin) @ (Cin, Cout) GEMM per tap, summed in fixed tap order
    # so reruns are bit-identical
    if stride == (1, 1, 1):
        full = _conv_frame(xp, w, out_sp)
    else:
        full = _conv_slabs(xp, w, taps, out_sp)
    # full holds the output voxels, maybe inside a wider frame; one pass
    # copies them out and adds the bias
    out = full if full.flags.c_contiguous else np.empty(full.shape, full.dtype)
    if bias is not None:
        _by_rows(np.add, (full, bias.data), out)
    elif out is not full:
        np.copyto(out, full)

    inputs = (x, kernel) if bias is None else (x, kernel, bias)

    def bwd(g):
        gm = g.reshape(-1, cout)
        dw = np.empty(kernel.shape, dtype=np.result_type(xp, gm))

        def dw_taps(lo, hi):
            for tap, window in taps[lo:hi]:
                np.matmul(xp[window].reshape(-1, cin).T, gm, out=dw[tap])

        # dw[tap] sums over every voxel, so the op workers take whole taps
        _split_units(len(taps), _gemm_units(dw.size, gm.shape[0], (len(taps), cin, cout)), dw_taps)
        dxp = np.zeros(xp.shape, dtype=xp.dtype)
        dtap = np.empty(out_sp + (cin,), dtype=np.result_type(gm, w))
        g_planes = gm.reshape(out_sp + (cout,))

        def add_tap_grads(group, lo, hi):
            # output depth planes lo..hi of each tap in `group`, in tap order
            g_rows, dtap_rows = g_planes[lo:hi].reshape(-1, cout), dtap[lo:hi]
            for tap, window in group:
                np.matmul(g_rows, w[tap].T, out=dtap_rows.reshape(-1, cin))
                dx = dxp[window][lo:hi]
                np.add(dx, dtap_rows, out=dx)

        # taps that share a depth offset write disjoint planes of dxp from
        # disjoint output planes, so the op workers take output planes of one
        # such group at a time, and every voxel sums its taps in tap order
        units = _gemm_units(dtap.size, cout, dtap.shape)
        group = len(taps) // kd
        for a in range(kd):
            _split_units(out_sp[0], units,
                         functools.partial(add_tap_grads, taps[a * group:(a + 1) * group]))
        del dtap
        dx = np.ascontiguousarray(dxp[tuple(slice(p, p + n) for p, n in zip(padding, x.shape))])
        if bias is None:
            return dx, dw
        return dx, dw, gm.sum(axis=0)

    return _record("conv3d", inputs, out, bwd)


def _conv_frame(xp, w, out_sp):
    """Stride-1 taps over the flat padded input.  Output voxel (d, h, w)
    sits at row q = (d*Hp + h)*Wp + w of a frame with the padded input's
    H and W extents, and tap (a, b, c) multiplies input row
    q + (a*Hp + b)*Wp + c, so each tap's operand is a contiguous row range
    of that input and needs no copy.  Returns the output voxels as a view
    into the frame."""
    kd, kh, kw, cin, cout = w.shape
    hp, wp = xp.shape[1:3]
    flat = xp.reshape(-1, cin)
    # the last tap's row range ends at the last input row
    rows = flat.shape[0] - (((kd - 1) * hp + kh - 1) * wp + kw - 1)
    # frame rows past `rows` are outside every output voxel and stay unset
    frame = np.empty((out_sp[0] * hp * wp, cout), dtype=np.result_type(xp, w))
    operands = [flat[(a * hp + b) * wp + c:][:rows] for a, b, c in np.ndindex(kd, kh, kw)]
    _by_rows(_tap_sum(w), operands, frame[:rows], k=cin)
    return frame.reshape(out_sp[0], hp, wp, cout)[:, : out_sp[1], : out_sp[2]]


def _conv_slabs(xp, w, taps, out_sp):
    """Strided taps: each copies its window of the padded input into a
    (P, Cin) slab for its GEMM; the op workers take ranges of output depth
    planes."""
    cin, cout = w.shape[3:]
    out = np.empty(out_sp + (cout,), dtype=np.result_type(xp, w))
    _by_rows(_tap_sum(w), [xp[window] for _, window in taps], out, k=cin)
    return out


def _tap_sum(w):
    """Kernel that sums one (rows, Cin) @ (Cin, Cout) product per tap, in
    tap order, into its rows of the output, with a product buffer of its
    own.  Its operands are the taps' inputs, row for row with the output."""
    cin, cout = w.shape[3:]
    w_taps = w.reshape(-1, cin, cout)

    def kernel(*operands):
        *inputs, out = operands
        out = out.reshape(-1, cout)
        prod = np.empty_like(out)
        for i, (x, wt) in enumerate(zip(inputs, w_taps)):
            np.matmul(x.reshape(-1, cin), wt, out=prod if i else out)
            if i:
                out += prod
    return kernel


def _conv_taps(ksize, stride, out_sp):
    """((a, b, c), window) for every kernel tap in lexicographic order, where
    window slices the padded input at the positions that tap multiplies."""
    return [
        ((a, b, c), tuple(slice(o, o + n * s, s) for o, n, s in zip((a, b, c), out_sp, stride)))
        for a in range(ksize[0])
        for b in range(ksize[1])
        for c in range(ksize[2])
    ]


def avg_pool3d(x):
    """Stride-1 3x3x3 box average over a channels-last volume (zero padded,
    padding counted in the divisor).  Self-adjoint, so the backward pass is
    the same pooling applied to the gradient."""
    if x.ndim != 4:
        raise ShapeError(f"avg_pool3d expects rank 4, got {x.shape}")
    return _record("avg_pool3d", (x,), _box_mean(x.data), lambda g: (_box_mean(g),))


def _box_mean(arr):
    ap = np.pad(arr, ((1, 1), (1, 1), (1, 1), (0, 0)))
    out = np.zeros_like(arr)
    d, h, w = arr.shape[:3]
    for a in range(3):
        for b in range(3):
            for c in range(3):
                out += ap[a: a + d, b: b + h, c: c + w]
    return out / 27.0


def global_pool(x):
    """Per-channel mean over all spatial positions: (d, w, h, C) -> (C,)."""
    if x.ndim != 4:
        raise ShapeError(f"global_pool expects rank 4, got {x.shape}")
    n = x.shape[0] * x.shape[1] * x.shape[2]

    def bwd(g):
        return (np.broadcast_to(g / n, x.shape).copy(),)

    return _record("global_pool", (x,), x.data.mean(axis=(0, 1, 2)), bwd)


def _upsample_axis_plan(n):
    # output o samples input at (o + 0.5)/2 - 0.5 (corner alignment off)
    o = np.arange(2 * n)
    s = (o + 0.5) / 2.0 - 0.5
    i0f = np.floor(s)
    w1 = s - i0f
    i0 = np.clip(i0f.astype(np.intp), 0, n - 1)
    i1 = np.clip(i0f.astype(np.intp) + 1, 0, n - 1)
    return i0, i1, w1


def _upsample_once(arr):
    for axis in range(3):
        i0, i1, w1 = _upsample_axis_plan(arr.shape[axis])
        sh = [1] * arr.ndim
        sh[axis] = w1.size
        w1b = w1.reshape(sh).astype(arr.dtype)
        arr = (1.0 - w1b) * np.take(arr, i0, axis=axis) + w1b * np.take(arr, i1, axis=axis)
    return arr


def _upsample_once_adjoint(g):
    # per axis the forward is out[2i] = x[i-1]/4 + 3x[i]/4 and
    # out[2i+1] = 3x[i]/4 + x[i+1]/4, indices clamped at the edges; the terms
    # are added in the order of a scatter-add over the output index, so the
    # result is bit-identical to one
    for axis in (2, 1, 0):
        gm = np.moveaxis(g, axis, 0)
        even, odd = gm[0::2], gm[1::2]
        out = 0.75 * odd
        out[0] += 0.25 * even[0]
        out[:-1] += 0.25 * even[1:]
        out[1:] += 0.25 * odd[:-1]
        out += 0.75 * even
        out[-1] += 0.25 * odd[-1]
        g = np.moveaxis(out, 0, axis)
    return np.ascontiguousarray(g)


def upsample2x(x, times=1):
    """Trilinear upsampling of a channels-last volume; each application
    doubles every spatial extent.  times=0 is the identity."""
    if x.ndim != 4:
        raise ShapeError(f"upsample2x expects rank 4, got {x.shape}")
    if times < 0:
        raise ContractError(f"upsample2x times must be >= 0, got {times}")
    out = x
    for _ in range(times):
        out = _record("upsample2x", (out,), _upsample_once(out.data),
                      lambda g: (_upsample_once_adjoint(g),))
    return out


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, params, eps=1e-5, max_entries=None, seed=0):
    """Max relative error between taped gradients and central differences.

    `f` is a deterministic closure over `params` returning a scalar Tensor;
    parameters should be float64.  The relative error for one entry is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).

    `max_entries` caps how many entries per parameter get perturbed (a seeded
    random sample); every parameter is still touched, which keeps large-model
    checks affordable without skipping any tensor.
    """
    params = list(params)
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = f()
    if not np.isfinite(loss.data).all():
        raise NumericError("grad_check objective is non-finite")
    backward(loss, tape, leaves=params)
    analytic = [p.grad.reshape(-1).astype(np.float64).copy() for p in params]

    pick = np.random.default_rng(seed)
    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        if max_entries is None or flat.size <= max_entries:
            indices = range(flat.size)
        else:
            indices = pick.choice(flat.size, size=max_entries, replace=False)
        for i in indices:
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = f().data.item()
            flat[i] = saved - eps
            f_minus = f().data.item()
            flat[i] = saved
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError("grad_check objective is non-finite under perturbation")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(ana[i] - numeric) / max(1e-8, abs(ana[i]) + abs(numeric))
            worst = max(worst, err)
    return worst
