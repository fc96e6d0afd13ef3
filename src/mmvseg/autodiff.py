"""Dense N-d float tensors with taped reverse-mode differentiation.

Every differentiable operation in the package is built from the primitives
in this module.  Ops compute eagerly with numpy; when a `Tape` is active and
an input requires gradients, a node holding the backward closure is recorded.
`backward` then consumes the tape in reverse, freeing each node once its
backward has run, and accumulates gradients into the participating leaf
tensors.

Volumes are laid out channels-last and row-major: a feature map has shape
(d, w, h, C) and flattens to tokens in C order (h fastest).

`gelu`, `layer_norm` (forward and `dx`), the forward of `add`, `sub` and
`mul`, the bias adds of `linear`, `patch_linear` and `conv3d`, their GEMMs
(forward and backward) and the forwards of `feed_forward` and `gated_sum`
split large outputs into contiguous ranges of rows, one per op worker.
Every element and every per-row reduction is computed by the same numpy
call as on a single thread, so the results do not depend on the split.  The
parameter gradients of `linear`, `patch_linear`, `layer_norm`,
`feed_forward` and `conv3d` sum over rows by one fixed-chunk rule
(`_chunk_sums`), so their bits depend on the row count alone.  The op pool
is the process's one parallel runtime: at import, every OpenBLAS library
loaded in the process is set to one thread.

An op that records no tape node keeps no backward state: untaped, `gelu`'s
cdf, `feed_forward`'s hidden layer and `gated_sum`'s gated products live
only in the scratch of one block of rows.  A recorded node keeps only what
its backward cannot rebuild: `layer_norm` and `feed_forward` each row's
mean and inverse deviation, `gelu` its input; their backwards rebuild the
normalized input, fc1's output and gelu's cdf per chunk of rows, bit for
bit.  No call keeps a padded copy of `conv3d`'s input, which its forward and
kernel gradient pad one block of output depth planes at a time in scratch,
nor `patch_linear`'s patch matrix, which its backward cuts again by chunks.
`global_pool`, `feed_forward` with a `shift` and `conv3d` with a `skip`
match the chains layer_norm-tmean, add-feed_forward and concat-conv3d bit
for bit, and make each chain's middle array only as scratch.
"""

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import erf, expit

from .errors import ContractError, NumericError, ShapeError

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327


class _ActiveTape(threading.local):
    """The tape each thread records onto: the innermost `Tape` it entered."""

    tape = None


_active_tape = _ActiveTape()

_SPLIT_MIN = 1 << 17  # output elements; smaller outputs take one kernel call
_GEMM_MIN = 1 << 21  # multiply-adds per range of a split GEMM
_BLOCK = 1 << 16  # elements per block of a multi-pass kernel, so temporaries stay in L2
_CHUNK_ROWS = 1 << 11  # rows per chunk of a fixed-chunk sum, at least
_MAX_CHUNKS = 16  # chunks per sum, so the partials stay a few MB

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

    def __init__(self, data, requires_grad=False):
        # note: ascontiguousarray would promote 0-d scalars to shape (1,)
        arr = np.asarray(data, order="C")
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

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    def __rmul__(self, other):
        return mul(_as_tensor(other, self.dtype), self)

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


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
    differentiated.  The active tape is per thread: ops record onto the
    tape their own thread entered last, so threads may each record under a
    tape of their own, but must not share one.
    """

    def __init__(self):
        self.nodes = []
        self.consumed = False  # by a backward, which pops every node
        self._prev = None

    def __enter__(self):
        self._prev = _active_tape.tape
        _active_tape.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _active_tape.tape = self._prev
        self._prev = None
        return False

    def __len__(self):
        return len(self.nodes)


def _records(inputs):
    """Whether an op on `inputs` records a tape node: a tape is active and an
    input requires gradients.  An op that will not record keeps no backward
    state."""
    return _active_tape.tape is not None and any(t.requires_grad for t in inputs)


def _record(op, inputs, out_data, backward):
    """Wrap `out_data` in a Tensor, recording a node if gradients are needed."""
    out = Tensor(out_data)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._leaf = False
    if _records(inputs):
        _active_tape.tape.nodes.append(Node(op, tuple(inputs), out, backward))
    return out


def backward(loss, tape, leaves=None):
    """Accumulate d(loss)/d(leaf) into `.grad` of every reachable leaf.

    `loss` must be a scalar produced under `tape`.  Gradients add into any
    existing `.grad`, and multiple uses of a tensor within the graph sum.
    When `leaves` is given, every listed tensor is guaranteed a gradient
    buffer afterwards (zeros if the loss does not depend on it).  It
    consumes the tape, popping each node before running its backward, so a
    node's saved arrays are freed once its input gradients exist; a second
    backward on the emptied tape is a ContractError.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape.consumed:
        raise ContractError("backward already consumed this tape; record the forward again")
    tape.consumed = True
    # a waiting gradient holds its tensor, so no id is reused while it waits
    grads = {id(loss): (loss, np.ones_like(loss.data))}
    while tape.nodes:
        node = tape.nodes.pop()
        _, g = grads.pop(id(node.output), (None, None))
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
                held = grads.get(id(t))
                grads[id(t)] = (t, gi if held is None else held[1] + gi)
    if leaves is not None:
        for p in leaves:
            if p.requires_grad and p.grad is None:
                p.zero_grad()


def _split_rows(n, kernel, parts=None):
    """Call kernel(lo, hi) on contiguous ranges that cover range(n), one
    range per op worker but at most `parts`; the caller runs the first and
    waits for the rest.  Each kernel writes its rows of a preallocated output
    in place, and never calls _split_rows itself: the pool has a thread fewer
    than there are workers, so a nested split could wait forever."""
    k = max(1, min(OP_WORKERS, n, n if parts is None else parts))
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
    kernel's temporaries stay in cache.  A range's last block takes in a
    tail shorter than a block, so no kernel call gets fewer rows than a
    block holds, or than its range if that is shorter.  An input of lower
    rank than the outputs, or of extent 1 on the first axis, broadcasts and
    is passed whole.

    A GEMM kernel passes its inner extent `k`, and one size rule splits it:
    one range per op worker, but every range keeps at least _GEMM_MIN
    multiply-adds (outs[0].size * k in all) and two rows, and a product with
    one column stays whole.  So a small product stays one BLAS call, and no
    range is a one-row or one-column product, which BLAS may hand to a
    matrix-vector kernel that sums in another order.  Each range computes
    exactly the dot products of the unsplit call, and so does each block of
    a range when no block is shorter than two rows and _GEMM_MIN
    multiply-adds."""
    out = outs[0]
    if k is None:
        parts = out.shape[0] if out.size >= _SPLIT_MIN else 1
    else:
        parts = _gemm_units(out.size * k, out.shape[0], out.shape[-1])
    if parts < 2:
        kernel(*args, *outs)
        return out
    n = out.shape[0]
    step = n if block is None else max(1, block * n // out.size)

    def rows(a, s, e):
        return a if a.ndim < out.ndim or a.shape[0] == 1 else a[s:e]

    def work(lo, hi):
        s = lo
        while s < hi:
            # a tail shorter than a block joins the block before it, so no
            # block of a range is shorter than `step` rows or the range
            e = hi if hi - s < 2 * step else s + step
            kernel(*(rows(a, s, e) for a in args), *(o[s:e] for o in outs))
            s = e

    _split_rows(n, work, parts)
    return out


def _gemm_units(madds, rows, cols):
    """_by_rows's GEMM size rule: at most how many ranges of whole rows a
    product of `madds` multiply-adds, with `rows` rows and `cols` columns,
    splits into; below 2 it stays one call."""
    return min(madds // _GEMM_MIN, rows // 2) if cols > 1 else 1


def _gemm(a, b):
    """np.matmul(a, b) for (rows, K) `a` and (K, N) `b`, split over a's rows
    by _by_rows's GEMM rule."""
    out = np.empty(a.shape[:-1] + b.shape[-1:], np.result_type(a, b))
    return _by_rows(lambda a_rows, out_rows: np.matmul(a_rows, b, out=out_rows), (a,), out, k=a.shape[-1])


def _chunk_sums(n, kernel, shapes, dtype, unit=1, parts=None):
    """Sums over n items (rows, or output planes of `unit` voxels each) by
    one fixed rule, so that their bits do not depend on the op workers (the
    fixed-partition reproducible sum of Demmel & Nguyen, ARITH 2013).  The
    items are cut into k chunks, at least _CHUNK_ROWS rows each unless there
    are fewer and at most _MAX_CHUNKS, whose bounds depend on n and unit
    alone.  kernel(lo, hi, *partials) writes chunk [lo, hi)'s partial of
    each sum, an array of each of `shapes`, into the slots it is given, and
    may write rows lo:hi of outputs of its own; it never calls _split_rows.
    The op workers, at most `parts` of them, take whole chunks, and the
    partials are added in chunk order."""
    k = max(1, min(n, n * unit // _CHUNK_ROWS, _MAX_CHUNKS))
    bounds = [n * i // k for i in range(k + 1)]
    partials = [np.empty((k,) + tuple(shape), dtype) for shape in shapes]

    def run(first, last):
        for i in range(first, last):
            kernel(bounds[i], bounds[i + 1], *(p[i] for p in partials))

    if min(k, OP_WORKERS, k if parts is None else parts) < 2:
        run(0, k)
    else:
        _split_rows(k, run, parts)
    return [sum(p[1:], p[0]) for p in partials]


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
    return _record("add", (a, b), _by_rows(np.add, (a.data, b.data), _empty(a.data, b.data)),
                   lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b):
    return _record("sub", (a, b), _by_rows(np.subtract, (a.data, b.data), _empty(a.data, b.data)),
                   lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b):
    return _record("mul", (a, b), _by_rows(np.multiply, (a.data, b.data), _empty(a.data, b.data)),
                   lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def div(a, b):
    return _record("div", (a, b), a.data / b.data, lambda g: (
        _unbroadcast(g / b.data, a.shape), _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def neg(a):
    return _record("neg", (a,), -a.data, lambda g: (-g,))


def texp(a):
    out_data = np.exp(a.data)
    return _record("exp", (a,), out_data, lambda g: (g * out_data,))


def tlog(a):
    return _record("log", (a,), np.log(a.data), lambda g: (g / a.data,))


def gelu(a):
    """Exact (erf-based) Gaussian error linear unit, x * (1 + erf(x/sqrt 2)) / 2.

    float64 takes erf from scipy.  float32 evaluates the same function to
    float32 accuracy: erf is the rational form of _erf32, whose largest
    error against the exact erf is below 5e-7.  A recorded node keeps only
    its input: forward and backward, the cdf is scratch of one block."""
    x = a.data.reshape(-1)
    y = _by_rows(_gelu_forward, (x,), np.empty_like(x), block=_BLOCK)

    def bwd(g):
        g = g.reshape(-1)
        return (_by_rows(_gelu_grad, (x, g), _empty(g, x), block=_BLOCK).reshape(a.shape),)

    return _record("gelu", (a,), y.reshape(a.shape), bwd)


def _gelu_forward(x, y):
    # cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2)) and y = x * cdf, op by op,
    # returning the cdf; float32's erf takes y as scratch before y is written
    cdf = np.multiply(x, _INV_SQRT2)
    if cdf.dtype == np.float32:
        _erf32(cdf, y)
    else:
        erf(cdf, out=cdf)
    np.add(cdf, 1.0, out=cdf)
    np.multiply(cdf, 0.5, out=cdf)
    np.multiply(x, cdf, out=y)
    return cdf


# Eigen's generic_fast_erf_float (XLA's float32 erf): erf(z) = z P(z^2) / Q(z^2)
# for z clamped to [-4, 4], with P of degree 6 in z^2 and Q of degree 4,
# coefficients from the highest power down
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
    -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
    -1.42647390514189e-02))


def _erf32(z, scratch):
    """erf of the contiguous float32 array `z`, in place; `scratch`, of z's
    size, holds z^2.  P and Q run one _BLOCK of elements at a time through
    one block-sized buffer.  The result is odd in z bit for bit, keeps the
    sign of zero, maps +-inf to +-1 and NaN to NaN."""
    z, sq = z.reshape(-1), scratch.reshape(-1)
    np.clip(z, -4.0, 4.0, out=z)
    np.multiply(z, z, out=sq)
    buf = np.empty(min(z.size, _BLOCK), z.dtype)
    for lo in range(0, z.size, _BLOCK):
        zs, s = z[lo:lo + _BLOCK], sq[lo:lo + _BLOCK]
        poly = buf[:zs.size]
        np.multiply(zs, _horner(s, _ERF_P, poly), out=zs)
        np.divide(zs, _horner(s, _ERF_Q, poly), out=zs)


def _horner(s, coeffs, out):
    """The polynomial in `s` with `coeffs` (highest power first), into `out`."""
    np.multiply(s, coeffs[0], out=out)
    np.add(out, coeffs[1], out=out)
    for c in coeffs[2:]:
        np.multiply(out, s, out=out)
        np.add(out, c, out=out)
    return out


def _gelu_grad(x, g, dx, cdf=None):
    # g * (cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT2PI)), op by op; a cdf
    # not given is rebuilt by _gelu_forward, elementwise, so bit for bit
    p = np.empty_like(x)
    cdf = _gelu_forward(x, p) if cdf is None else cdf
    np.multiply(x, -0.5, out=p)
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
    return _reduce("sum", a, axis, keepdims)


def tmean(a, axis=None, keepdims=False):
    return _reduce("mean", a, axis, keepdims)


def _reduce(op, a, axis, keepdims):
    """The sum of `a` over `axis` (None, an int or a tuple of them, negative
    ones allowed, as numpy takes it), divided by its term count for "mean"."""
    y = a.data.sum(axis=axis, keepdims=keepdims)
    n = a.size // max(y.size, 1) if op == "mean" else 1

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, a.shape).copy(),)

    return _record(op, (a,), y / n if op == "mean" else y, bwd)


def reshape(a, shape):
    old = a.shape
    return _record("reshape", (a,), a.data.reshape(tuple(shape)), lambda g: (g.reshape(old),))


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
    return _record("moveaxis", (a,), np.ascontiguousarray(np.moveaxis(a.data, source, destination)),
                   lambda g: (np.ascontiguousarray(np.moveaxis(g, destination, source)),))


def concat(tensors, axis):
    tensors = list(tensors)
    axis = axis % tensors[0].ndim
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _record("concat", tuple(tensors), np.concatenate([t.data for t in tensors], axis=axis),
                   lambda g: tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis)))


def gated_sum(gates, feats):
    """sum_i feats[i] * gates[..., i:i+1] for M features (..., C) of one
    shape and gates (..., M), as one tape node.

    The forward runs on blocks of rows: it writes feats[0] times its gate
    into the output, then adds each further gated feature, in order, from a
    block of scratch, so no full-size product or partial sum is made.  Each
    product is rounded before its add, so the output is bit-identical to
    the chain of take, mul and add nodes, and so are the gradients, which
    use that chain's expressions: d feats[i] = g * gates[..., i:i+1] and
    d gates[..., i] = (g * feats[i]).sum(axis=-1)."""
    feats = list(feats)
    if (gates.ndim < 1 or not feats or len(feats) != gates.shape[-1]
            or any(f.shape != feats[0].shape for f in feats) or feats[0].shape[:-1] != gates.shape[:-1]):
        raise ShapeError(f"gated_sum needs one feature (..., C) per gate channel of (..., M), all of one "
                         f"shape, got gates {gates.shape} and features {[f.shape for f in feats]}")
    shape = feats[0].shape
    rows = [f.data.reshape(-1, shape[-1]) for f in feats]
    out = np.empty(rows[0].shape, np.result_type(gates.data, *rows))
    _by_rows(_gated_sum_kernel, (gates.data.reshape(-1, len(feats)), *rows), out, block=_BLOCK)

    def bwd(g):
        dgates = np.empty(gates.shape, np.result_type(g, *rows))
        for i, f in enumerate(feats):
            dgates[..., i] = (g * f.data).sum(axis=-1)
        return (dgates, *(g * gates.data[..., i:i + 1] for i in range(len(feats))))

    return _record("gated_sum", (gates, *feats), out.reshape(shape), bwd)


def _gated_sum_kernel(gates, *operands):
    *feats, out = operands
    np.multiply(feats[0], gates[:, :1], out=out)
    prod = np.empty_like(out)
    for i, f in enumerate(feats[1:], 1):
        np.multiply(f, gates[:, i:i + 1], out=prod)
        np.add(out, prod, out=out)


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
    """Affine map on the last extent, x @ w + b, of x (..., C) of any rank
    >= 1, over the flattened leading extents (a (C,) vector is one row): an
    `_affine` node."""
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear needs (..., C) @ (C, Cout), got {x.shape} @ {w.shape}")
    if b is not None and b.shape != w.shape[1:]:
        raise ShapeError(f"linear bias shape {b.shape} != ({w.shape[1]},)")
    return _affine("linear", (x, w, b), lambda a: a.reshape(-1, w.shape[0]), x.shape[:-1] + w.shape[1:])


def _affine(op, inputs, unfold, out_shape):
    """The `op` node of x's rows times w, plus b, shaped `out_shape`, for
    inputs (x, w, b) with b None or (Cout,).  unfold(a) views an array of
    x's shape with units of whole rows on its first axis: flattened, they
    are the (P, C) matrix that w, read as (C, Cout), multiplies.  One GEMM
    split by _by_rows's GEMM rule, with the bias added in place.  The
    backward cuts the rows again per chunk of the weight and bias gradients,
    fixed-chunk sums of rows[chunk].T @ g[chunk] and g[chunk].sum(axis=0),
    and makes the input gradient by GEMMs over blocks of whole units, each at
    least _BLOCK elements and two rows, so it copies no more than a block of
    the rows at a time."""
    x, kernel, bias = inputs
    w, b = kernel.data.reshape(-1, kernel.shape[-1]), None if bias is None else bias.data
    n, units = math.prod(out_shape[:-1]), unfold(x.data)
    unit = n // len(units)  # rows per unit

    def rows(lo, hi):
        s = lo // unit
        return units[s:-(-hi // unit)].reshape(-1, w.shape[0])[lo - s * unit:hi - s * unit]

    y = _gemm(rows(0, n), w)
    if b is not None:
        y = _by_rows(np.add, (y, b), y if y.dtype == np.result_type(y, b) else _empty(y, b))

    def bwd(g):
        g = g.reshape(n, w.shape[1])

        def chunk(lo, hi, gw, gb=None):
            np.matmul(rows(lo, hi).T, g[lo:hi], out=gw)
            if gb is not None:
                np.sum(g[lo:hi], axis=0, out=gb)

        shapes = (w.shape,) if b is None else (w.shape, b.shape)
        gw, *gb = _chunk_sums(n, chunk, shapes, np.result_type(x.data, g), parts=g.size * w.shape[0] // _GEMM_MIN)
        dx = np.empty(x.shape, np.result_type(g, w))
        # a product with one column stays whole, as _gemm keeps it
        view, k = unfold(dx), max(1, min(len(units), dx.size // _BLOCK, n // 2)) if w.shape[0] > 1 else 1
        for s, e in ((len(units) * i // k, len(units) * (i + 1) // k) for i in range(k)):
            view[s:e] = _gemm(g[s * unit:e * unit], w.T).reshape(view[s:e].shape)
        return (dx, gw.reshape(kernel.shape), *gb)

    return _record(op, inputs if b is not None else inputs[:2], y.reshape(out_shape), bwd)


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
    (variance offset 1e-5), followed by the gamma/beta affine map.  A
    recorded node keeps each row's mean and inv, from which _ln_xhat
    rebuilds the normalized input per chunk of its backward."""
    rows, y, stats = _ln_rows("layer_norm", x, gamma, beta)
    return _record("layer_norm", (x, gamma, beta), y.reshape(x.shape),
                   lambda g: _ln_grads(g, gamma.data, rows, *stats))


def _ln_rows(op, x, gamma, beta):
    """layer_norm's forward for `op`: x's (rows, C) view, the (rows, C)
    output and, when a node will record, each row's mean and inv."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"{op} channel extent {c} does not match gamma {gamma.shape} / beta {beta.shape}")
    rows = x.data.reshape(-1, c)
    stats = np.empty((2, len(rows), 1), x.dtype) if _records((x, gamma, beta)) else ()
    y = _by_rows(_ln_forward, (rows, gamma.data, beta.data), _empty(rows, gamma.data, beta.data),
                 *stats, block=_BLOCK)
    return rows, y, stats


def _ln_grads(g, gamma, x, mean, inv):
    """layer_norm's input, gamma and beta gradients for upstream `g` of any
    shape (..., C), the forward's (rows, C) input `x` and its (rows, 1) row
    `mean` and `inv`, in one pass over fixed chunks of rows: each chunk
    rebuilds its xhat and runs _ln_dx on its rows."""
    rows = g.reshape(-1, gamma.shape[0])
    dx = _empty(rows, gamma, x)

    def kernel(lo, hi, dgamma, dbeta):
        _ln_dx(rows[lo:hi], gamma, _ln_xhat(x[lo:hi], mean[lo:hi], inv[lo:hi]), inv[lo:hi], dx[lo:hi],
               dgamma, dbeta)

    parts = None if rows.size >= _SPLIT_MIN else 1
    dgamma, dbeta = _chunk_sums(len(rows), kernel, (gamma.shape, gamma.shape), np.result_type(rows, x),
                                parts=parts)
    return dx.reshape(g.shape), dgamma, dbeta


def _ln_forward(x, gamma, beta, y, mean=None, inv=None):
    """layer_norm on a block of rows, into the row `mean` and `inv` if given."""
    xc = np.subtract(x, np.mean(x, axis=-1, keepdims=True, out=mean))
    inv = np.divide(1.0, np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5), out=inv)
    _ln_affine(np.multiply(xc, inv, out=xc), gamma, beta, y)


def _ln_xhat(x, mean, inv):
    """_ln_forward's xhat of rows `x`: its own two ufunc calls on the same operands."""
    xc = np.subtract(x, mean)
    return np.multiply(xc, inv, out=xc)


def _ln_affine(xhat, gamma, beta, y):
    np.add(xhat * gamma, beta, out=y)


def _ln_dx(g, gamma, xhat, inv, dx, dgamma, dbeta):
    """layer_norm's backward on a chunk of rows: the input gradient into `dx`,
    the partials (g * xhat).sum(axis=0) and g.sum(axis=0) into dgamma, dbeta."""
    dxhat = g * gamma
    np.multiply(inv, dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True), out=dx)
    np.sum(g * xhat, axis=0, out=dgamma)
    np.sum(g, axis=0, out=dbeta)


def feed_forward(x, gamma, beta, w1, b1, w2, b2, shift=None):
    """The pre-norm feed-forward y + gelu(layer_norm(y) @ w1 + b1) @ w2 + b2
    of y = x, or of y = x + shift for a (C,) `shift`, as one tape node.

    The forward runs the whole chain on blocks of rows, through _by_rows's
    GEMM rule; each block keeps at least _GEMM_MIN multiply-adds per GEMM and
    two rows, so every block GEMM computes the dot products of the unsplit
    call.  Without a node to record, the hidden layer lives only in block
    scratch.  A recorded node keeps only each row's layer_norm mean and inv.
    Its backward is one pass over _chunk_sums's fixed chunks of rows, at
    least _CHUNK_ROWS each or all of them, so by the same rule a chunk's GEMM
    rebuilds the forward's rows of the first linear, and gelu, elementwise,
    its cdf.  Each chunk rebuilds the chain's outputs and runs its backward
    expressions on its rows in scratch of its own, writing its rows of the
    input gradient and its partials of the six parameter gradients, the same
    partials as the chain's `linear` and `layer_norm`.  So output and
    gradients are bit-identical to the five-node chain layer_norm, linear,
    gelu, linear, add, and no (rows, H) array is allocated.  `x` is listed
    twice among the node's inputs, for the residual gradient and then
    layer_norm's, so `backward` sums them in the chain's order.  A `shift` is
    added to x's rows per forward block and backward chunk, so y is never
    kept; y's gradient g + dx is then x's, and summed over rows the shift's,
    as the add node computed them."""
    c = x.shape[-1] if x.ndim >= 2 else None
    hidden = w1.shape[-1] if w1.ndim == 2 else None
    shapes = (gamma.shape, beta.shape, w1.shape, b1.shape, w2.shape, b2.shape)
    if (c is None or hidden is None or shapes != ((c,), (c,), (c, hidden), (hidden,), (hidden, c), (c,))
            or shift is not None and shift.shape != (c,)):
        raise ShapeError(
            f"feed_forward needs x (..., C) of rank >= 2, gamma, beta, b2 and any shift (C,), w1 (C, H), "
            f"b1 (H,) and w2 (H, C), got x {x.shape}, gamma {gamma.shape}, beta {beta.shape}, "
            f"w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape}, "
            f"shift {None if shift is None else shift.shape}")
    inputs = (x, x, gamma, beta, w1, b1, w2, b2) + (() if shift is None else (shift,))
    params = tuple(t.data for t in inputs[2:8])
    rows, s = x.data.reshape(-1, c), () if shift is None else (shift.data,)
    n, y_dtype = rows.shape[0], np.result_type(rows, *s)
    out = np.empty(rows.shape, np.result_type(y_dtype, *params))
    state = tuple(np.empty((2, n, 1), y_dtype)) if _records(inputs) else ()
    # a block's hidden layer is at least 2 * _BLOCK elements, which stays in
    # L2 and keeps numpy's per-call cost small against the work
    block_rows = max(2, -(-_GEMM_MIN // (c * hidden)), 2 * _BLOCK // hidden)
    _by_rows(_ff_kernel(*params, *s), (rows,), out, *state, block=block_rows * c, k=hidden)

    def bwd(g):
        mean, inv = state
        g = g.reshape(-1, c)
        dx = np.empty_like(g)

        def kernel(lo, hi, dgamma, dbeta, gw1, gb1, gw2, gb2):
            g_rows = g[lo:hi]
            # layer_norm's and fc1's outputs, rebuilt as the forward computed them
            y_rows = rows[lo:hi] if shift is None else np.add(rows[lo:hi], shift.data)
            xhat = _ln_xhat(y_rows, mean[lo:hi], inv[lo:hi])
            y = np.empty(xhat.shape, out.dtype)
            _ln_affine(xhat, gamma.data, beta.data, y)
            a = np.matmul(y, w1.data)
            np.add(a, b1.data, out=a)
            # fc2: its input is gelu's output, rebuilt with the cdf; the input
            # gradient overwrites it, and gelu's input gradient overwrites that
            h = np.empty_like(a)
            cdf = _gelu_forward(a, h)
            np.matmul(h.T, g_rows, out=gw2)
            np.sum(g_rows, axis=0, out=gb2)
            gh = np.matmul(g_rows, w2.data.T, out=h)
            _gelu_grad(a, gh, gh, cdf)
            np.matmul(y.T, gh, out=gw1)
            np.sum(gh, axis=0, out=gb1)
            gy = np.matmul(gh, w1.data.T, out=y)
            _ln_dx(gy, gamma.data, xhat, inv[lo:hi], dx[lo:hi], dgamma, dbeta)

        grads = _chunk_sums(n, kernel, shapes, np.result_type(g, out), parts=g.size * hidden // _GEMM_MIN)
        if shift is None:
            return (g.reshape(x.shape), dx.reshape(x.shape), *grads)
        gy = np.add(g, dx, out=dx).reshape(x.shape)
        return (gy, None, *grads, gy.sum(axis=tuple(range(x.ndim - 1))))

    return _record("feed_forward", inputs, out.reshape(x.shape), bwd)


def _ff_kernel(gamma, beta, w1, b1, w2, b2, shift=None):
    """feed_forward's forward on a block of rows: x (rows, C), plus any
    shift, into y, and the recorded node's row mean and inv."""
    def kernel(x, y, mean=None, inv=None):
        if shift is not None:
            x = np.add(x, shift)
        ln = np.empty_like(y)
        _ln_forward(x, gamma, beta, ln, mean, inv)
        a = np.matmul(ln, w1)
        del ln
        np.add(a, b1, out=a)
        h = np.empty_like(a)
        _gelu_forward(a, h)
        np.matmul(h, w2, out=y)
        np.add(y, b2, out=y)
        np.add(x, y, out=y)
    return kernel


# ---------------------------------------------------------------------------
# volumetric primitives
# ---------------------------------------------------------------------------

def conv3d(x, kernel, bias=None, skip=None):
    """The 'same' 3D convolution of a channels-last volume, one voxel per
    step: x (D, H, W, Cin) by a kernel (kd, kh, kw, Cin, Cout) of odd
    extents, zero padded by k // 2 per axis (half padding, Dumoulin & Visin,
    arXiv:1603.07285), so the output keeps the input's extents.  Computed
    by shift-and-accumulate over the kernel taps, so the extra memory is
    O(input) rather than an im2col matrix k^3 times the input: _plane_sum
    computes the forward and the input gradient (the output gradient
    convolved with the kernel mirrored and transposed in (Cin, Cout), at the
    same padding), and _plane_dw the kernel and bias gradients as
    fixed-chunk sums over blocks of output planes; none of them pads a copy
    of the volume.  A convolution whose taps do not overlap, 1x1x1 included,
    is `patch_linear`.  With a `skip` of x's extents the input is [x, skip]
    on channels, filled into each block's scratch from both and never
    formed; the node's inputs are x, kernel, then bias and skip if given.
    """
    parts = (x,) if skip is None else (x, skip)
    if any(p.ndim != 4 or p.shape[:3] != x.shape[:3] for p in parts) or kernel.ndim != 5:
        raise ShapeError(f"conv3d expects x and any skip (D, H, W, C) of one extent and kernel rank 5, "
                         f"got {[p.shape for p in parts]} and {kernel.shape}")
    kd, kh, kw, cin, cout = kernel.shape
    if sum(p.shape[3] for p in parts) != cin:
        raise ShapeError(f"conv3d input channels {[p.shape[3] for p in parts]} != kernel Cin {cin}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv3d bias shape {bias.shape} != ({cout},)")
    if not all(k % 2 for k in (kd, kh, kw)) or (kd, kh, kw) == (1, 1, 1):
        raise ShapeError(f"conv3d needs odd kernel extents, not all 1 (a 1x1x1 kernel is patch_linear), "
                         f"got {(kd, kh, kw)}")
    vols = tuple(p.data for p in parts)
    out = np.empty(x.shape[:3] + (cout,), dtype=np.result_type(*vols, kernel.data))
    # one (rows, Cin) @ (Cin, Cout) GEMM per tap, summed in fixed tap order
    # so reruns are bit-identical
    _plane_sum(vols, kernel.data, None if bias is None else bias.data, out)

    def bwd(g):
        dw, db = _plane_dw(vols, g, kernel.shape[:3])
        dx = np.empty(x.shape[:3] + (cin,), dtype=np.result_type(*vols))
        _plane_sum((g,), kernel.data.swapaxes(3, 4), None, dx, mirrored=True)
        dxs = [dx] if skip is None else [np.ascontiguousarray(d) for d in np.split(dx, [x.shape[3]], axis=3)]
        return (dxs[0], dw) + (() if bias is None else (db,)) + tuple(dxs[1:])

    inputs = (x, kernel) + (() if bias is None else (bias,)) + (() if skip is None else (skip,))
    return _record("conv3d", inputs, out, bwd)


def patch_linear(x, kernel, bias=None):
    """The convolution of a channels-last volume x (D, H, W, Cin) by a
    kernel (kd, kh, kw, Cin, Cout) that moves by its own extents, which
    must tile the volume's, plus `bias`: a linear map of each
    non-overlapping patch (Dumoulin & Visin, arXiv:1603.07285; Dosovitskiy
    et al., arXiv:2010.11929), as an `_affine` node whose units are the
    planes of patches.  The node keeps x, and no patch matrix.  For a 1x1x1
    kernel the patches are a view of x, and the op is `linear`."""
    if x.ndim != 4 or kernel.ndim != 5 or x.shape[3] != kernel.shape[3]:
        raise ShapeError(f"patch_linear needs x (D, H, W, Cin) and a kernel (kd, kh, kw, Cin, Cout), "
                         f"got {x.shape} and {kernel.shape}")
    patch, cout = kernel.shape[:3], kernel.shape[4]
    if min(patch) < 1 or any(n % p for n, p in zip(x.shape, patch)):
        raise ShapeError(f"patch_linear patches {patch} do not tile the extents {x.shape[:3]}; pad or crop x")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"patch_linear bias shape {bias.shape} != ({cout},)")
    grid = tuple(n // p for n, p in zip(x.shape, patch))
    return _affine("patch_linear", (x, kernel, bias), lambda a: _patch_view(a, patch), grid + (cout,))


def _patch_view(a, patch):
    """The volume a (D, H, W, C) as a view of shape (D/kd, H/kh, W/kw, kd,
    kh, kw, C): its non-overlapping patches, in the kernel's order."""
    (kd, kh, kw), (d, h, w, c) = patch, a.shape
    return a.reshape(d // kd, kd, h // kh, kh, w // kw, kw, c).transpose(0, 2, 4, 1, 3, 5, 6)


def _plane_sum(vols, w, bias, out, mirrored=False):
    """The 'same' conv3d of the channel concatenation of `vols` by `w`, plus
    `bias`, into `out`, over blocks of output depth planes split among the op
    workers.  A block pads the input planes it reads into scratch of its own
    and adds one (rows, Cin)
    @ (Cin, Cout) GEMM per tap, in lexicographic tap order.  `mirrored`
    makes tap t read at tap T-1-t's offset: with w transposed in (Cin,
    Cout) that is the input gradient of the convolution by w, each voxel
    summing its taps in the forward's order (padding adds zeros)."""
    kd, kh, kw, cin, cout = w.shape
    hp, wp = out.shape[1] + kh - 1, out.shape[2] + kw - 1
    # output voxel (i, j, l) of a block sits at row q = (i*hp + j)*wp + l of
    # a frame with the padded H and W extents, and tap (a, b, c) multiplies
    # scratch row q + (a*hp + b)*wp + c, so each tap's operand is a
    # contiguous row range of the flat scratch and needs no copy.  The last
    # tap's range ends at the last scratch row; frame rows past it are
    # outside every output voxel and stay unset.
    offsets = [(a * hp + b) * wp + c for a, b, c in np.ndindex(kd, kh, kw)]
    if mirrored:
        offsets = [offsets[-1] - o for o in offsets]
    tail = (kh - 1) * wp + kw - 1
    w_taps = w.reshape(-1, cin, cout)

    def kernel(index, out):
        s, n = int(index.flat[0]), out.shape[0]
        flat, rows = _padded_planes(vols, s, n, (kd, kh, kw)).reshape(-1, cin), n * hp * wp - tail
        frame = np.empty((n, hp, wp, cout), dtype=out.dtype)
        acc, prod = frame.reshape(-1, cout)[:rows], np.empty((rows, cout), dtype=out.dtype)
        np.matmul(flat[offsets[0]:offsets[0] + rows], w_taps[0], out=acc)
        for o, w_tap in zip(offsets[1:], w_taps[1:]):
            acc += np.matmul(flat[o:o + rows], w_tap, out=prod)
        voxels = frame[:, :out.shape[1], :out.shape[2]]
        if bias is None:
            np.copyto(out, voxels)
        else:
            np.add(voxels, bias, out=out)

    # a block takes enough planes for each tap GEMM to keep _GEMM_MIN
    # multiply-adds and two rows, and no fewer than its kd - 1 halo planes,
    # so each input plane is padded into scratch at most twice
    plane = out.shape[1] * out.shape[2]
    planes = max(kd - 1, -(-_GEMM_MIN // (plane * cin * cout)), -(-2 // plane))
    _by_rows(kernel, (np.arange(out.shape[0]).reshape(-1, 1, 1, 1),), out,
             block=planes * plane * cout, k=cin)


def _padded_planes(vols, s, n, ksize):
    """The input planes that output depth planes s .. s + n - 1 of a 'same'
    convolution by a kernel of extents `ksize` read: the channel
    concatenation of `vols` zero-padded by k // 2 per axis, as scratch of
    the caller's own."""
    (pd, ph, pw), (d, h, w) = (k // 2 for k in ksize), vols[0].shape[:3]
    ends = np.cumsum([0] + [v.shape[3] for v in vols])
    scratch = np.zeros((n + 2 * pd, h + 2 * ph, w + 2 * pw, ends[-1]), dtype=np.result_type(*vols))
    # output plane s reads input plane s, so the copied range is never empty
    lo, hi = max(s - pd, 0), min(s + n + pd, d)
    for v, c0, c1 in zip(vols, ends, ends[1:]):
        scratch[lo - s + pd:hi - s + pd, ph:ph + h, pw:pw + w, c0:c1] = v[lo:hi]
    return scratch


def _plane_dw(vols, g, ksize):
    """The kernel and bias gradients of a 'same' conv3d of the channel
    concatenation of `vols` by a kernel
    of spatial extents `ksize`, for output gradient `g`, as fixed-chunk sums
    over blocks of output depth planes.  A block pads the input planes it
    reads into scratch, as _plane_sum does, and lays its planes of g into a
    frame of the padded H and W extents, zero outside the output; dw[tap] is
    then the scratch rows at the tap's offset, transposed, times the frame,
    and db is g's rows summed."""
    kd, kh, kw = ksize
    cin, (planes, ho, wo, cout) = sum(v.shape[3] for v in vols), g.shape
    hp, wp = ho + kh - 1, wo + kw - 1
    offsets = [(a * hp + b) * wp + c for a, b, c in np.ndindex(kd, kh, kw)]
    tail = (kh - 1) * wp + kw - 1

    def kernel(s, e, dw, db):
        flat = _padded_planes(vols, s, e - s, ksize).reshape(-1, cin)
        frame = np.zeros((e - s, hp, wp, cout), dtype=g.dtype)
        frame[:, :ho, :wo] = g[s:e]
        rows = (e - s) * hp * wp - tail
        frame = frame.reshape(-1, cout)[:rows]
        for o, dw_tap in zip(offsets, dw.reshape(-1, cin, cout)):
            np.matmul(flat[o:o + rows].T, frame, out=dw_tap)
        np.sum(g[s:e].reshape(-1, cout), axis=0, out=db)

    madds = g.size * len(offsets) * cin
    return _chunk_sums(planes, kernel, (ksize + (cin, cout), (cout,)), np.result_type(*vols, g), unit=ho * wo,
                       parts=madds // _GEMM_MIN)


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
    for a, b, c in np.ndindex(3, 3, 3):
        out += ap[a: a + d, b: b + h, c: c + w]
    return out / 27.0


def global_pool(x, gamma, beta):
    """Per-channel mean over all spatial positions of layer_norm(x, gamma,
    beta): (d, w, h, C) -> (C,), as one node.  The normalized volume is
    scratch, summed as `tmean` sums; the node keeps x's row mean and inv, and
    its backward gives layer_norm's a broadcast view of the mean's gradient."""
    if x.ndim != 4:
        raise ShapeError(f"global_pool expects rank 4, got {x.shape}")
    rows, y, stats = _ln_rows("global_pool", x, gamma, beta)
    n = len(rows)

    def bwd(g):
        dx, dgamma, dbeta = _ln_grads(np.broadcast_to(g / n, rows.shape), gamma.data, rows, *stats)
        return dx.reshape(x.shape), dgamma, dbeta

    return _record("global_pool", (x, gamma, beta), y.reshape(x.shape).sum(axis=(0, 1, 2)) / n, bwd)


def _upsample_once(arr):
    # per axis out[2i] = x[i-1]/4 + 3x[i]/4 and out[2i+1] = 3x[i]/4 + x[i+1]/4,
    # indices clamped at the edges (output o samples input at (o + 0.5)/2 - 0.5)
    for axis in range(3):
        shape = list(arr.shape)
        shape[axis] *= 2
        out = np.empty(shape, dtype=arr.dtype)
        x, om = np.moveaxis(arr, axis, 0), np.moveaxis(out, axis, 0)
        even, odd = om[0::2], om[1::2]
        np.multiply(x, 0.75, out=even)
        even[1:] += 0.25 * x[:-1]
        even[0] += 0.25 * x[0]
        np.multiply(x, 0.75, out=odd)
        odd[:-1] += 0.25 * x[1:]
        odd[-1] += 0.25 * x[-1]
        arr = out
    return arr


def _upsample_once_adjoint(g):
    # the transpose of the stencil above; the terms are added in the order of
    # a scatter-add over the output index, so the result is bit-identical to one
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


def upsample2x(x):
    """Trilinear upsampling of a channels-last volume, doubling every spatial
    extent: one tape node per call."""
    if x.ndim != 4:
        raise ShapeError(f"upsample2x expects rank 4, got {x.shape}")
    return _record("upsample2x", (x,), _upsample_once(x.data),
                   lambda g: (_upsample_once_adjoint(g),))


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, params, eps=1e-5, max_entries=None):
    """Max relative error between taped gradients and fourth-order central
    differences, [8(f(+h) - f(-h)) - (f(+2h) - f(-2h))] / 12h with h = `eps`,
    whose truncation error falls as h^4 where the two-point form's falls as
    h^2.

    `f` is a deterministic closure over `params` returning a scalar Tensor;
    parameters should be float64.  The relative error for one entry is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).  A non-finite
    objective or taped gradient is a NumericError.

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
    if not all(np.isfinite(ana).all() for ana in analytic):
        raise NumericError("grad_check taped gradient is non-finite")

    pick = np.random.default_rng(0)
    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        if max_entries is None or flat.size <= max_entries:
            indices = range(flat.size)
        else:
            indices = pick.choice(flat.size, size=max_entries, replace=False)
        for i in indices:
            saved = flat[i]
            values = []
            for step in (eps, -eps, 2.0 * eps, -2.0 * eps):
                flat[i] = saved + step
                values.append(f().data.item())
            flat[i] = saved
            if not np.isfinite(values).all():
                raise NumericError("grad_check objective is non-finite under perturbation")
            f_plus, f_minus, f_plus2, f_minus2 = values
            numeric = (8.0 * (f_plus - f_minus) - (f_plus2 - f_minus2)) / (12.0 * eps)
            err = abs(ana[i] - numeric) / max(1e-8, abs(ana[i]) + abs(numeric))
            worst = max(worst, err)
    return worst
