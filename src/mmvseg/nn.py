"""Parameterized layers on top of the autodiff primitives.

Layers draw their initial weights from a caller-supplied numpy Generator so
that model construction is reproducible from a single seed.  Weight matrices
and convolution kernels are Xavier-uniform, biases start at zero.
"""

from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


def xavier_uniform(rng, shape, fan_in, fan_out, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def flat_views(named, flat):
    """Yield (name, view) per (name, tensor) of the list `named`: the
    tensor's shape cut from the 1-d `flat` in that order.  This is the one
    flat layout of parameters, gradients and moments."""
    sizes = [p.size for _, p in named]
    if flat.shape != (sum(sizes),):
        raise ShapeError(f"flat buffer of shape {flat.shape} does not hold {sum(sizes)} values")
    for (name, p), end in zip(named, accumulate(sizes)):
        yield name, flat[end - p.size : end].reshape(p.shape)


class FlatParams:
    """The (name, parameter) pairs `named`, with each parameter's `data` and
    `grad` made views into the flat `data` and the zeroed flat `grad`."""

    def __init__(self, named):
        self.named = list(named)
        # one dtype: a parameter of any other one is a TypeError, not a cast
        self.data = np.concatenate([p.data.reshape(-1) for _, p in self.named],
                                   dtype=self.named[0][1].dtype, casting="no")
        self.grad = np.zeros_like(self.data)
        views = zip(self.named, flat_views(self.named, self.data), flat_views(self.named, self.grad))
        for (_, p), (_, data), (_, grad) in views:
            p.data, p.grad = data, grad


class Module:
    """Base class providing recursive named-parameter discovery.

    Attributes that are `Tensor`s with requires_grad, `Module`s, or lists of
    `Module`s are picked up automatically, in attribute insertion order, so
    parameter names are stable for a given architecture.
    """

    def named_params(self, prefix=""):
        for key, val in vars(self).items():
            name = f"{prefix}/{key}" if prefix else key
            if isinstance(val, Tensor):
                if val.requires_grad:
                    yield name, val
            elif isinstance(val, Module):
                yield from val.named_params(name)
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_params(f"{name}.{i}")

    def params(self):
        return [p for _, p in self.named_params()]

    def param_count(self):
        return sum(p.size for p in self.params())


class Linear(Module):
    """Affine map on the last extent: (..., cin) -> (..., cout)."""

    def __init__(self, cin, cout, rng, dtype=np.float32, bias=True):
        self.w = Tensor(xavier_uniform(rng, (cin, cout), cin, cout, dtype), requires_grad=True)
        self.b = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True) if bias else None

    def __call__(self, x):
        return ad.linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, c, dtype=np.float32):
        self.gamma = Tensor(np.ones(c, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(c, dtype=dtype), requires_grad=True)

    def __call__(self, x):
        return ad.layer_norm(x, self.gamma, self.beta)


def kernel_and_bias(k, cin, cout, rng, dtype):
    """A trainable (k, k, k, cin, cout) Xavier-uniform kernel, over its k^3 window's fans, and zero bias."""
    kernel = xavier_uniform(rng, (k, k, k, cin, cout), k ** 3 * cin, k ** 3 * cout, dtype)
    return Tensor(kernel, requires_grad=True), Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)


class Conv3d(Module):
    """Channels-last 3x3x3 'same' convolution, which keeps the input's
    extents, of x or of the channel concatenation [x, skip]."""

    def __init__(self, cin, cout, rng, dtype=np.float32):
        self.kernel, self.bias = kernel_and_bias(3, cin, cout, rng, dtype)

    def __call__(self, x, skip=None):
        return ad.conv3d(x, self.kernel, self.bias, skip)


class PatchLinear(Module):
    """Linear map of each non-overlapping patch x patch x patch block of a
    channels-last volume to `cout` channels (a patch of 1 maps each voxel),
    as `patch_linear`."""

    def __init__(self, cin, cout, patch, rng, dtype=np.float32):
        self.kernel, self.bias = kernel_and_bias(patch, cin, cout, rng, dtype)

    def __call__(self, x):
        return ad.patch_linear(x, self.kernel, self.bias)


class Mlp(Module):
    """linear -> GELU -> linear.  Called, it is `TokenSummarizer.score`;
    the transformer and encoder blocks keep their feed-forward weights in an
    Mlp and apply x + mlp(norm(x)) through `residual`, one taped
    `feed_forward` node."""

    def __init__(self, c, hidden, rng, dtype=np.float32, cout=None):
        self.fc1 = Linear(c, hidden, rng, dtype)
        self.fc2 = Linear(hidden, cout if cout is not None else c, rng, dtype)

    def __call__(self, x):
        return self.fc2(ad.gelu(self.fc1(x)))

    def residual(self, x, norm, shift=None):
        """y + self(norm(y)) for a LayerNorm `norm`, where y is x or x plus a
        (C,) `shift`, as one `feed_forward` node."""
        return ad.feed_forward(x, norm.gamma, norm.beta, self.fc1.w, self.fc1.b, self.fc2.w, self.fc2.b, shift)
