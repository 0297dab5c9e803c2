"""Dense feed-forward networks with hand-written backpropagation.

All math is double precision numpy; matrix multiplication is the only
array primitive in the hot path. Gradients are assembled layer by layer
from cached activations so finite-difference checks can verify them
coordinate by coordinate.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrainingError",
    "Mlp",
    "forward",
    "backward",
    "Momentum",
    "Adam",
    "DEFAULT_LEARNING_RATES",
    "make_optimizer",
    "single_blas_thread",
    "minibatch_stream",
]


class TrainingError(RuntimeError):
    """Raised when training or an optimizer step meets non-finite numbers."""


_ACTIVATIONS = ("tanh", "linear")


@dataclass
class Mlp:
    """Fully connected network: weights[l] has shape (fan_in, fan_out).

    activations names one function per layer; hidden layers are expected
    to be tanh, output heads are whatever the caller declares (tanh or
    linear).
    """

    weights: list
    biases: list
    activations: tuple

    def __post_init__(self) -> None:
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        self.activations = tuple(self.activations)
        if not self.weights:
            raise ValueError("network needs at least one layer")
        if len(self.biases) != len(self.weights) or len(self.activations) != len(self.weights):
            raise ValueError("weights, biases and activations must have one entry per layer")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2:
                raise ValueError(f"layer {l}: weight must be 2-D, got shape {w.shape}")
            if b.shape != (w.shape[1],):
                raise ValueError(f"layer {l}: bias shape {b.shape} does not match fan-out {w.shape[1]}")
            if l > 0 and w.shape[0] != self.weights[l - 1].shape[1]:
                raise ValueError(f"layer {l}: fan-in {w.shape[0]} does not chain with previous fan-out")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l}: non-finite parameters")
        for name in self.activations:
            if name not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {name!r}")

    @property
    def layer_sizes(self) -> tuple:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @classmethod
    def init(cls, layer_sizes, activations, rng) -> "Mlp":
        """Glorot-uniform weights, limit sqrt(6/(fan_in+fan_out)); zero biases."""
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"bad layer sizes {sizes}")
        weights = []
        biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights=weights, biases=biases, activations=tuple(activations))


def forward(net: Mlp, batch: np.ndarray) -> list:
    """Run a (rows, fan_in) batch through the net.

    Returns the activation cache [input, layer1, ..., output]; the caller
    keeps it for the matching backward pass.
    """
    a = np.asarray(batch, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != net.weights[0].shape[0]:
        raise ValueError(f"batch shape {a.shape} does not match input width {net.weights[0].shape[0]}")
    cache = [a]
    for w, b, name in zip(net.weights, net.biases, net.activations):
        a = a @ w + b
        if name == "tanh":
            a = np.tanh(a)
        cache.append(a)
    return cache


def backward(net: Mlp, activations: list, output_gradient: np.ndarray, out=None, input_grad=True):
    """Backpropagate d(loss)/d(output) through a cached forward pass.

    Returns (weight_grads, bias_grads, input_grad). Gradients sum over the
    batch rows; any mean reduction must already be folded into
    output_gradient. The cache is checked against the net shape so a stale
    cache from another net or batch is rejected.

    out=(weight_grads, bias_grads), one array per weight and bias of the
    net, receives the parameter gradients in place of new arrays, so a
    training loop that passes the same arrays every iteration allocates
    nothing the size of a parameter. With input_grad False the first
    layer's input gradient is not formed and None is returned in its slot:
    a training step's input is data, whose gradient no one uses.
    """
    sizes = net.layer_sizes
    if len(activations) != len(net.weights) + 1:
        raise ValueError(f"activation cache has {len(activations)} entries, expected {len(net.weights) + 1}")
    rows = activations[0].shape[0]
    for l, a in enumerate(activations):
        if a.shape != (rows, sizes[l]):
            raise ValueError(f"activation {l} has shape {a.shape}, expected {(rows, sizes[l])}")
    grad = np.asarray(output_gradient, dtype=np.float64)
    if grad.shape != activations[-1].shape:
        raise ValueError(f"output gradient shape {grad.shape} does not match output {activations[-1].shape}")

    if out is None:
        out = [np.empty(w.shape) for w in net.weights], [np.empty(b.shape) for b in net.biases]
    weight_grads, bias_grads = out

    for l in range(len(net.weights) - 1, -1, -1):
        # Both activations' derivatives follow from the cached output:
        # 1 - a^2 for tanh, 1 for linear. delta = grad * (1 - a^2) is formed
        # in one array, since multiplication commutes bit for bit.
        delta = grad
        if net.activations[l] == "tanh":
            a = activations[l + 1]
            delta = np.multiply(a, a)
            np.subtract(1.0, delta, out=delta)
            delta *= grad
        np.matmul(activations[l].T, delta, out=weight_grads[l])
        np.sum(delta, axis=0, out=bias_grads[l])
        if l == 0 and not input_grad:
            return weight_grads, bias_grads, None
        grad = delta @ net.weights[l].T
    return weight_grads, bias_grads, grad


def _check_grads(params, grads) -> None:
    if len(params) != len(grads):
        raise ValueError(f"{len(grads)} gradients for {len(params)} parameters")
    for p, g in zip(params, grads):
        if p.ndim == 0:
            raise ValueError("a parameter must have at least one axis")
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingError("non-finite gradient")


def _check_learning_rate(learning_rate: float) -> None:
    if not (math.isfinite(learning_rate) and learning_rate >= 0.0):
        raise ValueError(f"learning rate must be finite and nonnegative, got {learning_rate}")


# Elements in one piece of an optimizer step. A step runs its whole
# sequence of operations on one piece before it moves to the next, so the
# piece of each array it touches stays in L2 from the first operation to
# the last (for Adam six arrays of 256 KiB: parameter, gradient, both
# moments and both scratch buffers, in a 2 MiB L2), and its scratch is one
# piece, not one parameter.
_PIECE = 1 << 15


def _pieces(*arrays):
    """The same first-axis slice of each array, piece by piece: whole rows,
    at most _PIECE elements, or one row where a row is wider. Slicing rows
    keeps in-place writes landing in a parameter that is not contiguous."""
    rows = max(1, _PIECE // max(1, math.prod(arrays[0].shape[1:])))
    for i in range(0, len(arrays[0]), rows):
        yield tuple(x[i : i + rows] for x in arrays)


def _scratch(params) -> np.ndarray:
    """One flat buffer as large as the largest piece of any parameter."""
    return np.empty(max((piece.size for p in params for (piece,) in _pieces(p)), default=0))


class Momentum:
    """Classical momentum: v <- gamma*v - lr*g; p <- p + v.

    The step walks each parameter in pieces of at most _PIECE elements and
    writes through one piece-sized scratch buffer, so a piece stays in cache
    across its four operations and the optimizer holds no scratch the size
    of a parameter. Every element goes through the same operations in the
    same order, so the bits are those of the whole-array expressions.
    """

    gamma = 0.9

    def __init__(self, learning_rate: float):
        _check_learning_rate(learning_rate)
        self.learning_rate = learning_rate
        self._velocity = None
        self._scratch = None

    def step(self, params, grads) -> None:
        _check_grads(params, grads)
        if self._velocity is None:
            self._velocity = [np.zeros_like(p) for p in params]
            self._scratch = _scratch(params)
        for arrays in zip(params, grads, self._velocity):
            for p, g, v in _pieces(*arrays):
                a = self._scratch[: p.size].reshape(p.shape)
                v *= self.gamma
                np.multiply(self.learning_rate, g, out=a)
                v -= a
                p += v


class Adam:
    """Adam with bias correction.

    Like Momentum, the step walks each parameter in pieces of at most
    _PIECE elements, through two piece-sized scratch buffers: the arrays
    of one piece stay in L2 across all of its operations, where a whole
    encoder weight's would not, and the optimizer holds no scratch the
    size of a parameter.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, learning_rate: float):
        _check_learning_rate(learning_rate)
        self.learning_rate = learning_rate
        self._m = None
        self._v = None
        self._scratch = None
        self._t = 0

    def step(self, params, grads) -> None:
        _check_grads(params, grads)
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
            self._scratch = _scratch(params), _scratch(params)
        self._t += 1
        c1 = 1.0 - self.beta1 ** self._t
        c2 = 1.0 - self.beta2 ** self._t
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps), one operation at a time
        # in that order, so the bits are those of the expression.
        for arrays in zip(params, grads, self._m, self._v):
            for p, g, m, v in _pieces(*arrays):
                a, b = (s[: p.size].reshape(p.shape) for s in self._scratch)
                m *= self.beta1
                np.multiply(1.0 - self.beta1, g, out=a)
                m += a
                v *= self.beta2
                np.multiply(g, g, out=a)
                np.multiply(1.0 - self.beta2, a, out=a)
                v += a
                np.divide(m, c1, out=a)
                np.multiply(self.learning_rate, a, out=a)
                np.divide(v, c2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                p -= a


# Learning rates paired with each optimizer when the caller does not pick one.
DEFAULT_LEARNING_RATES = {"momentum": 1e-5, "adam": 1e-3}


def make_optimizer(name: str, learning_rate: float | None = None):
    if name not in DEFAULT_LEARNING_RATES:
        raise ValueError(f"optimizer must be one of {sorted(DEFAULT_LEARNING_RATES)}, got {name!r}")
    lr = DEFAULT_LEARNING_RATES[name] if learning_rate is None else float(learning_rate)
    return Momentum(lr) if name == "momentum" else Adam(lr)


@functools.cache
def _openblas_thread_control():
    """(set_num_threads, get_num_threads) of the OpenBLAS numpy loaded, or None.

    Looks first in the library folder of numpy wheels, so that another
    OpenBLAS in the process (scipy's, say) is not taken for numpy's, then
    in the process's own map of loaded files where the platform has one.
    """
    wheel_libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    paths = sorted(glob.glob(os.path.join(wheel_libs, "*openblas*")))
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths += sorted({line.split(None, 5)[-1].strip() for line in fh if "openblas" in line})
    except OSError:
        pass
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return setter, getter
    return None


@contextmanager
def single_blas_thread():
    """Run the body with BLAS on one thread, then restore the caller's count.

    Multi-threaded OpenBLAS splits a matrix product's sums differently at
    each thread count, so results differ in the last bits, and training
    carries those differences into different models (Adam grows them to
    visibly different results). Training under this context gives the same
    bits at any thread count. Without an OpenBLAS
    thread setter (another BLAS, or a library not found) it does nothing,
    and results follow that BLAS's own threading.
    """
    control = _openblas_thread_control()
    if control is None:
        yield
        return
    set_threads, get_threads = control
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def minibatch_stream(n: int, batch_size: int, rng):
    """Yield index minibatches forever: seeded shuffle, reshuffle per epoch.

    Batches are always full; a trailing remainder shorter than batch_size
    triggers the next epoch's reshuffle instead of a short batch.
    """
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch size {batch_size} not in [1, {n}]")
    perm = rng.permutation(n)
    pos = 0
    while True:
        if pos + batch_size > n:
            perm = rng.permutation(n)
            pos = 0
        yield perm[pos : pos + batch_size]
        pos += batch_size
