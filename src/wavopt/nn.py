"""Minimal multilayer perceptrons with explicit forward/backward passes.

ReLU hidden layers, identity output layer.  Each network's parameters
live in one float64 vector (``MlpParams.flat``) with per-layer views, so
gradients are vectors of the same layout and the Adam update is plain
vector operations.  Every routine is deterministic given its
inputs (and the seeded generator used at init).  The ReLU subgradient at
zero is taken to be zero.

One layer loop serves every pass.  ``forward_batch`` and
``hidden_forward`` given a ``LayerBuffers`` write every pre-activation
and ReLU output into it; without one they allocate.  A forward with
buffers leaves in them everything ``backward_batch`` reads (the input
itself aside, which the caller passes again), and that stays valid
until the next pass into those buffers; so do the outputs and the
gradient a call returns through them.  The backward pass stops at the
first layer's weight gradient: no caller needs the gradient with
respect to the network input.

The checkpoint format is a stable text layout (documented in
``write_params``) so trained parameters round-trip bit-exactly across
save/load.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

__all__ = [
    "MlpParams",
    "TrainingError",
    "init_mlp",
    "hidden_forward",
    "forward_batch",
    "LayerBuffers",
    "backward_batch",
    "AdamState",
    "write_params",
    "read_params",
]


class TrainingError(RuntimeError):
    """Raised when an update would propagate non-finite values."""


def _layer_views(flat: np.ndarray, sizes) -> tuple:
    """(weights, biases) views into a vector laid out as W0, b0, W1, b1, ..."""
    weights, biases, i = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[i : i + fan_out * fan_in].reshape(fan_out, fan_in))
        i += fan_out * fan_in
        biases.append(flat[i : i + fan_out])
        i += fan_out
    return weights, biases


class MlpParams:
    """Parameters of one MLP as a single float64 vector.

    ``flat`` holds W0 (row-major), b0, W1, b1, ... in checkpoint order;
    ``weights[l]`` (fan_out, fan_in) and ``biases[l]`` (fan_out,) are
    views into it, so writing either one writes the other.  Gradients
    from ``backward_batch`` share this layout.
    """

    def __init__(self, weights: list, biases: list) -> None:
        if len(weights) != len(biases) or not weights:
            raise ValueError("need matching, non-empty weight/bias lists")
        for w, b in zip(weights, biases):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError("layer shape mismatch")
        for wa, wb in zip(weights[:-1], weights[1:]):
            if wb.shape[1] != wa.shape[0]:
                raise ValueError("consecutive layers do not compose")
        sizes = [weights[0].shape[1]] + [w.shape[0] for w in weights]
        layers = [a.ravel() for w, b in zip(weights, biases) for a in (w, b)]
        self.flat = np.concatenate(layers, dtype=float)
        self.weights, self.biases = _layer_views(self.flat, sizes)

    @classmethod
    def from_flat(cls, flat: np.ndarray, sizes) -> "MlpParams":
        """Wrap an existing float64 vector (no copy) laid out for ``sizes``."""
        params = cls.__new__(cls)
        params.flat = flat
        params.weights, params.biases = _layer_views(flat, sizes)
        return params

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "MlpParams":
        return MlpParams.from_flat(self.flat.copy(), self.layer_sizes)


def init_mlp(layer_sizes, rng) -> MlpParams:
    """Symmetric uniform init on (-1/sqrt(fan_in), 1/sqrt(fan_in)) per layer."""
    sizes = list(layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("layer_sizes needs at least input and output, all positive")
    rng = np.random.default_rng(rng)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(weights, biases)


def _as_input(params: MlpParams, x: np.ndarray) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError("forward_batch expects a (batch, fan_in) array")
    if a.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"input width {a.shape[1]} != network fan-in {params.weights[0].shape[1]}"
        )
    return a


class LayerBuffers:
    """Every (batch, .) array of one network's forward and backward pass.

    ``pre[l]`` holds layer l's pre-activation (the last one is the
    output), ``act[l]``, ``mask[l]`` and ``delta[l]`` the ReLU output,
    its positive-part mask and the gradient with respect to it of hidden
    layer l, and ``grad`` the parameter gradient in the layout of
    ``params.flat``.
    """

    def __init__(self, params: MlpParams, batch: int) -> None:
        sizes = params.layer_sizes
        self.pre = [np.empty((batch, s)) for s in sizes[1:]]
        self.act = [np.empty((batch, s)) for s in sizes[1:-1]]
        self.mask = [np.empty((batch, s), dtype=bool) for s in sizes[1:-1]]
        self.delta = [np.empty((batch, s)) for s in sizes[1:-1]]
        self.grad = np.empty_like(params.flat)


def hidden_forward(params: MlpParams, x: np.ndarray, buffers=None) -> np.ndarray:
    """The last hidden layer's activations for a batch (``x`` itself
    when there is no hidden layer): ``forward_batch`` without its output
    product.  With ``buffers`` each pre-activation and ReLU output is
    written into them; without, each is a fresh array."""
    a = _as_input(params, x)
    for l, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
        z = np.matmul(a, w.T, out=None if buffers is None else buffers.pre[l])
        z += b
        a = np.maximum(z, 0.0, out=z if buffers is None else buffers.act[l])
    return a


def forward_batch(params: MlpParams, x: np.ndarray, buffers=None) -> np.ndarray:
    """Batched forward pass; with ``buffers`` the output is
    ``buffers.pre[-1]`` and the buffers hold what ``backward_batch``
    reads."""
    h = hidden_forward(params, x, buffers)
    out = np.matmul(h, params.weights[-1].T, out=None if buffers is None else buffers.pre[-1])
    out += params.biases[-1]
    return out


def backward_batch(params: MlpParams, x: np.ndarray, upstream: np.ndarray, buffers: LayerBuffers, reduce: str = "mean"):
    """Backprop a batch of upstream output gradients through the network.

    ``buffers`` must hold the forward pass of ``forward_batch(params, x,
    buffers)``.  Returns the parameter gradient of
    sum_or_mean_b <upstream_b, f(x_b)> as one vector in the layout of
    ``params.flat``, a view of ``buffers``.  ``reduce`` is "mean" or
    "sum" over the batch.
    """
    inputs = [np.asarray(x, dtype=float)] + buffers.act
    delta = np.asarray(upstream, dtype=float)
    if delta.shape[0] != inputs[0].shape[0]:
        raise ValueError("upstream batch size mismatch")
    if reduce not in ("mean", "sum"):
        raise ValueError("reduce must be 'mean' or 'sum'")
    scale = 1.0 / delta.shape[0] if reduce == "mean" else 1.0
    grad = buffers.grad
    grad_w, grad_b = _layer_views(grad, params.layer_sizes)
    for l in range(params.n_layers - 1, -1, -1):
        np.multiply(np.matmul(delta.T, inputs[l], out=grad_w[l]), scale, out=grad_w[l])
        np.multiply(delta.sum(axis=0), scale, out=grad_b[l])
        if l > 0:
            delta = np.matmul(delta, params.weights[l], out=buffers.delta[l - 1])
            delta *= np.greater(buffers.pre[l - 1], 0.0, out=buffers.mask[l - 1])
    return grad


# values per Adam block: the step walks the vectors in blocks so its two
# scratch vectors stay small (full-length ones would add two parameter
# vectors to the resident set).  A block's six slices (gradient, both
# moments, parameters and the two scratch vectors) take 256 KB each, so
# together they fit a 2 MB L2 cache; smaller blocks pay more ufunc calls.
_ADAM_BLOCK = 32768


class AdamState:
    """Moment estimates for adaptive descent steps on one parameter vector.

    One state object belongs to one parameter set.  ``step`` always
    descends (callers that want ascent negate the gradient first).
    ``beta1``, ``beta2`` and ``eps`` are Kingma & Ba's defaults.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: MlpParams):
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        # scratch reused by every step, so a step allocates no vector
        self._num = np.empty(min(_ADAM_BLOCK, params.flat.size))
        self._den = np.empty(min(_ADAM_BLOCK, params.flat.size))

    def step(self, params: MlpParams, grad: np.ndarray, learning_rate: float) -> None:
        """Descend in place; raises ``TrainingError`` on a non-finite gradient.

        The check runs before any moment changes, so the harness can
        surface a diverging run instead of writing a NaN checkpoint.
        Every product keeps the textbook operand order,
        ``(1-b1)*g``, ``((1-b2)*g)*g`` and ``(corr*m) / (sqrt(v)+eps)``,
        so the result is that of the whole-vector formula bit for bit.
        """
        if not np.all(np.isfinite(grad)):
            raise TrainingError("non-finite gradient in adam step")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr = learning_rate * math.sqrt(1.0 - b2**self.t) / (1.0 - b1**self.t)
        for lo in range(0, grad.size, _ADAM_BLOCK):
            hi = lo + _ADAM_BLOCK
            g, m, v = grad[lo:hi], self.m[lo:hi], self.v[lo:hi]
            num, den = self._num[: g.size], self._den[: g.size]
            m *= b1
            m += np.multiply(1 - b1, g, out=num)
            v *= b2
            np.multiply(1 - b2, g, out=num)
            v += np.multiply(num, g, out=num)
            np.multiply(corr, m, out=num)
            np.add(np.sqrt(v, out=den), self.eps, out=den)
            params.flat[lo:hi] -= np.divide(num, den, out=num)


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

_MAGIC = "mlp-text 1"
# values formatted per write: one format call per block, without holding
# the whole section's text at once
_WRITE_BLOCK = 4096


def write_params(stream, params: MlpParams) -> None:
    """Stable text serialization.

    Layout::

        mlp-text 1
        layers <L>
        sizes <s0> <s1> ... <sL>
        <then params.flat, one value per line: for each layer the weight
         rows in row-major order, followed by the bias values>

    Values use repr-exact %.17g formatting, so a load reproduces the
    arrays bit for bit.
    """
    stream.write(_MAGIC + "\n")
    stream.write(f"layers {params.n_layers}\n")
    stream.write("sizes " + " ".join(str(s) for s in params.layer_sizes) + "\n")
    flat = params.flat
    for i in range(0, flat.size, _WRITE_BLOCK):
        block = flat[i : i + _WRITE_BLOCK].tolist()
        stream.write(("%.17g\n" * len(block)) % tuple(block))


def read_params(stream) -> MlpParams:
    """Read one ``write_params`` section; a malformed header, a section
    cut short or a value that is not a finite number (nan or +-inf, the
    index named) is a one-line ``ValueError``."""
    header = stream.readline().strip()
    if header != _MAGIC:
        raise ValueError(f"bad checkpoint header {header!r}")
    n_layers = int(stream.readline().split()[1])
    sizes = [int(t) for t in stream.readline().split()[1:]]
    if n_layers < 1 or len(sizes) != n_layers + 1 or min(sizes) < 1:
        raise ValueError("checkpoint layer count or sizes are malformed")
    count = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    # read the lines before allocating the values: a count the rest of
    # the file cannot hold fails here, whatever size it asks for
    lines = list(itertools.islice(stream, min(count, sys.maxsize)))
    if len(lines) < count:
        raise ValueError(f"the layer sizes need {count} values, but only {len(lines)} lines follow")
    # a value cut short, even mid-number, has lost its newline
    if not lines[-1].endswith("\n"):
        raise ValueError(f"value {count - 1} of {count} is cut short")
    flat = np.fromiter(map(float, lines), float, count)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ValueError(f"value {bad[0]} of {count} is not finite: {lines[bad[0]].strip()!r}")
    return MlpParams.from_flat(flat, sizes)
