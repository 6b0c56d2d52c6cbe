"""One sigmoid feedforward engine for vector-product and real networks.

Both network kinds are plain sigmoid MLPs over frame columns, z = W a + b
and a' = sigmoid(z) per layer.  A real network holds ``(rows, cols)``
arrays and multiplies with ``np.matmul``.  A vector-product network holds
``(3, rows, cols)`` arrays: every scalar weight/activation is a 3-vector
and every scalar product a cross product (:func:`vpsep.vecmat.vec_matmul`).
Because the cross product is antisymmetric, its adjoints are the same
product with the sign flipped: for z = W (x) a + b and upstream gradient g,

    dL/dW = -(g (x) a^T)        dL/da = -(W^T (x) g)        dL/db = sum_t g

where the real product gives g a^T and W^T g.  One forward and one
backward body therefore serve both kinds, parameterised by the product and
its adjoint sign.

All parameters live in one flat float64 buffer laid out like the
checkpoint payload: layer by layer, W then b, each plane by plane.  The
per-layer ``W`` and ``b`` are views into that buffer.  A gradient has the
same layout, and ``backward`` writes each layer's dW and db in place into
the views of a buffer the caller may keep across steps.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from .errors import ShapeMismatchError
from .vecmat import check_out, vec_matmul

KINDS = ("vp", "real")


def _check_sizes(sizes) -> list[int]:
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2:
        raise ShapeMismatchError("need at least input and output widths")
    if any(s <= 0 for s in sizes):
        raise ShapeMismatchError(f"zero-width layer in {sizes}")
    return sizes


class Network:
    """Sigmoid MLP of kind ``"vp"`` or ``"real"`` with layer widths
    ``sizes``, whose parameters are the flat buffer ``params``.

    ``layers`` holds one ``(W, b)`` pair of views per layer: W is
    (3, out, in) or (out, in), b is (3, out, 1) or (out, 1).
    """

    def __init__(self, kind: str, sizes, params: np.ndarray | None = None):
        if kind not in KINDS:
            raise ShapeMismatchError(f"network kind must be vp or real, got {kind!r}")
        self.kind = kind
        self.sizes = _check_sizes(sizes)
        self.lead = (3,) if kind == "vp" else ()  # leading axes of every array
        size = sum(math.prod(s) for s in self._shapes())
        self.params = np.zeros(size) if params is None else params
        if self.params.shape != (size,) or self.params.dtype != np.float64:
            raise ShapeMismatchError(
                f"expected {size} float64 parameters, got {self.params.dtype} "
                f"{self.params.shape}"
            )
        self.layers = self.views(self.params)

    def _shapes(self) -> list[tuple[int, ...]]:
        shapes = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            shapes += [self.lead + (fan_out, fan_in), self.lead + (fan_out, 1)]
        return shapes

    def views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (W, b) views of a flat buffer laid out like ``params``."""
        out, offset = [], 0
        for shape in self._shapes():
            size = math.prod(shape)
            out.append(flat[offset:offset + size].reshape(shape))
            offset += size
        return list(zip(out[::2], out[1::2]))

    def product(self):
        """The layer product and the sign of its adjoints."""
        return (vec_matmul, -1.0) if self.kind == "vp" else (np.matmul, 1.0)


def forward(net: Network, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network over a batch of input columns.

    Returns the output A^L and the activations [A0 .. AL], which are all
    that :func:`backward` needs.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[:-1] != net.lead + (net.sizes[0],):
        raise ShapeMismatchError(
            f"input shape {x.shape} does not fit a {net.kind} network "
            f"with {net.sizes[0]} inputs"
        )
    product, _ = net.product()
    activations = [x]
    for w, b in net.layers:
        z = product(w, activations[-1])
        z += b  # bias column broadcasts across frames
        activations.append(expit(z, out=z))
    return activations[-1], activations


def backward(net: Network, activations: list[np.ndarray], d_out,
             out: np.ndarray | None = None) -> np.ndarray:
    """Backpropagate a gradient at the output through every layer.

    Returns the gradient of every parameter as one flat array laid out
    like ``net.params``.  With ``out``, a C-contiguous float64 array of
    that shape that shares no memory with the parameters, activations or
    ``d_out``, the gradient is written there (the trainer passes one
    buffer for all its steps); it is checked before any write.
    """
    if len(activations) != len(net.layers) + 1:
        raise ShapeMismatchError("activations do not match this network")
    if np.shape(d_out) != activations[-1].shape:
        raise ShapeMismatchError(
            f"output gradient shape {np.shape(d_out)} != output shape "
            f"{activations[-1].shape}"
        )
    product, sign = net.product()
    grad = (np.empty_like(net.params) if out is None
            else check_out(out, net.params.shape, net.params, d_out, *activations))
    d_layers = net.views(grad)
    da = d_out
    for k in range(len(net.layers) - 1, -1, -1):
        a, a_prev = activations[k + 1], activations[k]
        dw, db = d_layers[k]
        g = np.multiply(da, a)  # sigmoid adjoint (da * a) * (1 - a), in place
        g *= 1.0 - a
        np.sum(g, axis=-1, keepdims=True, out=db)
        product(g, a_prev.swapaxes(-1, -2), out=dw)
        dw *= sign  # exact, so the same bits as negating a fresh product
        if k > 0:
            da = product(net.layers[k][0].swapaxes(-1, -2), g)
            da *= sign
    return grad


# Per-kind names of the one engine, kept only because the benchmark's
# tracer wraps them where vpsep.pipeline imports them.
vp_forward, vp_backward = real_forward, real_backward = forward, backward


def _frob_sq(e: np.ndarray) -> float:
    """Squared Frobenius norm, summed plane by plane."""
    return float(sum(np.sum(p * p) for p in e.reshape(-1, *e.shape[-2:])))


def loss_j(pred, target) -> tuple[float, np.ndarray]:
    """Joint two-source squared error of a stacked vocal-over-music block.

    J = ||pred - target||^2 over all rows and component planes; returns
    (J, dJ/dpred = 2 (pred - target)).  Operands are real or vector arrays
    of equal shape.
    """
    pred = np.asarray(pred, dtype=np.float64)
    if pred.shape != np.shape(target):
        raise ShapeMismatchError(
            f"prediction shape {pred.shape} != target shape {np.shape(target)}")
    e = pred - target
    k = e.shape[-2] // 2
    # summed source by source, each plane by plane: this order fixes the
    # bits of every J, hence of final_j in the checkpoint
    j = _frob_sq(e[..., :k, :]) + _frob_sq(e[..., k:, :])
    e *= 2.0  # the gradient, without a second whole-batch array
    return j, e


def init_network(kind: str, sizes, seed) -> Network:
    """Glorot-uniform weights, each plane drawn in turn, and zero biases.
    Deterministic for a given seed."""
    net = Network(kind, sizes)
    rng = np.random.default_rng(seed)
    for w, _ in net.layers:
        fan_out, fan_in = w.shape[-2:]
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-lim, lim, w.shape)
    return net
