"""Adam over lists of parameter arrays, updated in place.

The trainer passes ``[net.params]``, the network's flat parameter buffer
(see :mod:`vpsep.network`), so a vector weight is three independent
scalars; the update never couples entries.  A step overwrites the
parameters and the state's moments and advances its step counter; every
input check runs before the first write, so a rejected step changes
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, VpsepError

# Adam is elementwise, so each array is stepped in blocks of this many
# values; whole-buffer temporaries cost memory and cache misses.
_ADAM_CHUNK = 1 << 16


@dataclass
class AdamState:
    """First/second moment accumulators plus hyperparameters."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.lr <= 0:
            raise VpsepError(f"learning rate must be positive, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise VpsepError(f"betas must lie in [0, 1): {self.beta1}, {self.beta2}")
        if self.t < 0:
            raise VpsepError("step counter cannot be negative")


def adam_init(
    params: list[np.ndarray],
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> AdamState:
    """Fresh zero-moment state congruent with ``params``."""
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        t=0,
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
    )


def _check_congruent(params, grads, state: AdamState) -> None:
    if len(params) != len(grads):
        raise ShapeMismatchError(
            f"{len(params)} parameter arrays vs {len(grads)} gradient arrays"
        )
    for k, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ShapeMismatchError(
                f"array {k}: parameter shape {p.shape} != gradient shape {g.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise VpsepError(f"non-finite gradient entries in array {k}")
    if len(state.m) != len(params) or len(state.v) != len(params):
        raise ShapeMismatchError("optimizer state does not match parameters")
    for k, (p, m, v) in enumerate(zip(params, state.m, state.v)):
        if not p.shape == m.shape == v.shape:
            raise ShapeMismatchError(f"state array {k} shape mismatch")


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> None:
    """One Adam update of ``params``, ``state.m`` and ``state.v`` in place,
    applied identically to every array; advances ``state.t``.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;  bias-corrected
    m^, v^;  theta <- theta - lr * m^ / (sqrt(v^) + eps).
    """
    _check_congruent(params, grads, state)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        blocks = [...]  # whole array, unless flat views can be cut into blocks
        if all(a.flags.c_contiguous for a in (p, g, m, v)):
            p, g, m, v = (a.reshape(-1) for a in (p, g, m, v))
            blocks = [slice(i, i + _ADAM_CHUNK) for i in range(0, p.size, _ADAM_CHUNK)]
        for blk in blocks:
            gb, mb, vb = g[blk], m[blk], v[blk]
            mb *= b1
            mb += (1.0 - b1) * gb
            vb *= b2
            vb += (1.0 - b2) * (gb * gb)
            p[blk] -= state.lr * (mb / c1) / (np.sqrt(vb / c2) + state.epsilon)
