"""Adam over lists of parameter arrays, updated in place.

The trainer passes ``[net.params]``, the network's flat parameter buffer
(see :mod:`vpsep.network`), so a vector weight is three independent
scalars; the update never couples entries.  A step overwrites flat views
of the parameters and the state's moments, so every array must be
C-contiguous, and advances the step counter; every input check runs
before the first write, so a rejected step changes nothing.

The moment decay rates and the denominator's epsilon are the constants
``BETA1`` = 0.9, ``BETA2`` = 0.999 and ``EPSILON`` = 1e-8 (Kingma & Ba's
defaults); only the learning rate is a setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, VpsepError

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

# Adam is elementwise, so each array is stepped in blocks of this many
# values; whole-buffer temporaries cost memory and cache misses.
_ADAM_CHUNK = 1 << 16


@dataclass
class AdamState:
    """First/second moment accumulators, step counter and learning rate."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    lr: float = 1e-3

    def __post_init__(self):
        if isinstance(self.lr, bool) or not 0 < self.lr < math.inf:
            raise VpsepError(f"learning rate must be positive and finite, got {self.lr}")
        if self.t < 0:
            raise VpsepError("step counter cannot be negative")


def adam_init(params: list[np.ndarray], lr: float = 1e-3) -> AdamState:
    """Fresh zero-moment state congruent with ``params``."""
    return AdamState([np.zeros_like(p) for p in params],
                     [np.zeros_like(p) for p in params], lr=lr)


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
    for k, (p, g, m, v) in enumerate(zip(params, grads, state.m, state.v)):
        if not p.shape == m.shape == v.shape:
            raise ShapeMismatchError(f"state array {k} shape mismatch")
        if not all(a.flags.c_contiguous for a in (p, g, m, v)):  # else reshape copies
            raise ShapeMismatchError(f"array {k}: every array must be C-contiguous")


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
    c1 = 1.0 - BETA1**state.t
    c2 = 1.0 - BETA2**state.t
    for arrays in zip(params, grads, state.m, state.v):
        p, g, m, v = (a.reshape(-1) for a in arrays)
        for i in range(0, p.size, _ADAM_CHUNK):
            blk = slice(i, i + _ADAM_CHUNK)
            gb, mb, vb = g[blk], m[blk], v[blk]
            mb *= BETA1
            mb += (1.0 - BETA1) * gb
            vb *= BETA2
            vb += (1.0 - BETA2) * (gb * gb)
            p[blk] -= state.lr * (mb / c1) / (np.sqrt(vb / c2) + EPSILON)
