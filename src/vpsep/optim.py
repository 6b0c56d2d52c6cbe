"""Adam over lists of parameter arrays.

The trainer passes chunks of the network's flat parameter buffer (see
:mod:`vpsep.network`), so a vector weight is three independent scalars;
the update never couples entries.  A step returns fresh arrays and a fresh
state, leaving its inputs untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, VpsepError


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


def _check_congruent(params, grads, state: AdamState | None = None) -> None:
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
    if state is not None:
        if len(state.m) != len(params):
            raise ShapeMismatchError("optimizer state does not match parameters")
        for k, (p, m) in enumerate(zip(params, state.m)):
            if p.shape != m.shape:
                raise ShapeMismatchError(f"state array {k} shape mismatch")


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One Adam update, applied identically to every array.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;  bias-corrected
    m^, v^;  theta <- theta - lr * m^ / (sqrt(v^) + eps).
    """
    _check_congruent(params, grads, state)
    t = state.t + 1
    new_m, new_v, new_p = [], [], []
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        m_hat = m / c1
        v_hat = v / c2
        new_m.append(m)
        new_v.append(v)
        new_p.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon))
    next_state = AdamState(
        m=new_m,
        v=new_v,
        t=t,
        lr=state.lr,
        beta1=state.beta1,
        beta2=state.beta2,
        epsilon=state.epsilon,
    )
    return new_p, next_state

