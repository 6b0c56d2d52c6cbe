"""Slow reference implementations that the tests check the library against.

Vector matrices are ``(3, rows, cols)`` arrays, as in :mod:`vpsep.vecmat`.
"""

from dataclasses import dataclass, replace

import numpy as np

from vpsep.audio import (
    _WINDOW,
    HOP,
    OLA_REL_FLOOR,
    TARGET_RATE,
    WINDOW_LEN,
    ComplexSpectrogram,
    Waveform,
)
from vpsep.errors import ShapeMismatchError
from vpsep.optim import AdamState


@dataclass(frozen=True)
class Vec3:
    """A single 3-vector with real components."""

    c1: float
    c2: float
    c3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3], dtype=np.float64)


def cross(x: Vec3, y: Vec3) -> Vec3:
    """Cross product of two 3-vectors."""
    return Vec3(
        x.c2 * y.c3 - x.c3 * y.c2,
        x.c3 * y.c1 - x.c1 * y.c3,
        x.c1 * y.c2 - x.c2 * y.c1,
    )


def dot(x: Vec3, y: Vec3) -> float:
    return x.c1 * y.c1 + x.c2 * y.c2 + x.c3 * y.c3


def vec_at(m, i: int, j: int) -> Vec3:
    """The vector at (i, j) of a (3, rows, cols) array or nested list."""
    return Vec3(float(m[0][i][j]), float(m[1][i][j]), float(m[2][i][j]))


def vec_matmul_naive(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vector-valued matrix product via per-entry cross products,
    accumulated row-major in ascending j."""
    if p.shape[2] != q.shape[1]:
        raise ShapeMismatchError(f"inner dimensions do not match: {p.shape} x {q.shape}")
    pl, ql = p.tolist(), q.tolist()
    out = np.zeros((3, p.shape[1], q.shape[2]))
    for i in range(p.shape[1]):
        for k in range(q.shape[2]):
            acc = Vec3(0.0, 0.0, 0.0)
            for j in range(p.shape[2]):
                c = cross(vec_at(pl, i, j), vec_at(ql, j, k))
                acc = Vec3(acc.c1 + c.c1, acc.c2 + c.c2, acc.c3 + c.c3)
            out[0, i, k], out[1, i, k], out[2, i, k] = acc.c1, acc.c2, acc.c3
    return out


def adam_step_pure(params, grads, state: AdamState):
    """Adam as a pure function: returns new parameters and a new state,
    leaving its inputs untouched.  Checks are left to the library."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = state.t + 1
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    new_m, new_v, new_p = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m / c1
        v_hat = v / c2
        new_m.append(m)
        new_v.append(v)
        new_p.append(p - state.lr * m_hat / (np.sqrt(v_hat) + eps))
    return new_p, replace(state, m=new_m, v=new_v, t=t)


def color_decode_argmin(v: np.ndarray, n: float) -> np.ndarray:
    """Curve parameter of the nearest ramp point, picked by stacking the
    three per-segment distances and taking their argmin (first minimum
    wins a tie); returns the clamped x array."""
    r, g, b = v
    t1 = np.clip(r, 0.0, 1.0)
    d1 = (r - t1) ** 2 + g**2 + b**2
    x1 = t1 * n
    t2 = np.clip(g, 0.0, 1.0)
    d2 = (r - 1.0) ** 2 + (g - t2) ** 2 + b**2
    x2 = n + t2 * n
    t3 = np.clip(b, 0.0, 1.0)
    d3 = (r - 1.0) ** 2 + (g - 1.0) ** 2 + (b - t3) ** 2
    x3 = 2.0 * n + t3 * (1.0 - 2.0 * n)
    pick = np.argmin(np.stack([d1, d2, d3]), axis=0)
    x = np.take_along_axis(np.stack([x1, x2, x3]), pick[None], axis=0)[0]
    return np.clip(x, 0.0, 1.0)


def mask_magnitude_phase(bins: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masked bins built as mask * |z| * exp(i angle z)."""
    return mask * np.abs(bins) * np.exp(1j * np.angle(bins))


def istft_frame_loop(s: ComplexSpectrogram) -> Waveform:
    """Weighted overlap-add synthesis with one Python step per frame."""
    t = s.n_frames
    frames = np.fft.irfft(s.bins.T, n=WINDOW_LEN, axis=1)
    covered = (t - 1) * HOP + WINDOW_LEN
    num = np.zeros(covered)
    den = np.zeros(covered)
    wsq = _WINDOW * _WINDOW
    for k in range(t):
        sl = slice(k * HOP, k * HOP + WINDOW_LEN)
        num[sl] += frames[k] * _WINDOW
        den[sl] += wsq
    live = den > OLA_REL_FLOOR * np.max(den)
    num[live] /= den[live]
    out = np.zeros(s.original_len)
    out[:covered] = num
    return Waveform(out, TARGET_RATE)
