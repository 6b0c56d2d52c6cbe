"""Dimensionality transforms between real magnitudes and 3-vector inputs.

Vector encodings are ``(3, F, T)`` arrays, one plane per component.  Two
encoders are provided.  The context-window encoder packs the
previous/current/next spectrogram frame of each t-f cell into a vector;
its decoder simply reads back the middle component.  The color encoder
maps each normalized magnitude onto an RGB ramp (the piecewise-linear
limit of a hot colormap); its decoder projects an arbitrary RGB triple
back onto that curve, which for on-curve points is the exact inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, VpsepError

SCALE_FLOOR = 1e-12


@dataclass(frozen=True)
class MagnitudeMatrix:
    """Normalized magnitude spectrogram (entries in [0,1]) plus the
    per-clip factor that restores raw magnitudes."""

    data: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatchError(f"magnitudes must be 2-D, got ndim={arr.ndim}")
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise VpsepError("normalized magnitudes must lie in [0, 1]")
        if not self.scale > 0:
            raise VpsepError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "data", arr)


def check_color_n(n: float, error: type[VpsepError] = VpsepError) -> None:
    """Raise ``error`` unless the ramp bias has n > 0 and 1 - 2n > 0."""
    if not 0.0 < n < 0.5:
        raise error(f"color_n must lie in (0, 0.5), got {n}")


@dataclass(frozen=True)
class ColorParams:
    """Bias of the RGB ramp."""

    n: float = 0.0938

    def __post_init__(self):
        check_color_n(self.n)


def normalize(mag: np.ndarray, scale: float | None = None) -> MagnitudeMatrix:
    """Scale raw magnitudes into [0,1].

    With ``scale=None`` the clip's own maximum is used (floored at
    1e-12); pass the mixture's scale explicitly to normalize source
    targets, whose occasional overshoot is clamped to 1.
    """
    mag = np.asarray(mag, dtype=np.float64)
    if mag.size and mag.min() < 0.0:
        raise VpsepError("magnitudes must be nonnegative")
    if scale is None:
        scale = max(float(mag.max()) if mag.size else 0.0, SCALE_FLOOR)
    if not scale > 0:
        raise VpsepError(f"scale must be positive, got {scale}")
    return MagnitudeMatrix(np.clip(mag / scale, 0.0, 1.0), scale)


def _planes_like(x: np.ndarray) -> np.ndarray:
    """Uninitialised (3, *x.shape) array whose planes share x's memory
    order: STFT magnitudes are column-major, and encoding them into
    row-major planes would cost a transposing pass."""
    if x.flags.f_contiguous and not x.flags.c_contiguous:
        return np.empty((3,) + x.shape[::-1]).swapaxes(-1, -2)
    return np.empty((3,) + x.shape)


def window_encode(s: MagnitudeMatrix) -> np.ndarray:
    """Context-window encoding as a (3, F, T) array: planes are the
    previous, current, and subsequent frames; first/last frames replicate
    the edge."""
    data = s.data
    if data.shape[1] < 1:
        raise ShapeMismatchError("need at least one frame column")
    v = _planes_like(data)
    v[0, :, :1], v[0, :, 1:] = data[:, :1], data[:, :-1]
    v[1] = data
    v[2, :, :-1], v[2, :, -1:] = data[:, 1:], data[:, -1:]
    return v


def window_decode(v: np.ndarray) -> MagnitudeMatrix:
    """The current-frame plane, clamped to [0,1]."""
    return MagnitudeMatrix(np.clip(v[1], 0.0, 1.0))


def window_stack(s: MagnitudeMatrix) -> np.ndarray:
    """Real-valued context of 3 frames stacked along frequency (3F x T),
    the input layout of the context-3 real baseline."""
    return np.concatenate(window_encode(s))


def color_encode(s: MagnitudeMatrix, p: ColorParams = ColorParams()) -> np.ndarray:
    """Map each magnitude x in [0,1] to an RGB triple on the ramp, as a
    (3, F, T) array: r = clamp(x/n), g = clamp((x-n)/n),
    b = clamp((x-2n)/(1-2n))."""
    x, n = s.data, p.n
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise VpsepError("color encoding needs magnitudes in [0, 1]")
    v = _planes_like(x)
    np.clip(x / n, 0.0, 1.0, out=v[0])
    np.clip((x - n) / n, 0.0, 1.0, out=v[1])
    np.clip((x - 2.0 * n) / (1.0 - 2.0 * n), 0.0, 1.0, out=v[2])
    return v


def color_decode(v: np.ndarray, p: ColorParams = ColorParams()) -> MagnitudeMatrix:
    """Project RGB triples back onto the ramp and return the curve
    parameter x in [0,1].

    The curve is three axis-aligned segments; the nearest point on each
    is a clamped coordinate projection, so the global nearest-curve x is
    exact.  On-curve inputs therefore invert the encoder; off-curve
    network outputs are projected, never rejected.
    """
    r, g, b = v
    n = p.n

    t1 = np.clip(r, 0.0, 1.0)
    d1 = (r - t1) ** 2 + g**2 + b**2
    x1 = t1 * n

    t2 = np.clip(g, 0.0, 1.0)
    d2 = (r - 1.0) ** 2 + (g - t2) ** 2 + b**2
    x2 = n + t2 * n

    t3 = np.clip(b, 0.0, 1.0)
    d3 = (r - 1.0) ** 2 + (g - 1.0) ** 2 + (b - t3) ** 2
    x3 = 2.0 * n + t3 * (1.0 - 2.0 * n)

    # nearest segment, ties to the earlier one (argmin's rule)
    x = np.where(d2 < d1, x2, x1)
    x = np.where(d3 < np.minimum(d1, d2), x3, x)
    return MagnitudeMatrix(np.clip(x, 0.0, 1.0))
