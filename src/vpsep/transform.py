"""Dimensionality transforms between real magnitudes and 3-vector inputs.

Vector encodings are C-ordered ``(3, F, T)`` arrays, one plane per
component, the layout the networks take.  An encoder encodes every frame
of a magnitude matrix, or only the frames a minibatch picks (its
``cols``); the two share one body and one layout.  The
context-window encoder packs the previous/current/next spectrogram frame
of each t-f cell into a vector; its decoder reads back the middle
component, which must lie in [0, 1].  The color encoder
maps each normalized magnitude onto an RGB ramp (the piecewise-linear
limit of a hot colormap); its decoder projects an arbitrary RGB triple
back onto that curve, which for on-curve points is the exact inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, VpsepError

SCALE_FLOOR = 1e-12
COLOR_N = 0.0938  # default bias n of the RGB ramp


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
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
            raise VpsepError("normalized magnitudes must lie in [0, 1]")
        if not self.scale > 0:
            raise VpsepError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "data", arr)


def check_color_n(n: float, error: type[VpsepError] = VpsepError) -> None:
    """Raise ``error`` unless the ramp bias has n > 0 and 1 - 2n > 0."""
    if not 0.0 < n < 0.5:
        raise error(f"color_n must lie in (0, 0.5), got {n}")


def normalize(mag: np.ndarray, scale: float | None = None) -> MagnitudeMatrix:
    """Scale raw magnitudes into [0,1].

    With ``scale=None`` the clip's own maximum is used (floored at
    1e-12); pass the mixture's scale explicitly to normalize source
    targets, whose occasional overshoot is clamped to 1.
    """
    mag = np.asarray(mag, dtype=np.float64)
    if mag.size and not mag.min() >= 0.0:
        raise VpsepError("magnitudes must be nonnegative")
    if scale is None:
        scale = max(float(mag.max()) if mag.size else 0.0, SCALE_FLOOR)
    if not scale > 0:
        raise VpsepError(f"scale must be positive, got {scale}")
    return MagnitudeMatrix(np.clip(mag / scale, 0.0, 1.0), scale)


def context_columns(n_frames: int) -> np.ndarray:
    """The previous, own and next frame index of each of ``n_frames``
    frames, as a (3, n_frames) array; the first and last frames stand in
    for their missing neighbours."""
    own = np.arange(n_frames)
    return np.stack([np.maximum(own - 1, 0), own, np.minimum(own + 1, n_frames - 1)])


def window_encode(s: MagnitudeMatrix, cols=None) -> np.ndarray:
    """Context-window encoding as a (3, F, T) array: planes are the
    previous, current, and subsequent frames.

    ``cols`` is a (3, T) array of the previous, own and next frame index
    of each frame to encode; by default every frame is encoded, with the
    first/last frames replicating the edge (``context_columns``).
    """
    data = s.data
    if data.shape[1] < 1:
        raise ShapeMismatchError("need at least one frame column")
    if cols is None:
        cols = context_columns(data.shape[1])
    elif np.ndim(cols) != 2 or len(cols) != 3:
        raise ShapeMismatchError(f"cols must have shape (3, T), got {np.shape(cols)}")
    v = np.empty((3, data.shape[0], np.shape(cols)[1]))
    for plane, c in zip(v, cols):
        plane[...] = data[:, c]
    return v


def window_decode(v: np.ndarray) -> MagnitudeMatrix:
    """The current-frame plane; it must lie in [0,1], as a sigmoid's does."""
    return MagnitudeMatrix(v[1])


def window_stack(s: MagnitudeMatrix, cols=None) -> np.ndarray:
    """Real-valued context of 3 frames stacked along frequency (3F x T),
    the input layout of the context-3 real baseline; ``cols`` as for
    ``window_encode``."""
    return np.concatenate(window_encode(s, cols))


def color_encode(s: MagnitudeMatrix, n: float = COLOR_N, cols=None) -> np.ndarray:
    """Map each magnitude x in [0,1] to an RGB triple on the ramp with bias
    ``n`` in (0, 0.5), as a (3, F, T) array: r = clamp(x/n),
    g = clamp((x-n)/n), b = clamp((x-2n)/(1-2n)).  ``cols`` picks the
    frames to encode, every frame by default."""
    check_color_n(n)
    x = s.data if cols is None else s.data[:, cols]
    v = np.empty((3,) + x.shape)
    np.clip(x / n, 0.0, 1.0, out=v[0])
    np.clip((x - n) / n, 0.0, 1.0, out=v[1])
    np.clip((x - 2.0 * n) / (1.0 - 2.0 * n), 0.0, 1.0, out=v[2])
    return v


def color_decode(v: np.ndarray, n: float = COLOR_N) -> MagnitudeMatrix:
    """Project RGB triples back onto the ramp with bias ``n`` in (0, 0.5)
    and return the curve parameter x in [0,1].

    The curve is three axis-aligned segments; the nearest point on each
    is a clamped coordinate projection, so the global nearest-curve x is
    exact.  On-curve inputs therefore invert the encoder; off-curve
    network outputs are projected, never rejected.
    """
    check_color_n(n)
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

    # nearest segment, ties to the earlier one (argmin's rule); x1..x3 lie in [0, 1]
    x = np.where(d2 < d1, x2, x1)
    x = np.where(d3 < np.minimum(d1, d2), x3, x)
    return MagnitudeMatrix(x)
