"""Waveform I/O, resampling, STFT geometry, and soft-mask reconstruction.

The analysis geometry is fixed at a 1024-sample Hann window with a
256-sample hop at 16 kHz.  Frames start at t*hop with no centering;
trailing samples that do not fill a whole window are left out of the
frame grid and of what ``istft`` returns (``covered_length`` samples).
"""

from __future__ import annotations

import math
import os
import struct
import threading
import uuid
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal
from scipy.io import wavfile

from .errors import AudioError, ShapeMismatchError, WavFormatError, check_int

TARGET_RATE = 16000
WINDOW_LEN = 1024
HOP = 256
N_BINS = WINDOW_LEN // 2 + 1
_OVERLAP = WINDOW_LEN // HOP  # frames covering each sample

# periodic Hann: only the very first tap is exactly zero, which keeps
# weighted overlap-add well conditioned everywhere else
_WINDOW = signal.get_window("hann", WINDOW_LEN, fftbins=True)

MASK_EPS = 1e-12
# overlap-add normalization is only trusted where the accumulated squared
# window reaches this fraction of its peak; below it samples taper to zero
OLA_REL_FLOOR = 1e-2


@dataclass(frozen=True)
class Waveform:
    """Mono waveform; samples nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise AudioError(f"samples must be 1-D, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise AudioError("samples contain NaN or Inf")
        check_int("sample_rate", self.sample_rate, 1, AudioError)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class ComplexSpectrogram:
    """Complex STFT frames (F x T)."""

    bins: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != N_BINS:
            raise AudioError(f"expected {N_BINS} bins, got shape {arr.shape}")
        object.__setattr__(self, "bins", arr)

    @property
    def n_frames(self) -> int:
        return self.bins.shape[1]

    def magnitude(self) -> np.ndarray:
        return np.abs(self.bins)


@dataclass(frozen=True)
class MaskPair:
    """A vocal soft mask ``m1`` in [0, 1] per t-f cell; the music mask
    ``m2`` is its complement, so the pair sums to one by construction."""

    m1: np.ndarray

    def __post_init__(self):
        m1 = np.asarray(self.m1, dtype=np.float64)
        if m1.size and not (m1.min() >= 0 and m1.max() <= 1):  # NaN fails too
            raise AudioError("masks must lie in [0, 1]")
        object.__setattr__(self, "m1", m1)

    @property
    def m2(self) -> np.ndarray:
        return 1.0 - self.m1


def resample_to_16k(w: Waveform) -> Waveform:
    """Band-limited downsampling to 16 kHz.

    Polyphase windowed-sinc filter, Kaiser beta=8 with 64 taps per
    phase, cut off at the new Nyquist.  Upsampling is rejected.
    """
    up, down = _resample_ratio(w.sample_rate)
    if up == down:
        return w
    taps = signal.firwin(64 * up + 1, 1.0 / down, window=("kaiser", 8.0))
    out = signal.resample_poly(w.samples, up, down, window=taps)
    return Waveform(out, TARGET_RATE)


def _resample_ratio(rate: int) -> tuple[int, int]:  # resample_to_16k's factors
    if rate < TARGET_RATE:
        raise AudioError(f"cannot upsample {rate} Hz to {TARGET_RATE} Hz")
    g = math.gcd(rate, TARGET_RATE)
    return TARGET_RATE // g, rate // g


def resampled_length(w: Waveform) -> int:
    """``len(resample_to_16k(w))``, without resampling: ceil(n up / down)."""
    up, down = _resample_ratio(w.sample_rate)
    return -(-len(w) * up // down)


def n_frames_for(n_samples: int) -> int:
    if n_samples < WINDOW_LEN:
        raise AudioError(
            f"signal of {n_samples} samples is shorter than one window"
        )
    return 1 + (n_samples - WINDOW_LEN) // HOP


def covered_length(n_samples: int) -> int:
    """Sample count reachable by whole analysis frames."""
    return (n_frames_for(n_samples) - 1) * HOP + WINDOW_LEN


def stft(w: Waveform) -> ComplexSpectrogram:
    """Hann-windowed short-time transform with the fixed 1024/256 grid."""
    if w.sample_rate != TARGET_RATE:
        raise AudioError(f"stft expects {TARGET_RATE} Hz input, got {w.sample_rate}")
    x = w.samples
    n_frames_for(len(x))  # a signal shorter than one window raises
    frames = sliding_window_view(x, WINDOW_LEN)[::HOP] * _WINDOW
    bins = np.fft.rfft(frames, axis=1).T
    return ComplexSpectrogram(bins)


def istft(s: ComplexSpectrogram) -> Waveform:
    """Weighted overlap-add synthesis.

    Each frame is windowed again on synthesis and the result divided by
    the accumulated squared window, so unmodified spectra reconstruct the
    interior of the signal exactly.  Where that accumulation is close to
    zero (the outermost samples of the first and last hop) the division
    would amplify content that modified spectra leak under the window
    taper, so those samples are left undivided and simply taper to zero.
    The result spans the frames, ``(T - 1) * HOP + WINDOW_LEN`` samples.
    It is one ``overlap_add`` of every frame, finished by ``ola_waveform``:
    the steps a block-wise separation takes a block at a time.
    """
    rows = ola_rows(s.n_frames)
    overlap_add(rows, 0, s.bins)
    return ola_waveform(rows)


def ola_rows(n_frames: int) -> np.ndarray:
    """A zeroed overlap-add accumulator for ``n_frames`` frames: one row per
    hop of the ``(n_frames - 1) * HOP + WINDOW_LEN`` samples they span."""
    return np.zeros((n_frames + _OVERLAP - 1, HOP))


def _add_frames(rows: np.ndarray, frames: np.ndarray) -> None:
    # hop-sized blocks: block j of frame k lands on row k + j, so adding
    # block j of every frame at once, j from last to first, sums each
    # sample's frames in ascending order, as a per-frame loop does
    t = len(frames)
    for j in reversed(range(_OVERLAP)):
        rows[j:j + t] += frames[:, j * HOP:(j + 1) * HOP]


def overlap_add(rows: np.ndarray, lo: int, bins: np.ndarray) -> None:
    """Add the windowed inverse transforms of the frame columns ``bins``
    (F x T) into the accumulator ``rows`` as frames ``lo`` to ``lo + T``.

    Adding a spectrogram's frame blocks in order sums every sample's frames
    in the same order as adding it whole, so the result is the same."""
    frames = np.fft.irfft(bins.T, n=WINDOW_LEN, axis=1)
    frames *= _WINDOW
    _add_frames(rows[lo:lo + len(frames) + _OVERLAP - 1], frames)


def ola_waveform(rows: np.ndarray) -> Waveform:
    """Finish an overlap-add accumulator: divide it by the accumulated
    squared window where that is trusted (see ``istft``).  The
    accumulator is divided in place and becomes the samples."""
    n_frames = len(rows) - _OVERLAP + 1
    den = ola_rows(n_frames)
    _add_frames(den, np.broadcast_to(_WINDOW * _WINDOW, (n_frames, WINDOW_LEN)))
    den = den.ravel()
    live = den > OLA_REL_FLOOR * np.max(den)
    y = rows.ravel()
    y[live] /= den[live]
    return Waveform(y, TARGET_RATE)


def soft_mask(mag1: np.ndarray, mag2: np.ndarray) -> MaskPair:
    """Ratio masks m_k = mag_k / (mag1 + mag2 + eps), renormalized so the
    pair sums to exactly one; silent cells split evenly."""
    mag1 = np.asarray(mag1, dtype=np.float64)
    mag2 = np.asarray(mag2, dtype=np.float64)
    if mag1.shape != mag2.shape:
        raise ShapeMismatchError(f"shape mismatch: {mag1.shape} vs {mag2.shape}")
    if mag1.size and not (mag1.min() >= 0 and mag2.min() >= 0):
        raise AudioError("magnitudes must be nonnegative")
    total = mag1 + mag2 + MASK_EPS
    m1 = mag1 / total
    s = m1 + mag2 / total
    live = s > 0
    return MaskPair(np.where(live, m1 / np.where(live, s, 1.0), 0.5))


def apply_mask_and_reconstruct(
    mix: ComplexSpectrogram, masks: MaskPair
) -> tuple[Waveform, Waveform]:
    """Scale the mixture magnitude by each mask, keep the mixture phase,
    and invert both.  A real mask times a complex bin does exactly that."""
    if masks.m1.shape != mix.bins.shape:
        raise ShapeMismatchError(
            f"mask shape {masks.m1.shape} != spectrogram shape {mix.bins.shape}"
        )
    return (istft(ComplexSpectrogram(masks.m1 * mix.bins)),
            istft(ComplexSpectrogram(masks.m2 * mix.bins)))


# --- WAV I/O ---------------------------------------------------------------

# catch_warnings swaps process-wide state, so overlapping reads from
# evaluation threads would lose or leak each other's warning filters
_WARNINGS_LOCK = threading.Lock()


def wav_read(path, channel: int | None = None) -> Waveform:
    """Read one channel of a PCM16 or float32 WAV file.

    Mono files need no ``channel``; multichannel files require one
    (iKala-style stems keep separate signals per channel).
    """
    with _WARNINGS_LOCK, warnings.catch_warnings():
        # scipy skips unknown chunks with a warning, and reports a cut data
        # chunk only as a warning, which is raised here instead
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        warnings.filterwarnings("error", "Reached EOF prematurely",
                                wavfile.WavFileWarning)
        # on a zero channel count scipy divides by zero, and a file with no
        # fmt or data chunk within its RIFF size leaves its result unbound
        try:
            rate, data = wavfile.read(path)
        except (ValueError, struct.error, ZeroDivisionError, UnboundLocalError,
                wavfile.WavFileWarning) as e:
            raise WavFormatError(f"{path}: malformed WAV file: {e}") from e
    if data.dtype.str not in ("<i2", "<f4"):
        raise WavFormatError(f"{path}: unsupported sample type {data.dtype}; "
                             "expected PCM16 or float32")
    frames = data if data.ndim == 2 else data[:, None]  # (samples, channels)
    n_chans = frames.shape[1]
    if channel is None and n_chans > 1:
        raise WavFormatError(f"file has {n_chans} channels; pick one explicitly")
    if not 0 <= (channel or 0) < n_chans:
        raise WavFormatError(f"no channel {channel} in {n_chans}-channel file")
    samples = frames[:, channel or 0].astype(np.float64)
    if data.dtype == np.int16:
        samples /= 32768.0
    return Waveform(samples, rate)


def _atomic_write(path, write) -> None:
    """Call ``write(fh)`` on a new file beside ``path`` and rename it over
    ``path`` once complete: a failed write leaves ``path`` as it was and
    removes the partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:  # the umask's mode, not mkstemp's 0o600
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def wav_write(path, w: Waveform, fmt: str = "pcm16") -> None:
    """Write one mono waveform as a PCM16 or float32 WAV file.

    PCM16 uses the int/32768 convention, so data originating from 16-bit
    samples round-trips bit-exactly and anything else is within 1 LSB.
    """
    if fmt == "pcm16":
        data = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    elif fmt == "float32":
        data = w.samples.astype("<f4")
    else:
        raise WavFormatError(f"unknown output format {fmt!r}")
    _atomic_write(path, lambda fh: wavfile.write(fh, w.sample_rate, data))
