"""Clip corpus handling: manifest I/O, synthetic stem generation, and the
normalized magnitudes of training clips, held in one buffer of 3 x 513
float64 per frame (12.3 KB).  Minibatches are encoded for a model only
when they are drawn, by the encoders the caller passes
(``pipeline._codec``).

A corpus lives under one root directory:

    <root>/manifest.tsv                  clip_id / split / duration header + rows
    <root>/<clip-id>/mix.wav
    <root>/<clip-id>/vocal.wav
    <root>/<clip-id>/music.wav
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import signal

from .audio import (
    N_BINS,
    TARGET_RATE,
    Waveform,
    n_frames_for,
    resample_to_16k,
    resampled_length,
    stft,
    wav_read,
    wav_write,
    _atomic_write,
)
from .errors import AudioError, DatasetError, check_int
from .transform import MagnitudeMatrix, context_columns, normalize
# not called here, kept only because the benchmark's tracer wraps them here
from .transform import color_encode, window_encode

MANIFEST_NAME = "manifest.tsv"
MANIFEST_HEADER = ("clip_id", "split", "duration")
SPLITS = ("train", "test")


@dataclass(frozen=True)
class ClipEntry:
    clip_id: str
    split: str
    duration: float
    root: Path

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DatasetError(
                f"clip {self.clip_id!r}: split must be train or test, got {self.split!r}"
            )
        if not 0 < self.duration < math.inf:
            raise DatasetError(f"clip {self.clip_id!r}: bad duration {self.duration}")

    @property
    def clip_dir(self) -> Path:
        return Path(self.root) / self.clip_id

    @property
    def mix_path(self) -> Path:
        return self.clip_dir / "mix.wav"

    @property
    def vocal_path(self) -> Path:
        return self.clip_dir / "vocal.wav"

    @property
    def music_path(self) -> Path:
        return self.clip_dir / "music.wav"


@dataclass(frozen=True)
class DatasetManifest:
    root: Path
    clips: tuple[ClipEntry, ...]

    def split(self, name: str) -> list[ClipEntry]:
        return [c for c in self.clips if c.split == name]

    @property
    def train_clips(self) -> list[ClipEntry]:
        return self.split("train")

    @property
    def test_clips(self) -> list[ClipEntry]:
        return self.split("test")


def load_manifest(root) -> DatasetManifest:
    root = Path(root)
    path = root / MANIFEST_NAME
    if not path.is_file():
        raise DatasetError(f"no {MANIFEST_NAME} under {root}")
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise DatasetError(f"{path}: empty manifest")
    header = tuple(lines[0].rstrip("\n").split("\t"))
    if header != MANIFEST_HEADER:
        raise DatasetError(
            f"{path}: header must be {chr(9).join(MANIFEST_HEADER)!r}"
        )
    clips = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split("\t")
        if len(cols) != 3:
            raise DatasetError(f"{path}:{lineno}: expected 3 tab-separated columns")
        clip_id, split, dur_s = (c.strip() for c in cols)
        if clip_id in ("", ".", "..") or Path(clip_id).name != clip_id:
            raise DatasetError(f"{path}:{lineno}: clip id {clip_id!r} must be one "
                               "directory name other than '.' and '..'")
        if clip_id in seen:
            raise DatasetError(f"{path}:{lineno}: duplicate clip id {clip_id!r}")
        seen.add(clip_id)
        try:
            duration = float(dur_s)
        except ValueError as e:
            raise DatasetError(f"{path}:{lineno}: bad duration {dur_s!r}") from e
        clips.append(ClipEntry(clip_id, split, duration, root))
    return DatasetManifest(root, tuple(clips))


def write_manifest(manifest: DatasetManifest) -> Path:
    path = Path(manifest.root) / MANIFEST_NAME
    rows = ["\t".join(MANIFEST_HEADER)]
    for c in manifest.clips:
        rows.append(f"{c.clip_id}\t{c.split}\t{c.duration:.6f}")
    text = "\n".join(rows) + "\n"
    _atomic_write(path, lambda fh: fh.write(text.encode()))
    return path


def _fade_ends(x: np.ndarray, rate: int, fade_s: float = 0.010) -> np.ndarray:
    """Raised-cosine fade at both ends; forces exact zeros at the edges so
    overlap-add reconstruction is lossless from sample 0."""
    k = min(int(round(fade_s * rate)), len(x) // 2)
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(k) / k)
    y = x.copy()
    y[:k] *= ramp
    y[-k:] *= ramp[::-1]
    return y


def _synth_vocal(rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    """Vibrato-modulated harmonic tone: a narrowband moving partial stack."""
    t = np.arange(n) / rate
    f0 = rng.uniform(200.0, 380.0)
    vib_rate = rng.uniform(4.5, 6.5)
    vib_depth = rng.uniform(0.006, 0.02)
    inst_f0 = f0 * (1.0 + vib_depth * np.sin(2 * np.pi * vib_rate * t))
    phase = 2 * np.pi * np.cumsum(inst_f0) / rate
    amps = np.array([0.30, 0.15, 0.075]) * rng.uniform(0.85, 1.15, size=3)
    x = np.zeros(n)
    for h, a in enumerate(amps, start=1):
        x += a * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
    return x


def _synth_music(rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    """Sustained low triad plus lowpassed noise: wideband stationary bed."""
    t = np.arange(n) / rate
    root = rng.uniform(80.0, 105.0)
    x = np.zeros(n)
    for ratio in (1.0, 1.25, 1.5):
        x += 0.11 * np.sin(2 * np.pi * root * ratio * t + rng.uniform(0, 2 * np.pi))
    sos = signal.butter(6, 180.0, btype="low", fs=rate, output="sos")
    x += 0.09 * signal.sosfilt(sos, rng.standard_normal(n))
    return x


def synth_dataset(root, seed: int = 0, n_train: int = 6, n_test: int = 4,
                  duration_s: float = 4.0) -> DatasetManifest:
    """Generate a paired-stem corpus of harmonic 'vocal' and triad-plus-noise
    'music' clips. Deterministic for a given seed; stems are faded to zero at
    the edges and scaled so the mixture stays inside (-1, 1)."""
    root = Path(root)
    check_int("n_train", n_train, 1, DatasetError)
    check_int("n_test", n_test, 0, DatasetError)
    check_int("seed", seed, 0, DatasetError)
    if isinstance(duration_s, bool) or not 0.2 < duration_s < math.inf:
        raise DatasetError(f"duration_s must be finite and above 0.2, got {duration_s}")
    rate = TARGET_RATE
    n = int(round(duration_s * rate))
    clips = []
    for i in range(n_train + n_test):
        rng = np.random.default_rng([seed, i])
        vocal = _fade_ends(_synth_vocal(rng, n, rate), rate)
        music = _fade_ends(_synth_music(rng, n, rate), rate)
        mix = vocal + music
        peak = np.max(np.abs(mix))
        if peak > 0.90:
            g = 0.90 / peak
            vocal, music, mix = vocal * g, music * g, mix * g
        clip_id = f"clip{i:03d}"
        split = "train" if i < n_train else "test"
        entry = ClipEntry(clip_id, split, n / rate, root)
        entry.clip_dir.mkdir(parents=True, exist_ok=True)
        wav_write(entry.vocal_path, Waveform(vocal, rate), fmt="float32")
        wav_write(entry.music_path, Waveform(music, rate), fmt="float32")
        wav_write(entry.mix_path, Waveform(mix, rate), fmt="float32")
        clips.append(entry)
    manifest = DatasetManifest(root, tuple(clips))
    write_manifest(manifest)
    return manifest


def load_clip_stems(entry: ClipEntry) -> tuple[Waveform, Waveform]:
    """Vocal and music stems resampled to the working rate, equal length."""
    vocal = resample_to_16k(wav_read(entry.vocal_path))
    music = resample_to_16k(wav_read(entry.music_path))
    if len(vocal.samples) != len(music.samples):
        raise DatasetError(
            f"clip {entry.clip_id!r}: stem lengths differ "
            f"({len(vocal.samples)} vs {len(music.samples)})"
        )
    return vocal, music


def load_clip_mixture(entry: ClipEntry) -> Waveform:
    if entry.mix_path.is_file():
        return resample_to_16k(wav_read(entry.mix_path))
    vocal, music = load_clip_stems(entry)
    return Waveform(vocal.samples + music.samples, vocal.sample_rate)


def clip_spectra(entry: ClipEntry) -> tuple[MagnitudeMatrix, MagnitudeMatrix,
                                             MagnitudeMatrix]:
    """Normalized mixture, vocal and music magnitudes of one clip.  All
    three share the mixture's scale so the sources stay comparable."""
    vocal, music = load_clip_stems(entry)
    mix = Waveform(vocal.samples + music.samples, vocal.sample_rate)
    norm_mix = normalize(stft(mix).magnitude())
    return (norm_mix, normalize(stft(vocal).magnitude(), scale=norm_mix.scale),
            normalize(stft(music).magnitude(), scale=norm_mix.scale))


def _of_clip(entry: ClipEntry, fn):
    """``fn(entry)``; an ``AudioError``, such as a clip shorter than one
    window, is raised as a ``DatasetError`` that names the clip."""
    try:
        return fn(entry)
    except AudioError as e:
        raise DatasetError(f"clip {entry.clip_id!r}: {e}") from e


def load_training_frames(manifest: DatasetManifest) -> tuple[np.ndarray, np.ndarray]:
    """The normalized magnitudes of every training-split frame, clip after
    clip, and each frame's neighbours within its clip.

    Returns ``(mags, context)``.  ``mags`` is a (3 * N_BINS, N) float64
    array whose columns are a frame's mixture, vocal and music magnitudes
    (see ``clip_spectra``), one over the other; each column is contiguous
    in memory, so a minibatch gathers whole columns.  ``context`` is the
    (3, N) previous, own and next frame index of each frame, clamped to
    the frame's own clip: a clip's first and last frames stand in for
    their missing neighbours, as ``window_encode`` has them.

    The buffer is sized first, from one stem per clip and without an STFT,
    and then filled clip by clip, so that it is the only whole-split array.
    """
    train = manifest.train_clips
    if not train:
        raise DatasetError("manifest has no training clips")
    def n_frames(entry):  # from one stem's length, with no resampling or STFT
        return n_frames_for(resampled_length(wav_read(entry.vocal_path)))

    counts = [_of_clip(entry, n_frames) for entry in train]
    total = sum(counts)
    mags = np.empty((total, 3 * N_BINS)).T
    context = np.empty((3, total), dtype=np.intp)
    lo = 0
    for entry, count in zip(train, counts):
        hi = lo + count
        for k, spectrum in enumerate(_of_clip(entry, clip_spectra)):
            mags[k * N_BINS:(k + 1) * N_BINS, lo:hi] = spectrum.data
        context[:, lo:hi] = lo + context_columns(count)
        lo = hi
    return mags, context


def make_batches(mags: np.ndarray, context: np.ndarray, batch_frames: int,
                 rng: np.random.Generator, encode, encode_target):
    """Shuffle the frames of ``load_training_frames``'s ``(mags, context)``
    and yield encoded minibatches ``(x, t)`` (the last one ragged), each
    encoded when it is reached.  The permutation is drawn on the first
    ``next()``.

    ``encode(s, cols)`` encodes the mixture and ``encode_target(s, cols)``
    the vocal magnitudes stacked over the music ones, where ``s`` is a
    ``MagnitudeMatrix`` over every stored frame and ``cols`` the (3, T)
    context columns of the batch's frames.
    """
    mix, sources = MagnitudeMatrix(mags[:N_BINS]), MagnitudeMatrix(mags[N_BINS:])
    order = rng.permutation(mags.shape[-1])
    for start in range(0, len(order), batch_frames):
        cols = context[:, order[start:start + batch_frames]]
        yield encode(mix, cols), encode_target(sources, cols)
