"""End-to-end separation workflow: training, checkpointing, separation of
a mixture into vocal and music estimates, and corpus-level evaluation."""

from __future__ import annotations

import hashlib
import json
import math
import struct
import threading
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import (
    HOP,
    N_BINS,
    TARGET_RATE,
    WINDOW_LEN,
    Waveform,
    # not called here, kept only because the benchmark's tracer wraps it here
    apply_mask_and_reconstruct,
    n_frames_for,
    ola_rows,
    ola_waveform,
    overlap_add,
    resample_to_16k,
    soft_mask,
    stft,
    _atomic_write,
)
from . import parallel
from .config import MODEL_SPECS, ExperimentConfig, ModelSpec
from .dataset import (
    ClipEntry,
    DatasetManifest,
    load_clip_mixture,
    load_clip_stems,
    load_training_frames,
    make_batches,
)
from .errors import (
    CheckpointError,
    DatasetError,
    ShapeMismatchError,
    TrainingDivergedError,
    VpsepError,
    check_int,
)
# sdr_only is not called here, kept only because the benchmark's tracer wraps it here
from .metrics import (BssReferences, GlobalMetrics, aggregate_global, bss_decompose,
                      sdr_only, sdr_sir_sar)
from .network import (Network, init_network, loss_j, real_backward, real_forward,
                      vp_backward, vp_forward)
from .optim import adam_init, adam_step
from .transform import (
    SCALE_FLOOR,
    MagnitudeMatrix,
    check_color_n,
    color_decode,
    color_encode,
    normalize,
    window_decode,
    window_encode,
    window_stack,
)


@dataclass(frozen=True)
class ModelCheckpoint:
    """A trained (or freshly initialized) model; its ``spec`` follows from
    the model and its architecture from the network's layer sizes."""

    model: str
    color_n: float
    network: Network
    epochs_trained: int = 0
    final_j: float | None = None

    def __post_init__(self):
        _check_fit(self.model, self.sizes)
        if self.network.kind != self.spec.kind:
            raise CheckpointError(f"kind {self.network.kind!r} contradicts model {self.model}")
        check_color_n(_number("color_n", self.color_n, float), CheckpointError)
        if not np.all(np.isfinite(self.network.params)):
            raise CheckpointError("network parameters contain NaN or Inf")
        check_int("epochs_trained", self.epochs_trained, 0, CheckpointError)
        if self.final_j is not None and not np.isfinite(
                _number("final_j", self.final_j, float)):
            raise CheckpointError(f"final_j must be finite, got {self.final_j!r}")

    @property
    def spec(self) -> ModelSpec:
        return MODEL_SPECS[self.model]

    @property
    def arch(self) -> str:
        return f"{self.sizes[1]}x{len(self.sizes) - 2}"

    @property
    def sizes(self) -> list[int]:
        return list(self.network.sizes)


def _check_fit(model, sizes: list[int]) -> None:
    """Raise unless the model is in ``MODEL_SPECS`` and ``sizes`` is its
    layer chain."""
    if not isinstance(model, str) or model not in MODEL_SPECS:
        raise CheckpointError(f"unknown model {model!r}")
    # the chain is taken for the stored bin count, so small test networks fit
    if len(sizes) < 3 or min(sizes) < 1 or sizes != MODEL_SPECS[model].sizes(
            sizes[1], len(sizes) - 2, sizes[-1] // 2):
        raise CheckpointError(f"layer sizes {sizes} do not fit {model}")


# --- training ---------------------------------------------------------------


def _codec(model: str, n: float):
    """The input encoder, target encoder and decoder of ``model`` with ramp
    bias ``n``.  Encoders take normalized magnitudes and, for a minibatch,
    the (3, T) previous, own and next column of each frame to encode
    (``make_batches``); without columns they encode every frame.  The
    decoder takes a network output and returns normalized magnitudes."""
    # built per call, not tabled at import: the benchmark's tracer swaps these names while it runs
    spec = MODEL_SPECS[model]
    if spec.transform == "color":
        encode = lambda s, cols=None: color_encode(s, n, None if cols is None else cols[1])
        return encode, encode, lambda y: color_decode(y, n)
    if spec.kind == "vp":
        return window_encode, window_encode, window_decode
    # np.take would first copy the whole strided store; an index copies only the batch
    plain = lambda s, cols=None: (s.data if cols is None
                                  else np.ascontiguousarray(s.data[:, cols[1]]))
    return (window_stack if spec.transform == "window" else plain), plain, MagnitudeMatrix


def _engine(kind: str):
    """Forward and backward entry points for a network kind."""
    if kind == "vp":
        return vp_forward, vp_backward
    return real_forward, real_backward


def train(config: ExperimentConfig, manifest: DatasetManifest,
          on_epoch=None) -> tuple[ModelCheckpoint, list[float]]:
    """Minibatch Adam on the summed squared reconstruction error of both
    encoded sources.  The split is held as magnitudes, and each minibatch
    is encoded when it is drawn.  Returns the trained checkpoint and the
    per-epoch history of mean loss per frame."""
    net = init_network(config.spec.kind, config.network_sizes(N_BINS),
                       seed=[config.seed, 0])
    forward, backward = _engine(net.kind)
    encode, encode_target, _ = _codec(config.model, config.color_n)

    mags, context = load_training_frames(manifest)
    n_frames = mags.shape[-1]
    shuffle_rng = np.random.default_rng([config.seed, 1])
    state = adam_init([net.params], lr=config.lr)
    grad = np.empty_like(net.params)  # every step's gradient, written in place

    history: list[float] = []
    for epoch in range(config.epochs):
        total_j = 0.0
        for batch_i, (x, target) in enumerate(
            make_batches(mags, context, config.batch_frames, shuffle_rng,
                         encode, encode_target)
        ):
            y, cache = forward(net, x)
            j, d_y = loss_j(y, target)
            if not np.isfinite(j):
                raise TrainingDivergedError(
                    f"loss became {j} at epoch {epoch}, batch {batch_i}"
                )
            backward(net, cache, d_y, out=grad)
            adam_step([net.params], [grad], state)
            total_j += j
        mean_j = total_j / n_frames
        history.append(mean_j)
        if on_epoch is not None:
            on_epoch(epoch, mean_j)

    ckpt = ModelCheckpoint(
        model=config.model,
        color_n=config.color_n,
        network=net,
        epochs_trained=config.epochs,
        final_j=history[-1] if history else None,
    )
    return ckpt, history


# --- separation -------------------------------------------------------------


def _pad_waveform(w: Waveform) -> Waveform:
    """Zero-pad by one whole window on each side (plus tail alignment).

    The pad is a hop multiple, so analysis frames stay on the same sample
    grid, every real sample lands in the exactly-invertible interior of
    the overlap-add, and masked edge leakage falls in the discarded pad.
    """
    tail = -(len(w) + WINDOW_LEN) % HOP
    x = np.concatenate([np.zeros(WINDOW_LEN), w.samples,
                        np.zeros(WINDOW_LEN + tail)])
    return Waveform(x, w.sample_rate)


def _cut(w: Waveform, offset: int, n: int) -> Waveform:
    return Waveform(w.samples[offset:offset + n], w.sample_rate)


# STFT frames masked and overlap-added at a time (8.2 s at 16 kHz).  Beside
# the clip's samples and its vocal estimate, a separation holds only a few
# blocks' spectra, activations and masks.  Separating 120 s at 512x3 on a
# 2-vCPU VM, blocks of 128-512 frames peaked at 380-396 MiB RSS, 1024 at
# 460 and 2048 at 577; smaller blocks were not faster.  A constant, so the
# bits of a separation never depend on the core count.
_BLOCK_FRAMES = 512


def _blocks(n_frames: int, halo: int) -> list[tuple[int, int, int, int]]:
    """Each block's frames ``lo:hi`` of a spectrogram, in order, with the
    frames ``a:b`` that add up to ``halo`` neighbours on each side, as
    ``(a, lo, hi, b)``."""
    return [(max(lo - halo, 0), lo, min(lo + _BLOCK_FRAMES, n_frames),
             min(lo + _BLOCK_FRAMES + halo, n_frames))
            for lo in range(0, n_frames, _BLOCK_FRAMES)]


def _block_bins(padded: Waveform, a: int, b: int) -> np.ndarray:
    """Frames ``a:b`` of the STFT of ``padded``, taken from the samples they
    span: the same bits as those columns of the whole signal's STFT."""
    return stft(_cut(padded, a * HOP, (b - a - 1) * HOP + WINDOW_LEN)).bins


def _masked_split(w: Waveform, halo: int, masked_blocks) -> tuple[Waveform, Waveform]:
    """Both estimates of a 16 kHz mixture, cut to the mixture's length.

    The mixture is padded, and its STFT is taken a block of frames at a
    time (``_blocks``), never whole.  ``masked_blocks(bins_of, blocks)``,
    given ``bins_of(a, b)``, frames ``a:b`` of that STFT, yields for each
    block in order its frames ``lo:hi`` of those bins times the vocal mask
    ``m1``.  They are overlap-added in order, which sums every sample's
    frames in the order a whole-clip ``istft`` does.  All of it runs with
    numpy's BLAS on one thread, and the generator is closed inside that
    scope, so whatever it still runs ends before the count is put back,
    also when either side fails.  The music mask is ``1 - m1`` and the
    iSTFT is linear and exact where samples are kept, so the music
    estimate is the mixture minus the vocal estimate."""
    padded = _pad_waveform(w)
    n_frames = n_frames_for(len(padded))
    blocks = _blocks(n_frames, halo)
    acc = ola_rows(n_frames)
    with parallel.ONE_BLAS_THREAD, closing(
            masked_blocks(lambda a, b: _block_bins(padded, a, b), blocks)) as masked:
        for _, lo, _, _ in blocks:
            overlap_add(acc, lo, next(masked))
    vocal = _cut(ola_waveform(acc), WINDOW_LEN, len(w))
    return vocal, Waveform(w.samples - vocal.samples, w.sample_rate)


def separate(ckpt: ModelCheckpoint, mix: Waveform) -> tuple[Waveform, Waveform]:
    """Split a mixture into (vocal, music) estimates.

    The input is resampled to the working rate; the estimates have exactly
    the resampled length, and the music estimate is the resampled mixture
    minus the vocal estimate (``_masked_split``).  Magnitudes are
    normalized by the maximum over the whole clip, found in a first pass
    over the blocks, then encoded, run through the network and turned
    into masks a block of frames at a time; context-3 models see one more
    frame on each side of a block, so a block's output is that of the
    whole-clip network.  The calling thread encodes each block and hands
    its forward pass to the pool, up to the pool's size ahead of the block
    it masks (a one-block clip runs it inline), into per-layer buffer sets
    kept for the call.  Any failure waits for the forward passes still
    running before it propagates."""
    forward, _ = _engine(ckpt.spec.kind)
    encode, _, decode = _codec(ckpt.model, ckpt.color_n)
    net = ckpt.network

    def masked_blocks(bins_of, blocks):
        if len(blocks) == 1:  # its frames a:b are lo:hi, so one STFT serves both passes
            bins_once = bins_of(*blocks[0][1:3])
            bins_of = lambda a, b: bins_once
        # the same float as normalize(|whole STFT|).scale: a max is exact
        scale = max(max(float(np.abs(bins_of(lo, hi)).max()) for _, lo, hi, _ in blocks),
                    SCALE_FLOOR)
        pool, ahead = parallel.pool() if len(blocks) > 1 else (parallel.INLINE, 0)
        cols = max(b - a for a, _, _, b in blocks)
        spare = []  # per-layer output buffer sets not in use
        pending = deque()  # (block, its own bins, buffer set, future), oldest first

        def finish():
            (a, lo, hi, _), bins, flat, job = pending.popleft()
            mags = decode(job.result()[0][..., lo - a:hi - a]).data * scale
            spare.append(flat)
            return soft_mask(mags[:N_BINS], mags[N_BINS:]).m1 * bins

        try:
            for a, lo, hi, b in blocks:
                bins = bins_of(a, b)
                if len(pending) > ahead:
                    yield finish()
                flat = spare.pop() if spare else [
                    np.empty(math.prod(net.lead + (n, cols))) for n in net.sizes[1:]]
                out = [f[:math.prod(s)].reshape(s) for f, s in zip(
                    flat, (net.lead + (n, b - a) for n in net.sizes[1:]))]
                pending.append(((a, lo, hi, b), bins[:, lo - a:hi - a], flat, pool.submit(
                    forward, net, encode(normalize(np.abs(bins), scale)), out=out)))
            while pending:
                yield finish()
        finally:
            wait([job for *_, job in pending])
    return _masked_split(resample_to_16k(mix), ckpt.spec.context // 2, masked_blocks)


def _check_ideal_kind(kind: str) -> None:
    if kind not in ("soft", "binary"):
        raise VpsepError(f"ideal mask kind must be soft or binary, got {kind!r}")


def separate_ideal(mix: Waveform, vocal: Waveform, music: Waveform,
                   kind: str = "soft") -> tuple[Waveform, Waveform]:
    """Oracle separation from the true stem magnitudes (mask upper bound).
    Each block's mask is made from the same block of the stems' STFTs:
    masks are cellwise, so it is that block of the whole-clip mask."""
    _check_ideal_kind(kind)
    w, v, m = (resample_to_16k(x) for x in (mix, vocal, music))
    n = min(len(w), len(v), len(m))
    stems = [_pad_waveform(_cut(x, 0, n)) for x in (v, m)]

    def masked_blocks(bins_of, blocks):
        for _, lo, hi, _ in blocks:
            bv, bm = (np.abs(_block_bins(s, lo, hi)) for s in stems)
            m1 = (bv >= bm).astype(np.float64) if kind == "binary" else soft_mask(bv, bm).m1
            yield m1 * bins_of(lo, hi)
    return _masked_split(_cut(w, 0, n), 0, masked_blocks)


# --- evaluation -------------------------------------------------------------


@dataclass(frozen=True)
class ClipEval:
    clip_id: str
    source: str
    n_samples: int
    sdr: float
    sir: float
    sar: float
    mix_sdr: float

    @property
    def nsdr(self) -> float:
        return self.sdr - self.mix_sdr


@dataclass(frozen=True)
class EvalReport:
    model: str
    arch: str
    context: int
    vocal: GlobalMetrics
    music: GlobalMetrics
    clips: tuple[ClipEval, ...]
    skipped: tuple[str, ...] = ()  # clips with a silent stem, not scored

    def table_tsv(self) -> str:
        """Single-row summary table; the headline row reports the vocal
        estimate, the target of interest."""
        header = "model\tarch\tcontext\tGNSDR\tGSIR\tGSAR"
        row = (
            f"{self.model}\t{self.arch}\t{self.context}\t"
            f"{self.vocal.gnsdr:.12f}\t{self.vocal.gsir:.12f}\t{self.vocal.gsar:.12f}"
        )
        return header + "\n" + row + "\n"

    def per_clip_tsv(self) -> str:
        lines = ["clip_id\tsource\tn_samples\tSDR\tSIR\tSAR\tNSDR"]
        for c in self.clips:
            lines.append(
                f"{c.clip_id}\t{c.source}\t{c.n_samples}\t"
                f"{c.sdr:.6f}\t{c.sir:.6f}\t{c.sar:.6f}\t{c.nsdr:.6f}"
            )
        return "\n".join(lines) + "\n"


# The clip scored last, as (key, its prepared references, its mixture's
# SDRs), or None; read and replaced under the lock.
_clip_memo = None
_clip_memo_lock = threading.Lock()


def _clip_references(refs: np.ndarray, mix: np.ndarray,
                     filter_len: int) -> tuple[BssReferences, list[float]]:
    """The clip's prepared references and its mixture's SDR against each,
    from ``_clip_memo`` when it holds this clip.  A miss drops the entry
    before it builds its own, which it publishes only once the mixture's
    SDRs have factored every system, so sharing threads only read it."""
    global _clip_memo
    digest = hashlib.blake2b(refs)
    digest.update(mix)
    key = (len(mix), filter_len, digest.digest())
    with _clip_memo_lock:
        if _clip_memo is not None and _clip_memo[0] == key:
            return _clip_memo[1:]
        _clip_memo = None
    prepared = BssReferences(refs, filter_len)
    entry = (key, prepared, prepared.sdrs(mix))
    with _clip_memo_lock:
        _clip_memo = entry
    return entry[1:]


def _clip_rows(entry: ClipEntry, estimate_fn, filter_len: int) -> list[ClipEval] | None:
    """Both sources' rows for one clip, or None when a stem is all zeros:
    a silent reference leaves nothing to score against.

    The clip's prepared references and mixture SDRs come from a one-clip
    memo, kept for the clip scored last and keyed by the sample count,
    ``filter_len`` and a digest of the exact vocal, music and mixture
    samples scored, so a rewritten stem misses.  At ``filter_len`` 512 it
    holds 6 MiB of packed factors plus 16 B per spectrum bin per
    reference: about 7 MiB for a 4 s clip (``metrics``).  One-clip calls
    made clip-major, every row of a clip before the next clip, prepare
    each clip once; whole-split calls made row after row never hit it."""
    vocal, music = load_clip_stems(entry)
    mix = load_clip_mixture(entry)
    n = min(len(mix), len(vocal), len(music))
    refs = np.vstack([vocal.samples[:n], music.samples[:n]])
    if not np.all(np.any(refs, axis=1)):
        return None
    mix_t = Waveform(mix.samples[:n], TARGET_RATE)
    est_v, est_m = estimate_fn(mix_t, *(Waveform(r, TARGET_RATE) for r in refs))
    refs, mix_sdrs = _clip_references(refs, np.ascontiguousarray(mix_t.samples), filter_len)
    rows = []
    for idx, (name, est) in enumerate((("vocal", est_v), ("music", est_m))):
        decomp = bss_decompose(est.samples, refs, target_index=idx,
                               filter_len=filter_len)
        res = sdr_sir_sar(decomp)
        rows.append(ClipEval(entry.clip_id, name, n,
                             res.sdr, res.sir, res.sar, mix_sdrs[idx]))
    return rows


def _run_eval(clips, estimate_fn, filter_len: int, workers: int | None,
              model: str, arch: str, context: int) -> EvalReport:
    if workers is not None:
        check_int("workers", workers, 1)
    check_int("filter_len", filter_len, 1)
    if not clips:
        raise DatasetError("no clips to evaluate in the requested split")
    if workers is None:
        workers = min(parallel.usable_cpus(), len(clips))
    if workers > 1:  # not on parallel.pool(): separate() hands it forward passes
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_clip = list(pool.map(
                lambda e: _clip_rows(e, estimate_fn, filter_len), clips))
    else:
        per_clip = [_clip_rows(e, estimate_fn, filter_len) for e in clips]
    skipped = tuple(e.clip_id for e, rows in zip(clips, per_clip) if rows is None)
    if len(skipped) == len(clips):
        raise DatasetError(f"every clip has a silent stem: {', '.join(skipped)}")
    flat = [row for rows in per_clip if rows is not None for row in rows]
    globals_by_source = {}
    for source in ("vocal", "music"):
        rows = [r for r in flat if r.source == source]
        globals_by_source[source] = aggregate_global(
            [(r.nsdr, r.sir, r.sar) for r in rows],
            [r.n_samples for r in rows],
        )
    return EvalReport(model, arch, context, globals_by_source["vocal"],
                      globals_by_source["music"], tuple(flat), skipped)


def evaluate(ckpt: ModelCheckpoint, manifest: DatasetManifest,
             filter_len: int = 512, workers: int | None = None,
             split: str = "test") -> EvalReport:
    """Separate every clip in the split and report per-clip and
    length-weighted global metrics for both estimated sources, scored on
    ``workers`` threads (None: one per usable CPU, at most one per clip)."""
    clips = manifest.split(split)
    return _run_eval(
        clips,
        lambda mix, v, m: separate(ckpt, mix),
        filter_len, workers, ckpt.model, ckpt.arch, ckpt.spec.context,
    )


def evaluate_ideal(manifest: DatasetManifest, kind: str = "soft",
                   filter_len: int = 512, workers: int | None = None,
                   split: str = "test") -> EvalReport:
    """Evaluate the oracle mask built from the true stems (upper bound)."""
    _check_ideal_kind(kind)
    clips = manifest.split(split)
    return _run_eval(
        clips,
        lambda mix, v, m: separate_ideal(mix, v, m, kind=kind),
        filter_len, workers, f"IDEAL-{kind}", "-", 1,
    )


# --- checkpoint file format --------------------------------------------------

_MAGIC = b"VPNC"
_VERSION = 1


def _number(key: str, value, cast):
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise CheckpointError(f"{key} must be a number, got {value!r}") from e


def _header(ckpt: ModelCheckpoint) -> dict:
    """The v1 metadata of a checkpoint: what ``checkpoint_save`` writes and
    the only metadata ``checkpoint_load`` accepts for it."""
    sizes = ckpt.sizes
    return {
        "model": ckpt.model,
        "kind": ckpt.spec.kind,
        "hidden_width": sizes[1],
        "hidden_layers": len(sizes) - 2,
        "sizes": sizes,
        "transform": ckpt.spec.transform,
        "color_n": float(ckpt.color_n),
        "epochs_trained": int(ckpt.epochs_trained),
        "final_j": None if ckpt.final_j is None else float(ckpt.final_j),
        "normalization": "per-clip-mixture-max",
        "sample_rate": TARGET_RATE,
        "window_len": WINDOW_LEN,
        "hop": HOP,
    }


def checkpoint_save(path, ckpt: ModelCheckpoint) -> None:
    """Binary layout: magic, u32 version, u32 metadata length, JSON
    metadata, raw float64 little-endian parameter planes in network
    order, trailing CRC32 of everything before it."""
    meta_bytes = json.dumps(_header(ckpt), sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<II", _VERSION, len(meta_bytes))
    blob += meta_bytes
    blob += np.ascontiguousarray(ckpt.network.params, dtype="<f8").data
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    _atomic_write(path, lambda fh: fh.write(blob))


def checkpoint_load(path) -> ModelCheckpoint:
    """Read a checkpoint file.  It is refused unless its metadata is exactly
    what ``checkpoint_save`` writes for the checkpoint it describes."""
    try:
        return _parse_checkpoint(Path(path).read_bytes())
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from e


def _parse_checkpoint(data: bytes) -> ModelCheckpoint:
    if len(data) < 12:
        raise CheckpointError("truncated checkpoint")
    if data[:4] != _MAGIC:
        raise CheckpointError("not a model checkpoint")
    version, meta_len = struct.unpack_from("<II", data, 4)
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if len(data) < 12 + meta_len + 4:
        raise CheckpointError("truncated checkpoint")
    stored_crc = struct.unpack_from("<I", data, len(data) - 4)[0]
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError("checksum mismatch")
    try:
        meta = json.loads(data[12:12 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError("unreadable metadata") from e
    try:
        model, sizes = meta["model"], [int(s) for s in meta["sizes"]]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CheckpointError("malformed metadata") from e
    if len(sizes) < 3:
        raise CheckpointError(f"malformed metadata: layer sizes {sizes}")
    _check_fit(model, sizes)  # before the payload is sized, so a misfit is named

    try:
        params = np.frombuffer(memoryview(data)[12 + meta_len:-4], dtype="<f8")
        network = Network(MODEL_SPECS[model].kind, sizes, params.astype(np.float64))
    except (ShapeMismatchError, ValueError) as e:
        raise CheckpointError(f"parameter payload does not fit the metadata: {e}") from e

    ckpt = ModelCheckpoint(model, meta.get("color_n"), network,
                           meta.get("epochs_trained"), meta.get("final_j"))
    # compared as JSON, so 2 and 2.0, or 1 and true, differ as their bytes do
    stored = {k: json.dumps(v) for k, v in meta.items()}
    wanted = {k: json.dumps(v) for k, v in _header(ckpt).items()}
    wrong = sorted(k for k in stored.keys() | wanted.keys()
                   if stored.get(k) != wanted.get(k))
    if wrong:
        raise CheckpointError(f"malformed metadata: {', '.join(wrong)} contradict "
                              f"{model} with layer sizes {sizes}")
    return ckpt


def checkpoint_summary(ckpt: ModelCheckpoint) -> str:
    """Human-readable description used by the command-line info view."""
    lines = [
        f"model: {ckpt.model}",
        f"kind: {ckpt.spec.kind}",
        f"arch: {ckpt.arch}",
        f"context: {ckpt.spec.context}",
        f"transform: {ckpt.spec.transform}",
        f"sizes: {'-'.join(str(s) for s in ckpt.sizes)}",
        f"parameters: {ckpt.network.params.size}",
        f"epochs_trained: {ckpt.epochs_trained}",
        f"final_j: {'none' if ckpt.final_j is None else f'{ckpt.final_j:.6f}'}",
    ]
    return "\n".join(lines) + "\n"
