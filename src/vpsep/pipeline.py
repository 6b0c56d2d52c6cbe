"""End-to-end separation workflow: training, checkpointing, separation of
a mixture into vocal and music estimates, and corpus-level evaluation."""

from __future__ import annotations

import json
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import (
    HOP,
    N_BINS,
    TARGET_RATE,
    WINDOW_LEN,
    MaskPair,
    Waveform,
    apply_mask_and_reconstruct,
    resample_to_16k,
    soft_mask,
    stft,
)
from .config import MODEL_SPECS, ExperimentConfig
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
)
from .metrics import GlobalMetrics, aggregate_global, bss_decompose, sdr_only, sdr_sir_sar
from .network import (
    Network,
    init_network,
    loss_j,
    param_count,
    real_backward,
    real_forward,
    vp_backward,
    vp_forward,
)
from .optim import adam_init, adam_step
from .transform import (
    ColorParams,
    MagnitudeMatrix,
    color_decode,
    color_encode,
    denormalize,
    normalize,
    window_decode,
    window_encode,
    window_stack,
)


@dataclass
class ModelCheckpoint:
    """A trained (or freshly initialized) model plus everything needed to
    run it: architecture, input transform, and parameters."""

    model: str
    hidden_width: int
    hidden_layers: int
    transform: str
    color_n: float
    network: Network
    epochs_trained: int = 0
    final_j: float | None = None

    @property
    def kind(self) -> str:
        return self.network.kind

    @property
    def context(self) -> int:
        return MODEL_SPECS[self.model]["context"]

    @property
    def arch(self) -> str:
        return f"{self.hidden_width}x{self.hidden_layers}"

    @property
    def sizes(self) -> list[int]:
        return list(self.network.sizes)


# --- training ---------------------------------------------------------------


def _encode_input(ckpt_like, norm: MagnitudeMatrix):
    transform, kind = ckpt_like.transform, ckpt_like.kind
    if transform == "color":
        return color_encode(norm, ColorParams(ckpt_like.color_n))
    if transform == "window" and kind == "vp":
        return window_encode(norm)
    if transform == "window":
        return window_stack(norm)
    return norm.data


def _engine(kind: str):
    """Forward and backward entry points for a network kind."""
    if kind == "vp":
        return vp_forward, vp_backward
    return real_forward, real_backward


def _decode_output(ckpt: ModelCheckpoint, y, scale: float) -> np.ndarray:
    """Network output back to raw magnitude rows (vocal stacked on music)."""
    if ckpt.kind == "vp" and ckpt.transform == "color":
        return denormalize(color_decode(y, ColorParams(ckpt.color_n), scale=scale))
    if ckpt.kind == "vp":
        return denormalize(window_decode(y, scale=scale))
    data = np.clip(np.asarray(y, dtype=np.float64), 0.0, 1.0)
    return denormalize(MagnitudeMatrix(data, scale))


def _split_sources(block):
    """Vocal rows and music rows of a real or vector block."""
    k = block.shape[-2] // 2
    return block[..., :k, :], block[..., k:, :]


def _stack_sources(a, b):
    return np.concatenate([a, b], axis=-2)


def train(config: ExperimentConfig, manifest: DatasetManifest,
          on_epoch=None) -> tuple[ModelCheckpoint, list[float]]:
    """Minibatch Adam on the summed squared reconstruction error of both
    encoded sources. Returns the trained checkpoint and the per-epoch
    history of mean loss per frame."""
    net = init_network(config.kind, config.network_sizes(N_BINS),
                       seed=[config.seed, 0])
    forward, backward = _engine(net.kind)

    x_all, t_all = load_training_frames(manifest, config)
    n_frames = x_all.shape[-1]
    shuffle_rng = np.random.default_rng([config.seed, 1])
    state = adam_init([net.params], lr=config.lr, beta1=config.beta1,
                      beta2=config.beta2, epsilon=config.epsilon)

    history: list[float] = []
    for epoch in range(config.epochs):
        total_j = 0.0
        for batch_i, (x, target) in enumerate(
            make_batches(x_all, t_all, config.batch_frames, shuffle_rng)
        ):
            y, cache = forward(net, x)
            pred_v, pred_m = _split_sources(y)
            targ_v, targ_m = _split_sources(target)
            j, (d_v, d_m) = loss_j(pred_v, targ_v, pred_m, targ_m)
            if not np.isfinite(j):
                raise TrainingDivergedError(
                    f"loss became {j} at epoch {epoch}, batch {batch_i}"
                )
            grad = backward(net, cache, _stack_sources(d_v, d_m))
            adam_step([net.params], [grad], state)
            total_j += j
        mean_j = total_j / n_frames
        history.append(mean_j)
        if on_epoch is not None:
            on_epoch(epoch, mean_j)

    ckpt = ModelCheckpoint(
        model=config.model,
        hidden_width=config.hidden_width,
        hidden_layers=config.hidden_layers,
        transform=config.transform,
        color_n=config.color_n,
        network=net,
        epochs_trained=config.epochs,
        final_j=history[-1] if history else None,
    )
    return ckpt, history


# --- separation -------------------------------------------------------------


def _pad_waveform(w: Waveform) -> tuple[Waveform, int]:
    """Zero-pad by one whole window on each side (plus tail alignment).

    The pad is a hop multiple, so analysis frames stay on the same sample
    grid, every real sample lands in the exactly-invertible interior of
    the overlap-add, and masked edge leakage falls in the discarded pad.
    """
    n = len(w)
    tail = -(n + WINDOW_LEN) % HOP
    x = np.concatenate([np.zeros(WINDOW_LEN), w.samples,
                        np.zeros(WINDOW_LEN + tail)])
    return Waveform(x, w.sample_rate), WINDOW_LEN


def _cut(w: Waveform, offset: int, n: int) -> Waveform:
    return Waveform(w.samples[offset:offset + n], w.sample_rate)


def separate(ckpt: ModelCheckpoint, mix: Waveform) -> tuple[Waveform, Waveform]:
    """Split a mixture into (vocal, music) estimates.

    The input is resampled to the working rate; the estimates have exactly
    the resampled length and sum to the resampled mixture."""
    w = resample_to_16k(mix)
    n = len(w)
    padded, offset = _pad_waveform(w)
    spec = stft(padded)
    norm = normalize(spec.magnitude())
    forward, _ = _engine(ckpt.kind)
    # keep only the output: holding the activations through decoding and
    # reconstruction would add several hundred MB for a long input
    y = forward(ckpt.network, _encode_input(ckpt, norm))[0]
    mags = _decode_output(ckpt, y, norm.scale)
    mag_v, mag_m = mags[:N_BINS], mags[N_BINS:]
    masks = soft_mask(mag_v, mag_m)
    est_v, est_m = apply_mask_and_reconstruct(spec, masks)
    return _cut(est_v, offset, n), _cut(est_m, offset, n)


def separate_ideal(mix: Waveform, vocal: Waveform, music: Waveform,
                   kind: str = "soft") -> tuple[Waveform, Waveform]:
    """Oracle separation from the true stem magnitudes (mask upper bound)."""
    if kind not in ("soft", "binary"):
        raise VpsepError(f"ideal mask kind must be soft or binary, got {kind!r}")
    w = resample_to_16k(mix)
    v = resample_to_16k(vocal)
    m = resample_to_16k(music)
    n = min(len(w), len(v), len(m))
    padded, offset = _pad_waveform(_cut(w, 0, n))
    spec = stft(padded)
    mag_v = stft(_pad_waveform(_cut(v, 0, n))[0]).magnitude()
    mag_m = stft(_pad_waveform(_cut(m, 0, n))[0]).magnitude()
    if kind == "binary":
        m1 = (mag_v >= mag_m).astype(np.float64)
        masks = MaskPair(m1, 1.0 - m1)
    else:
        masks = soft_mask(mag_v, mag_m)
    est_v, est_m = apply_mask_and_reconstruct(spec, masks)
    return _cut(est_v, offset, n), _cut(est_m, offset, n)


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


def _clip_rows(entry: ClipEntry, estimate_fn, filter_len: int) -> list[ClipEval] | None:
    """Both sources' rows for one clip, or None when a stem is all zeros:
    a silent reference leaves nothing to score against."""
    vocal, music = load_clip_stems(entry)
    mix = load_clip_mixture(entry)
    n = min(len(mix), len(vocal), len(music))
    refs = np.vstack([vocal.samples[:n], music.samples[:n]])
    if not np.all(np.any(refs, axis=1)):
        return None
    mix_t = Waveform(mix.samples[:n], TARGET_RATE)
    voc_t = Waveform(refs[0], TARGET_RATE)
    mus_t = Waveform(refs[1], TARGET_RATE)
    est_v, est_m = estimate_fn(mix_t, voc_t, mus_t)
    rows = []
    for idx, (name, est) in enumerate((("vocal", est_v), ("music", est_m))):
        decomp = bss_decompose(est.samples, refs, target_index=idx,
                               filter_len=filter_len)
        res = sdr_sir_sar(decomp)
        mix_sdr = sdr_only(mix_t.samples, refs, target_index=idx,
                           filter_len=filter_len)
        rows.append(ClipEval(entry.clip_id, name, n,
                             res.sdr, res.sir, res.sar, mix_sdr))
    return rows


def _run_eval(clips, estimate_fn, filter_len: int, workers: int,
              model: str, arch: str, context: int) -> EvalReport:
    if not clips:
        raise DatasetError("no clips to evaluate in the requested split")
    if workers > 1:
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
             filter_len: int = 512, workers: int = 1,
             split: str = "test") -> EvalReport:
    """Separate every clip in the split and report per-clip and
    length-weighted global metrics for both estimated sources."""
    clips = manifest.split(split)
    return _run_eval(
        clips,
        lambda mix, v, m: separate(ckpt, mix),
        filter_len, workers, ckpt.model, ckpt.arch, ckpt.context,
    )


def evaluate_ideal(manifest: DatasetManifest, kind: str = "soft",
                   filter_len: int = 512, workers: int = 1,
                   split: str = "test") -> EvalReport:
    """Evaluate the oracle mask built from the true stems (upper bound)."""
    clips = manifest.split(split)
    return _run_eval(
        clips,
        lambda mix, v, m: separate_ideal(mix, v, m, kind=kind),
        filter_len, workers, f"IDEAL-{kind}", "-", 1,
    )


# --- checkpoint file format --------------------------------------------------

_MAGIC = b"VPNC"
_VERSION = 1


def checkpoint_save(path, ckpt: ModelCheckpoint) -> None:
    """Binary layout: magic, u32 version, u32 metadata length, JSON
    metadata, raw float64 little-endian parameter planes in network
    order, trailing CRC32 of everything before it."""
    meta = {
        "model": ckpt.model,
        "kind": ckpt.kind,
        "hidden_width": ckpt.hidden_width,
        "hidden_layers": ckpt.hidden_layers,
        "sizes": ckpt.sizes,
        "transform": ckpt.transform,
        "color_n": ckpt.color_n,
        "epochs_trained": ckpt.epochs_trained,
        "final_j": ckpt.final_j,
        "normalization": "per-clip-mixture-max",
        "sample_rate": TARGET_RATE,
        "window_len": WINDOW_LEN,
        "hop": HOP,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<II", _VERSION, len(meta_bytes))
    blob += meta_bytes
    blob += np.ascontiguousarray(ckpt.network.params, dtype="<f8").data
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    Path(path).write_bytes(bytes(blob))


def checkpoint_load(path, expect_model: str | None = None) -> ModelCheckpoint:
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise CheckpointError(f"{path}: truncated checkpoint")
    if data[:4] != _MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    version, meta_len = struct.unpack_from("<II", data, 4)
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if len(data) < 12 + meta_len + 4:
        raise CheckpointError(f"{path}: truncated checkpoint")
    stored_crc = struct.unpack_from("<I", data, len(data) - 4)[0]
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch")
    try:
        meta = json.loads(data[12:12 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable metadata") from e
    model = meta.get("model")
    if model not in MODEL_SPECS:
        raise CheckpointError(f"{path}: unknown model {model!r}")
    if expect_model is not None and model != expect_model:
        raise CheckpointError(
            f"{path}: checkpoint holds {model}, expected {expect_model}"
        )
    spec = MODEL_SPECS[model]
    kind, transform = meta.get("kind"), meta.get("transform", spec["transform"])
    if (kind, transform) != (spec["kind"], spec["transform"]):
        raise CheckpointError(f"{path}: kind {kind!r} and transform {transform!r} "
                              f"contradict model {model}")
    try:
        sizes = [int(s) for s in meta["sizes"]]
        width = int(meta.get("hidden_width", sizes[1]))
        layers = int(meta.get("hidden_layers", len(sizes) - 2))
        color_n = float(meta.get("color_n", 0.0938))
        epochs_trained = int(meta.get("epochs_trained", 0))
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed metadata") from e
    # the layer chain the model's config gives for the stored bin count
    fits = width >= 1 and layers >= 1 and sizes == ExperimentConfig(
        model=model, hidden_width=width, hidden_layers=layers
    ).network_sizes(sizes[-1] // 2)
    if not fits:
        raise CheckpointError(f"{path}: layer sizes {sizes} do not fit {model} {width}x{layers}")

    try:
        params = np.frombuffer(memoryview(data)[12 + meta_len:-4], dtype="<f8")
        network = Network(kind, sizes, params.astype(np.float64))
    except (ShapeMismatchError, ValueError) as e:
        raise CheckpointError(f"{path}: parameter payload does not fit the "
                              f"metadata: {e}") from e

    return ModelCheckpoint(
        model=model,
        hidden_width=width,
        hidden_layers=layers,
        transform=transform,
        color_n=color_n,
        network=network,
        epochs_trained=epochs_trained,
        final_j=meta.get("final_j"),
    )


def checkpoint_summary(ckpt: ModelCheckpoint) -> str:
    """Human-readable description used by the command-line info view."""
    lines = [
        f"model: {ckpt.model}",
        f"kind: {ckpt.kind}",
        f"arch: {ckpt.arch}",
        f"context: {ckpt.context}",
        f"transform: {ckpt.transform}",
        f"sizes: {'-'.join(str(s) for s in ckpt.sizes)}",
        f"parameters: {param_count(ckpt.network)}",
        f"epochs_trained: {ckpt.epochs_trained}",
        f"final_j: {'none' if ckpt.final_j is None else f'{ckpt.final_j:.6f}'}",
    ]
    return "\n".join(lines) + "\n"
