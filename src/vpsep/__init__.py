"""Vocal/music separation with vector-valued and plain dense networks.

Magnitude spectra are lifted to three-component vectors (either spectral
coloring or a sliding three-frame window), processed by networks whose
layers combine vector activations and vector weights through cross
products, and decoded back to magnitudes that drive soft ratio masks.
"""

from .audio import (
    HOP,
    N_BINS,
    TARGET_RATE,
    WINDOW_LEN,
    ComplexSpectrogram,
    MaskPair,
    Waveform,
    apply_mask_and_reconstruct,
    covered_length,
    istft,
    n_frames_for,
    resample_to_16k,
    soft_mask,
    stft,
    wav_read,
    wav_write,
)
from .config import (MODEL_SPECS, MODELS, ExperimentConfig, ModelSpec, make_config,
                     read_config_file)
from .dataset import (
    ClipEntry,
    DatasetManifest,
    load_manifest,
    synth_dataset,
    write_manifest,
)
from .errors import (
    AudioError,
    CheckpointError,
    ConfigError,
    DatasetError,
    ShapeMismatchError,
    TrainingDivergedError,
    VpsepError,
    WavFormatError,
)
from .metrics import (
    BssReferences,
    BssResult,
    Decomposition,
    GlobalMetrics,
    aggregate_global,
    bss_decompose,
    sdr_only,
    sdr_sir_sar,
)
from .network import Network, backward, forward, init_network, loss_j
from .optim import AdamState, adam_init, adam_step
from .pipeline import (
    ClipEval,
    EvalReport,
    ModelCheckpoint,
    checkpoint_load,
    checkpoint_save,
    evaluate,
    evaluate_ideal,
    separate,
    separate_ideal,
    train,
)
from .transform import (
    MagnitudeMatrix,
    color_decode,
    color_encode,
    normalize,
    window_decode,
    window_encode,
    window_stack,
)
from .vecmat import vec_matmul

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AudioError", "BssReferences", "BssResult", "CheckpointError",
    "ClipEntry",
    "ClipEval", "ComplexSpectrogram", "ConfigError",
    "DatasetError", "DatasetManifest", "Decomposition", "EvalReport",
    "ExperimentConfig", "GlobalMetrics", "HOP", "MODELS", "MODEL_SPECS",
    "MagnitudeMatrix", "MaskPair", "ModelCheckpoint", "ModelSpec", "N_BINS",
    "Network", "ShapeMismatchError", "TARGET_RATE", "TrainingDivergedError",
    "VpsepError", "Waveform", "WavFormatError", "WINDOW_LEN", "adam_init",
    "adam_step", "aggregate_global", "apply_mask_and_reconstruct",
    "backward", "bss_decompose", "checkpoint_load", "checkpoint_save",
    "color_decode", "color_encode", "covered_length", "evaluate",
    "evaluate_ideal", "forward", "init_network", "istft", "load_manifest",
    "loss_j", "make_config", "n_frames_for", "normalize", "read_config_file",
    "resample_to_16k", "sdr_only", "sdr_sir_sar", "separate",
    "separate_ideal", "soft_mask", "stft", "synth_dataset", "train",
    "vec_matmul", "wav_read", "wav_write", "window_decode", "window_encode",
    "window_stack", "write_manifest",
]
