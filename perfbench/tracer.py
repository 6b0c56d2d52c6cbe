"""Wrapper tracer: per-layer times and counts, recorded from outside the
library.

Each traced function is replaced, for the duration of ``installed``, by a
wrapper around the module attribute through which callers look it up.
``vpsep.pipeline`` imports most layer functions by name, so the binding
that is actually called is ``vpsep.pipeline.vp_forward`` and not only
``vpsep.network.vp_forward``; both kinds of binding are listed below.

For every label the tracer keeps the number of calls, the total time and
the self time (the total minus the time spent in nested traced calls).
Spans are aggregated as they close rather than kept individually.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _nbytes(x) -> int:
    if hasattr(x, "planes"):
        return sum(p.nbytes for p in x.planes())
    return int(getattr(x, "nbytes", 0))


def _vec_matmul_flops(args, kwargs, error) -> dict:
    """Computed, not counted: six real GEMMs of 2mkn flops plus three
    m x n differences.  Operands are VecMatrix or (..., rows, cols) arrays."""
    (m, k), n = np.shape(args[0])[-2:], np.shape(args[1])[-1]
    return {"vecmat.vec_matmul.flop": 12 * m * k * n + 3 * m * n}


def _adam_bytes(args, kwargs, error) -> dict:
    """Computed: reads parameters, gradients and both moments, writes
    parameters and both moments."""
    return {"optim.adam_step.bytes": 7 * sum(_nbytes(p) for p in args[0])}


def _batch_bytes(args, kwargs, error) -> dict:
    """Computed: every input and target frame is copied once per call."""
    return {"dataset.make_batches.bytes": _nbytes(args[0]) + _nbytes(args[1])}


def _lstsq_fallbacks(args, kwargs, error) -> dict:
    """``metrics`` falls back to lstsq exactly when Cholesky raises."""
    return {"metrics.lstsq_fallbacks": int(isinstance(error, np.linalg.LinAlgError))}


# label -> (bindings, counter hook).  A binding is "module:name", or
# "module:obj.name" for a function looked up through a module object that
# the library module holds (``metrics`` calls ``sla.cho_factor``).  A
# binding that no longer exists is reported and skipped, so its metrics
# read zero.  Hooks map (args, kwargs, raised exception or None) to
# counter increments.
LAYERS: dict[str, tuple[tuple[str, ...], object]] = {
    "vecmat.vec_matmul": (("vpsep.network:vec_matmul", "vpsep.vecmat:vec_matmul"),
                          _vec_matmul_flops),
    "network.forward": (("vpsep.pipeline:vp_forward", "vpsep.pipeline:real_forward"), None),
    "network.backward": (("vpsep.pipeline:vp_backward", "vpsep.pipeline:real_backward"), None),
    "network.loss_j": (("vpsep.pipeline:loss_j",), None),
    "optim.adam_step": (("vpsep.pipeline:adam_step",), _adam_bytes),
    "dataset.load_training_frames": (("vpsep.pipeline:load_training_frames",), None),
    "dataset.make_batches": (("vpsep.pipeline:make_batches",), _batch_bytes),
    "dataset.load_clip_stems": (("vpsep.pipeline:load_clip_stems",
                                 "vpsep.dataset:load_clip_stems"), None),
    "dataset.load_clip_mixture": (("vpsep.pipeline:load_clip_mixture",), None),
    "transform.color_encode": (("vpsep.pipeline:color_encode",
                                "vpsep.dataset:color_encode"), None),
    "transform.color_decode": (("vpsep.pipeline:color_decode",), None),
    "transform.window_encode": (("vpsep.pipeline:window_encode",
                                 "vpsep.dataset:window_encode"), None),
    "audio.wav_read": (("vpsep.audio:wav_read", "vpsep.dataset:wav_read"), None),
    "audio.resample_to_16k": (("vpsep.pipeline:resample_to_16k",
                               "vpsep.dataset:resample_to_16k"), None),
    "audio.stft": (("vpsep.pipeline:stft", "vpsep.dataset:stft"), None),
    "audio.istft": (("vpsep.audio:istft",), None),
    "audio.soft_mask": (("vpsep.pipeline:soft_mask",), None),
    "audio.apply_mask_and_reconstruct": (("vpsep.pipeline:apply_mask_and_reconstruct",), None),
    "audio.wav_write": (("vpsep.audio:wav_write", "vpsep.dataset:wav_write"), None),
    "metrics.bss_decompose": (("vpsep.pipeline:bss_decompose",
                               "vpsep.metrics:bss_decompose"), None),
    "metrics.sdr_only": (("vpsep.pipeline:sdr_only",), None),
    "metrics.sdr_sir_sar": (("vpsep.pipeline:sdr_sir_sar", "vpsep.metrics:sdr_sir_sar"), None),
    "metrics.cho_factor": (("vpsep.metrics:sla.cho_factor",), _lstsq_fallbacks),
    "pipeline.train": (("vpsep.pipeline:train",), None),
    "pipeline.separate": (("vpsep.pipeline:separate",), None),
    "pipeline.separate_ideal": (("vpsep.pipeline:separate_ideal",), None),
    "pipeline.evaluate": (("vpsep.pipeline:evaluate",), None),
    "pipeline.evaluate_ideal": (("vpsep.pipeline:evaluate_ideal",), None),
    "pipeline.checkpoint_save": (("vpsep.pipeline:checkpoint_save",), None),
    "pipeline.checkpoint_load": (("vpsep.pipeline:checkpoint_load",), None),
}

# Labels whose calls can contain other traced calls; only these report a
# self time distinct from their total.
PARENTS = (
    "network.forward", "network.backward", "dataset.load_training_frames",
    "dataset.load_clip_stems", "dataset.load_clip_mixture",
    "audio.apply_mask_and_reconstruct", "metrics.bss_decompose", "metrics.sdr_only",
    "pipeline.train", "pipeline.separate", "pipeline.separate_ideal",
    "pipeline.evaluate", "pipeline.evaluate_ideal",
)


class Tracer:
    """Aggregated spans: calls, total and self seconds per label, plus
    named counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0  # time inside outermost traced calls
        self._child_s: list[float] = []  # one accumulator per open span

    def wrap(self, label: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            error = None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                dur = perf_counter() - t0
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dur
                else:
                    self.top_level_s += dur
                self.calls[label] += 1
                self.total_s[label] += dur
                self.self_s[label] += dur - child
                if count is not None:
                    for key, val in count(args, kwargs, error).items():
                        self.counters[key] += val

        return traced


class _ModuleProxy:
    """Stands in for a module object bound inside another module, with some
    attributes overridden; everything else is read from the module."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextmanager
def installed(tracer: Tracer):
    """Replace every binding in ``LAYERS`` with a traced wrapper and restore
    the originals on exit.  Yields the list of bindings that were missing."""
    restore: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for label, (bindings, count) in LAYERS.items():
            for binding in bindings:
                mod_name, attr = binding.split(":")
                module = sys.modules.get(mod_name)
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = getattr(owner, name, None)
                if fn is None:
                    missing.append(binding)
                    continue
                wrapped = tracer.wrap(label, fn, count)
                if owner_name:
                    restore.append((module, owner_name, owner))
                    setattr(module, owner_name, _ModuleProxy(owner, **{name: wrapped}))
                else:
                    restore.append((module, name, fn))
                    setattr(module, name, wrapped)
        yield missing
    finally:
        for module, name, original in reversed(restore):
            setattr(module, name, original)
