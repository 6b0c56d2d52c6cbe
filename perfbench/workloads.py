"""The benchmark's workloads, driven through the public ``vpsep`` API.

A workload builds its inputs from the seed in ``setup`` (timed, and
repeated by the runner), then offers closed-loop cycles of operations.
Every operation belongs to a job; the runner keeps the wall time of each
successful operation per job, and the workload checks every output.
Library calls go through module attributes (``pipeline.train``), so the
tracer's wrappers see them.

    train           four configs trained from scratch on one corpus
    separate-long   read + separate + write a two-minute 44.1 kHz mixture
    evaluate-table  three table rows scored clip by clip over a test split

NOTES.md gives the reason for each workload.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import signal

from vpsep import audio, dataset, metrics, pipeline
from vpsep.config import ExperimentConfig

# The corpus of the ROADMAP baseline: 6 train and 4 test clips of 4 s.
CORPUS = {"n_train": 6, "n_test": 4, "duration_s": 4.0}


class Workload:
    """What the runner calls, in order.

    ``setup(work, seed)`` builds the inputs under ``work`` (timed, repeated;
    the last call's inputs are used).  ``prepare()`` computes untimed
    references for the checks and sets ``audio_s``: job -> seconds of audio
    one operation of that job handles.  ``cycle_ops()`` returns the (job,
    callable) pairs of one cycle.  ``check(job, output)`` and
    ``end_cycle()`` return a list of failed checks.  ``report(medians)``
    gives (name, value, unit) figures from the median operation time per
    job.
    """

    def end_cycle(self):
        return []


class Train(Workload):
    """Closed-loop minibatch Adam, four configs in one process; each
    operation trains one config from scratch with ``pipeline.train``."""

    name = "train"
    # label -> (model, hidden width, hidden layers, epochs per operation).
    # Two epochs at least, so that every operation can show J falling.
    CONFIGS = {
        "CVPNN-64x2": ("CVPNN", 64, 2, 2),
        "WVPNN-64x2": ("WVPNN", 64, 2, 2),
        "DNN1-64x2": ("DNN1", 64, 2, 8),
        "CVPNN-512x3": ("CVPNN", 512, 3, 2),
    }

    def setup(self, work, seed):
        self.work = work
        self.manifest = dataset.synth_dataset(work / "corpus", seed=seed, **CORPUS)
        self.configs = {
            label: ExperimentConfig(model=model, hidden_width=width, hidden_layers=layers,
                                    epochs=epochs, seed=seed)
            for label, (model, width, layers, epochs) in self.CONFIGS.items()
        }

    def prepare(self):
        clips = self.manifest.train_clips
        self.frames = sum(audio.n_frames_for(round(c.duration * audio.TARGET_RATE))
                          for c in clips)
        train_s = sum(c.duration for c in clips)
        self.audio_s = {label: cfg.epochs * train_s for label, cfg in self.configs.items()}
        self.first_history: dict[str, list[float]] = {}

    def cycle_ops(self):
        return [(label, lambda cfg=cfg: pipeline.train(cfg, self.manifest))
                for label, cfg in self.configs.items()]

    def check(self, label, out):
        ckpt, history = out
        problems = []
        if len(history) != self.configs[label].epochs or not np.all(np.isfinite(history)):
            problems.append(f"{label}: per-epoch J missing or not finite: {history}")
        elif not history[-1] < history[0]:
            problems.append(f"{label}: final J {history[-1]} not below first {history[0]}")
        if history != self.first_history.setdefault(label, history):
            problems.append(f"{label}: J history differs between runs of one config")
        first, second = self.work / "roundtrip-1.ckpt", self.work / "roundtrip-2.ckpt"
        pipeline.checkpoint_save(first, ckpt)
        pipeline.checkpoint_save(second, pipeline.checkpoint_load(first))
        if first.read_bytes() != second.read_bytes():
            problems.append(f"{label}: checkpoint changes on save -> load -> save")
        return problems

    def report(self, medians):
        return [(f"train_frames_per_s.{label}",
                 self.configs[label].epochs * self.frames / medians[label], "frames/s")
                for label in self.configs]


def long_stems(seed: int, seconds: float, rate: int) -> tuple[np.ndarray, np.ndarray]:
    """Vocal-like and accompaniment-like stems at any rate: a vibrato
    harmonic line changing note every 0.5 s over a triad changing root
    every 2 s plus lowpassed noise; scaled so the mixture peaks at 0.9."""
    rng = np.random.default_rng([seed, 120])
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    notes = rng.uniform(200.0, 380.0, math.ceil(seconds / 0.5) + 1)
    f0 = notes[(t / 0.5).astype(int)] * (1.0 + 0.01 * np.sin(2 * np.pi * 5.5 * t))
    phase = 2 * np.pi * np.cumsum(f0) / rate
    vocal = 0.30 * np.sin(phase) + 0.15 * np.sin(2 * phase) + 0.075 * np.sin(3 * phase)
    roots = rng.uniform(80.0, 105.0, math.ceil(seconds / 2.0) + 1)
    rphase = 2 * np.pi * np.cumsum(roots[(t / 2.0).astype(int)]) / rate
    music = 0.11 * (np.sin(rphase) + np.sin(1.25 * rphase) + np.sin(1.5 * rphase))
    sos = signal.butter(6, 180.0, btype="low", fs=rate, output="sos")
    music += 0.09 * signal.sosfilt(sos, rng.standard_normal(n))
    gain = 0.9 / max(float(np.max(np.abs(vocal + music))), 0.9)
    return vocal * gain, music * gain


class SeparateLong(Workload):
    """Closed-loop read + separate + write of one long 44.1 kHz mixture with
    a fixed-seed, untrained paper-width CVPNN checkpoint."""

    name = "separate-long"
    SECONDS = 120.0
    RATE = 44100

    def setup(self, work, seed):
        self.work = work
        vocal, music = long_stems(seed, self.SECONDS, self.RATE)
        self.mix_path = work / "long_mix.wav"
        work.mkdir(parents=True, exist_ok=True)
        audio.wav_write(self.mix_path, audio.Waveform(vocal + music, self.RATE), fmt="float32")
        # Zero epochs through the public trainer gives the seed-0 initial
        # network; the one-clip corpus only satisfies the trainer's input.
        init = dataset.synth_dataset(work / "init", seed=0, n_train=1, n_test=0,
                                     duration_s=1.0)
        config = ExperimentConfig(model="CVPNN", hidden_width=512, hidden_layers=3,
                                  epochs=0, seed=0)
        ckpt, _ = pipeline.train(config, init)
        path = work / "cvpnn-512x3.ckpt"
        pipeline.checkpoint_save(path, ckpt)
        self.ckpt = pipeline.checkpoint_load(path)

    def prepare(self):
        self.mix16k = audio.resample_to_16k(audio.wav_read(self.mix_path)).samples
        self.audio_s = {"separate": self.SECONDS}
        self.stem_paths = (self.work / "long_mix_vocal.wav", self.work / "long_mix_music.wav")

    def cycle_ops(self):
        return [("separate", self._separate)]

    def _separate(self):
        vocal, music = pipeline.separate(self.ckpt, audio.wav_read(self.mix_path))
        for path, est in zip(self.stem_paths, (vocal, music)):
            audio.wav_write(path, est, fmt="float32")
        return vocal.samples, music.samples

    def check(self, job, out):
        vocal, music = out
        n = len(self.mix16k)
        if len(vocal) != n or len(music) != n:
            return [f"stem lengths {len(vocal)}, {len(music)} != resampled mixture {n}"]
        problems = []
        err = float(np.max(np.abs(vocal + music - self.mix16k)))
        if not err <= 1e-9:
            problems.append(f"stems miss the resampled mixture by {err:.3g}")
        for path, est in zip(self.stem_paths, (vocal, music)):
            written = audio.wav_read(path).samples
            if len(written) != n or not np.allclose(written, est, rtol=0.0, atol=1e-6):
                problems.append(f"{path.name} does not hold the float32 stem")
        return problems

    def report(self, medians):
        return [("separate_rtf", medians["separate"] / self.SECONDS, "s/s")]


class EvaluateTable(Workload):
    """Closed-loop scoring of a results table: two desk-width models trained
    in set-up and the ideal soft mask, each evaluated one test clip per
    operation."""

    name = "evaluate-table"
    # row label -> (model, epochs of the short set-up schedule)
    MODELS = {"CVPNN-64x2": ("CVPNN", 4), "DNN1-64x2": ("DNN1", 8)}
    ROWS = (*MODELS, "IDEAL-soft")
    # Quality guard for the CVPNN row; seeds 101-110 score 16.8-20.5 dB at
    # this schedule.
    GNSDR_FLOOR_DB = 10.0

    def setup(self, work, seed):
        self.work = work
        self.manifest = dataset.synth_dataset(work / "corpus", seed=seed, **CORPUS)
        self.ckpt_paths = {}
        for label, (model, epochs) in self.MODELS.items():
            config = ExperimentConfig(model=model, hidden_width=64, hidden_layers=2,
                                      epochs=epochs, seed=seed)
            ckpt, _ = pipeline.train(config, self.manifest)
            self.ckpt_paths[label] = work / f"{label}.ckpt"
            pipeline.checkpoint_save(self.ckpt_paths[label], ckpt)

    def prepare(self):
        clips = self.manifest.test_clips
        clip_s = sum(c.duration for c in clips) / len(clips)
        self.audio_s = {row: clip_s for row in self.ROWS}
        self.clip_rows = {row: [] for row in self.ROWS}
        self.first_table = None

    def cycle_ops(self):
        ckpts = {label: pipeline.checkpoint_load(path) for label, path in self.ckpt_paths.items()}
        self.clip_rows = {row: [] for row in self.ROWS}
        ops = []
        for entry in self.manifest.test_clips:
            one = dataset.DatasetManifest(self.manifest.root, (entry,))
            for label, ckpt in ckpts.items():
                ops.append((label, lambda ckpt=ckpt, one=one:
                            pipeline.evaluate(ckpt, one, workers=1)))
            ops.append(("IDEAL-soft",
                        lambda one=one: pipeline.evaluate_ideal(one, kind="soft", workers=1)))
        return ops

    def check(self, row, report):
        self.clip_rows[row].extend(report.clips)
        return [f"{row} {c.clip_id} {c.source}: non-finite metric" for c in report.clips
                if not np.all(np.isfinite([c.sdr, c.sir, c.sar, c.mix_sdr]))]

    def end_cycle(self):
        n_clips = len(self.manifest.test_clips)
        if any(len(rows) != 2 * n_clips for rows in self.clip_rows.values()):
            return ["results table incomplete"]
        table = {}
        for row, clips in self.clip_rows.items():
            vocal = [c for c in clips if c.source == "vocal"]
            table[row] = metrics.aggregate_global([(c.nsdr, c.sir, c.sar) for c in vocal],
                                                  [c.n_samples for c in vocal]).gnsdr
        problems = [f"{row} GNSDR {table[row]:.3f} dB above IDEAL-soft {table['IDEAL-soft']:.3f}"
                    for row in self.MODELS if table[row] > table["IDEAL-soft"]]
        if not table["CVPNN-64x2"] >= self.GNSDR_FLOOR_DB:
            problems.append(f"CVPNN-64x2 GNSDR {table['CVPNN-64x2']:.3f} dB below the "
                            f"{self.GNSDR_FLOOR_DB} dB floor")
        if self.first_table is None:
            self.first_table = table
        elif table != self.first_table:
            problems.append("results table differs between cycles")
        return problems

    def report(self, medians):
        figures = [("eval_s_per_clip", sum(medians.values()) / len(medians), "s")]
        figures += [(f"gnsdr_vocal_db.{row}", self.first_table[row], "dB") for row in self.ROWS]
        return figures


WORKLOADS = {w.name: w for w in (Train, SeparateLong, EvaluateTable)}
