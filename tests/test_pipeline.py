import hashlib
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import vpsep.parallel as parallel
import vpsep.pipeline as pipeline
from vpsep import (
    MODELS,
    N_BINS,
    TARGET_RATE,
    BssReferences,
    ExperimentConfig,
    ModelCheckpoint,
    Waveform,
    checkpoint_load,
    checkpoint_save,
    evaluate,
    evaluate_ideal,
    forward,
    init_network,
    load_manifest,
    resample_to_16k,
    separate,
    sdr_only,
    separate_ideal,
    train,
)
from vpsep.audio import wav_read, wav_write
from vpsep.dataset import DatasetManifest, load_clip_mixture, load_clip_stems, synth_dataset
from vpsep.errors import (
    CheckpointError,
    DatasetError,
    TrainingDivergedError,
    VpsepError,
)
from vpsep.pipeline import checkpoint_summary

from conftest import DROP, counting_sla, with_meta


def small_cfg(**kw):
    base = dict(model="CVPNN", hidden_width=24, hidden_layers=2,
                batch_frames=64, epochs=2, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


def fresh_ckpt(model="CVPNN", width=24, layers=2, seed=0):
    cfg = ExperimentConfig(model=model, hidden_width=width, hidden_layers=layers)
    net = init_network(cfg.spec.kind, cfg.network_sizes(N_BINS), seed=seed)
    return ModelCheckpoint(model=model, color_n=cfg.color_n,
                           network=net)


def test_train_zero_epochs_returns_initialization(tiny_corpus):
    cfg = small_cfg(epochs=0)
    ckpt, history = train(cfg, tiny_corpus)
    assert history == []
    assert ckpt.epochs_trained == 0
    assert ckpt.final_j is None
    want = init_network("vp", cfg.network_sizes(N_BINS), seed=[cfg.seed, 0])
    assert np.array_equal(ckpt.network.params, want.params)


def test_train_history_shrinks(tiny_corpus):
    cfg = small_cfg(epochs=6)
    ckpt, history = train(cfg, tiny_corpus)
    assert len(history) == 6
    assert history[-1] < history[0]
    assert ckpt.final_j == history[-1]
    assert ckpt.epochs_trained == 6
    assert all(np.isfinite(h) for h in history)


def test_train_is_deterministic(tiny_corpus):
    a, ha = train(small_cfg(), tiny_corpus)
    b, hb = train(small_cfg(), tiny_corpus)
    assert ha == hb
    assert np.array_equal(a.network.params, b.network.params)
    c, hc = train(small_cfg(seed=1), tiny_corpus)
    assert hc != ha


def test_train_epoch_callback(tiny_corpus):
    seen = []
    _, history = train(small_cfg(epochs=3), tiny_corpus,
                       on_epoch=lambda e, j: seen.append((e, j)))
    assert [e for e, _ in seen] == [0, 1, 2]
    assert [j for _, j in seen] == history


def test_train_real_model(tiny_corpus):
    cfg = ExperimentConfig(model="DNN1", hidden_width=24, hidden_layers=2,
                           epochs=3, batch_frames=64)
    ckpt, history = train(cfg, tiny_corpus)
    assert ckpt.spec.kind == "real"
    assert history[-1] < history[0]


def test_train_divergence_reported(tiny_corpus, monkeypatch):
    real_loss = pipeline.loss_j

    def poisoned(pred, target):
        _, grad = real_loss(pred, target)
        return float("nan"), grad

    monkeypatch.setattr(pipeline, "loss_j", poisoned)
    with pytest.raises(TrainingDivergedError, match="epoch 0"):
        train(small_cfg(epochs=1), tiny_corpus)


@pytest.mark.parametrize("model, encoder", [("CVPNN", "color_encode"),
                                            ("WVPNN", "window_encode")])
def test_codec_calls_go_through_pipeline_names(model, encoder, tiny_corpus, monkeypatch):
    # the benchmark's tracer counts these where pipeline looks them up, so
    # training and separation must both look them up there on every call
    calls = {}
    for name in ("color_encode", "window_encode", "color_decode", "stft", "soft_mask",
                 "resample_to_16k", "vp_forward", "real_forward"):
        def counted(*args, _fn=getattr(pipeline, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    cfg = small_cfg(model=model, hidden_width=8, hidden_layers=1, epochs=2)
    train(cfg, tiny_corpus)
    # each minibatch encodes its mixture and its vocal-over-music targets;
    # the 144 frames of the two clips make 3 minibatches of at most 64
    assert cfg.batch_frames == 64
    assert calls == {encoder: cfg.epochs * 3 * 2, "vp_forward": cfg.epochs * 3}
    calls.clear()
    monkeypatch.setattr(pipeline, "_BLOCK_FRAMES", 32)  # 3 blocks of the 80 frames
    entry = tiny_corpus.test_clips[0]
    separate(fresh_ckpt(model=model, width=8, layers=1), load_clip_mixture(entry))
    # every block's STFT is taken twice: for the scale and for the mask
    assert calls == {"stft": 6, "soft_mask": 3, "resample_to_16k": 1, "vp_forward": 3,
                     **({"color_encode": 3, "color_decode": 3} if model == "CVPNN"
                        else {"window_encode": 3})}
    calls.clear()
    separate_ideal(load_clip_mixture(entry), *load_clip_stems(entry), kind="soft")
    assert calls == {"stft": 9, "soft_mask": 3, "resample_to_16k": 3}


def test_separate_preserves_length_and_sum(tiny_corpus):
    ckpt = fresh_ckpt()
    mix = load_clip_mixture(tiny_corpus.test_clips[0])
    est_v, est_m = separate(ckpt, mix)
    assert len(est_v) == len(mix)
    assert len(est_m) == len(mix)
    total = est_v.samples + est_m.samples
    rel = np.max(np.abs(total - mix.samples)) / np.max(np.abs(mix.samples))
    assert rel < 1e-6


def test_separate_odd_length_input(tiny_corpus):
    ckpt = fresh_ckpt()
    full = load_clip_mixture(tiny_corpus.test_clips[0])
    mix = Waveform(full.samples[:17333], TARGET_RATE)
    est_v, est_m = separate(ckpt, mix)
    assert len(est_v) == 17333
    rel = np.max(np.abs(est_v.samples + est_m.samples - mix.samples))
    assert rel / np.max(np.abs(mix.samples)) < 1e-6


def test_separate_resamples_input():
    ckpt = fresh_ckpt()
    rate = 44100
    t = np.arange(rate) / rate
    mix = Waveform(0.4 * np.sin(2 * np.pi * 330 * t), rate)
    est_v, est_m = separate(ckpt, mix)
    want = resample_to_16k(mix)
    assert est_v.sample_rate == TARGET_RATE
    assert len(est_v) == len(want)
    rel = np.max(np.abs(est_v.samples + est_m.samples - want.samples))
    assert rel / np.max(np.abs(want.samples)) < 1e-6


def test_separate_deterministic(tiny_corpus):
    ckpt = fresh_ckpt()
    mix = load_clip_mixture(tiny_corpus.test_clips[1])
    a_v, a_m = separate(ckpt, mix)
    b_v, b_m = separate(ckpt, mix)
    assert np.array_equal(a_v.samples, b_v.samples)
    assert np.array_equal(a_m.samples, b_m.samples)


@pytest.mark.parametrize("model", MODELS)
def test_all_models_train_and_separate(model, tiny_corpus):
    cfg = ExperimentConfig(model=model, hidden_width=16, hidden_layers=1,
                           epochs=1, batch_frames=64)
    ckpt, history = train(cfg, tiny_corpus)
    assert len(history) == 1
    assert ckpt.network.params.size > 0
    mix = load_clip_mixture(tiny_corpus.test_clips[0])
    est_v, est_m = separate(ckpt, mix)
    rel = np.max(np.abs(est_v.samples + est_m.samples - mix.samples))
    assert rel / np.max(np.abs(mix.samples)) < 1e-6


def test_separate_ideal_soft_and_binary(tiny_corpus):
    entry = tiny_corpus.test_clips[0]
    vocal, music = load_clip_stems(entry)
    mix = load_clip_mixture(entry)
    for kind in ("soft", "binary"):
        est_v, est_m = separate_ideal(mix, vocal, music, kind=kind)
        assert len(est_v) == len(mix)
        err_v = np.sqrt(np.mean((est_v.samples - vocal.samples) ** 2))
        base = np.sqrt(np.mean((mix.samples - vocal.samples) ** 2))
        assert err_v < base  # the oracle must beat the raw mixture
    with pytest.raises(VpsepError):
        separate_ideal(mix, vocal, music, kind="wiener")


def _worst(a, b) -> float:
    return float(np.max(np.abs(a - b), initial=0.0))


def _split_in_blocks(monkeypatch, frames, run):
    monkeypatch.setattr(pipeline, "_BLOCK_FRAMES", frames)
    return run()


WHOLE = 10**9  # frames per block: more than any test input has


def _assert_blocks_match_one_block(monkeypatch, mix, run):
    # the test clips have 80 frames: blocks of 1 and of 7 frames (not a
    # divisor) against one block; at every block size the music estimate
    # is the mixture minus the vocal estimate, bit for bit
    peak = np.max(np.abs(mix.samples))
    whole = _split_in_blocks(monkeypatch, WHOLE, run)
    for frames in (WHOLE, 1, 7):
        est = _split_in_blocks(monkeypatch, frames, run)
        for got, want in zip(est, whole):
            assert _worst(got.samples, want.samples) <= 1e-12 * peak
        assert _worst(est[0].samples + est[1].samples, mix.samples) <= 1e-12 * peak
        assert np.array_equal(est[1].samples, mix.samples - est[0].samples)


@pytest.mark.parametrize("model", MODELS)
def test_separate_in_blocks_matches_one_block(model, tiny_corpus, monkeypatch):
    # context-3 models need the halo frames to agree at block edges
    ckpt = fresh_ckpt(model=model, width=8, layers=1)
    mix = load_clip_mixture(tiny_corpus.test_clips[0])
    _assert_blocks_match_one_block(monkeypatch, mix, lambda: separate(ckpt, mix))


@pytest.mark.parametrize("kind", ["soft", "binary"])
def test_separate_ideal_in_blocks_matches_one_block(kind, tiny_corpus, monkeypatch):
    entry = tiny_corpus.test_clips[1]
    vocal, music = load_clip_stems(entry)
    mix = load_clip_mixture(entry)
    _assert_blocks_match_one_block(
        monkeypatch, mix, lambda: separate_ideal(mix, vocal, music, kind=kind))


@pytest.mark.parametrize("n", [0, 1, 100])
@pytest.mark.parametrize("frames", [1, WHOLE])
def test_separate_inputs_shorter_than_a_window(n, frames, monkeypatch):
    ckpt = fresh_ckpt(model="WVPNN", width=8, layers=1)
    mix = Waveform(np.linspace(-0.5, 0.5, n), TARGET_RATE)
    est_v, est_m = _split_in_blocks(monkeypatch, frames, lambda: separate(ckpt, mix))
    assert len(est_v) == len(est_m) == n
    assert _worst(est_v.samples + est_m.samples, mix.samples) <= 1e-12
    assert np.array_equal(est_m.samples, mix.samples - est_v.samples)


@pytest.fixture
def pool_of(monkeypatch):
    """``pool_of(n)`` makes separation use a pool of ``n`` threads, or with
    ``n = 0`` run every forward pass in the calling thread."""
    made = []

    def use(n):
        executor = parallel.INLINE
        if n:
            executor = ThreadPoolExecutor(n)
            made.append(executor)
        monkeypatch.setattr(parallel, "pool", lambda: (executor, max(n, 1)))
    yield use
    for executor in made:
        executor.shutdown()


def _separation(how, name, entry):
    """A separation of the clip tiled twice, about 155 frames."""
    tiled = [Waveform(np.tile(w.samples, 2), w.sample_rate)
             for w in (load_clip_mixture(entry), *load_clip_stems(entry))]
    if how == "model":
        ckpt = fresh_ckpt(model=name, width=64, layers=2)
        return lambda: separate(ckpt, tiled[0])
    return lambda: separate_ideal(*tiled, kind=name)


@pytest.mark.parametrize("how, name", [*(("model", m) for m in MODELS),
                                       ("ideal", "soft"), ("ideal", "binary")])
def test_separation_bits_do_not_depend_on_the_pool(how, name, tiny_corpus, monkeypatch,
                                                   pool_of, blas_threads):
    # 5 blocks, more than any of these pools runs ahead.  At 64x2, the
    # first layer's product over 32 or more frames rounds differently on two
    # BLAS threads, which the test sets until the library sets one
    monkeypatch.setattr(pipeline, "_BLOCK_FRAMES", 32)
    run = _separation(how, name, tiny_corpus.test_clips[0])
    get, set_ = blas_threads
    stems = []
    for n in (1, 2, 3):
        set_(2)
        pool_of(n)
        stems.append([s.samples.tobytes() for s in run()])
        assert get() == 2
    # serial: every forward pass in the calling thread, in block order, with
    # numpy's BLAS set to one thread here and the library's scope a no-op
    set_(1)
    monkeypatch.setattr(parallel, "ONE_BLAS_THREAD", parallel.OneThreadScope(None))
    pool_of(0)
    serial = [s.samples.tobytes() for s in run()]
    assert stems == [serial] * 3


def test_one_block_clip_runs_its_forward_pass_inline(tiny_corpus, monkeypatch, pool_of):
    pool_of(2)
    threads = []

    def recorded(*args, _real=pipeline.vp_forward, **kwargs):
        threads.append(threading.get_ident())
        return _real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "vp_forward", recorded)
    run = _separation("model", "CVPNN", tiny_corpus.test_clips[0])
    run()
    assert threads == [threading.get_ident()]
    threads.clear()
    monkeypatch.setattr(pipeline, "_BLOCK_FRAMES", 32)
    run()
    assert len(threads) == 5 and threading.get_ident() not in threads


def test_one_block_clip_takes_its_stft_once(tiny_corpus, monkeypatch):
    # the scale pass and the mask pass share a one-block clip's bins; a
    # clip in blocks takes each block's bins in both passes
    calls = []

    def counted(*args, _real=pipeline.stft, **kwargs):
        calls.append(1)
        return _real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "stft", counted)
    ckpt = fresh_ckpt(model="WVPNN", width=8, layers=1)
    mix = load_clip_mixture(tiny_corpus.test_clips[0])
    separate(ckpt, mix)
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(pipeline, "_BLOCK_FRAMES", 32)  # 3 blocks of the 80 frames
    separate(ckpt, mix)
    assert len(calls) == 6


def test_failed_separation_waits_for_its_forward_passes(tiny_corpus, monkeypatch,
                                                       pool_of, blas_threads):
    # the first block's NaN output fails in the calling thread while later
    # blocks still run on the pool; they must end before the error leaves
    get, set_ = blas_threads
    set_(2)
    monkeypatch.setattr(pipeline, "_BLOCK_FRAMES", 7)
    pool_of(3)
    threads, finished = [], []

    def slow_forward(*args, _real=pipeline.vp_forward, **kwargs):
        threads.append(get())
        time.sleep(0.05)
        result = _real(*args, **kwargs)
        finished.append(True)
        return result
    monkeypatch.setattr(pipeline, "vp_forward", slow_forward)
    ckpt = fresh_ckpt(width=8, layers=1)
    ckpt.network.params[:] = np.nan
    with pytest.raises(VpsepError):
        separate(ckpt, load_clip_mixture(tiny_corpus.test_clips[0]))
    assert len(finished) == len(threads) == 4  # the first block and three ahead
    assert threads == [1] * 4
    assert get() == 2
    assert parallel.ONE_BLAS_THREAD._depth == 0


def test_failed_overlap_add_waits_for_the_forward_passes(tiny_corpus, monkeypatch,
                                                         pool_of, blas_threads):
    # the second block's overlap-add fails in the calling thread while later
    # blocks still run on the pool; they must end before the error leaves
    # and before the BLAS thread count is put back
    get, set_ = blas_threads
    set_(2)
    monkeypatch.setattr(pipeline, "_BLOCK_FRAMES", 7)
    pool_of(3)
    started, finished, added = [], [], []

    def slow_forward(*args, _real=pipeline.vp_forward, **kwargs):
        started.append(get())
        time.sleep(0.05)
        result = _real(*args, **kwargs)
        finished.append(get())
        return result

    def failing_add(*args, _real=pipeline.overlap_add):
        added.append(True)
        if len(added) == 2:
            raise RuntimeError("overlap-add failed")
        return _real(*args)
    monkeypatch.setattr(pipeline, "vp_forward", slow_forward)
    monkeypatch.setattr(pipeline, "overlap_add", failing_add)
    with pytest.raises(RuntimeError, match="overlap-add failed"):
        separate(fresh_ckpt(width=8, layers=1), load_clip_mixture(tiny_corpus.test_clips[0]))
    assert started == finished == [1] * 5  # the first two blocks and three ahead
    assert get() == 2
    assert parallel.ONE_BLAS_THREAD._depth == 0


def test_concurrent_separations_share_the_pool(tiny_corpus, monkeypatch, blas_threads):
    # more separating threads than cores, switching often, all submitting to
    # the one pool and entering the one BLAS scope
    get, set_ = blas_threads
    set_(2)
    monkeypatch.setattr(pipeline, "_BLOCK_FRAMES", 32)
    run = _separation("model", "WVPNN", tiny_corpus.test_clips[0])
    want = [s.samples.tobytes() for s in run()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as callers:
            got = list(callers.map(lambda _: [s.samples.tobytes() for s in run()],
                                   range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 8
    assert get() == 2
    assert parallel.ONE_BLAS_THREAD._depth == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_separates_on_a_pool_of_its_own(tiny_corpus, monkeypatch):
    # the parent's pool has run tasks, so it has threads, which a child lacks
    monkeypatch.setattr(pipeline, "_BLOCK_FRAMES", 7)
    run = _separation("model", "CVPNN", tiny_corpus.test_clips[0])
    want = run()[0].samples
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(run()[0].samples, want) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its separation in 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_separate_memory_grows_little_per_input_second():
    # what is held whole is the padded mixture and the estimates, never its
    # STFT; a whole-clip separation also holds the encoding, every
    # activation, the output and its decode temporaries, about 8 MiB per
    # second at 64x2.  The 10 s clip has two blocks, so it fills only two of
    # the buffer sets that the 40 s clip fills on a pool of two or more
    ckpt = fresh_ckpt(width=64, layers=2)
    rng = np.random.default_rng(3)
    peaks = {}
    for seconds in (10, 40):
        mix = Waveform(0.3 * rng.standard_normal(seconds * TARGET_RATE), TARGET_RATE)
        tracemalloc.start()
        try:
            separate(ckpt, mix)
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_second = (peaks[40] - peaks[10]) / 30
    assert per_second < 2 * 2**20


@pytest.mark.parametrize("model", MODELS)
def test_train_memory_grows_by_magnitudes_per_frame(model, tmp_path):
    # the split is held as 3 x 513 float64 magnitudes per frame (12.3 KB);
    # an encoded store would hold 36.9 KB per frame for the vector models
    peaks, frames = {}, {}
    for n_clips in (2, 8):
        manifest = synth_dataset(tmp_path / str(n_clips), seed=5, n_train=n_clips,
                                 n_test=0, duration_s=2.0)
        cfg = small_cfg(model=model, hidden_width=8, hidden_layers=1, epochs=1)
        tracemalloc.start()
        try:
            train(cfg, manifest)
            peaks[n_clips] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frames[n_clips] = n_clips * (1 + (2 * TARGET_RATE - 1024) // 256)
    per_frame = (peaks[8] - peaks[2]) / (frames[8] - frames[2])
    assert per_frame < 16 * 1024


@pytest.mark.parametrize("kind", ["soft", "binary"])
def test_separate_ideal_memory_grows_little_per_input_second(kind):
    # beside what separate holds whole, both stems' magnitudes (0.5 MB per
    # second together); each block's mask is built from its own bins
    rng = np.random.default_rng(4)
    peaks = {}
    for seconds in (10, 40):
        v, m = (Waveform(0.3 * rng.standard_normal(seconds * TARGET_RATE), TARGET_RATE)
                for _ in range(2))
        mix = Waveform(v.samples + m.samples, TARGET_RATE)
        tracemalloc.start()
        try:
            separate_ideal(mix, v, m, kind=kind)
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_second = (peaks[40] - peaks[10]) / 30
    assert per_second < 1.7 * 2**20


def test_evaluate_report_consistency(tiny_corpus):
    ckpt = fresh_ckpt()
    report = evaluate(ckpt, tiny_corpus, filter_len=16, split="test")
    assert report.model == "CVPNN"
    assert report.arch == "24x2"
    assert report.context == 1
    assert len(report.clips) == 4  # 2 clips x 2 sources

    voc = [c for c in report.clips if c.source == "vocal"]
    lengths = np.array([c.n_samples for c in voc], dtype=float)
    w = lengths / lengths.sum()
    assert report.vocal.gnsdr == pytest.approx(
        float(w @ [c.nsdr for c in voc]), abs=1e-12)
    assert report.vocal.gsir == pytest.approx(
        float(w @ [c.sir for c in voc]), abs=1e-12)
    assert report.music.gsar == pytest.approx(
        float(w @ [c.sar for c in report.clips if c.source == "music"]),
        abs=1e-12)


def test_evaluate_table_layout(tiny_corpus):
    ckpt = fresh_ckpt()
    report = evaluate(ckpt, tiny_corpus, filter_len=16)
    table = report.table_tsv()
    lines = table.strip().split("\n")
    assert lines[0] == "model\tarch\tcontext\tGNSDR\tGSIR\tGSAR"
    cols = lines[1].split("\t")
    assert cols[0] == "CVPNN"
    assert cols[1] == "24x2"
    assert cols[2] == "1"
    assert float(cols[3]) == pytest.approx(report.vocal.gnsdr, abs=1e-12)
    per_clip = report.per_clip_tsv()
    assert per_clip.startswith("clip_id\tsource\tn_samples\tSDR\tSIR\tSAR\tNSDR")
    assert len(per_clip.strip().split("\n")) == 5


def test_evaluate_mixture_sdr_is_sdr_only(tiny_corpus):
    report = evaluate_ideal(tiny_corpus, filter_len=16)
    for c in report.clips:
        entry = next(e for e in tiny_corpus.test_clips if e.clip_id == c.clip_id)
        refs = [s.samples[:c.n_samples] for s in load_clip_stems(entry)]
        mix = load_clip_mixture(entry).samples[:c.n_samples]
        target = ("vocal", "music").index(c.source)
        assert c.mix_sdr == sdr_only(mix, refs, target, filter_len=16)


def test_evaluate_parallel_matches_serial(tiny_corpus, monkeypatch):
    # each clip is scored on its own thread from its own prepared
    # references, so every per-clip value keeps its bits
    ckpt = fresh_ckpt()
    for run in (lambda w: evaluate(ckpt, tiny_corpus, filter_len=16, workers=w),
                lambda w: evaluate_ideal(tiny_corpus, filter_len=16, workers=w)):
        serial = run(1)
        monkeypatch.setattr(pipeline, "_clip_memo", None)  # so both runs score
        parallel = run(2)
        assert len(serial.clips) == 4
        assert parallel.clips == serial.clips
        assert (parallel.vocal, parallel.music) == (serial.vocal, serial.music)


def spy_threads(monkeypatch):
    """The thread idents that score clips, and the sizes of the pools made
    for evaluation calls, recorded from here on."""
    threads, sizes = [], []
    rows_of = pipeline._clip_rows

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(pipeline, "_clip_rows",
                        lambda *a: threads.append(threading.get_ident()) or rows_of(*a))
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Pool)
    return threads, sizes


def test_default_workers_score_one_clip_on_the_calling_thread(tiny_corpus, monkeypatch):
    threads, sizes = spy_threads(monkeypatch)
    one = one_clip(tiny_corpus, tiny_corpus.test_clips[0])
    evaluate_ideal(one, filter_len=16)
    evaluate(fresh_ckpt(width=8, layers=1), one, filter_len=16)
    assert threads == [threading.get_ident()] * 2
    assert sizes == []


def test_default_workers_are_the_usable_cpus_at_most_one_per_clip(tiny_corpus, monkeypatch):
    threads, sizes = spy_threads(monkeypatch)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    assert len(evaluate_ideal(tiny_corpus, filter_len=16).clips) == 4  # 2 clips
    assert sizes == [2]
    assert len(threads) == 2 and threading.get_ident() not in threads
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    evaluate_ideal(tiny_corpus, filter_len=16)
    assert sizes == [2]
    assert threads[2:] == [threading.get_ident()] * 2


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_restores_lapack_threads(workers, lapack_threads, tiny_corpus):
    get, set_ = lapack_threads
    set_(2)
    evaluate_ideal(tiny_corpus, filter_len=16, workers=workers)
    assert get() == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_restores_blas_threads(workers, blas_threads, tiny_corpus, monkeypatch):
    # clips of several blocks, so that every evaluation thread uses the pool
    get, set_ = blas_threads
    set_(2)
    monkeypatch.setattr(pipeline, "_BLOCK_FRAMES", 32)
    evaluate(fresh_ckpt(width=8, layers=1), tiny_corpus, filter_len=16, workers=workers)
    assert get() == 2
    assert parallel.ONE_BLAS_THREAD._depth == 0


@pytest.mark.skipif(parallel.usable_cpus() < 2, reason="needs 2 usable CPUs")
def test_evaluate_ideal_scores_do_not_depend_on_lapack_threads(lapack_threads,
                                                               tiny_corpus, monkeypatch):
    # a threaded Cholesky of the 1024-row joint system rounds differently
    # for each thread count; scoring factors on one thread whatever the caller set
    _, set_ = lapack_threads
    reports = []
    for threads in (1, 2):
        set_(threads)
        monkeypatch.setattr(pipeline, "_clip_memo", None)  # so each count factors
        reports.append(evaluate_ideal(tiny_corpus, kind="binary", filter_len=512))
    assert reports[0].clips == reports[1].clips


def test_evaluate_empty_split_raises(tmp_path, tiny_corpus):
    ckpt = fresh_ckpt()
    from vpsep import DatasetManifest

    only_train = DatasetManifest(
        tiny_corpus.root, tuple(tiny_corpus.train_clips))
    with pytest.raises(DatasetError, match="no clips"):
        evaluate(ckpt, only_train, split="test")


_BAD_EVAL_ARGS = [
    ({"workers": 0}, "workers must be an integer >= 1, got 0"),
    ({"workers": -3}, "workers must be an integer >= 1, got -3"),
    ({"workers": 2.5}, "workers must be an integer >= 1, got 2.5"),
    ({"workers": True}, "workers must be an integer >= 1, got True"),
    ({"filter_len": 0}, "filter_len must be an integer >= 1, got 0"),
    ({"filter_len": 16.0}, "filter_len must be an integer >= 1, got 16.0"),
    ({"kind": "wiener"}, "ideal mask kind must be soft or binary, got 'wiener'"),
]


# the ids are those two stacked parametrize marks would give; only the
# ideal masks have a kind
@pytest.mark.parametrize("ideal, kw, match", [
    pytest.param(ideal, kw, match, id=f"{ideal}-kw{i}-{match}")
    for ideal in (False, True) for i, (kw, match) in enumerate(_BAD_EVAL_ARGS)
    if ideal or "kind" not in kw])
def test_evaluate_checks_counts_before_reading_clips(kw, match, ideal, tmp_path):
    from vpsep.dataset import ClipEntry

    # no clip file exists, so only a check made before any read can answer
    missing = DatasetManifest(tmp_path / "absent",
                              (ClipEntry("clip000", "test", 1.0, tmp_path / "absent"),))
    ckpt = fresh_ckpt(width=8, layers=1)
    with pytest.raises(VpsepError, match=match):
        if ideal:
            evaluate_ideal(missing, **kw)
        else:
            evaluate(ckpt, missing, **kw)


def _silence_vocal(entry):
    """Make a clip instrumental: an all-zero vocal stem, music as the mix."""
    music = wav_read(entry.music_path)
    wav_write(entry.vocal_path, Waveform(np.zeros(len(music)), music.sample_rate),
              fmt="float32")
    wav_write(entry.mix_path, music, fmt="float32")


def test_evaluate_skips_clip_with_silent_stem(tmp_path):
    manifest = synth_dataset(tmp_path, seed=5, n_train=1, n_test=3, duration_s=1.0)
    silent = manifest.test_clips[1]
    _silence_vocal(silent)
    ckpt = fresh_ckpt(width=8, layers=1)
    report = evaluate(ckpt, manifest, filter_len=16)
    assert report.skipped == (silent.clip_id,)

    rest = DatasetManifest(manifest.root,
                           tuple(c for c in manifest.clips if c is not silent))
    want = evaluate(ckpt, rest, filter_len=16)
    assert want.skipped == ()
    assert report.vocal == want.vocal
    assert report.music == want.music
    assert report.clips == want.clips


def test_evaluate_all_clips_silent_raises(tmp_path):
    manifest = synth_dataset(tmp_path, seed=6, n_train=1, n_test=1, duration_s=1.0)
    _silence_vocal(manifest.test_clips[0])
    with pytest.raises(DatasetError, match="silent stem"):
        evaluate_ideal(manifest, filter_len=16)


def test_evaluate_scores_silent_estimate_at_floor(tmp_path):
    # vocal output biases of -1000 saturate expit to exactly 0, so every vocal
    # estimate is silent: it scores the floor, not the +100 dB cap
    manifest = synth_dataset(tmp_path, seed=0, n_train=1, n_test=2, duration_s=1.0)
    ckpt = fresh_ckpt(model="DNN1", width=8, layers=1)
    ckpt.network.layers[-1][1][:N_BINS] = -1000.0
    report = evaluate(ckpt, manifest, filter_len=32)
    vocal = [c for c in report.clips if c.source == "vocal"]
    assert len(vocal) == 2
    assert all((c.sdr, c.sir, c.sar) == (-100.0, -100.0, -100.0) for c in vocal)
    assert report.vocal.gnsdr < -100.0


def test_evaluate_ideal_reports_oracle_label(tiny_corpus):
    report = evaluate_ideal(tiny_corpus, kind="soft", filter_len=16)
    assert report.model == "IDEAL-soft"
    assert report.arch == "-"
    assert report.vocal.gnsdr > 0.0


def hex_rows(report):
    """A report's per-clip rows, every score as ``float.hex``."""
    return [(c.clip_id, c.source, c.n_samples,
             *(x.hex() for x in (c.sdr, c.sir, c.sar, c.mix_sdr))) for c in report.clips]


def one_clip(manifest, entry):
    return DatasetManifest(manifest.root, (entry,))


@pytest.fixture(scope="module")
def three_clips(tmp_path_factory):
    return synth_dataset(tmp_path_factory.mktemp("three"), seed=23, n_train=1, n_test=3,
                         duration_s=1.0)


def test_clip_major_calls_match_whole_split_rows(three_clips, monkeypatch):
    # a results table scored clip by clip prepares each clip's references
    # once for all of its rows, and every row keeps the bits of a one-row call
    cvpnn, dnn1 = fresh_ckpt(width=8, layers=1), fresh_ckpt("DNN1", width=8, layers=1)
    rows = {"CVPNN": lambda m: evaluate(cvpnn, m, filter_len=512),
            "DNN1": lambda m: evaluate(dnn1, m, filter_len=512),
            "IDEAL-soft": lambda m: evaluate_ideal(m, kind="soft", filter_len=512)}
    whole = {}
    for label, run in rows.items():
        monkeypatch.setattr(pipeline, "_clip_memo", None)
        whole[label] = hex_rows(run(three_clips))
    monkeypatch.setattr(pipeline, "_clip_memo", None)
    prepared = []
    monkeypatch.setattr(pipeline, "BssReferences",
                        lambda *args: prepared.append(args) or BssReferences(*args))
    clip_major = {label: [] for label in rows}
    for entry in three_clips.test_clips:
        for label, run in rows.items():
            clip_major[label] += hex_rows(run(one_clip(three_clips, entry)))
    assert clip_major == whole
    assert len(prepared) == 3


def test_rewritten_stem_is_scored_afresh(tmp_path, monkeypatch):
    # the memo is keyed by the samples scored, not by the clip's files
    manifest = synth_dataset(tmp_path, seed=24, n_train=1, n_test=1, duration_s=1.0)
    entry = manifest.test_clips[0]
    ckpt = fresh_ckpt(width=8, layers=1)
    before = hex_rows(evaluate(ckpt, manifest, filter_len=64))
    vocal = wav_read(entry.vocal_path)
    wav_write(entry.vocal_path, Waveform(0.5 * np.roll(vocal.samples, 160), vocal.sample_rate),
              fmt="float32")
    after = hex_rows(evaluate(ckpt, manifest, filter_len=64))
    monkeypatch.setattr(pipeline, "_clip_memo", None)
    assert after == hex_rows(evaluate(ckpt, manifest, filter_len=64))
    assert after != before


def test_parallel_evaluation_interleaves_with_one_clip_calls(three_clips, monkeypatch):
    # threads only read a published entry, so every call, on the pool or
    # not, gives the rows of a fresh computation
    ckpt = fresh_ckpt(width=8, layers=1)
    run = lambda m, workers=1: hex_rows(evaluate(ckpt, m, filter_len=512, workers=workers))
    clips = three_clips.test_clips
    fresh = {}
    for entry in clips:
        monkeypatch.setattr(pipeline, "_clip_memo", None)
        fresh[entry.clip_id] = run(one_clip(three_clips, entry))
    whole = [row for entry in clips for row in fresh[entry.clip_id]]
    for step in (clips[2], None, clips[2], clips[0], None, clips[1], None):
        if step is None:
            assert run(three_clips, workers=2) == whole
        else:
            assert run(one_clip(three_clips, step)) == fresh[step.clip_id]


def test_memo_shared_by_many_threads_gives_fresh_rows(three_clips, monkeypatch):
    # more threads than cores, switching often, each scoring clips one per
    # call in its own order: a stale or torn entry would change some row
    clips = three_clips.test_clips
    score = lambda i: hex_rows(evaluate_ideal(one_clip(three_clips, clips[i]), filter_len=16))
    fresh = {}
    for i in range(len(clips)):
        monkeypatch.setattr(pipeline, "_clip_memo", None)
        fresh[i] = score(i)
    orders = [np.random.default_rng(k).permutation(3 * len(clips)) % len(clips)
              for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            jobs = [pool.submit(lambda order: [(i, score(i)) for i in order], order)
                    for order in orders]
            results = [job.result(timeout=120) for job in jobs]
    finally:
        sys.setswitchinterval(interval)
    assert all(rows == fresh[i] for result in results for i, rows in result)


def test_repeat_call_on_a_clip_factors_nothing(tiny_corpus, monkeypatch):
    calls = counting_sla(monkeypatch)
    one = one_clip(tiny_corpus, tiny_corpus.test_clips[0])
    first = evaluate_ideal(one, filter_len=16)
    assert calls == [(16, 16), (32, 32), (16, 16)]  # target 0, the joint system, target 1
    assert evaluate(fresh_ckpt(width=8, layers=1), one, filter_len=16).clips[0].mix_sdr == (
        first.clips[0].mix_sdr)
    assert evaluate_ideal(one, filter_len=16).clips == first.clips
    assert len(calls) == 3
    evaluate_ideal(one, filter_len=8)  # the key holds filter_len
    assert calls[3:] == [(8, 8), (16, 16), (8, 8)]


def test_memo_holds_one_clip_in_packed_factors(tmp_path):
    # a 4 s clip at filter_len 512 leaves its spectra and packed factors,
    # about 7 MiB; its Gram and full factors would hold about 20
    manifest = synth_dataset(tmp_path, seed=25, n_train=1, n_test=1, duration_s=4.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate_ideal(manifest, filter_len=512)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 6 * 2**20 < held < 8 * 2**20


def test_checkpoint_roundtrip_preserves_behavior(tiny_corpus, tmp_path):
    ckpt, _ = train(small_cfg(epochs=1), tiny_corpus)
    path = tmp_path / "model.ckpt"
    checkpoint_save(path, ckpt)
    back = checkpoint_load(path)
    assert back.model == ckpt.model
    assert back.arch == ckpt.arch
    assert back.spec.transform == ckpt.spec.transform
    assert back.color_n == ckpt.color_n
    assert back.epochs_trained == 1
    assert back.final_j == ckpt.final_j
    assert back.sizes == ckpt.sizes
    assert np.array_equal(ckpt.network.params, back.network.params)
    rng = np.random.default_rng(0)
    x = np.stack([rng.uniform(0, 1, (N_BINS, 5)) for _ in range(3)])
    ya, _ = forward(ckpt.network, x)
    yb, _ = forward(back.network, x)
    for pa, pb in zip(ya, yb):
        assert np.array_equal(pa, pb)


def test_checkpoint_roundtrip_real_model(tiny_corpus, tmp_path):
    cfg = ExperimentConfig(model="DNN3", hidden_width=16, hidden_layers=1,
                           epochs=0)
    ckpt, _ = train(cfg, tiny_corpus)
    path = tmp_path / "real.ckpt"
    checkpoint_save(path, ckpt)
    back = checkpoint_load(path)
    assert back.spec.kind == "real"
    assert back.sizes == [3 * N_BINS, 16, 2 * N_BINS]
    assert np.array_equal(ckpt.network.params, back.network.params)


# sha256 of checkpoint_save bytes for freshly initialized networks (seed 0),
# recorded from the v1 writer; any change to parameter order, layout or the
# order of the initial draws changes them.
V1_GOLDEN = {
    "CVPNN": ("vp", [6, 4, 4, 12], 4, 2, "color",
              "351c943244168bfc48aa1af7a58b627ea56a58d972b282f214d50c0b2d20225d"),
    "WVPNN": ("vp", [6, 5, 12], 5, 1, "window",
              "c264de75b9909e68fcf8d3ae6333b0f3f39b00b009f7b24bb636ebd77165e29f"),
    "DNN3": ("real", [18, 7, 12], 7, 1, "window",
             "5b694bdb8ea6b3953f727e37b30a5bf595e29143196f2ea8447c058a9d76202f"),
    "DNN1": ("real", [6, 3, 12], 3, 1, "none",
             "7a0ed6630d2f3a781efb03e3da5e013179f5b72ed8251ea35fab0cae5d06107f"),
    "DNN2": ("real", [6, 9, 9, 12], 9, 2, "none",
             "2f849ef7394443281b21c3928fd86f423bd03ae2ec46fbcfaa3ec86af50aa4fc"),
}


@pytest.mark.parametrize("model", sorted(V1_GOLDEN))
def test_checkpoint_v1_golden_bytes(model, tmp_path):
    kind, sizes, width, layers, transform, digest = V1_GOLDEN[model]
    net = init_network(kind, sizes, seed=0)
    ckpt = ModelCheckpoint(model=model, color_n=0.0938, network=net)
    path = tmp_path / "golden.ckpt"
    checkpoint_save(path, ckpt)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    back = checkpoint_load(path)
    assert (back.spec.kind, back.arch, back.spec.transform) == (
        kind, f"{width}x{layers}", transform)
    checkpoint_save(tmp_path / "again.ckpt", back)
    assert (tmp_path / "again.ckpt").read_bytes() == data


def test_checkpoint_detects_corruption(tmp_path):
    ckpt = fresh_ckpt(width=8, layers=1)
    path = tmp_path / "c.ckpt"
    checkpoint_save(path, ckpt)
    data = bytearray(path.read_bytes())

    flipped = tmp_path / "flipped.ckpt"
    mid = len(data) // 2
    corrupted = bytearray(data)
    corrupted[mid] ^= 0xFF
    flipped.write_bytes(bytes(corrupted))
    with pytest.raises(CheckpointError, match="checksum"):
        checkpoint_load(flipped)

    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(bytes(data[:40]))
    with pytest.raises(CheckpointError):
        checkpoint_load(cut)

    tiny = tmp_path / "tiny.ckpt"
    tiny.write_bytes(b"VPNC\x01")
    with pytest.raises(CheckpointError, match="truncated"):
        checkpoint_load(tiny)

    not_ckpt = tmp_path / "plain.ckpt"
    not_ckpt.write_bytes(b"this is not a checkpoint at all..")
    with pytest.raises(CheckpointError, match="not a model checkpoint"):
        checkpoint_load(not_ckpt)

    import struct

    versioned = bytearray(data)
    struct.pack_into("<I", versioned, 4, 99)
    vpath = tmp_path / "v99.ckpt"
    vpath.write_bytes(bytes(versioned))
    with pytest.raises(CheckpointError, match="version"):
        checkpoint_load(vpath)

    import zlib

    meta_len = struct.unpack_from("<I", data, 8)[0]
    for meta in (b"\xff" * meta_len, b"{" * meta_len):  # not UTF-8; not JSON
        garbled = bytearray(data[:12] + meta + data[12 + meta_len:-4])
        garbled += struct.pack("<I", zlib.crc32(bytes(garbled)) & 0xFFFFFFFF)
        gpath = tmp_path / "garbled.ckpt"
        gpath.write_bytes(bytes(garbled))
        with pytest.raises(CheckpointError, match="unreadable metadata"):
            checkpoint_load(gpath)

    for cut_bytes in (8, 3):  # one parameter short; not whole float64s
        short = bytearray(data[:-4 - cut_bytes])
        short += struct.pack("<I", zlib.crc32(bytes(short)) & 0xFFFFFFFF)
        spath = tmp_path / "short.ckpt"
        spath.write_bytes(bytes(short))
        with pytest.raises(CheckpointError, match="does not fit"):
            checkpoint_load(spath)


@pytest.mark.parametrize("changes, match", [
    ({"transform": "window"}, "transform"),
    ({"kind": "real"}, "kind"),
    ({"hidden_width": 999}, "sizes"),
    ({"hidden_layers": 2}, "sizes"),
    ({"hidden_width": 0}, "sizes"),
    ({"model": "WVPNN"}, "transform"),
    ({"model": "DNN3", "kind": "real", "transform": "window"}, "sizes"),
    ({"hidden_width": "abc"}, "malformed"),
    ({"sizes": None}, "malformed"),
    ({"sizes": [513]}, "malformed"),
    ({"hop": 512}, "hop contradict CVPNN"),
    ({"sample_rate": 44100}, "sample_rate contradict"),
    ({"window_len": 2048}, "window_len contradict"),
    ({"normalization": "global-max"}, "normalization contradict"),
    ({"hop": 512, "sample_rate": 44100}, "hop, sample_rate contradict"),
    ({"note": "extra"}, "note contradict"),
    ({"hop": DROP}, "hop contradict"),
    ({"final_j": DROP}, "final_j contradict"),
    ({"epochs_trained": 2.0}, "epochs_trained must be an integer"),
    ({"final_j": "abc"}, "final_j must be a number"),
    ({"final_j": [1, 2]}, "final_j must be a number"),
    ({"color_n": 0.7}, r"color_n must lie in \(0, 0.5\), got 0.7"),
    ({"color_n": "abc"}, "color_n must be a number"),
    ({"final_j": float("nan")}, "final_j must be finite"),  # JSON NaN
])
def test_checkpoint_rejects_metadata_contradicting_model(changes, match, tmp_path):
    ckpt = fresh_ckpt(model="CVPNN", width=8, layers=1)
    path = tmp_path / "m.ckpt"
    checkpoint_save(path, ckpt)
    edited = tmp_path / "edited.ckpt"
    edited.write_bytes(with_meta(path.read_bytes()))
    assert checkpoint_load(edited).arch == "8x1"  # the rewrite alone is harmless
    edited.write_bytes(with_meta(path.read_bytes(), **changes))
    with pytest.raises(CheckpointError, match=match):
        checkpoint_load(edited)


# the transform column only names the model's input transform, which a
# checkpoint takes from its spec, MODEL_SPECS[model]
@pytest.mark.parametrize("model, kind, transform, hidden, match", [
    ("CVPNN", "real", "color", 8, "kind"),
    ("DNN3", "real", "window", 8, "sizes"),
    ("DNN4", "real", "none", 8, "unknown model"),
])
def test_model_checkpoint_rejects_contradicting_fields(model, kind, transform,
                                                       hidden, match):
    net = init_network(kind, [N_BINS, hidden, 2 * N_BINS], seed=0)
    with pytest.raises(CheckpointError, match=match):
        ModelCheckpoint(model=model, color_n=0.0938, network=net)


@pytest.mark.parametrize("color_n", [0.0, 0.5, 0.7, float("nan")])
def test_model_checkpoint_rejects_color_n_outside_ramp(color_n):
    net = init_network("vp", [N_BINS, 8, 2 * N_BINS], seed=0)
    with pytest.raises(CheckpointError, match=r"color_n must lie in \(0, 0.5\)"):
        ModelCheckpoint("CVPNN", color_n, net)


@pytest.mark.parametrize("fields, match", [
    ({"epochs_trained": 2.7}, "epochs_trained must be an integer >= 0, got 2.7"),
    ({"epochs_trained": -1}, "epochs_trained must be an integer >= 0, got -1"),
    ({"epochs_trained": True}, "epochs_trained must be an integer >= 0, got True"),
    ({"epochs_trained": "3"}, "epochs_trained must be an integer >= 0, got '3'"),
    ({"final_j": float("nan")}, "final_j must be finite, got nan"),
    ({"final_j": float("inf")}, "final_j must be finite, got inf"),
    ({"final_j": "abc"}, "final_j must be a number, got 'abc'"),
])
def test_model_checkpoint_rejects_bad_training_record(fields, match):
    net = init_network("vp", [N_BINS, 8, 2 * N_BINS], seed=0)
    with pytest.raises(CheckpointError, match=match):
        ModelCheckpoint("CVPNN", 0.0938, net, **fields)


def test_model_checkpoint_fields_cannot_bypass_the_checks():
    import dataclasses

    ckpt = fresh_ckpt(width=8, layers=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ckpt.epochs_trained = 2.7


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_model_checkpoint_rejects_non_finite_params(value):
    net = init_network("vp", [N_BINS, 8, 2 * N_BINS], seed=0)
    net.params[5] = value
    with pytest.raises(CheckpointError, match="NaN or Inf"):
        ModelCheckpoint("CVPNN", 0.0938, net)


def test_checkpoint_load_refuses_nan_params(tmp_path):
    ckpt = fresh_ckpt(width=8, layers=1)
    ckpt.network.params[0] = np.nan  # after the checkpoint's own check
    path = tmp_path / "nan.ckpt"
    checkpoint_save(path, ckpt)
    with pytest.raises(CheckpointError, match="NaN or Inf"):
        checkpoint_load(path)


@pytest.mark.parametrize("model", ["CVPNN", "WVPNN", "DNN1"])
def test_separate_refuses_nan_network(model, tiny_corpus):
    # a NaN output must not pass the range checks and split the mixture in half
    ckpt = fresh_ckpt(model=model, width=8, layers=1)
    ckpt.network.params[:] = np.nan
    with pytest.raises(VpsepError):
        separate(ckpt, load_clip_mixture(tiny_corpus.test_clips[0]))


def test_model_checkpoint_reports_non_numeric_color_n():
    net = init_network("vp", [N_BINS, 8, 2 * N_BINS], seed=0)
    with pytest.raises(CheckpointError, match="color_n must be a number"):
        ModelCheckpoint("CVPNN", "abc", net)


def test_checkpoint_save_failure_keeps_target(tmp_path, monkeypatch):
    import os

    path = tmp_path / "model.ckpt"
    checkpoint_save(path, fresh_ckpt(width=8, layers=1))
    old = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        checkpoint_save(path, fresh_ckpt(width=8, layers=1, seed=1))
    with pytest.raises(OSError, match="rename refused"):
        checkpoint_save(tmp_path / "new.ckpt", fresh_ckpt(width=8, layers=1))
    assert os.listdir(tmp_path) == ["model.ckpt"]
    assert path.read_bytes() == old


def test_checkpoint_summary_lines(tmp_path):
    ckpt = fresh_ckpt(width=8, layers=1)
    text = checkpoint_summary(ckpt)
    assert "model: CVPNN" in text
    assert "arch: 8x1" in text
    assert f"parameters: {ckpt.network.params.size}" in text
    assert "final_j: none" in text


def test_model_checkpoint_sizes_property():
    ckpt = fresh_ckpt(model="DNN3", width=32, layers=2)
    cfg = ExperimentConfig(model="DNN3", hidden_width=32, hidden_layers=2)
    assert ckpt.sizes == cfg.network_sizes(N_BINS)
