import numpy as np
import pytest

from vpsep import (
    MODELS,
    N_BINS,
    TARGET_RATE,
    ClipEntry,
    DatasetManifest,
    ExperimentConfig,
    Waveform,
    load_manifest,
    normalize,
    sdr_only,
    separate_ideal,
    stft,
    synth_dataset,
    wav_read,
    wav_write,
    write_manifest,
)
import vpsep.dataset as dataset
from vpsep.dataset import (
    clip_spectra,
    load_clip_mixture,
    load_clip_stems,
    load_training_frames,
    make_batches,
)
from vpsep.errors import DatasetError
from vpsep.pipeline import _codec
from vpsep.transform import COLOR_N, MagnitudeMatrix, context_columns, window_encode


def test_synth_writes_expected_tree(tmp_path):
    m = synth_dataset(tmp_path / "d", seed=3, n_train=2, n_test=1,
                      duration_s=0.5)
    assert len(m.clips) == 3
    assert [c.clip_id for c in m.clips] == ["clip000", "clip001", "clip002"]
    assert [c.split for c in m.clips] == ["train", "train", "test"]
    for c in m.clips:
        assert c.mix_path.is_file()
        assert c.vocal_path.is_file()
        assert c.music_path.is_file()
        assert c.duration == 0.5
    assert (tmp_path / "d" / "manifest.tsv").is_file()


def test_synth_deterministic_bytes(tmp_path):
    a = synth_dataset(tmp_path / "a", seed=9, n_train=1, n_test=1,
                      duration_s=0.4)
    b = synth_dataset(tmp_path / "b", seed=9, n_train=1, n_test=1,
                      duration_s=0.4)
    for ca, cb in zip(a.clips, b.clips):
        assert ca.mix_path.read_bytes() == cb.mix_path.read_bytes()
        assert ca.vocal_path.read_bytes() == cb.vocal_path.read_bytes()
    c = synth_dataset(tmp_path / "c", seed=10, n_train=1, n_test=1,
                      duration_s=0.4)
    assert a.clips[0].mix_path.read_bytes() != c.clips[0].mix_path.read_bytes()


def test_synth_stems_sum_to_mixture_and_stay_bounded(tiny_corpus):
    for entry in tiny_corpus.clips:
        vocal, music = load_clip_stems(entry)
        mix = wav_read(entry.mix_path)
        assert np.max(np.abs(vocal.samples + music.samples - mix.samples)) < 1e-6
        assert np.max(np.abs(mix.samples)) <= 0.90 + 1e-6
        assert vocal.samples[0] == 0.0 and vocal.samples[-1] == 0.0


def test_synth_rescales_a_loud_mixture_to_the_peak(tmp_path):
    # seed 8's clip 1 peaks at 0.925 before scaling; clip 0 stays below 0.90
    m = synth_dataset(tmp_path, seed=8, n_train=2, n_test=0, duration_s=4.0)
    quiet, loud = (wav_read(c.mix_path).samples for c in m.clips)
    assert np.max(np.abs(quiet)) < 0.89
    assert abs(np.max(np.abs(loud)) - 0.90) <= 2.0 ** -24  # float32 rounding
    vocal, music = load_clip_stems(m.clips[1])
    assert np.max(np.abs(vocal.samples + music.samples - loud)) <= 2.0 ** -23


def test_synth_rejects_bad_parameters(tmp_path):
    with pytest.raises(DatasetError):
        synth_dataset(tmp_path / "x", n_train=0)
    with pytest.raises(DatasetError):
        synth_dataset(tmp_path / "y", duration_s=0.05)
    with pytest.raises(DatasetError, match="duration_s must be finite"):
        synth_dataset(tmp_path / "z", n_train=1, n_test=0, duration_s=True)
    assert not (tmp_path / "z").exists()


@pytest.mark.parametrize("counts, match", [
    ({"n_train": 0}, "n_train must be an integer >= 1, got 0"),
    ({"n_train": 1.5}, "n_train must be an integer >= 1, got 1.5"),
    ({"n_train": True}, "n_train must be an integer >= 1, got True"),
    ({"n_test": -1}, "n_test must be an integer >= 0, got -1"),
    ({"n_test": 0.5}, "n_test must be an integer >= 0, got 0.5"),
])
def test_synth_rejects_bad_counts(counts, match, tmp_path):
    with pytest.raises(DatasetError, match=match):
        synth_dataset(tmp_path / "x", **{"n_train": 1, "n_test": 0, **counts},
                      duration_s=0.5)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("seed", [-1, 2.5, float("nan"), True])
def test_synth_rejects_bad_seed(seed, tmp_path):
    with pytest.raises(DatasetError, match="seed must be an integer >= 0"):
        synth_dataset(tmp_path / "x", seed=seed, n_train=1, n_test=0, duration_s=0.5)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("duration", [float("nan"), float("inf")])
def test_synth_rejects_non_finite_duration(duration, tmp_path):
    with pytest.raises(DatasetError, match="duration_s"):
        synth_dataset(tmp_path / "x", duration_s=duration)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("duration", ["nan", "inf", "-inf"])
def test_manifest_rejects_non_finite_duration(duration, tmp_path):
    (tmp_path / "manifest.tsv").write_text(
        f"clip_id\tsplit\tduration\nx\ttrain\t{duration}\n")
    with pytest.raises(DatasetError, match="bad duration"):
        load_manifest(tmp_path)


def test_write_manifest_failure_keeps_target(tmp_path, monkeypatch):
    import os

    first = DatasetManifest(tmp_path, (ClipEntry("a", "train", 4.0, tmp_path),))
    path = write_manifest(first)
    old = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    second = DatasetManifest(tmp_path, (ClipEntry("b", "test", 2.0, tmp_path),))
    with pytest.raises(OSError, match="rename refused"):
        write_manifest(second)
    assert os.listdir(tmp_path) == ["manifest.tsv"]
    assert path.read_bytes() == old


def test_manifest_roundtrip(tmp_path):
    root = tmp_path / "m"
    root.mkdir()
    clips = (
        ClipEntry("a", "train", 4.0, root),
        ClipEntry("b", "test", 2.5, root),
    )
    write_manifest(DatasetManifest(root, clips))
    back = load_manifest(root)
    assert [c.clip_id for c in back.clips] == ["a", "b"]
    assert back.train_clips[0].clip_id == "a"
    assert back.test_clips[0].clip_id == "b"
    assert back.clips[1].duration == 2.5


def test_manifest_errors(tmp_path):
    with pytest.raises(DatasetError):
        load_manifest(tmp_path / "missing")

    root = tmp_path / "r"
    root.mkdir()
    mpath = root / "manifest.tsv"

    mpath.write_text(" \n\n")
    with pytest.raises(DatasetError, match="empty manifest"):
        load_manifest(root)

    mpath.write_text("clip\tsplit\tduration\nx\ttrain\t1.0\n")
    with pytest.raises(DatasetError, match="header"):
        load_manifest(root)

    mpath.write_text("clip_id\tsplit\tduration\nx\ttrain\n")
    with pytest.raises(DatasetError, match=":2"):
        load_manifest(root)

    mpath.write_text("clip_id\tsplit\tduration\nx\ttrain\t1.0\nx\ttest\t1.0\n")
    with pytest.raises(DatasetError, match="duplicate"):
        load_manifest(root)

    mpath.write_text("clip_id\tsplit\tduration\nx\ttrain\tlong\n")
    with pytest.raises(DatasetError, match="duration"):
        load_manifest(root)

    mpath.write_text("clip_id\tsplit\tduration\nx\tvalidation\t1.0\n")
    with pytest.raises(DatasetError):
        load_manifest(root)


@pytest.mark.parametrize("clip_id", ["", ".", "..", "../outside", "a/b", "/abs"])
def test_manifest_rejects_clip_id_outside_one_directory(clip_id, tmp_path):
    (tmp_path / "manifest.tsv").write_text(
        f"clip_id\tsplit\tduration\nok\ttrain\t1.0\n{clip_id}\ttest\t1.0\n")
    with pytest.raises(DatasetError, match=r"manifest\.tsv:3: clip id"):
        load_manifest(tmp_path)


def test_clip_entry_validation(tmp_path):
    with pytest.raises(DatasetError):
        ClipEntry("a", "dev", 1.0, tmp_path)
    with pytest.raises(DatasetError):
        ClipEntry("a", "train", 0.0, tmp_path)


def test_load_clip_mixture_falls_back_to_stem_sum(tmp_path):
    m = synth_dataset(tmp_path / "solo", seed=2, n_train=1, n_test=0,
                      duration_s=0.4)
    entry = m.clips[0]
    direct = load_clip_mixture(entry)
    vocal, music = load_clip_stems(entry)
    assert np.max(np.abs(direct.samples - (vocal.samples + music.samples))) < 1e-6

    entry.mix_path.unlink()
    summed = load_clip_mixture(entry)
    assert np.array_equal(summed.samples, vocal.samples + music.samples)


def test_stem_length_mismatch_detected(tmp_path):
    root = tmp_path / "bad"
    entry = ClipEntry("c", "train", 1.0, root)
    entry.clip_dir.mkdir(parents=True)
    wav_write(entry.vocal_path, Waveform(np.zeros(16000), TARGET_RATE))
    wav_write(entry.music_path, Waveform(np.zeros(15000), TARGET_RATE))
    with pytest.raises(DatasetError, match="lengths differ"):
        load_clip_stems(entry)


def expected_frames(entry):
    n = int(round(entry.duration * TARGET_RATE))
    return 1 + (n - 1024) // 256


def clip_frames(entry, model):
    """One clip's (input, target) blocks, every frame encoded at once
    through the model's codec, as training encoded whole clips before it
    held only magnitudes."""
    encode, encode_target, _ = _codec(model, COLOR_N)
    mix, vocal, music = clip_spectra(entry)
    return encode(mix), np.concatenate([encode_target(vocal), encode_target(music)],
                                       axis=-2)


def test_color_frames_shapes_and_range(tiny_corpus):
    entry = tiny_corpus.train_clips[0]
    x, t = clip_frames(entry, "CVPNN")
    frames = expected_frames(entry)
    assert x.shape == (3, N_BINS, frames)
    assert t.shape == (3, 2 * N_BINS, frames)
    for plane in list(x) + list(t):
        assert plane.min() >= 0.0 and plane.max() <= 1.0


def test_window_vp_frames_shapes(tiny_corpus):
    x, t = clip_frames(tiny_corpus.train_clips[0], "WVPNN")
    assert x.shape[:2] == (3, N_BINS)
    assert t.shape[:2] == (3, 2 * N_BINS)
    # middle plane carries the frame itself; neighbors are shifts of it
    assert np.array_equal(x[0, :, 1:], x[1, :, :-1])
    assert np.array_equal(x[2, :, :-1], x[1, :, 1:])


def test_window_real_frames_shapes(tiny_corpus):
    x, t = clip_frames(tiny_corpus.train_clips[0], "DNN3")
    assert x.ndim == 2 and x.shape[0] == 3 * N_BINS
    assert t.ndim == 2 and t.shape[0] == 2 * N_BINS


def test_plain_frames_shapes(tiny_corpus):
    x, t = clip_frames(tiny_corpus.train_clips[0], "DNN1")
    assert x.shape[0] == N_BINS
    assert t.shape[0] == 2 * N_BINS
    assert x.max() == 1.0  # normalized by the clip's own maximum


@pytest.mark.parametrize("model", MODELS)
def test_codec_widths_match_network_sizes(model, tiny_corpus):
    config = ExperimentConfig(model=model)
    sizes = config.network_sizes(N_BINS)
    lead = (3,) if config.spec.kind == "vp" else ()
    entry = tiny_corpus.train_clips[0]
    x, t = clip_frames(entry, model)
    assert x.shape[:-1] == lead + (sizes[0],)
    assert t.shape[:-1] == lead + (sizes[-1],)
    # the decoder reads a target block back as vocal over music magnitudes
    _, vocal, music = clip_spectra(entry)
    decode = _codec(model, COLOR_N)[2]
    np.testing.assert_allclose(decode(t).data, np.concatenate([vocal.data, music.data]),
                               rtol=0, atol=1e-15)


def test_targets_share_mixture_scale(tiny_corpus):
    entry = tiny_corpus.train_clips[0]
    _, t = clip_frames(entry, "DNN1")
    vocal, music = load_clip_stems(entry)
    mix = Waveform(vocal.samples + music.samples, TARGET_RATE)
    scale = normalize(stft(mix).magnitude()).scale
    assert all(s.scale == scale for s in clip_spectra(entry))
    want_voc = np.clip(stft(vocal).magnitude() / scale, 0.0, 1.0)
    assert np.array_equal(t[:N_BINS], want_voc)


def test_load_training_frames_concatenates_clips(tiny_corpus):
    mags, context = load_training_frames(tiny_corpus)
    spectra = [clip_spectra(c) for c in tiny_corpus.train_clips]
    # each column is one frame's mixture over vocal over music magnitudes
    want = np.concatenate([np.concatenate([s.data for s in clip]) for clip in spectra],
                          axis=1)
    assert mags.shape == (3 * N_BINS, want.shape[1])
    assert mags.tobytes("F") == want.tobytes("F")
    assert mags.T.flags.c_contiguous  # a minibatch gathers whole columns
    # neighbours never cross a clip boundary: edge frames repeat themselves
    sizes = [clip[0].data.shape[1] for clip in spectra]
    assert sizes == [expected_frames(c) for c in tiny_corpus.train_clips]
    assert np.array_equal(context, np.concatenate(
        [lo + context_columns(n) for lo, n in zip(np.cumsum([0] + sizes), sizes)], axis=1))


def test_load_training_frames_resamples_each_stem_once(tmp_path, monkeypatch):
    # the store is sized from each vocal stem's length and rate, so a
    # 44.1 kHz split is resampled only for its spectra, with the same bits
    rng = np.random.default_rng(3)
    clips = tuple(ClipEntry(f"c{i}", "train", 0.5, tmp_path) for i in range(2))
    for i, entry in enumerate(clips):
        entry.clip_dir.mkdir()
        for path in (entry.vocal_path, entry.music_path):
            wav_write(path, Waveform(0.1 * rng.standard_normal(22050 + 441 * i), 44100),
                      fmt="float32")
    manifest = DatasetManifest(tmp_path, clips)
    resampled = []
    resample = dataset.resample_to_16k
    monkeypatch.setattr(dataset, "resample_to_16k",
                        lambda w: resampled.append(len(w)) or resample(w))
    mags, _ = load_training_frames(manifest)
    assert len(resampled) == 4  # a vocal and a music stem per clip
    want = np.concatenate([np.concatenate([s.data for s in clip_spectra(c)]) for c in clips],
                          axis=1)
    assert mags.tobytes("F") == want.tobytes("F")
    low = ClipEntry("low", "train", 0.5, tmp_path)
    low.clip_dir.mkdir()
    for path in (low.vocal_path, low.music_path):
        wav_write(path, Waveform(np.zeros(8000), 8000))
    with pytest.raises(DatasetError, match="clip 'low': cannot upsample 8000 Hz"):
        load_training_frames(DatasetManifest(tmp_path, clips + (low,)))


def test_load_training_frames_requires_training_split(tmp_path):
    root = tmp_path / "t"
    root.mkdir()
    m = DatasetManifest(root, (ClipEntry("only", "test", 1.0, root),))
    with pytest.raises(DatasetError, match="training"):
        load_training_frames(m)


def test_load_training_frames_names_a_clip_shorter_than_one_window(tmp_path):
    m = synth_dataset(tmp_path, seed=1, n_train=1, n_test=0, duration_s=0.4)
    short = ClipEntry("short", "train", 0.05, tmp_path)
    short.clip_dir.mkdir()
    for path in (short.vocal_path, short.music_path):
        wav_write(path, Waveform(np.zeros(800), TARGET_RATE))
    m = DatasetManifest(tmp_path, m.clips + (short,))
    with pytest.raises(DatasetError, match="clip 'short': signal of 800 samples"):
        load_training_frames(m)


def test_load_training_frames_names_a_clip_whose_stems_differ(tmp_path):
    m = synth_dataset(tmp_path, seed=1, n_train=1, n_test=0, duration_s=0.4)
    bad = ClipEntry("bad", "train", 1.0, tmp_path)
    bad.clip_dir.mkdir()
    wav_write(bad.vocal_path, Waveform(np.zeros(16000), TARGET_RATE))
    wav_write(bad.music_path, Waveform(np.zeros(15000), TARGET_RATE))
    with pytest.raises(DatasetError, match="clip 'bad': stem lengths differ"):
        load_training_frames(DatasetManifest(tmp_path, m.clips + (bad,)))


def gather(s, cols):
    """An encoder that encodes nothing: the batch's own columns."""
    return s.data[:, cols[1]]


def test_make_batches_covers_every_frame_once():
    mags = np.tile(np.arange(11) / 16, (3 * N_BINS, 1))  # frame k holds k / 16
    batches = list(make_batches(mags, context_columns(11), 4, np.random.default_rng(0),
                                gather, gather))
    assert [b[0].shape for b in batches] == [(N_BINS, 4), (N_BINS, 4), (N_BINS, 3)]
    frames = np.concatenate([bx[0] for bx, _ in batches]) * 16
    assert np.array_equal(frames, np.random.default_rng(0).permutation(11))
    for bx, bt in batches:
        # the target is the same frames' vocal over music magnitudes
        assert bt.shape == (2 * N_BINS, bx.shape[1]) and np.all(bt == bx[0])


def test_make_batches_vecmatrix_route():
    # window batches take each frame's neighbours through the context
    # columns, here of a 4-frame clip followed by a 6-frame one
    mags = np.random.default_rng(1).uniform(0, 1, (10, 3 * N_BINS)).T
    context = np.concatenate([context_columns(4), 4 + context_columns(6)], axis=1)
    (x, t), = make_batches(mags, context, 10, np.random.default_rng(1),
                           window_encode, window_encode)
    order = np.random.default_rng(1).permutation(10)
    assert x.shape == (3, N_BINS, 10) and t.shape == (3, 2 * N_BINS, 10)
    assert x.flags.c_contiguous and t.flags.c_contiguous
    for k, frame in enumerate(order):
        for plane, col in enumerate(context[:, frame]):
            assert np.array_equal(x[plane, :, k], mags[:N_BINS, col])
            assert np.array_equal(t[plane, :, k], mags[N_BINS:, col])


@pytest.mark.parametrize("model", MODELS)
def test_batches_match_whole_clip_encoding(model, tiny_corpus):
    # encoding each minibatch from magnitudes gives the bits of encoding
    # every clip whole, concatenating the clips and gathering the frames
    assert len(tiny_corpus.train_clips) >= 2  # so clip edges are inside the split
    per_clip = [clip_frames(c, model) for c in tiny_corpus.train_clips]
    x_all, t_all = (np.concatenate(blocks, axis=-1) for blocks in zip(*per_clip))
    encode, encode_target, _ = _codec(model, COLOR_N)
    mags, context = load_training_frames(tiny_corpus)
    batches = make_batches(mags, context, 16, np.random.default_rng(7), encode, encode_target)
    order = np.random.default_rng(7).permutation(x_all.shape[-1])
    starts = range(0, len(order), 16)
    for start, (x, t) in zip(starts, batches, strict=True):
        idx = order[start:start + 16]
        for got, whole in ((x, x_all), (t, t_all)):
            want = np.ascontiguousarray(whole[..., idx])
            assert got.shape == want.shape and got.strides == want.strides
            assert got.tobytes() == want.tobytes()


def test_build_training_set_deterministic(tiny_corpus):
    # one shuffled pass of minibatches, as the trainer builds it
    cfg = ExperimentConfig(model="CVPNN", batch_frames=16, seed=4)
    encode, encode_target, _ = _codec(cfg.model, cfg.color_n)

    def one_pass():
        mags, context = load_training_frames(tiny_corpus)
        return list(make_batches(mags, context, cfg.batch_frames,
                                 np.random.default_rng([cfg.seed, 1]), encode, encode_target))

    a = one_pass()
    b = one_pass()
    assert len(a) == len(b)
    for (ax, at), (bx, bt) in zip(a, b):
        assert np.array_equal(ax, bx)
        assert np.array_equal(at, bt)


def test_ideal_binary_mask_beats_mixture_by_5db(tiny_corpus):
    """Oracle sanity: a binary mask from true stem magnitudes must clear
    the mixture baseline by a wide margin on synthetic material."""
    entry = tiny_corpus.test_clips[0]
    vocal, music = load_clip_stems(entry)
    mix = load_clip_mixture(entry)
    est_v, _ = separate_ideal(mix, vocal, music, kind="binary")
    gain = (sdr_only(est_v.samples, [vocal.samples], filter_len=32)
            - sdr_only(mix.samples, [vocal.samples], filter_len=32))
    assert gain > 5.0
