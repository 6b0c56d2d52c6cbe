import os
import struct
import warnings

import numpy as np
import pytest
from scipy import signal

from vpsep import (
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
    resample_to_16k,
    soft_mask,
    stft,
    wav_read,
    wav_write,
)
from vpsep.audio import n_frames_for
from vpsep.errors import AudioError, ShapeMismatchError, WavFormatError


def tone(freq, seconds=1.0, rate=TARGET_RATE, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return Waveform(amp * np.sin(2 * np.pi * freq * t), rate)


def interior(n_samples):
    """Sample mask that whole frames cover with full window weight."""
    good = np.zeros(n_samples, dtype=bool)
    good[WINDOW_LEN:covered_length(n_samples) - WINDOW_LEN] = True
    return good


def test_waveform_validation():
    with pytest.raises(AudioError):
        Waveform(np.zeros((2, 3)), 16000)
    with pytest.raises(AudioError):
        Waveform(np.array([0.0, np.nan]), 16000)
    with pytest.raises(AudioError):
        Waveform(np.zeros(4), 0)
    assert len(Waveform(np.zeros(5), 16000)) == 5


def test_resample_identity_at_target_rate():
    w = tone(440)
    out = resample_to_16k(w)
    assert out is w


def test_resample_rejects_upsampling():
    with pytest.raises(AudioError):
        resample_to_16k(Waveform(np.zeros(100), 8000))


def test_resample_length_and_amplitude():
    rate = 44100
    seconds = 2.0
    t = np.arange(int(rate * seconds)) / rate
    w = Waveform(0.5 * np.sin(2 * np.pi * 1000.0 * t), rate)
    out = resample_to_16k(w)
    assert out.sample_rate == TARGET_RATE
    want_len = round(len(w) * TARGET_RATE / rate)
    assert abs(len(out) - want_len) <= 1

    # RMS over a whole number of cycles away from the filter edges
    core = out.samples[4000:4000 + 8000]  # 500 cycles of 1 kHz at 16 kHz
    amp = np.sqrt(2.0) * np.sqrt(np.mean(core**2))
    assert abs(amp - 0.5) / 0.5 < 0.01


def test_resample_removes_above_nyquist():
    rate = 48000
    t = np.arange(rate) / rate
    w = Waveform(0.5 * np.sin(2 * np.pi * 10000.0 * t), rate)
    out = resample_to_16k(w)
    core = out.samples[2000:-2000]
    assert np.sqrt(np.mean(core**2)) < 0.01


def test_frame_count_arithmetic():
    assert n_frames_for(WINDOW_LEN) == 1
    assert n_frames_for(WINDOW_LEN + HOP) == 2
    assert n_frames_for(WINDOW_LEN + HOP - 1) == 1
    assert covered_length(WINDOW_LEN + HOP - 1) == WINDOW_LEN
    assert covered_length(5 * HOP + WINDOW_LEN) == 5 * HOP + WINDOW_LEN
    with pytest.raises(AudioError):
        n_frames_for(WINDOW_LEN - 1)


def test_stft_rejects_wrong_rate_and_short_input():
    with pytest.raises(AudioError):
        stft(Waveform(np.zeros(20000), 44100))
    with pytest.raises(AudioError):
        stft(Waveform(np.zeros(WINDOW_LEN - 1), TARGET_RATE))


def test_stft_shapes_and_zero_signal():
    w = Waveform(np.zeros(WINDOW_LEN + 3 * HOP + 7), TARGET_RATE)
    s = stft(w)
    assert s.bins.shape == (N_BINS, 4)
    assert s.original_len == len(w)
    assert np.all(s.bins == 0)
    assert np.all(istft(s).samples == 0.0)


def test_stft_tone_peaks_at_expected_bin():
    freq = 1000.0
    w = tone(freq)
    s = stft(w)
    mag = s.magnitude()
    peak_bins = np.argmax(mag, axis=0)
    want = freq * WINDOW_LEN / TARGET_RATE  # bin 64
    assert np.all(np.abs(peak_bins - want) <= 1)


def test_stft_matches_naive_frame_dft():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, WINDOW_LEN + 2 * HOP)
    s = stft(Waveform(x, TARGET_RATE))
    win = signal.get_window("hann", WINDOW_LEN, fftbins=True)
    for k in range(3):
        frame = x[k * HOP:k * HOP + WINDOW_LEN] * win
        want = np.fft.rfft(frame)
        assert np.max(np.abs(s.bins[:, k] - want)) < 1e-12


def test_stft_parseval_energy_agreement():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(WINDOW_LEN + 40 * HOP)
    s = stft(Waveform(x, TARGET_RATE))
    # rfft energy needs doubled interior bins (real-input symmetry)
    weights = np.full(N_BINS, 2.0)
    weights[0] = weights[-1] = 1.0
    spec_energy = np.sum(weights[:, None] * np.abs(s.bins) ** 2) / WINDOW_LEN
    win = signal.get_window("hann", WINDOW_LEN, fftbins=True)
    frame_energy = 0.0
    for k in range(s.n_frames):
        frame_energy += np.sum((x[k * HOP:k * HOP + WINDOW_LEN] * win) ** 2)
    assert abs(spec_energy - frame_energy) / frame_energy < 0.01


def test_istft_roundtrip_interior_noise():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, 4 * TARGET_RATE)
    out = istft(stft(Waveform(x, TARGET_RATE)))
    assert len(out) == len(x)
    good = interior(len(x))
    assert np.max(np.abs(out.samples[good] - x[good])) < 1e-10


def test_istft_roundtrip_interior_tone():
    w = tone(523.25, seconds=2.0)
    out = istft(stft(w))
    good = interior(len(w))
    assert np.max(np.abs(out.samples[good] - w.samples[good])) < 1e-10


def test_istft_edges_taper_instead_of_amplifying():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, WINDOW_LEN + 20 * HOP)
    out = istft(stft(Waveform(x, TARGET_RATE))).samples
    assert np.max(np.abs(out)) <= np.max(np.abs(x)) * 1.5
    assert abs(out[0]) < 1e-12  # first tap of the periodic Hann is zero


def test_istft_inconsistent_length_rejected():
    s = stft(Waveform(np.zeros(WINDOW_LEN + 4 * HOP), TARGET_RATE))
    bad = ComplexSpectrogram(s.bins, original_len=WINDOW_LEN)
    with pytest.raises(AudioError):
        istft(bad)


@pytest.mark.parametrize("n_samples", [5000, 1_922_048])  # ragged; 120 s
def test_istft_matches_frame_loop_bit_for_bit(n_samples):
    from oracles import istft_frame_loop

    rng = np.random.default_rng(n_samples)
    s = stft(Waveform(rng.uniform(-1, 1, n_samples), TARGET_RATE))
    s.bins[:] *= rng.uniform(0, 1, s.bins.shape)  # a masked spectrum
    got = istft(s).samples
    assert got.tobytes() == istft_frame_loop(s).samples.tobytes()


def test_spectrogram_validation():
    with pytest.raises(AudioError):
        ComplexSpectrogram(np.zeros((10, 4)), original_len=WINDOW_LEN)


def test_soft_mask_values():
    m = soft_mask(np.array([[1.0]]), np.array([[1.0]]))
    assert m.m1[0, 0] == pytest.approx(0.5, abs=1e-12)
    m = soft_mask(np.array([[3.0]]), np.array([[1.0]]))
    assert m.m1[0, 0] == pytest.approx(0.75, abs=1e-12)
    assert m.m2[0, 0] == pytest.approx(0.25, abs=1e-12)
    m = soft_mask(np.array([[2.0]]), np.array([[0.0]]))
    assert m.m1[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_soft_mask_silent_cells_split_evenly():
    m = soft_mask(np.zeros((2, 2)), np.zeros((2, 2)))
    assert np.all(m.m1 == 0.5) and np.all(m.m2 == 0.5)


def test_soft_mask_sums_exactly_to_one():
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 10, (50, 50))
    b = rng.uniform(0, 10, (50, 50))
    m = soft_mask(a, b)
    assert np.max(np.abs(m.m1 + m.m2 - 1.0)) == 0.0


def test_soft_mask_rejects_bad_inputs():
    with pytest.raises(AudioError):
        soft_mask(np.array([[-1.0]]), np.array([[1.0]]))
    with pytest.raises(ShapeMismatchError):
        soft_mask(np.zeros((2, 2)), np.zeros((2, 3)))


def test_mask_pair_validation():
    with pytest.raises(AudioError):
        MaskPair(np.array([[0.7]]), np.array([[0.7]]))
    with pytest.raises(AudioError):
        MaskPair(np.array([[1.2]]), np.array([[-0.2]]))
    with pytest.raises(ShapeMismatchError):
        MaskPair(np.zeros((1, 2)), np.zeros((2, 1)))


def test_apply_mask_all_or_nothing():
    w = tone(440, seconds=1.0)
    s = stft(w)
    ones = np.ones(s.bins.shape)
    y1, y2 = apply_mask_and_reconstruct(s, MaskPair(ones, 1.0 - ones))
    good = interior(len(w))
    assert np.max(np.abs(y1.samples[good] - w.samples[good])) < 1e-10
    assert np.max(np.abs(y2.samples)) < 1e-12


def test_apply_mask_half_split():
    w = tone(440, seconds=1.0)
    s = stft(w)
    half = np.full(s.bins.shape, 0.5)
    y1, y2 = apply_mask_and_reconstruct(s, MaskPair(half, half))
    good = interior(len(w))
    assert np.max(np.abs(y1.samples[good] - 0.5 * w.samples[good])) < 1e-10
    assert np.array_equal(y1.samples, y2.samples)


def test_apply_mask_conserves_mixture():
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.9, 0.9, 2 * TARGET_RATE)
    s = stft(Waveform(x, TARGET_RATE))
    mag = s.magnitude()
    m = soft_mask(mag * rng.uniform(0, 1, mag.shape), mag)
    y1, y2 = apply_mask_and_reconstruct(s, m)
    recon = istft(s).samples
    assert np.max(np.abs(y1.samples + y2.samples - recon)) < 1e-10
    good = interior(len(x))
    assert np.max(np.abs((y1.samples + y2.samples - x)[good])) < 1e-10


def test_apply_mask_matches_magnitude_phase_form():
    from oracles import mask_magnitude_phase

    rng = np.random.default_rng(7)
    x = rng.uniform(-0.9, 0.9, TARGET_RATE)
    s = stft(Waveform(x, TARGET_RATE))
    s.bins[:4, :3] = 0.0  # exact zeros have no phase; both forms give 0
    mag = s.magnitude()
    m = soft_mask(mag * rng.uniform(0, 1, mag.shape), mag)
    y1, y2 = apply_mask_and_reconstruct(s, m)
    for got, mask in ((y1, m.m1), (y2, m.m2)):
        want = istft(ComplexSpectrogram(mask_magnitude_phase(s.bins, mask),
                                        s.original_len))
        assert np.max(np.abs(got.samples - want.samples)) < 1e-12


def test_apply_mask_shape_check():
    s = stft(tone(440, seconds=0.5))
    with pytest.raises(ShapeMismatchError):
        apply_mask_and_reconstruct(
            s, MaskPair(np.ones((3, 3)), np.zeros((3, 3)))
        )


def test_wav_pcm16_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    ints = rng.integers(-32768, 32768, size=4000)
    w = Waveform(ints / 32768.0, 22050)
    path = tmp_path / "a.wav"
    wav_write(path, w, fmt="pcm16")
    back = wav_read(path)
    assert back.sample_rate == 22050
    assert np.array_equal(back.samples, w.samples)


def test_wav_pcm16_quantization_bound(tmp_path):
    rng = np.random.default_rng(7)
    w = Waveform(rng.uniform(-0.99, 0.99, 3000), 16000)
    path = tmp_path / "q.wav"
    wav_write(path, w)
    back = wav_read(path)
    assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32768.0


def test_wav_float32_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    w = Waveform(rng.uniform(-1, 1, 2048).astype(np.float32).astype(np.float64),
                 16000)
    path = tmp_path / "f.wav"
    wav_write(path, w, fmt="float32")
    back = wav_read(path)
    assert np.array_equal(back.samples, w.samples)


def test_wav_pcm16_clips_overrange(tmp_path):
    w = Waveform(np.array([1.5, -1.5, 0.0]), 16000)
    path = tmp_path / "c.wav"
    wav_write(path, w)
    back = wav_read(path)
    assert back.samples[0] == 32767 / 32768.0
    assert back.samples[1] == -1.0


def test_wav_stereo_channels(tmp_path):
    ramp = np.linspace(-0.5, 0.5, 256).astype(np.float32).astype(np.float64)
    left = Waveform(ramp, 16000)
    right = Waveform(-ramp, 16000)
    path = tmp_path / "s.wav"
    wav_write(path, [left, right], fmt="float32")
    with pytest.raises(WavFormatError):
        wav_read(path)  # must pick a channel
    got_l = wav_read(path, channel=0)
    got_r = wav_read(path, channel=1)
    assert np.array_equal(got_l.samples, left.samples)
    assert np.array_equal(got_r.samples, right.samples)
    with pytest.raises(WavFormatError):
        wav_read(path, channel=2)


def test_wav_mono_channel_selection(tmp_path):
    w = Waveform(np.zeros(64), 16000)
    path = tmp_path / "m.wav"
    wav_write(path, w)
    assert np.array_equal(wav_read(path, channel=0).samples, w.samples)
    with pytest.raises(WavFormatError):
        wav_read(path, channel=1)


def test_wav_rejects_non_wav_and_truncated(tmp_path):
    bad = tmp_path / "not.wav"
    bad.write_bytes(b"ID3\x00 definitely not a wav file")
    with pytest.raises(WavFormatError):
        wav_read(bad)

    real = tmp_path / "ok.wav"
    wav_write(real, Waveform(np.zeros(600), 16000))
    data = real.read_bytes()
    cut = tmp_path / "cut.wav"
    cut.write_bytes(data[: len(data) // 2])
    with pytest.raises(WavFormatError):
        wav_read(cut)


def test_wav_rejects_unknown_codec(tmp_path):
    payload = b"\x00" * 64
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, 0x0055, 1, 16000, 16000, 1, 8),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    path = tmp_path / "mp3ish.wav"
    path.write_bytes(header + payload)
    with pytest.raises(WavFormatError):
        wav_read(path)


def test_wav_write_validates(tmp_path):
    with pytest.raises(WavFormatError):
        wav_write(tmp_path / "x.wav", [])
    a = Waveform(np.zeros(10), 16000)
    b = Waveform(np.zeros(11), 16000)
    with pytest.raises(WavFormatError):
        wav_write(tmp_path / "y.wav", [a, b])
    with pytest.raises(WavFormatError):
        wav_write(tmp_path / "z.wav", a, fmt="pcm24")


@pytest.mark.parametrize("fmt", ["pcm16", "float32"])
def test_wav_every_truncation_raises(fmt, tmp_path):
    path = tmp_path / "full.wav"
    wav_write(path, Waveform(np.linspace(-0.9, 0.9, 101), 16000), fmt=fmt)
    data = path.read_bytes()
    cut = tmp_path / "cut.wav"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(WavFormatError):
            wav_read(cut)


def _wav_bytes(codec, bits, payload, extra_chunks=b""):
    """A mono 16 kHz RIFF/WAVE file with a 16-byte fmt chunk."""
    block_align = bits // 8
    fmt = struct.pack("<HHIIHH", codec, 1, 16000, 16000 * block_align,
                      block_align, bits)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + extra_chunks
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("codec, bits", [(1, 8), (1, 24), (1, 32), (3, 64)])
def test_wav_rejects_other_sample_types(codec, bits, tmp_path):
    path = tmp_path / f"{bits}.wav"
    path.write_bytes(_wav_bytes(codec, bits, b"\x00" * (bits // 8) * 16))
    with pytest.raises(WavFormatError):
        wav_read(path)


def test_wav_skips_unknown_and_trailing_partial_chunks(tmp_path):
    ints = np.arange(-8, 8, dtype="<i2") * 1000
    bext = b"bext" + struct.pack("<I", 5) + b"abcde" + b"\x00"  # odd size, padded
    data = _wav_bytes(1, 16, ints.tobytes(), extra_chunks=bext) + b"LI"
    data = data[:4] + struct.pack("<I", len(data) - 8) + data[8:]
    path = tmp_path / "extra.wav"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = wav_read(path)
    assert np.array_equal(back.samples, ints / 32768.0)


def test_wav_read_threads_keep_warning_filters(tmp_path):
    import sys
    import threading

    ints = np.arange(-8, 8, dtype="<i2") * 1000
    good = tmp_path / "extra.wav"
    good.write_bytes(_wav_bytes(1, 16, ints.tobytes(),
                                extra_chunks=b"bext" + struct.pack("<I", 2) + b"ab"))
    cut = tmp_path / "cut.wav"
    cut.write_bytes(good.read_bytes()[:-6])
    filters = list(warnings.filters)
    failures = []

    def reader():
        try:
            for _ in range(100):
                assert np.array_equal(wav_read(good).samples, ints / 32768.0)
                with pytest.raises(WavFormatError):
                    wav_read(cut)
        except BaseException as e:  # reported by the main thread
            failures.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert warnings.filters == filters


# files written by the original hand-packed RIFF writer: 8 mono PCM16 samples
# at 22050 Hz, then 4 stereo frames at 16 kHz as PCM16 and as float32, the
# float32 one without the cbSize field and fact chunk
_SAMPLES = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 0.25, 1e-3, -0.999])
_PCM16_MONO = bytes.fromhex(
    "524946463400000057415645666d742010000000010001002256000044ac0000"
    "0200100064617461100000000000004000c0ff7f0080002021002180")
_PCM16_STEREO = bytes.fromhex(
    "524946463400000057415645666d74201000000001000200803e000000fa0000"
    "0400100064617461100000000000ff7f004000e000c0dfffff7fdf7f")
_FLOAT32_STEREO_NO_FACT = bytes.fromhex(
    "524946464400000057415645666d74201000000003000200803e000000f40100"
    "080020006461746120000000000000000000803f0000003f000080be000000bf"
    "6f1283ba0000803f77be7f3f")


def test_wav_pcm16_golden_bytes(tmp_path):
    left, right = Waveform(_SAMPLES[:4], 16000), Waveform(-_SAMPLES[4:], 16000)
    wav_write(tmp_path / "m.wav", Waveform(_SAMPLES, 22050))
    wav_write(tmp_path / "s.wav", [left, right])
    assert (tmp_path / "m.wav").read_bytes() == _PCM16_MONO
    assert (tmp_path / "s.wav").read_bytes() == _PCM16_STEREO


def test_wav_reads_float32_without_fact_chunk(tmp_path):
    path = tmp_path / "old.wav"
    path.write_bytes(_FLOAT32_STEREO_NO_FACT)
    want = _SAMPLES.astype(np.float32).astype(np.float64)
    assert np.array_equal(wav_read(path, channel=0).samples, want[:4])
    assert np.array_equal(wav_read(path, channel=1).samples, -want[4:])


def test_wav_write_failure_keeps_target(tmp_path, monkeypatch):
    import vpsep.audio

    def fail_halfway(fh, rate, data):
        fh.write(b"RIFF\x00\x00")
        raise OSError("disk full")

    path = tmp_path / "out.wav"
    monkeypatch.setattr(vpsep.audio.wavfile, "write", fail_halfway)
    with pytest.raises(OSError, match="disk full"):
        wav_write(path, Waveform(np.zeros(64), 16000))
    assert os.listdir(tmp_path) == []  # no target, no temp file

    monkeypatch.undo()
    wav_write(path, Waveform(np.zeros(64), 16000))
    old = path.read_bytes()
    monkeypatch.setattr(vpsep.audio.wavfile, "write", fail_halfway)
    with pytest.raises(OSError, match="disk full"):
        wav_write(path, Waveform(np.ones(64) / 2, 16000))
    assert os.listdir(tmp_path) == ["out.wav"]
    assert path.read_bytes() == old


def test_wav_write_mode_follows_umask(tmp_path):
    old_umask = os.umask(0o027)  # a temp-file helper's 0600 would differ
    try:
        wav_write(tmp_path / "a.wav", Waveform(np.zeros(8), 16000))
        with open(tmp_path / "plain", "wb"):
            pass
    finally:
        os.umask(old_umask)
    assert (os.stat(tmp_path / "a.wav").st_mode
            == os.stat(tmp_path / "plain").st_mode)
