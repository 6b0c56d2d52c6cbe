"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line under ``pytest -v``.  Property suites come with explicit
runtime budgets; the end-to-end check runs the full desk-scale experiment."""

from time import monotonic

import numpy as np
import pytest

from vpsep import (
    N_BINS,
    TARGET_RATE,
    DatasetManifest,
    ExperimentConfig,
    MagnitudeMatrix,
    ModelCheckpoint,
    Waveform,
    apply_mask_and_reconstruct,
    backward,
    bss_decompose,
    color_decode,
    color_encode,
    covered_length,
    evaluate,
    evaluate_ideal,
    forward,
    init_network,
    istft,
    loss_j,
    sdr_only,
    sdr_sir_sar,
    separate,
    soft_mask,
    stft,
    synth_dataset,
    train,
    vec_matmul,
    window_decode,
    window_encode,
)
from vpsep.dataset import load_clip_mixture, load_clip_stems

from conftest import central_diff, max_rel_grad_err
from oracles import Vec3, cross, dot, vec_matmul_naive

COLOR_N = 0.0938


def test_criterion_01_cross_product_algebra():
    t0 = monotonic()
    rng = np.random.default_rng(101)
    vals = rng.standard_normal((10000, 2, 3))
    worst = 0.0
    for a, b in vals:
        x = Vec3(*a)
        y = Vec3(*b)
        xy = cross(x, y)
        yx = cross(y, x)
        scale = max(np.linalg.norm(a) * np.linalg.norm(b), 1e-30)

        anti = np.max(np.abs(xy.as_array() + yx.as_array())) / scale
        self_zero = np.max(np.abs(cross(x, x).as_array())) / max(a @ a, 1e-30)
        ortho = max(abs(dot(xy, x)), abs(dot(xy, y))) / (scale * scale)
        lagrange = abs(
            xy.as_array() @ xy.as_array() - ((a @ a) * (b @ b) - (a @ b) ** 2)
        ) / (scale * scale)
        worst = max(worst, anti, self_zero, ortho, lagrange)
    assert worst < 1e-10
    assert monotonic() - t0 < 1.0


def test_criterion_02_matmul_oracle_equivalence():
    t0 = monotonic()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        m, k, n = rng.integers(1, 17, size=3)
        p = np.stack([rng.standard_normal((m, k)) for _ in range(3)])
        q = np.stack([rng.standard_normal((k, n)) for _ in range(3)])
        fast = vec_matmul(p, q)
        slow = vec_matmul_naive(p, q)
        worst = max(worst, max(np.max(np.abs(a - b))
                               for a, b in zip(fast, slow)))
    assert worst <= 1e-12
    assert monotonic() - t0 < 1.0


def _grad_check(net, x, target):
    y, cache = forward(net, x)
    _, d_y = loss_j(y, target)
    grads = backward(net, cache, d_y)

    def f():
        yy, _ = forward(net, x)
        j, _ = loss_j(yy, target)
        return j

    numeric = central_diff(f, [net.params], eps=1e-6)
    return max_rel_grad_err([grads], numeric)


def test_criterion_03_gradients_match_finite_differences():
    t0 = monotonic()
    rng = np.random.default_rng(103)
    f_bins, frames = 8, 4

    def rand_mags():
        return MagnitudeMatrix(rng.uniform(0, 1, (f_bins, frames)))

    # plain real network on raw magnitude frames
    real_net = init_network("real", [f_bins, 14, 14, 14, 2 * f_bins], seed=30)
    x = rand_mags().data
    target = np.vstack([rand_mags().data, rand_mags().data])
    err_real = _grad_check(real_net, x, target)

    # context-window vector network
    wnet = init_network("vp", [f_bins, 12, 12, 12, 2 * f_bins], seed=31)
    xw = window_encode(rand_mags())
    tw = np.concatenate([window_encode(rand_mags()), window_encode(rand_mags())], axis=-2)
    err_window = _grad_check(wnet, xw, tw)

    # color-coded vector network
    cnet = init_network("vp", [f_bins, 12, 12, 12, 2 * f_bins], seed=32)
    xc = color_encode(rand_mags())
    tc = np.concatenate([color_encode(rand_mags()), color_encode(rand_mags())], axis=-2)
    err_color = _grad_check(cnet, xc, tc)

    assert err_real < 1e-4
    assert err_window < 1e-4
    assert err_color < 1e-4
    assert monotonic() - t0 < 30.0


def test_criterion_04_transform_roundtrips_and_projection():
    t0 = monotonic()

    x = np.linspace(0.0, 1.0, 10000).reshape(100, 100)
    back = color_decode(color_encode(MagnitudeMatrix(x)))
    assert np.max(np.abs(back.data - x)) < 1e-9

    rng = np.random.default_rng(104)
    mags = MagnitudeMatrix(rng.uniform(0, 1, (33, 21)))
    again = window_decode(window_encode(mags))
    assert np.array_equal(again.data, mags.data)

    # grid-search oracle over the full curve, chunked to bound memory
    xs = np.linspace(0.0, 1.0, 100001)
    cr = np.clip(xs / COLOR_N, 0.0, 1.0)
    cg = np.clip((xs - COLOR_N) / COLOR_N, 0.0, 1.0)
    cb = np.clip((xs - 2 * COLOR_N) / (1 - 2 * COLOR_N), 0.0, 1.0)

    def grid_best(points):
        best_d = np.full(len(points), np.inf)
        best_x = np.zeros(len(points))
        for s in range(0, len(xs), 20000):
            sl = slice(s, s + 20000)
            d = ((points[:, 0:1] - cr[sl]) ** 2
                 + (points[:, 1:2] - cg[sl]) ** 2
                 + (points[:, 2:3] - cb[sl]) ** 2)
            idx = np.argmin(d, axis=1)
            dmin = d[np.arange(len(points)), idx]
            better = dmin < best_d
            best_d[better] = dmin[better]
            best_x[better] = xs[sl][idx[better]]
        return best_x, best_d

    example = np.array([[0.5, -0.1, 0.0]])
    got_x = color_decode(example.T[:, :, None]).data[0, 0]
    oracle_x, _ = grid_best(example)
    assert abs(got_x - oracle_x[0]) < 1e-6

    pts = rng.uniform(-0.5, 1.5, (200, 3))
    dec = color_decode(pts.T[:, :, None])
    px = dec.data[:, 0]
    pr = np.clip(px / COLOR_N, 0, 1)
    pg = np.clip((px - COLOR_N) / COLOR_N, 0, 1)
    pb = np.clip((px - 2 * COLOR_N) / (1 - 2 * COLOR_N), 0, 1)
    d_exact = ((pts[:, 0] - pr) ** 2 + (pts[:, 1] - pg) ** 2
               + (pts[:, 2] - pb) ** 2)
    _, d_grid = grid_best(pts)
    assert np.all(d_exact <= d_grid + 1e-6)

    assert monotonic() - t0 < 5.0


def test_criterion_05_stft_roundtrip_interior():
    t0 = monotonic()
    rng = np.random.default_rng(105)

    def interior_rel_err(x):
        out = istft(stft(Waveform(x, TARGET_RATE))).samples
        lo = 1024
        hi = covered_length(len(x)) - 1024
        err = np.max(np.abs(out[lo:hi] - x[lo:hi]))
        return err / np.max(np.abs(x))

    noise = rng.uniform(-1, 1, 3 * TARGET_RATE)
    t = np.arange(2 * TARGET_RATE) / TARGET_RATE
    tone = 0.7 * np.sin(2 * np.pi * 523.25 * t)
    assert interior_rel_err(noise) < 1e-10
    assert interior_rel_err(tone) < 1e-10
    assert monotonic() - t0 < 5.0


def test_criterion_06_mask_conservation():
    t0 = monotonic()
    rng = np.random.default_rng(106)
    x = rng.uniform(-0.9, 0.9, 2 * TARGET_RATE)
    spec = stft(Waveform(x, TARGET_RATE))
    mag = spec.magnitude()
    masks = soft_mask(mag * rng.uniform(0, 1, mag.shape),
                      mag * rng.uniform(0, 1, mag.shape))
    assert np.max(np.abs(masks.m1 + masks.m2 - 1.0)) == 0.0
    y1, y2 = apply_mask_and_reconstruct(spec, masks)
    unmasked = istft(spec).samples
    assert np.max(np.abs(y1.samples + y2.samples - unmasked)) < 1e-10
    assert monotonic() - t0 < 5.0


def test_criterion_07_bss_eval_sanity():
    t0 = monotonic()
    rng = np.random.default_rng(107)

    s1 = rng.standard_normal(4000)
    s2 = rng.standard_normal(4000)
    perfect = sdr_sir_sar(bss_decompose(s1, [s1, s2], 0, filter_len=8))
    assert perfect.sdr == 100.0
    assert perfect.sir == 100.0
    assert perfect.sar == 100.0

    n = 4000
    t = np.arange(n)
    tone1 = np.sin(2 * np.pi * 40 * t / n)
    tone2 = np.sin(2 * np.pi * 97 * t / n)  # orthogonal, equal energy
    mixed = sdr_sir_sar(bss_decompose(tone1 + tone2, [tone1, tone2], 0,
                                      filter_len=1))
    assert abs(mixed.sir) <= 0.1

    est = 0.8 * s1 + 0.3 * s2 + 0.1 * rng.standard_normal(4000)
    a = sdr_sir_sar(bss_decompose(est, [s1, s2], 0, filter_len=16))
    b = sdr_sir_sar(bss_decompose(1234.5 * est, [s1, s2], 0, filter_len=16))
    assert abs(a.sdr - b.sdr) < 1e-6
    assert abs(a.sir - b.sir) < 1e-6
    assert abs(a.sar - b.sar) < 1e-6

    assert monotonic() - t0 < 30.0


def test_criterion_08_parameter_count_ratio():
    sizes_cvpnn = ExperimentConfig(model="CVPNN").network_sizes(N_BINS)
    sizes_dnn1 = ExperimentConfig(model="DNN1").network_sizes(N_BINS)
    assert sizes_cvpnn == sizes_dnn1 == [513, 512, 512, 512, 1026]
    vp = init_network("vp", sizes_cvpnn, seed=0)
    real = init_network("real", sizes_dnn1, seed=0)
    assert vp.params.size == 3 * real.params.size


def test_criterion_09_desk_scale_end_to_end(tmp_path):
    t0 = monotonic()
    manifest = synth_dataset(tmp_path / "corpus", seed=0, n_train=6,
                             n_test=4, duration_s=4.0)
    gnsdr = {}
    for model in ("CVPNN", "WVPNN"):
        cfg = ExperimentConfig(model=model, hidden_width=64, hidden_layers=2,
                               epochs=50, seed=0)
        ckpt, history = train(cfg, manifest)
        assert history[-1] < 0.5 * history[0], (
            f"{model}: J went {history[0]:.4f} -> {history[-1]:.4f}")
        report = evaluate(ckpt, manifest, filter_len=512, split="test")
        assert report.vocal.gnsdr > 0.0, f"{model} GNSDR {report.vocal.gnsdr}"
        gnsdr[model] = report.vocal.gnsdr
    oracle = evaluate_ideal(manifest, kind="soft", filter_len=512,
                            split="test")
    assert oracle.vocal.gnsdr > max(gnsdr.values()), (
        f"oracle {oracle.vocal.gnsdr:.2f} vs models {gnsdr}")
    assert monotonic() - t0 < 600.0


def test_criterion_10_protocol_fidelity(tmp_path):
    durations = (0.8, 1.1, 1.4)
    clips = []
    for i, dur in enumerate(durations):
        m = synth_dataset(tmp_path / f"part{i}", seed=20 + i, n_train=1,
                          n_test=1, duration_s=dur)
        clips.append(m.test_clips[0])
    fixture = DatasetManifest(tmp_path / "part0", tuple(clips))

    cfg = ExperimentConfig(model="CVPNN", hidden_width=16, hidden_layers=1)
    ckpt = ModelCheckpoint(model="CVPNN", color_n=cfg.color_n,
                           network=init_network("vp", cfg.network_sizes(N_BINS),
                                                seed=0))
    flen = 32
    report = evaluate(ckpt, fixture, filter_len=flen, split="test")

    # hand recompute: per-clip decompositions and the length-weighted mean
    hand = {"vocal": [], "music": []}
    lengths = []
    for entry in clips:
        vocal, music = load_clip_stems(entry)
        mix = load_clip_mixture(entry)
        n = min(len(mix), len(vocal), len(music))
        lengths.append(n)
        est_v, est_m = separate(ckpt, Waveform(mix.samples[:n], TARGET_RATE))
        refs = np.vstack([vocal.samples[:n], music.samples[:n]])
        for idx, (name, est) in enumerate((("vocal", est_v), ("music", est_m))):
            res = sdr_sir_sar(bss_decompose(est.samples, refs, idx, flen))
            mix_sdr = sdr_only(mix.samples[:n], refs, idx, flen)
            hand[name].append((res.sdr - mix_sdr, res.sir, res.sar))

    lengths = np.asarray(lengths, dtype=np.float64)
    for name, got in (("vocal", report.vocal), ("music", report.music)):
        vals = np.asarray(hand[name])
        want = (lengths @ vals) / lengths.sum()
        assert got.gnsdr == pytest.approx(want[0], abs=1e-12)
        assert got.gsir == pytest.approx(want[1], abs=1e-12)
        assert got.gsar == pytest.approx(want[2], abs=1e-12)

    lines = report.table_tsv().strip().split("\n")
    assert lines[0] == "model\tarch\tcontext\tGNSDR\tGSIR\tGSAR"
    cols = lines[1].split("\t")
    assert cols[0] == "CVPNN"
    assert cols[1] == "16x1"
    assert cols[2] == "1"
    vals = np.asarray(hand["vocal"])
    want = (lengths @ vals) / lengths.sum()
    assert float(cols[3]) == pytest.approx(want[0], abs=1e-12)
    assert float(cols[4]) == pytest.approx(want[1], abs=1e-12)
    assert float(cols[5]) == pytest.approx(want[2], abs=1e-12)
    assert len(report.clips) == 6  # 3 clips x 2 sources
