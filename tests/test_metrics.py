import numpy as np
import pytest

from vpsep import (
    BssResult,
    Decomposition,
    GlobalMetrics,
    aggregate_global,
    bss_decompose,
    sdr_only,
    sdr_sir_sar,
)
from vpsep.errors import ShapeMismatchError, VpsepError
from vpsep.metrics import _delay_span_solve, _ratio_db


def two_tones(n=4000, rate=16000):
    """Orthogonal equal-energy references: sinusoids at exact DFT bins."""
    t = np.arange(n)
    s1 = np.sin(2 * np.pi * 40 * t / n)
    s2 = np.sin(2 * np.pi * 97 * t / n)
    return s1, s2


def test_perfect_estimate_caps_all_ratios():
    rng = np.random.default_rng(0)
    s1 = rng.standard_normal(3000)
    s2 = rng.standard_normal(3000)
    r = sdr_sir_sar(bss_decompose(s1, [s1, s2], 0, filter_len=8))
    assert r.sdr == 100.0
    assert r.sir == 100.0
    assert r.sar == 100.0


def test_perfect_estimate_target_matches_signal():
    rng = np.random.default_rng(1)
    s1 = rng.standard_normal(2000)
    s2 = rng.standard_normal(2000)
    d = bss_decompose(s1, [s1, s2], 0, filter_len=4)
    assert np.max(np.abs(d.s_target[:2000] - s1)) < 1e-8
    assert np.max(np.abs(d.e_interf)) < 1e-8


def test_equal_energy_interference_zeroes_sir():
    s1, s2 = two_tones()
    est = s1 + s2
    r = sdr_sir_sar(bss_decompose(est, [s1, s2], 0, filter_len=1))
    assert abs(r.sir - 0.0) <= 0.1
    d = bss_decompose(est, [s1, s2], 0, filter_len=1)
    # everything projects onto the two references: no artifact term
    assert np.max(np.abs(d.e_artif)) < 1e-8
    assert np.max(np.abs(d.e_interf[:len(s2)] - s2)) < 1e-8


def test_decomposition_identity_and_orthogonality():
    rng = np.random.default_rng(2)
    s1 = rng.standard_normal(2500)
    s2 = rng.standard_normal(2500)
    est = 0.8 * s1 + 0.3 * s2 + 0.05 * rng.standard_normal(2500)
    flen = 16
    d = bss_decompose(est, [s1, s2], 0, filter_len=flen)

    est_pad = np.concatenate([est, np.zeros(flen - 1)])
    total = d.s_target + d.e_interf + d.e_artif
    assert np.max(np.abs(total - est_pad)) < 1e-10

    def ncos(a, b):
        return abs(a @ b) / max(np.linalg.norm(a) * np.linalg.norm(b), 1e-30)

    assert ncos(d.s_target, d.e_artif) < 1e-8
    assert ncos(d.e_interf, d.e_artif) < 1e-8


def test_scale_invariance():
    rng = np.random.default_rng(3)
    s1 = rng.standard_normal(2000)
    s2 = rng.standard_normal(2000)
    est = 0.7 * s1 + 0.2 * s2 + 0.1 * rng.standard_normal(2000)
    a = sdr_sir_sar(bss_decompose(est, [s1, s2], 0, filter_len=8))
    b = sdr_sir_sar(bss_decompose(123.0 * est, [s1, s2], 0, filter_len=8))
    assert abs(a.sdr - b.sdr) < 1e-6
    assert abs(a.sir - b.sir) < 1e-6
    assert abs(a.sar - b.sar) < 1e-6


def test_sdr_bounded_by_sir_and_sar():
    rng = np.random.default_rng(4)
    for trial in range(5):
        s1 = rng.standard_normal(1500)
        s2 = rng.standard_normal(1500)
        est = (rng.uniform(0.3, 1.0) * s1 + rng.uniform(0.1, 0.8) * s2
               + rng.uniform(0.05, 0.5) * rng.standard_normal(1500))
        r = sdr_sir_sar(bss_decompose(est, [s1, s2], 0, filter_len=8))
        assert r.sdr <= min(r.sir, r.sar) + 3.02


def test_delay_span_taps_match_direct_least_squares():
    rng = np.random.default_rng(5)
    n, flen = 400, 6
    refs = rng.standard_normal((2, n))
    est = rng.standard_normal(n)

    a = np.zeros((n + flen - 1, 2 * flen))
    for i in range(2):
        for d in range(flen):
            a[d:d + n, i * flen + d] = refs[i]
    want, *_ = np.linalg.lstsq(a, np.concatenate([est, np.zeros(flen - 1)]),
                               rcond=None)
    got = _delay_span_solve(est, refs, flen).ravel()
    assert np.max(np.abs(got - want)) < 1e-6


def test_delayed_estimate_still_scores_as_target():
    rng = np.random.default_rng(6)
    s1 = rng.standard_normal(3000)
    s2 = rng.standard_normal(3000)
    est = np.concatenate([np.zeros(5), s1[:-5]])  # 5-sample delay
    r = sdr_sir_sar(bss_decompose(est, [s1, s2], 0, filter_len=16))
    # only the truncated tail (5 samples) is unexplained by the delay span
    assert r.sdr > 20.0
    assert r.sir > r.sdr


def test_ratio_db_caps():
    assert _ratio_db(1.0, 0.0) == 100.0
    assert _ratio_db(1.0, 1e-30) == 100.0
    assert _ratio_db(0.0, 1.0) == -100.0
    assert _ratio_db(1.0, 1.0) == 0.0
    assert _ratio_db(10.0, 1.0) == pytest.approx(10.0, abs=1e-12)


def test_sdr_sir_sar_from_crafted_decomposition():
    st = np.array([2.0, 0.0, 0.0])
    ei = np.array([0.0, 1.0, 0.0])
    ea = np.array([0.0, 0.0, 1.0])
    r = sdr_sir_sar(Decomposition(st, ei, ea))
    assert r.sdr == pytest.approx(10 * np.log10(4 / 2), abs=1e-12)
    assert r.sir == pytest.approx(10 * np.log10(4 / 1), abs=1e-12)
    assert r.sar == pytest.approx(10 * np.log10(5 / 1), abs=1e-12)
    assert isinstance(r, BssResult)


def test_bss_decompose_validation():
    s = np.ones(100)
    with pytest.raises(ShapeMismatchError):
        bss_decompose(np.ones(50), [s], 0, filter_len=4)
    with pytest.raises(VpsepError):
        bss_decompose(s, [s], 2, filter_len=4)
    with pytest.raises(VpsepError):
        bss_decompose(s, [s], 0, filter_len=0)
    with pytest.raises(VpsepError):
        bss_decompose(s, [s, np.zeros(100)], 0, filter_len=4)
    with pytest.raises(ShapeMismatchError):
        bss_decompose(np.ones((2, 50)), [s], 0)


def test_aggregate_global_simple_mean():
    g = aggregate_global([(1.0, 2.0, 3.0), (3.0, 4.0, 5.0)], [100, 100])
    assert g.gnsdr == pytest.approx(2.0, abs=1e-12)
    assert g.gsir == pytest.approx(3.0, abs=1e-12)
    assert g.gsar == pytest.approx(4.0, abs=1e-12)
    assert isinstance(g, GlobalMetrics)


def test_aggregate_global_length_weighted():
    g = aggregate_global([(0.0, 0.0, 0.0), (4.0, 4.0, 4.0)], [100, 300])
    assert g.gnsdr == pytest.approx(3.0, abs=1e-12)


def test_aggregate_global_rejects_bad_inputs():
    with pytest.raises(VpsepError):
        aggregate_global([], [])
    with pytest.raises(ShapeMismatchError):
        aggregate_global([(1.0, 2.0, 3.0)], [100, 200])
    with pytest.raises(VpsepError):
        aggregate_global([(1.0, 2.0, 3.0)], [0])
    with pytest.raises(ShapeMismatchError):
        aggregate_global([(1.0, 2.0)], [100])


def test_sdr_only_matches_full_result():
    rng = np.random.default_rng(7)
    s1 = rng.standard_normal(1000)
    s2 = rng.standard_normal(1000)
    est = s1 + 0.5 * s2
    full = sdr_sir_sar(bss_decompose(est, [s1, s2], 0, filter_len=4))
    assert sdr_only(est, [s1, s2], 0, filter_len=4) == full.sdr
