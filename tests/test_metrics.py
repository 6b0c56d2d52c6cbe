import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import vpsep.metrics
import vpsep.parallel
from vpsep import (
    BssReferences,
    BssResult,
    Decomposition,
    GlobalMetrics,
    aggregate_global,
    bss_decompose,
    sdr_only,
    sdr_sir_sar,
)
from vpsep.errors import ShapeMismatchError, VpsepError
from vpsep.metrics import _ratio_db

from conftest import counting_sla


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
    # the estimate alone, then the estimate and references together: the
    # Gram jitter is relative, so quiet stems score like loud ones
    for est_gain, ref_gain in ((123.0, 1.0), (1e-5, 1e-5), (1e-12, 1e-12),
                               (1e-12, 1.0)):
        refs = [ref_gain * s1, ref_gain * s2]
        b = sdr_sir_sar(bss_decompose(est_gain * est, refs, 0, filter_len=8))
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


def check_direct_least_squares(flen):
    """Both projections against an explicit delay matrix and lstsq."""
    rng = np.random.default_rng(5)
    n = 400
    refs = rng.standard_normal((2, n))
    est = rng.standard_normal(n)

    a = np.zeros((n + flen - 1, 2 * flen))
    for i in range(2):
        for d in range(flen):
            a[d:d + n, i * flen + d] = refs[i]
    est_pad = np.concatenate([est, np.zeros(flen - 1)])
    joint, *_ = np.linalg.lstsq(a, est_pad, rcond=None)
    target, *_ = np.linalg.lstsq(a[:, :flen], est_pad, rcond=None)
    d = bss_decompose(est, refs, 0, filter_len=flen)
    assert np.max(np.abs(d.s_target + d.e_interf - a @ joint)) < 1e-6
    assert np.max(np.abs(d.s_target - a[:, :flen] @ target)) < 1e-6


@pytest.mark.parametrize("flen", [1, 6])
def test_delay_span_taps_match_direct_least_squares(flen):
    check_direct_least_squares(flen)


@pytest.mark.parametrize("flen", [1, 16])
@pytest.mark.parametrize("t", [0, 1])
def test_target_projection_ignores_the_other_references(t, flen):
    # the target system is the target's block of the joint one, jittered
    # by its own mean diagonal: exactly the system for that reference alone
    rng = np.random.default_rng(8)
    refs = rng.standard_normal((2, 1200))
    est = 0.6 * refs[0] + 0.4 * refs[1] + 0.1 * rng.standard_normal(1200)
    joint = bss_decompose(est, refs, t, filter_len=flen)
    alone = bss_decompose(est, refs[t:t + 1], 0, filter_len=flen)
    assert np.array_equal(joint.s_target, alone.s_target)


@pytest.mark.parametrize("flen", [1, 16])
@pytest.mark.parametrize("n_refs", [1, 2, 3])
def test_shared_references_match_per_call_decompositions(n_refs, flen):
    rng = np.random.default_rng(9)
    refs = rng.standard_normal((n_refs, 900))
    ests = [refs.T @ rng.uniform(0.2, 1.0, n_refs) + 0.1 * rng.standard_normal(900)
            for _ in range(3)]
    for order in (range(n_refs), reversed(range(n_refs))):
        prepared = BssReferences(refs, flen)
        for t in order:
            for est in ests:
                shared = prepared.decompose(est, t)
                alone = bss_decompose(est, refs, t, filter_len=flen)
                for name in ("s_target", "e_interf", "e_artif"):
                    assert np.array_equal(getattr(shared, name), getattr(alone, name))
                via = bss_decompose(est, prepared, t, filter_len=flen)
                assert np.array_equal(via.e_artif, alone.e_artif)


def test_shared_references_factor_each_system_once(monkeypatch):
    calls = counting_sla(monkeypatch)
    rng = np.random.default_rng(10)
    refs = rng.standard_normal((2, 700))
    ests = [refs[0] + 0.3 * refs[1], rng.standard_normal(700)]
    prepared = BssReferences(refs, 8)
    for est in ests:
        prepared.decompose(est, 0)
    assert calls == [(8, 8), (16, 16)]  # target 0, then the joint system
    for est in ests:
        sdr_only(est, prepared, 1, filter_len=8)
    assert calls == [(8, 8), (16, 16), (8, 8)]


@pytest.mark.parametrize("flen", [1, 6])
def test_lstsq_fallback_matches_direct_least_squares(flen, monkeypatch):
    calls = counting_sla(monkeypatch, fail=True)
    check_direct_least_squares(flen)
    assert len(calls) == 2
    rng = np.random.default_rng(11)
    refs = rng.standard_normal((2, 500))
    prepared = BssReferences(refs, flen)
    for t in (1, 0):
        for est in (refs[0] - refs[1], rng.standard_normal(500)):
            shared = prepared.decompose(est, t)
            alone = bss_decompose(est, refs, t, filter_len=flen)
            for name in ("s_target", "e_interf", "e_artif"):
                assert np.array_equal(getattr(shared, name), getattr(alone, name))


def test_lstsq_fallback_runs_on_one_blas_thread(blas_threads, monkeypatch):
    # a threaded lstsq rounds differently for each thread count
    get, set_ = blas_threads
    set_(2)
    counting_sla(monkeypatch, fail=True)
    seen = []

    def lstsq(a, b, *args, _real=np.linalg.lstsq, **kwargs):
        if a.shape[0] == a.shape[1]:  # the library's solve, not the test's own
            seen.append(get())
        return _real(a, b, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    check_direct_least_squares(6)
    assert seen == [1, 1]  # the target system, then the joint one
    assert get() == 2
    assert vpsep.parallel.ONE_BLAS_THREAD._depth == 0


@pytest.mark.parametrize("flen", [1, 16])
@pytest.mark.parametrize("n_refs", [1, 2, 3])
def test_sdrs_match_sdr_only_per_target(n_refs, flen):
    rng = np.random.default_rng(16)
    refs = rng.standard_normal((n_refs, 900))
    for est in (refs.sum(axis=0) + 0.1 * rng.standard_normal(900),
                rng.standard_normal(900)):
        got = BssReferences(refs, flen).sdrs(est)
        assert got == [sdr_only(est, refs, t, flen) for t in range(n_refs)]


def test_scores_keep_their_golden_bits():
    # float.hex bits of a Gram held in row order and factored in a copy; the
    # column-ordered Gram, factored in place, must keep every one of them
    rng = np.random.default_rng(2006)
    refs = rng.standard_normal((2, 2400))
    est = 0.9 * refs[0] + 0.3 * np.roll(refs[1], 7) + 0.05 * rng.standard_normal(2400)
    prepared = BssReferences(refs, 512)
    golden = [("0x1.45bd226adb28ep+3", "0x1.491fae5ed4eecp+3", "0x1.ac134ab84254cp+4"),
              ("-0x1.e80f733c5a7bap+1", "-0x1.e6666558b5fe3p+1", "0x1.ac134ab84254cp+4")]
    for t, want in enumerate(golden):
        r = sdr_sir_sar(prepared.decompose(est, t))
        assert (r.sdr.hex(), r.sir.hex(), r.sar.hex()) == want


def test_shared_references_validation():
    s = np.ones(100)
    prepared = BssReferences([s, -s + np.arange(100)], 4)
    with pytest.raises(VpsepError, match="filter_len 8 != the prepared 4"):
        bss_decompose(s, prepared, 0, filter_len=8)
    with pytest.raises(VpsepError, match="filter_len must be an integer"):
        bss_decompose(s, prepared, 0, filter_len=4.0)
    with pytest.raises(VpsepError, match="filter_len 512"):
        sdr_only(s, prepared, 0)
    with pytest.raises(ShapeMismatchError, match="lengths"):
        prepared.decompose(np.ones(99), 0)
    with pytest.raises(ShapeMismatchError, match="lengths"):
        prepared.sdrs(np.ones(99))
    with pytest.raises(VpsepError, match="no reference 2 among 2"):
        prepared.decompose(s, 2)
    for bad in (-1, 1.0, True):
        with pytest.raises(VpsepError, match="target_index must be an integer"):
            prepared.decompose(s, bad)
    with pytest.raises(ShapeMismatchError, match="lengths"):
        BssReferences([], 4)


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
    assert _ratio_db(1.0, 0.0, 1.0) == 100.0
    assert _ratio_db(1.0, 1e-30, 1.0) == 100.0
    assert _ratio_db(0.0, 1.0, 1.0) == -100.0
    assert _ratio_db(1e-30, 1.0, 1.0) == -100.0
    assert _ratio_db(0.0, 0.0, 0.0) == -100.0  # the numerator is tested first
    assert _ratio_db(1.0, 1.0, 2.0) == 0.0
    assert _ratio_db(10.0, 1.0, 11.0) == pytest.approx(10.0, abs=1e-12)
    # the floor is relative to the estimate's energy, not absolute
    assert _ratio_db(1e-30, 1e-31, 1.1e-30) == pytest.approx(10.0, abs=1e-12)
    assert _ratio_db(1e-30, 1e-30, 2e-30) == 0.0


def test_silent_estimate_scores_floor():
    rng = np.random.default_rng(12)
    refs = [rng.standard_normal(4000), rng.standard_normal(4000)]
    r = sdr_sir_sar(bss_decompose(np.zeros(4000), refs, 0, filter_len=16))
    assert (r.sdr, r.sir, r.sar) == (-100.0, -100.0, -100.0)
    # a quiet estimate of pure interference is scored, not capped at +100
    r = sdr_sir_sar(bss_decompose(1e-12 * refs[1], refs, 0, filter_len=16))
    assert r.sdr < 0 and r.sir < 0


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
    with pytest.raises(ShapeMismatchError, match="lengths"):
        bss_decompose(s, [s, np.ones(50)], 0, filter_len=4)
    for bad in (np.nan, np.inf):
        with pytest.raises(VpsepError, match="finite"):
            bss_decompose(np.where(np.arange(100) == 7, bad, s), [s], 0, filter_len=4)
        with pytest.raises(VpsepError, match="finite"):
            bss_decompose(s, [s, np.where(np.arange(100) == 7, bad, s)], 0, filter_len=4)
    for name, value in (("filter_len", 4.0), ("filter_len", True),
                        ("target_index", 1.0), ("target_index", "0")):
        with pytest.raises(VpsepError, match=f"{name} must be an integer"):
            bss_decompose(s, [s, -s], **{name: value})


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


def counting_threads(monkeypatch, get, fail=False):
    """Stand in for ``metrics.sla``: record scipy's LAPACK thread count at
    each ``cho_factor`` call, and raise ``RuntimeError`` when ``fail`` is set."""
    seen = []

    def cho_factor(a, **kwargs):
        seen.append(get())
        if fail:
            raise RuntimeError("forced")
        return scipy.linalg.cho_factor(a, **kwargs)

    monkeypatch.setattr(vpsep.metrics, "sla", SimpleNamespace(
        cho_factor=cho_factor, cho_solve=scipy.linalg.cho_solve,
        toeplitz=scipy.linalg.toeplitz))
    return seen


def test_factorizations_run_on_one_lapack_thread(lapack_threads, monkeypatch):
    get, set_ = lapack_threads
    set_(2)
    seen = counting_threads(monkeypatch, get)
    refs = np.random.default_rng(12).standard_normal((2, 600))
    sdr_only(refs[0] + 0.2 * refs[1], refs, 0, filter_len=8)
    assert seen == [1, 1]
    assert get() == 2


def test_lapack_threads_restored_after_failed_decomposition(lapack_threads, monkeypatch):
    get, set_ = lapack_threads
    set_(2)
    seen = counting_threads(monkeypatch, get, fail=True)
    refs = np.random.default_rng(13).standard_normal((2, 600))
    with pytest.raises(RuntimeError, match="forced"):
        bss_decompose(refs[0], refs, 0, filter_len=8)
    assert seen == [1]
    assert get() == 2
    assert vpsep.parallel.ONE_LAPACK_THREAD._depth == 0


def test_concurrent_decompositions_leave_the_thread_count(lapack_threads, monkeypatch):
    get, set_ = lapack_threads
    set_(2)
    seen = counting_threads(monkeypatch, get)
    rng = np.random.default_rng(14)
    refs = rng.standard_normal((2, 900))
    ests = [refs[0] + k * rng.standard_normal(900) for k in range(8)]
    # more threads than cores, switching often, so that entries and exits interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            decomps = list(pool.map(lambda e: bss_decompose(e, refs, 0, filter_len=32),
                                    ests, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(decomps) == 8
    assert seen == [1] * 16  # each call factors the target and the joint system
    assert get() == 2
    assert vpsep.parallel.ONE_LAPACK_THREAD._depth == 0


def test_missing_thread_setter_is_a_no_op(monkeypatch):
    assert vpsep.parallel.openblas_threads(SimpleNamespace()) is None
    plain = SimpleNamespace(openblas_get_num_threads=len, openblas_set_num_threads=abs)
    assert vpsep.parallel.openblas_threads(plain) == (len, abs)
    # numpy's build exports the 64-bit-integer interface, with a suffix
    wide = SimpleNamespace(scipy_openblas_get_num_threads64_=len,
                           scipy_openblas_set_num_threads64_=abs)
    assert vpsep.parallel.openblas_threads(wide) == (len, abs)
    refs = np.random.default_rng(15).standard_normal((2, 600))
    est = refs[0] + 0.2 * refs[1]
    scoped = sdr_sir_sar(bss_decompose(est, refs, 0, filter_len=8))
    monkeypatch.setattr(vpsep.parallel, "ONE_LAPACK_THREAD",
                        vpsep.parallel.OneThreadScope(None))
    assert sdr_sir_sar(bss_decompose(est, refs, 0, filter_len=8)) == scoped
