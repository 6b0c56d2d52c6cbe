"""Separation quality metrics: SDR/SIR/SAR and their global aggregates.

An estimate is decomposed by least squares into a filtered image of its
true source, interference from the other references, and a residual
artifact term.  Projections go onto spans of time-delayed reference
copies (``filter_len`` taps).  A clip's references are prepared once
(``BssReferences``): their spectra, delay Gram and factored systems
serve every estimate scored against them.

A ratio's part with at most ``ENERGY_FLOOR`` times the estimate's energy
counts as absent, the numerator first: an estimate with no energy scores
-100 dB on all three ratios, and a quiet one scores like a loud one.

Scoring wakes no BLAS thread pool.  numpy and scipy each load their own
OpenBLAS, and on a machine with few cores the spinning workers of one
pool slow the other: the five energies of ``sdr_sir_sar`` are summed by
``np.einsum`` (no BLAS call), and each Cholesky factor and solve runs with
scipy's OpenBLAS set to one thread.  That also makes scores independent of
the core count, since a threaded Cholesky rounds differently for each
thread count.  numpy's pool is left alone: separation's GEMMs need it.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import linalg as sla
from scipy.fft import next_fast_len
from scipy.linalg import cython_lapack

from .errors import ShapeMismatchError, VpsepError, check_int

DB_CAP = 100.0
ENERGY_FLOOR = 1e-20  # relative to the estimate's energy
GRAM_JITTER = 1e-10


@dataclass(frozen=True)
class BssResult:
    """Per-estimate energy ratios in dB, clamped to +/- 100."""

    sdr: float
    sir: float
    sar: float


@dataclass(frozen=True)
class GlobalMetrics:
    """Length-weighted means over a clip set."""

    gnsdr: float
    gsir: float
    gsar: float


@dataclass(frozen=True)
class Decomposition:
    s_target: np.ndarray
    e_interf: np.ndarray
    e_artif: np.ndarray


def _as_signal(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeMismatchError("signals must be 1-D")
    if not np.all(np.isfinite(x)):
        raise VpsepError("signals must be finite")
    return x


def _openblas_threads(lib):
    """The ``(get, set)`` thread-count functions of the OpenBLAS that ``lib``
    links, or None when it exports neither known pair."""
    for prefix in ("scipy_openblas", "openblas"):
        try:
            return (getattr(lib, f"{prefix}_get_num_threads"),
                    getattr(lib, f"{prefix}_set_num_threads"))
        except AttributeError:
            pass
    return None


def _find_lapack_threads():
    """The thread-count pair of the OpenBLAS behind scipy's LAPACK (not the
    one numpy loads), with its C signatures declared, or None."""
    try:
        threads = _openblas_threads(ctypes.CDLL(cython_lapack.__file__))
    except OSError:
        return None
    if threads is not None:
        get, set_ = threads
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
    return threads


class _OneThreadScope:
    """A context that runs its body with an OpenBLAS on one thread, given
    that library's ``(get, set)`` thread-count pair (None: a no-op).  The
    count is process-global and ``evaluate(workers>1)`` scores from several
    threads, so the first to enter saves the count and the last to leave
    restores it."""

    def __init__(self, threads):
        self.threads = threads
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    def __enter__(self):
        if self.threads is not None:
            get, set_ = self.threads
            with self._lock:
                if self._depth == 0:
                    self._saved = get()
                    set_(1)
                self._depth += 1

    def __exit__(self, *exc):
        if self.threads is not None:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    _, set_ = self.threads
                    set_(self._saved)


_ONE_LAPACK_THREAD = _OneThreadScope(_find_lapack_threads())


def _project(rf: np.ndarray, taps: np.ndarray, nfft: int, size: int) -> np.ndarray:
    """The references (spectra ``rf``) filtered by their rows of taps and
    summed: one product of spectra per reference, one inverse transform,
    cut to the linear-convolution support of ``size`` samples."""
    spec = sum(r * np.fft.rfft(h, nfft) for r, h in zip(rf, taps))
    return np.fft.irfft(spec, nfft)[:size]


class BssReferences:
    """A clip's references prepared once for any number of estimates: their
    spectra and joint delay Gram, indexed (ref, delay, ref, delay).  Each
    system is factored on first use and kept: target ``t``'s from a copy of
    the Gram's ``(t, t)`` block, the joint one from a copy of the whole."""

    def __init__(self, refs, filter_len: int = 512):
        check_int("filter_len", filter_len, 1)
        refs = [_as_signal(r) for r in refs]
        if len({len(r) for r in refs}) != 1:
            raise ShapeMismatchError(f"need references of one length, got lengths "
                                     f"{[len(r) for r in refs]}")
        for k, r in enumerate(refs):
            if not np.any(r):
                raise VpsepError(f"reference {k} is identically zero")
        self.filter_len = flen = filter_len
        self._n = len(refs[0])
        self._nfft = nfft = next_fast_len(self._n + flen - 1)
        self._rf = rf = np.fft.rfft(np.stack(refs), nfft, axis=1)
        self._gram = gram = np.empty((len(rf), flen, len(rf), flen))
        for i in range(len(rf)):
            for j in range(i + 1):
                c = np.fft.irfft(rf[i] * np.conj(rf[j]), nfft)
                # <ref_i delayed a, ref_j delayed b> = c[b - a], wrapping negative lags
                gram[i, :, j] = sla.toeplitz(c[-np.arange(flen)], c[:flen])
                gram[j, :, i] = gram[i, :, j].T
        self._solvers = {}

    def _solve(self, key, rhs: np.ndarray) -> np.ndarray:
        """Taps shaped like ``rhs`` for target ``key``'s system (None: the
        joint one), jittered by its own mean diagonal, then Cholesky, or
        lstsq when it is numerically singular anyway.  Factor and solve run
        on one LAPACK thread."""
        with _ONE_LAPACK_THREAD:
            solve = self._solvers.get(key)
            if solve is None:
                gram = self._gram if key is None else self._gram[key, :, key]
                gram = gram.reshape(rhs.size, rhs.size).copy()
                gram[np.diag_indices_from(gram)] += GRAM_JITTER * np.mean(np.diag(gram))
                try:
                    solve = partial(sla.cho_solve, sla.cho_factor(gram))
                except np.linalg.LinAlgError:
                    solve = partial(lambda g, b: np.linalg.lstsq(g, b, rcond=None)[0],
                                    gram)
                self._solvers[key] = solve
            return solve(rhs.ravel()).reshape(rhs.shape)

    def decompose(self, est, target_index: int = 0) -> Decomposition:
        """Split an estimate into ``s_target``, its projection onto the true
        source's delayed span, ``e_interf``, the extra part all references
        explain jointly, and ``e_artif``, the rest of the padded estimate."""
        est = _as_signal(est)
        check_int("target_index", target_index, 0)
        rf, nfft, flen = self._rf, self._nfft, self.filter_len
        size = self._n + flen - 1
        if target_index >= len(rf):
            raise VpsepError(f"no reference {target_index} among {len(rf)}")
        if len(est) != self._n:
            raise ShapeMismatchError(f"lengths: estimate {len(est)} != references {self._n}")
        ef = np.fft.rfft(est, nfft)
        # one irfft per reference: a single batched irfft rounds differently
        rhs = np.stack([np.fft.irfft(ef * np.conj(r), nfft)[:flen] for r in rf])
        t = slice(target_index, target_index + 1)
        s_target = _project(rf[t], self._solve(target_index, rhs[t]), nfft, size)
        p_all = _project(rf, self._solve(None, rhs), nfft, size) if len(rf) > 1 else s_target
        est_pad = np.concatenate([est, np.zeros(flen - 1)])
        return Decomposition(s_target, p_all - s_target, est_pad - p_all)


def bss_decompose(est, refs, target_index: int = 0, filter_len: int = 512) -> Decomposition:
    """``BssReferences(refs, filter_len).decompose(est, target_index)``;
    ``refs`` may be references already prepared with this ``filter_len``."""
    check_int("filter_len", filter_len, 1)
    if not isinstance(refs, BssReferences):
        refs = BssReferences(refs, filter_len)
    elif filter_len != refs.filter_len:
        raise VpsepError(f"filter_len {filter_len} != the prepared {refs.filter_len}")
    return refs.decompose(est, target_index)


def _ratio_db(num: float, den: float, total: float) -> float:
    """``num / den`` in dB within +/- ``DB_CAP``, by the floor rule above."""
    if num <= ENERGY_FLOOR * total:
        return -DB_CAP
    if den <= ENERGY_FLOOR * total:
        return DB_CAP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CAP, DB_CAP))


def sdr_sir_sar(decomp: Decomposition) -> BssResult:
    """Energy ratios of the decomposition, in dB."""
    st = decomp.s_target
    ei = decomp.e_interf
    ea = decomp.e_artif
    e_st, e_ei, e_ea, e_dist, e_sa = (float(np.einsum("i,i->", x, x)) for x in
                                      (st, ei, ea, ei + ea, st + ei))
    total = e_st + e_dist  # the estimate's energy: s_target is orthogonal to the rest
    return BssResult(
        sdr=_ratio_db(e_st, e_dist, total),
        sir=_ratio_db(e_st, e_ei, total),
        sar=_ratio_db(e_sa, e_ea, total),
    )


def sdr_only(est, refs, target_index: int = 0, filter_len: int = 512) -> float:
    return sdr_sir_sar(bss_decompose(est, refs, target_index, filter_len)).sdr


def aggregate_global(per_clip, clip_lengths) -> GlobalMetrics:
    """Length-weighted means of per-clip (nsdr, sir, sar) triples."""
    per_clip = list(per_clip)
    lengths = np.asarray(list(clip_lengths), dtype=np.float64)
    if not per_clip:
        raise VpsepError("no clips to aggregate")
    if len(per_clip) != len(lengths):
        raise ShapeMismatchError(
            f"{len(per_clip)} metric rows vs {len(lengths)} lengths"
        )
    if lengths.min() <= 0:
        raise VpsepError("clip lengths must be positive")
    weights = lengths / lengths.sum()
    vals = np.asarray(per_clip, dtype=np.float64)  # (clips, 3)
    if vals.ndim != 2 or vals.shape[1] != 3:
        raise ShapeMismatchError("per-clip metrics must be (nsdr, sir, sar) triples")
    g = weights @ vals
    return GlobalMetrics(gnsdr=float(g[0]), gsir=float(g[1]), gsar=float(g[2]))
