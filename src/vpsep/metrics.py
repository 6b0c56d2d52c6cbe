"""Separation quality metrics: SDR/SIR/SAR and their global aggregates.

An estimate is decomposed by least squares into a filtered image of its
true source, interference from the other references, and a residual
artifact term.  Projections go onto spans of time-delayed reference
copies (``filter_len`` taps).  A clip's references are prepared once
(``BssReferences``): their spectra, delay Gram and factored systems
serve every estimate scored against them, and ``BssReferences.sdrs``
scores one estimate (the mixture) against each reference in one pass.
The Gram is stored in the column order LAPACK reads, and each system is
factored in place in one copy of it.  Once every system is factored (one
per reference, plus the joint one), the Gram is released and each factor
is kept as its packed upper triangle: ``k * L * (k * L + 1) / 2 + k * L *
(L + 1) / 2`` floats for ``k`` references at ``filter_len`` L, beside the
spectra's 16 B per bin per reference.  For two references at
``filter_len`` 512 that is 6 MiB of factors, and about 7 MiB in all for
a 4 s clip, against 20 MiB with the Gram and full factors.  ``pipeline`` keeps one such set, with the
mixture's SDRs, for the clip it scored last, keyed by the sample count,
``filter_len`` and a digest of the exact vocal, music and mixture samples:
a table scored one clip per call, clip-major, prepares each clip once,
while whole-split calls made row after row never hit it.

A ratio's part with at most ``ENERGY_FLOOR`` times the estimate's energy
counts as absent, the numerator first: an estimate with no energy scores
-100 dB on all three ratios, and a quiet one scores like a loud one.

Scoring wakes no BLAS thread pool.  numpy and scipy each load their own
OpenBLAS, and on a machine with few cores the spinning workers of one
pool slow the other: the five energies of ``sdr_sir_sar`` are summed by
``np.einsum`` (no BLAS call), and each Cholesky factor and solve runs with
scipy's OpenBLAS set to one thread (``parallel.ONE_LAPACK_THREAD``).  That
also makes scores independent of the core count, since a threaded
Cholesky rounds differently for each thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import linalg as sla
from scipy.fft import next_fast_len
from scipy.linalg.lapack import dtpttr, dtrttp

from . import parallel
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


def _project(rf: np.ndarray, taps: np.ndarray, nfft: int, size: int) -> np.ndarray:
    """The references (spectra ``rf``) filtered by their rows of taps and
    summed: one product of spectra per reference, one inverse transform,
    cut to the linear-convolution support of ``size`` samples."""
    spec = sum(r * np.fft.rfft(h, nfft) for r, h in zip(rf, taps))
    return np.fft.irfft(spec, nfft)[:size]


class BssReferences:
    """A clip's references prepared once for any number of estimates: their
    spectra and joint delay Gram.  The Gram is held as the C-order transpose
    of the (ref, delay, ref, delay) matrix, so that each system is an
    F-ordered view that LAPACK reads without a transposing copy.  Each
    system is factored on first use and kept: target ``t``'s from a copy of
    its block, the joint one from a copy of the whole.  When every system
    is, the Gram is dropped.  Prepared references whose systems are all
    factored are only read, so threads may share them.  The references are
    checked finite here, so factors and solves skip scipy's finite scans."""

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
        # Every system's packed factor, in one buffer made before the Gram
        # (the joint system is solved only beside another reference).  Below
        # the Gram's space, the factors kept fragment the heap less: on a
        # 2-vCPU VM the evaluate-table benchmark peaked at 173.1-173.5 MiB
        # RSS, against 175.0 with one array per factor made as it is factored.
        keys = [*range(len(rf)), None] if len(rf) > 1 else [0]
        sides = [flen * len(rf) if key is None else flen for key in keys]
        sizes = np.cumsum([m * (m + 1) // 2 for m in sides])
        self._packed = dict(zip(keys, np.split(np.empty(sizes[-1]), sizes[:-1])))
        # gram_t[j, b, i, a] = <ref_i delayed a, ref_j delayed b>
        self._gram_t = gram_t = np.empty((len(rf), flen, len(rf), flen))
        for i in range(len(rf)):
            for j in range(i + 1):
                c = np.fft.irfft(rf[i] * np.conj(rf[j]), nfft)
                # <ref_i delayed a, ref_j delayed b> = c[b - a], wrapping negative lags
                blk = sla.toeplitz(c[-np.arange(flen)], c[:flen])
                gram_t[j, :, i] = blk.T
                gram_t[i, :, j] = blk  # last: a diagonal block (not exactly symmetric) holds blk
        self._solvers = {}

    def _system(self, key) -> np.ndarray:
        """A fresh F-ordered copy of target ``key``'s system (None: the joint
        one), jittered by its own mean diagonal."""
        g = self._gram_t
        view = g.reshape(g.shape[0] * g.shape[1], -1) if key is None else g[key, :, key]
        gram = np.array(view.T, order="F")
        gram[np.diag_indices_from(gram)] += GRAM_JITTER * np.mean(np.diag(gram))
        return gram

    def _solve(self, key, rhs: np.ndarray) -> np.ndarray:
        """Taps shaped like ``rhs`` for target ``key``'s system (None: the
        joint one), by Cholesky, factored in place in its ``_system`` copy
        on one LAPACK thread and kept packed.  When that system is
        numerically singular anyway, lstsq on a fresh copy (a failed factor
        has written over the first), with numpy's BLAS on one thread."""
        with parallel.ONE_LAPACK_THREAD:
            solve = self._solvers.get(key)
            if solve is None:
                try:
                    upper, _ = sla.cho_factor(self._system(key), overwrite_a=True,
                                              check_finite=False)
                    packed = self._packed[key]
                    packed[...] = dtrttp(upper)[0]
                    solve = partial(_packed_cho_solve, len(upper), packed)
                except np.linalg.LinAlgError:
                    solve = partial(_lstsq, self._system(key))
                self._solvers[key] = solve
                if self._solvers.keys() >= self._packed.keys():
                    self._gram_t = None
            return solve(rhs.ravel()).reshape(rhs.shape)

    def _decompositions(self, est, targets):
        """``decompose(est, t)`` for each ``t`` of ``targets`` in turn, from
        one spectrum of the estimate and one joint projection."""
        est = _as_signal(est)
        rf, nfft, flen = self._rf, self._nfft, self.filter_len
        size = self._n + flen - 1
        if len(est) != self._n:
            raise ShapeMismatchError(f"lengths: estimate {len(est)} != references {self._n}")
        ef = np.fft.rfft(est, nfft)
        # one irfft per reference: a single batched irfft rounds differently
        rhs = np.stack([np.fft.irfft(ef * np.conj(r), nfft)[:flen] for r in rf])
        est_pad = np.concatenate([est, np.zeros(flen - 1)])
        p_all = None
        for t in targets:
            one = slice(t, t + 1)
            s_target = _project(rf[one], self._solve(t, rhs[one]), nfft, size)
            if p_all is None:
                p_all = (_project(rf, self._solve(None, rhs), nfft, size) if len(rf) > 1
                         else s_target)
            yield Decomposition(s_target, p_all - s_target, est_pad - p_all)

    def decompose(self, est, target_index: int = 0) -> Decomposition:
        """Split an estimate into ``s_target``, its projection onto the true
        source's delayed span, ``e_interf``, the extra part all references
        explain jointly, and ``e_artif``, the rest of the padded estimate."""
        check_int("target_index", target_index, 0)
        if target_index >= len(self._rf):
            raise VpsepError(f"no reference {target_index} among {len(self._rf)}")
        return next(self._decompositions(est, [target_index]))

    def sdrs(self, est) -> list[float]:
        """The estimate's SDR against each reference in turn: for each
        target ``t``, the same float as ``sdr_only(est, self, t)``."""
        return [sdr_sir_sar(d).sdr for d in self._decompositions(est, range(len(self._rf)))]


def _packed_cho_solve(n: int, packed: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``cho_solve`` with an upper Cholesky factor held as its packed triangle,
    unpacked into a fresh F-ordered array: the same bits as the full factor,
    since the solve reads only the upper triangle."""
    return sla.cho_solve((dtpttr(n, packed)[0], False), rhs, check_finite=False)


def _lstsq(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The least-squares solution, with numpy's BLAS on one thread: a
    threaded lstsq rounds differently for each thread count."""
    with parallel.ONE_BLAS_THREAD:
        return np.linalg.lstsq(gram, rhs, rcond=None)[0]


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
