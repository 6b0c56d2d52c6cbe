"""Separation quality metrics: SDR/SIR/SAR and their global aggregates.

An estimate is decomposed by least squares into a filtered image of its
true source, interference from the other references, and a residual
artifact term.  Projections go onto spans of time-delayed reference
copies (``filter_len`` taps); one set of reference spectra gives the
normal equations' Gram matrix and right-hand side and both projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.fft import next_fast_len

from .errors import ShapeMismatchError, VpsepError, check_int

DB_CAP = 100.0
ENERGY_FLOOR = 1e-20
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


def _normal_equations(rf: np.ndarray, ef: np.ndarray, nfft: int, flen: int):
    """Normal equations projecting the estimate (spectrum ``ef``) onto each
    reference (spectra ``rf``) delayed by 0..flen-1 samples: the Gram matrix
    indexed (ref, delay, ref, delay) and the right-hand side (ref, delay)."""
    gram = np.empty((len(rf), flen, len(rf), flen))
    for i in range(len(rf)):
        for j in range(i + 1):
            c = np.fft.irfft(rf[i] * np.conj(rf[j]), nfft)
            # <ref_i delayed a, ref_j delayed b> = c[b - a], wrapping negative lags
            gram[i, :, j] = sla.toeplitz(c[-np.arange(flen)], c[:flen])
            gram[j, :, i] = gram[i, :, j].T
    # one irfft per reference: a single batched irfft rounds differently
    rhs = np.stack([np.fft.irfft(ef * np.conj(r), nfft)[:flen] for r in rf])
    return gram, rhs


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Taps shaped like ``rhs`` for the normal equations, solved in place:
    a diagonal jitter relative to this Gram matrix's own mean diagonal,
    then Cholesky, or lstsq when it is numerically singular anyway."""
    gram = gram.reshape(rhs.size, rhs.size)
    gram[np.diag_indices_from(gram)] += GRAM_JITTER * max(np.mean(np.diag(gram)), 1.0)
    try:
        taps = sla.cho_solve(sla.cho_factor(gram), rhs.ravel())
    except np.linalg.LinAlgError:
        taps, *_ = np.linalg.lstsq(gram, rhs.ravel(), rcond=None)
    return taps.reshape(rhs.shape)


def _project(rf: np.ndarray, taps: np.ndarray, nfft: int, size: int) -> np.ndarray:
    """The references (spectra ``rf``) filtered by their rows of taps and
    summed: one product of spectra per reference, one inverse transform,
    cut to the linear-convolution support of ``size`` samples."""
    spec = sum(r * np.fft.rfft(h, nfft) for r, h in zip(rf, taps))
    return np.fft.irfft(spec, nfft)[:size]


def bss_decompose(
    est, refs, target_index: int = 0, filter_len: int = 512
) -> Decomposition:
    """Split an estimate into target, interference, and artifact parts.

    ``s_target`` is the projection onto the true source's delayed span,
    ``e_interf`` the extra part explained by all references jointly, and
    ``e_artif`` whatever remains; the three sum to the (zero-padded)
    estimate by construction.  The target system is a copy of the
    target's diagonal block of the joint one, jittered on its own.
    """
    est = _as_signal(est)
    refs = [_as_signal(r) for r in refs]
    check_int("target_index", target_index, 0)
    check_int("filter_len", filter_len, 1)
    if target_index >= len(refs):
        raise VpsepError(f"no reference {target_index} among {len(refs)}")
    if any(len(r) != len(est) for r in refs):
        raise ShapeMismatchError(f"lengths {[len(r) for r in refs]} != {len(est)}")
    refs = np.stack(refs)
    for k, r in enumerate(refs):
        if not np.any(r):
            raise VpsepError(f"reference {k} is identically zero")

    size = len(est) + filter_len - 1
    nfft = next_fast_len(size)
    rf = np.fft.rfft(refs, nfft, axis=1)
    gram, rhs = _normal_equations(rf, np.fft.rfft(est, nfft), nfft, filter_len)
    t = slice(target_index, target_index + 1)
    s_target = _project(rf[t], _solve(gram[t, :, t].copy(), rhs[t]), nfft, size)
    p_all = _project(rf, _solve(gram, rhs), nfft, size) if len(refs) > 1 else s_target
    est_pad = np.concatenate([est, np.zeros(filter_len - 1)])
    return Decomposition(s_target, p_all - s_target, est_pad - p_all)


def _ratio_db(num: float, den: float) -> float:
    if den < ENERGY_FLOOR:
        return DB_CAP
    if num < ENERGY_FLOOR:
        return -DB_CAP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CAP, DB_CAP))


def sdr_sir_sar(decomp: Decomposition) -> BssResult:
    """Energy ratios of the decomposition, in dB."""
    st = decomp.s_target
    ei = decomp.e_interf
    ea = decomp.e_artif
    e_st = float(st @ st)
    e_ei = float(ei @ ei)
    e_ea = float(ea @ ea)
    e_dist = float((ei + ea) @ (ei + ea))
    e_sa = float((st + ei) @ (st + ei))
    return BssResult(
        sdr=_ratio_db(e_st, e_dist),
        sir=_ratio_db(e_st, e_ei),
        sar=_ratio_db(e_sa, e_ea),
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
