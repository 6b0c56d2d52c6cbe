"""Separation quality metrics: SDR/SIR/SAR and their global aggregates.

An estimate is decomposed by least squares into a filtered image of its
true source, interference from the other references, and a residual
artifact term.  Projections go onto spans of time-delayed reference
copies (``filter_len`` taps), solved through normal equations whose
Gram matrix is assembled from FFT cross-correlations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from .errors import ShapeMismatchError, VpsepError

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
    return x


def _delay_span_solve(est: np.ndarray, refs: np.ndarray, flen: int) -> np.ndarray:
    """Least-squares filter taps projecting ``est`` onto delayed refs.

    Returns coefficients shaped (n_refs, flen).  Normal equations with a
    relative diagonal jitter, Cholesky-solved; falls back to lstsq when
    the Gram matrix is numerically singular anyway.
    """
    nsrc, n = refs.shape
    nfft = next_fast_len(n + flen - 1)
    rf = np.fft.rfft(refs, nfft, axis=1)
    ef = np.fft.rfft(est, nfft)

    gram = np.empty((nsrc * flen, nsrc * flen))
    for i in range(nsrc):
        for j in range(i + 1):
            c = np.fft.irfft(rf[i] * np.conj(rf[j]), nfft)
            # <ref_i delayed a, ref_j delayed b> = c[(b - a) mod nfft]
            col = np.concatenate(([c[0]], c[nfft - flen + 1 :][::-1]))
            row = c[:flen]
            block = sla.toeplitz(col, row)
            gram[i * flen : (i + 1) * flen, j * flen : (j + 1) * flen] = block
            gram[j * flen : (j + 1) * flen, i * flen : (i + 1) * flen] = block.T
    rhs = np.empty(nsrc * flen)
    for i in range(nsrc):
        c = np.fft.irfft(ef * np.conj(rf[i]), nfft)
        rhs[i * flen : (i + 1) * flen] = c[:flen]

    diag_scale = max(np.mean(np.diag(gram)), 1.0)
    gram[np.diag_indices_from(gram)] += GRAM_JITTER * diag_scale
    try:
        coefs = sla.cho_solve(sla.cho_factor(gram), rhs)
    except np.linalg.LinAlgError:
        coefs, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    return coefs.reshape(nsrc, flen)


def _project(est: np.ndarray, refs: np.ndarray, flen: int) -> np.ndarray:
    """Projection of ``est`` onto the refs' delayed span, evaluated on the
    zero-padded support of length n + flen - 1."""
    coefs = _delay_span_solve(est, refs, flen)
    n = refs.shape[1]
    out = np.zeros(n + flen - 1)
    for i in range(refs.shape[0]):
        if flen == 1:
            out[:n] += coefs[i, 0] * refs[i]
        else:
            out += fftconvolve(refs[i], coefs[i])
    return out


def bss_decompose(
    est, refs, target_index: int = 0, filter_len: int = 512
) -> Decomposition:
    """Split an estimate into target, interference, and artifact parts.

    ``s_target`` is the projection onto the true source's delayed span,
    ``e_interf`` the extra part explained by all references jointly, and
    ``e_artif`` whatever remains; the three sum to the (zero-padded)
    estimate by construction.
    """
    est = _as_signal(est)
    refs = np.stack([_as_signal(r) for r in refs])
    if refs.shape[1] != len(est):
        raise ShapeMismatchError(
            f"estimate length {len(est)} != reference length {refs.shape[1]}"
        )
    if not 0 <= target_index < refs.shape[0]:
        raise VpsepError(f"no reference {target_index} among {refs.shape[0]}")
    if filter_len < 1:
        raise VpsepError("filter_len must be >= 1")
    for k, r in enumerate(refs):
        if not np.any(r):
            raise VpsepError(f"reference {k} is identically zero")

    est_pad = np.concatenate([est, np.zeros(filter_len - 1)])
    s_target = _project(est, refs[target_index : target_index + 1], filter_len)
    p_all = _project(est, refs, filter_len) if refs.shape[0] > 1 else s_target
    e_interf = p_all - s_target
    e_artif = est_pad - p_all
    return Decomposition(s_target, e_interf, e_artif)


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
