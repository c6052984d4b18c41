"""Windowed time-spectrum diagnostics and a convolution-support oracle.

The transform convention is G(w) = integral e^{+iwt} g(t) dt, so a trace
rotating as e^{-i w0 t} (a solitary wave seen at a point) peaks at +w0.
Estimates report the quadratically interpolated dominant frequency and the
fraction of spectral mass (|G|^2) outside the dominant band; masses rather
than magnitudes so that two tones of amplitudes A, B show a band-mass ratio
of (B/A)^2.

The support oracle checks endpoint additivity of discrete convolutions:
lo(f*g) = lo(f) + lo(g) and hi(f*g) = hi(f) + hi(g), which holds whenever the
endpoint products do not vanish (for exact or generic entries they cannot).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "SpectrumEstimate",
    "SupportBounds",
    "time_spectrum",
    "in_band_check",
    "band_mass",
    "support_bounds",
    "titchmarsh_check",
]

MIN_WINDOW_SAMPLES = 64


@dataclass(frozen=True)
class SpectrumEstimate:
    t0: float
    T: float  # actual window length (samples - 1) * dt
    freqs: np.ndarray
    magnitudes: np.ndarray
    dominant: float  # nan when the window is all zero
    band_mass_ratio: float
    bin_width: float

    @property
    def has_dominant(self) -> bool:
        return not np.isnan(self.dominant)


@dataclass(frozen=True)
class SupportBounds:
    lo: int
    hi: int


def _window_slice(n_total: int, sample_dt: float, t0: float, T: float, trace_t0: float):
    start, span = (t0 - trace_t0) / sample_dt, T / sample_dt
    if not (np.isfinite(start) and np.isfinite(span)):
        raise ValueError(f"window {t0}:{T} is not a finite span of the trace")
    i0 = int(round(start))
    count = int(np.floor(span + 1e-9)) + 1
    if i0 < 0 or i0 + count > n_total:
        raise ValueError(f"window [{t0}, {t0 + T}] falls outside the trace")
    if count < MIN_WINDOW_SAMPLES:
        raise ValueError(f"window has {count} samples; at least {MIN_WINDOW_SAMPLES} required")
    return i0, count


def time_spectrum(
    trace,
    sample_dt: float,
    t0: float,
    T: float,
    taper: str = "hann",
    trace_t0: float = 0.0,
) -> SpectrumEstimate:
    """Magnitude spectrum of one window of a uniformly sampled trace.

    The dominant frequency is the magnitude peak refined by three-point
    quadratic interpolation; the band-mass ratio is the share of the |G|^2
    mass outside band_mass's band around it.
    """
    trace = np.asarray(trace, dtype=complex)
    if taper not in ("none", "hann"):
        raise ValueError(f"unknown taper {taper!r}")
    i0, count = _window_slice(len(trace), sample_dt, t0, T, trace_t0)
    g = trace[i0 : i0 + count]
    if taper == "hann":
        g = g * np.hanning(count)
    # G(w_j) = dt * sum_n g_n e^{+i w_j t_n} on the fft grid
    spectrum = np.fft.fftshift(np.fft.ifft(g) * count * sample_dt)
    freqs = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(count, d=sample_dt))
    mags = np.abs(spectrum)
    t_actual = (count - 1) * sample_dt
    bin_width = 2.0 * np.pi / (count * sample_dt)

    total = float(np.sum(mags**2))
    if total == 0.0:
        return SpectrumEstimate(t0, t_actual, freqs, mags, float("nan"), 0.0, bin_width)

    peak = int(np.argmax(mags))
    dominant = float(freqs[peak])
    if 0 < peak < count - 1:
        ym1, y0, yp1 = mags[peak - 1], mags[peak], mags[peak + 1]
        denom = ym1 - 2.0 * y0 + yp1
        if denom != 0.0:
            delta = 0.5 * (ym1 - yp1) / denom
            dominant += float(np.clip(delta, -0.5, 0.5)) * bin_width

    estimate = SpectrumEstimate(t0, t_actual, freqs, mags, dominant, 0.0, bin_width)
    ratio = 1.0 - band_mass(estimate, dominant) / total
    return replace(estimate, band_mass_ratio=min(max(ratio, 0.0), 1.0))


def band_mass(estimate: SpectrumEstimate, center: float) -> float:
    """|G|^2 mass within two FFT bins of center, |freq - center| <= 2 bin_width."""
    sel = np.abs(estimate.freqs - center) <= 2.0 * estimate.bin_width
    return float(np.sum(estimate.magnitudes[sel] ** 2))


def in_band_check(estimate: SpectrumEstimate, m: float) -> bool:
    """True when the dominant frequency sits inside [-m, m] up to one FFT bin, bin_width."""
    if not estimate.has_dominant:
        raise ValueError("estimate has no defined dominant frequency")
    return abs(estimate.dominant) <= m + estimate.bin_width


def support_bounds(seq) -> SupportBounds | None:
    """Index support endpoints (|entry| > 0 exactly); None for all-zero input."""
    arr = np.asarray(seq)
    nz = np.nonzero(np.abs(arr) > 0.0)[0]
    if len(nz) == 0:
        return None
    return SupportBounds(int(nz[0]), int(nz[-1]))


def titchmarsh_check(f, g) -> bool:
    """Endpoint additivity of supports under discrete convolution.

    Returns False only when an endpoint product vanishes in floating point
    (constructible via underflow, impossible for generic entries).
    """
    sf = support_bounds(f)
    sg = support_bounds(g)
    if sf is None or sg is None:
        raise ValueError("titchmarsh_check requires nonempty supports")
    conv = np.convolve(np.asarray(f, dtype=complex), np.asarray(g, dtype=complex))
    sc = support_bounds(conv)
    if sc is None:
        return False
    return sc.lo == sf.lo + sg.lo and sc.hi == sf.hi + sg.hi
