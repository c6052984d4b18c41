import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpoint.spectral import (
    band_mass,
    in_band_check,
    support_bounds,
    time_spectrum,
    titchmarsh_check,
)

DT = 0.05


def tone(omega, n=2400, dt=DT):
    t = np.arange(n) * dt
    return np.exp(-1j * omega * t)


def test_pure_tone_peak_at_signed_frequency():
    # e^{-i w0 t} must peak at +w0 under the e^{+iwt} transform convention
    est = time_spectrum(tone(0.5), DT, 5.0, 80.0, taper="hann")
    assert abs(est.dominant - 0.5) <= 0.02
    assert est.band_mass_ratio <= 0.05


def test_pure_tone_negative_rotation():
    t = np.arange(2400) * DT
    est = time_spectrum(np.exp(1j * 0.7 * t), DT, 5.0, 80.0, taper="hann")
    assert abs(est.dominant + 0.7) <= 0.02


def test_zero_trace_flagged():
    est = time_spectrum(np.zeros(512, complex), DT, 0.0, 20.0)
    assert np.all(est.magnitudes == 0.0)
    assert not est.has_dominant
    assert est.band_mass_ratio == 0.0
    with pytest.raises(ValueError):
        in_band_check(est, 1.0)


def test_two_tone_mass_ratio():
    a, b = 1.0, 0.35
    t = np.arange(4000) * DT
    trace = a * np.sin(0.5 * t) + b * np.sin(1.5 * t)
    est = time_spectrum(trace, DT, 5.0, 150.0, taper="hann")
    ratio = band_mass(est, 1.5) / band_mass(est, 0.5)
    assert ratio == pytest.approx((b / a) ** 2, rel=0.2)
    # peaks exist at both signs
    assert band_mass(est, -0.5) == pytest.approx(band_mass(est, 0.5), rel=1e-6)


def test_window_validation():
    with pytest.raises(ValueError):
        time_spectrum(tone(0.5, n=100), DT, 0.0, 80.0)  # out of range
    with pytest.raises(ValueError):
        time_spectrum(tone(0.5), DT, 0.0, 1.0)  # too few samples
    with pytest.raises(ValueError):
        time_spectrum(tone(0.5), DT, 0.0, 20.0, taper="blackman")


def test_band_mass_ratio_is_the_share_outside_band_mass():
    t = np.arange(2000) * DT
    trace = np.exp(-0.5j * t) + 0.3 * np.exp(-t / 30.0) * np.exp(-1.7j * t) + 0.05 * np.exp(0.9j * t)
    rng = np.random.default_rng(7)
    windows = [(10.0, 12.0)]
    for _ in range(100):
        T = rng.uniform(3.2, 50.0)
        windows.append((rng.uniform(0.0, 99.0 - T), T))
    for t0, T in windows:
        for taper in ("hann", "none"):
            est = time_spectrum(trace, DT, t0, T, taper=taper)
            share = 1.0 - band_mass(est, est.dominant) / np.sum(est.magnitudes**2)
            assert est.band_mass_ratio == min(max(share, 0.0), 1.0)
    # on 10:12 one frequency lies beyond two bins of the dominant line but within 2 (2 pi / T), T = (n - 1) dt,
    # so a band of that width would give another ratio
    est = time_spectrum(trace, DT, 10.0, 12.0)
    offsets = np.abs(est.freqs - est.dominant)
    assert np.sum((offsets > 2.0 * est.bin_width) & (offsets <= 4.0 * np.pi / est.T)) == 1


def test_parseval_untapered():
    rng = np.random.default_rng(1)
    trace = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    est = time_spectrum(trace, DT, 10.0, 30.0, taper="none")
    n = len(est.freqs)
    i0 = int(round(10.0 / DT))
    window_energy = np.sum(np.abs(trace[i0 : i0 + n]) ** 2) * DT
    mass = np.sum(est.magnitudes**2) * est.bin_width / (2.0 * np.pi)
    assert mass == pytest.approx(window_energy, rel=1e-10)


def test_shift_covariance():
    trace = tone(0.8, n=4000)
    base = time_spectrum(trace, DT, 20.0, 60.0, taper="hann")
    delayed = time_spectrum(trace, DT, 20.0 + 25 * DT, 60.0, taper="hann")
    assert np.max(np.abs(base.magnitudes - delayed.magnitudes)) <= 1e-10 * np.max(base.magnitudes)


def test_spectrum_series_stationary_tone():
    trace = tone(0.5, n=4000)
    ests = [time_spectrum(trace, DT, t0, 60.0) for t0 in (0.0, 50.0, 120.0)]
    doms = [e.dominant for e in ests]
    bin_slack = 2 * np.pi / 60.0
    assert max(doms) - min(doms) <= bin_slack


def test_spectrum_series_decaying_second_tone():
    t = np.arange(6000) * DT
    trace = np.exp(-1j * 0.5 * t) + np.exp(-t / 20.0) * np.exp(-1j * 1.8 * t)
    ests = [time_spectrum(trace, DT, t0, 60.0) for t0 in (0.0, 80.0, 160.0)]
    ratios = [e.band_mass_ratio for e in ests]
    assert ratios[0] > ratios[1] > ratios[2]


def test_in_band_check_examples():
    assert in_band_check(time_spectrum(tone(0.5), DT, 0.0, 80.0), 1.0)
    assert not in_band_check(time_spectrum(tone(1.4), DT, 0.0, 80.0), 1.0)
    assert in_band_check(time_spectrum(tone(1.0), DT, 0.0, 80.0), 1.0)


def test_in_band_check_phase_invariant():
    trace = tone(0.9)
    for phase in (1.0, np.exp(1j * 2.1)):
        est = time_spectrum(phase * trace, DT, 0.0, 80.0)
        assert in_band_check(est, 1.0)
        assert est.band_mass_ratio == pytest.approx(
            time_spectrum(trace, DT, 0.0, 80.0).band_mass_ratio, abs=1e-12
        )


def test_support_bounds_examples():
    seq = np.zeros(10)
    seq[5] = 1.0
    sb = support_bounds(seq)
    assert (sb.lo, sb.hi) == (5, 5)
    assert support_bounds(np.zeros(4)) is None
    sb = support_bounds([0, 1, 0, 2, 0])
    assert (sb.lo, sb.hi) == (1, 3)


def test_titchmarsh_deltas():
    f = np.zeros(6)
    f[2] = 1.0
    g = np.zeros(6)
    g[3] = -2.5
    assert titchmarsh_check(f, g)
    conv = np.convolve(f, g)
    sb = support_bounds(conv)
    assert (sb.lo, sb.hi) == (5, 5)


def test_titchmarsh_fixed_supports():
    rng = np.random.default_rng(8)
    f = np.zeros(8, complex)
    f[1:5] = rng.normal(size=4) + 1j * rng.normal(size=4)
    g = np.zeros(8, complex)
    g[2] = rng.normal() + 1j * rng.normal()
    assert titchmarsh_check(f, g)
    conv = np.convolve(f, g)
    sb = support_bounds(conv)
    assert (sb.lo, sb.hi) == (3, 6)


def test_titchmarsh_underflow_counterexample():
    # endpoint product underflows to zero: the one way the check can fail
    f = np.zeros(4)
    g = np.zeros(4)
    f[0] = 1e-200
    f[2] = 1.0
    g[0] = 1e-200
    g[2] = 1.0
    assert f[0] * g[0] == 0.0
    assert not titchmarsh_check(f, g)


def test_titchmarsh_empty_input_raises():
    with pytest.raises(ValueError):
        titchmarsh_check(np.zeros(4), np.ones(4))


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_titchmarsh_generic_pairs(data):
    # entries in the unit disk with endpoints bounded away from zero
    def seq(label):
        size = data.draw(st.integers(1, 8), label=label + "_size")
        offset = data.draw(st.integers(0, 5), label=label + "_offset")
        entries = data.draw(
            st.lists(
                st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
                min_size=size,
                max_size=size,
            ),
            label=label + "_entries",
        )
        arr = np.zeros(offset + size, complex)
        arr[offset:] = entries
        lo_val = data.draw(st.floats(0.1, 1.0), label=label + "_lo")
        hi_val = data.draw(st.floats(0.1, 1.0), label=label + "_hi")
        arr[offset] = lo_val
        arr[offset + size - 1] = hi_val
        return arr

    assert titchmarsh_check(seq("f"), seq("g"))
