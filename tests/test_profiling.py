import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoad.errors import SeriesTooShort
from autoad.profiling import (
    detect_change_points,
    profile,
    select_fourier_frequencies,
    stationarize,
)
from autoad.series import TimeSeries

ts_of = TimeSeries.from_values


def two_level_series(seed=0, n_each=100, jump=10.0):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(0, 1, n_each), rng.normal(jump, 1, n_each)])


def exhaustive_single_split_gain(values, min_segment=5):
    """Brute-force scan of the diff-likelihood gain at every split point."""

    def cost(seg):
        d = np.diff(seg)
        if d.size == 0:
            return 0.0
        var = max(np.var(d), 1e-12)
        return d.size * (math.log(2 * math.pi) + 1.0 + math.log(var))

    n = len(values)
    total = cost(values)
    gains = {}
    for k in range(min_segment, n - min_segment + 1):
        gains[k] = total - cost(values[:k]) - cost(values[k:])
    return gains


class TestChangePoints:
    def test_constant_series_has_none(self):
        assert detect_change_points(ts_of(np.full(100, 3.0))) == []

    def test_two_level_series_single_point(self):
        values = two_level_series()
        cps = detect_change_points(ts_of(values), penalty=3 * math.log(200))
        assert len(cps) == 1
        assert abs(cps[0] - 100) <= 2
        # the detected split must agree with an exhaustive scan
        gains = exhaustive_single_split_gain(values)
        assert cps[0] == max(gains, key=gains.get)

    def test_pure_trend_has_none(self):
        values = np.linspace(0.0, 50.0, 200)
        assert detect_change_points(ts_of(values)) == []
        gains = exhaustive_single_split_gain(values)
        assert max(gains.values()) <= 3 * math.log(200)

    def test_noisy_trend_has_none(self, rng):
        values = np.arange(300.0) * 0.5 + rng.normal(0, 1, 300)
        assert detect_change_points(ts_of(values)) == []

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            detect_change_points(ts_of(np.ones(8)), min_segment=5)

    @given(seed=st.integers(0, 50), jump=st.floats(0.0, 20.0))
    @settings(max_examples=25, deadline=None)
    def test_count_non_increasing_in_penalty(self, seed, jump):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 1, 120)
        values[60:] += jump
        ts = ts_of(values)
        low = detect_change_points(ts, penalty=5.0)
        high = detect_change_points(ts, penalty=25.0)
        assert len(high) <= len(low)
        assert set(high) <= set(low)

    def test_min_segment_separation(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(m, 1, 40) for m in (0, 8, 0, 8)])
        cps = detect_change_points(ts_of(values), min_segment=10)
        diffs = np.diff([0, *cps, len(values)])
        assert np.all(diffs >= 10)


class TestStationarize:
    def test_white_noise_unchanged(self, rng):
        values = rng.normal(0, 1, 300)
        out, d = stationarize(ts_of(values))
        assert d == 0
        assert np.array_equal(out.values, values)

    def test_random_walk_first_difference_recovers_noise(self, rng):
        noise = rng.normal(0, 1, 500)
        walk = np.cumsum(noise)
        out, d = stationarize(ts_of(walk))
        assert d == 1
        assert np.allclose(out.values, noise[1:])

    def test_ramp_becomes_constant(self):
        out, d = stationarize(ts_of(np.arange(500.0)))
        assert d == 1
        assert np.allclose(out.values, out.values[0])

    def test_double_integration(self, rng):
        values = np.cumsum(np.cumsum(rng.normal(0, 1, 400)))
        _, d = stationarize(ts_of(values))
        assert d == 2

    def test_seasonal_series_not_differenced(self, rng):
        t = np.arange(480)
        values = 10 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1, 480)
        _, d = stationarize(ts_of(values))
        assert d == 0

    @given(seed=st.integers(0, 30), order=st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_restationarize_demands_nothing(self, seed, order):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 1, 300)
        for _ in range(order):
            values = np.cumsum(values)
        out, _ = stationarize(ts_of(values))
        if len(out) >= 20:
            _, d2 = stationarize(out)
            assert d2 == 0


def loop_fourier_frequencies(values, l_max=3, noise_floor_multiplier=10.0):
    """select_fourier_frequencies as a loop over every periodogram bin:
    the oracle the masked peak search must match bit for bit."""
    n = values.size
    spectrum = np.abs(np.fft.rfft(values - values.mean())) ** 2 / n
    freqs = np.fft.rfftfreq(n)
    power = spectrum[1:-1] if n % 2 == 0 else spectrum[1:]
    bins = freqs[1:-1] if n % 2 == 0 else freqs[1:]
    if power.size < 5:
        return []
    padded = np.concatenate([power[:2][::-1], power, power[-2:][::-1]])
    smoothed = np.convolve(padded, np.ones(5) / 5.0, mode="valid")
    floor = noise_floor_multiplier * float(np.median(smoothed))
    peaks = []
    for i in range(power.size):
        lo, hi = max(0, i - 1), min(power.size, i + 2)
        if smoothed[i] < max(smoothed[lo:hi]) or smoothed[i] <= floor:
            continue
        wlo, whi = max(0, i - 2), min(power.size, i + 3)
        j = wlo + int(np.argmax(power[wlo:whi]))
        peaks.append((float(bins[j]), float(power[j])))
    peaks.sort(key=lambda fp: -fp[1])
    deduped = []
    for f, p in peaks:
        if all(abs(f - g) > 1.5 / n for g, _ in deduped):
            deduped.append((f, p))
    return deduped[:l_max]


class TestFourierSelection:
    @given(n=st.integers(16, 3000), seed=st.integers(0, 2**16), kind=st.sampled_from(["float", "rounded", "tiled"]),
           l_max=st.integers(1, 5), multiplier=st.sampled_from([10.0, 3.0, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_masked_peaks_match_the_loop(self, n, seed, kind, l_max, multiplier):
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        if kind == "tiled":
            # whole repeats of an integer pattern: isolated spectral lines,
            # whose smoothed copies are plateaus of exactly equal bins
            pattern = rng.integers(0, 4, rng.integers(2, 13))
            values = np.tile(pattern, -(-n // pattern.size)).astype(float)
        else:
            values = np.sin(2 * np.pi * t / rng.integers(2, 200)) + rng.normal(0, rng.uniform(0.05, 2), n)
            if kind == "rounded":
                values = np.round(values, int(rng.integers(0, 2)))
        want = loop_fourier_frequencies(values, l_max, multiplier)
        assert select_fourier_frequencies(ts_of(values), l_max, multiplier) == want

    @pytest.mark.parametrize("pattern, repeats", [([2, 3, 2, 0, 0], 15), ([2, 2, 0, 2, 1, 1, 1, 2, 0], 5)])
    def test_plateau_ties_match_the_loop(self, pattern, repeats):
        """Every bin of a plateau is a peak, and the tied bins refine to
        different raw bins here."""
        values = np.tile(np.asarray(pattern, dtype=float), repeats)
        assert select_fourier_frequencies(ts_of(values)) == loop_fourier_frequencies(values)

    def test_hourly_sinusoid_recovered(self, rng):
        t = np.arange(480.0)
        values = np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.1, 480)
        top = select_fourier_frequencies(ts_of(values))
        assert top
        assert abs(top[0][0] - 1 / 24) <= 1 / 480 + 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_white_noise_suppressed(self, seed):
        rng = np.random.default_rng(seed)
        out = select_fourier_frequencies(ts_of(rng.normal(0, 1, 480)), l_max=5)
        assert out == []

    def test_two_tone_recovery(self, rng):
        t = np.arange(1680.0)
        values = (
            np.sin(2 * np.pi * t / 24)
            + 0.8 * np.sin(2 * np.pi * t / 168)
            + rng.normal(0, 0.2, 1680)
        )
        top = select_fourier_frequencies(ts_of(values), l_max=2)
        found = sorted(f for f, _ in top)
        assert len(found) == 2
        assert abs(found[0] - 1 / 168) <= 1 / 1680 + 1e-12
        assert abs(found[1] - 1 / 24) <= 1 / 1680 + 1e-12

    @given(seed=st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_powers_descending_and_positive(self, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(240.0)
        values = (
            2 * np.sin(2 * np.pi * t / 24)
            + np.sin(2 * np.pi * t / 12)
            + rng.normal(0, 0.3, 240)
        )
        out = select_fourier_frequencies(ts_of(values), l_max=5)
        powers = [p for _, p in out]
        assert all(p >= 0 for p in powers)
        assert powers == sorted(powers, reverse=True)


class TestProfile:
    def test_constant_positive_series(self):
        prof = profile(ts_of(np.full(120, 7.0)))
        assert prof.change_points == ()
        assert prof.diff_order == 0
        assert prof.log_recommended is False
        assert prof.fourier_terms == ()
        assert prof.missing_fraction == 0.0

    def test_lognormal_recommends_log(self, rng):
        sample = np.exp(rng.normal(0, 1.5, 1000))
        prof = profile(ts_of(sample))
        assert prof.log_recommended is True
        assert prof.skewness > 1.5

    def test_sinusoid_with_shift(self, rng):
        t = np.arange(480.0)
        values = np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.1, 480)
        values[240:] += 6.0
        prof = profile(ts_of(values))
        assert any(abs(cp - 240) <= 5 for cp in prof.change_points)
        assert any(abs(f - 1 / 24) <= 2 / 480 for f, _ in prof.fourier_terms)

    def test_deterministic(self, rng):
        values = rng.normal(0, 1, 200) + np.sin(np.arange(200) / 5)
        ts = ts_of(values)
        assert profile(ts) == profile(ts)
