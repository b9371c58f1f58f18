import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theory import measure_from_csv, measure_to_csv

from datransport import Measure, TimeGrid, cdf, gaussian_mixture, quantile
from datransport.errors import MixtureError, NonProbabilityError


class TestTimeGrid:
    def test_basic_fields(self):
        g = TimeGrid(t_f=2.0, n_t=8)
        assert g.dt == 0.25
        assert np.allclose(g.centers, (np.arange(8) + 0.5) * 0.25)
        assert np.all(np.diff(g.centers) > 0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(t_f=0.0, n_t=8)
        with pytest.raises(ValueError):
            TimeGrid(t_f=1.0, n_t=1)
        for t_f in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                TimeGrid(t_f=t_f, n_t=8)

    def test_bin_of_clips(self):
        g = TimeGrid(t_f=1.0, n_t=10)
        assert g.bin_of(-0.3) == 0
        assert g.bin_of(0.55) == 5
        assert g.bin_of(2.0) == 9


class TestCdf:
    def test_dirac_at_start(self, grid8):
        m = Measure(grid8, np.eye(8)[0])
        assert np.allclose(cdf(m), np.ones(8))

    def test_uniform(self, grid10):
        m = Measure(grid10, np.full(10, 0.1))
        assert np.allclose(cdf(m), (np.arange(10) + 1) / 10)

    def test_two_bin_mixture(self, grid8):
        mass = np.zeros(8)
        mass[2] = 0.3
        mass[5] = 0.7
        m = Measure(grid8, mass)
        assert np.allclose(cdf(m), [0, 0, 0.3, 0.3, 0.3, 1, 1, 1])


class TestQuantile:
    def test_uniform_low_level(self):
        g = TimeGrid(1.0, 10)
        m = Measure(g, np.full(10, 0.1))
        assert quantile(m, 0.05) == pytest.approx(g.centers[0])

    def test_dirac(self, grid8):
        m = Measure(grid8, np.eye(8)[4])
        for u in (0.01, 0.5, 1.0):
            assert quantile(m, u) == pytest.approx(grid8.centers[4])

    def test_mixture_hand_oracle(self, grid8):
        mass = np.zeros(8)
        mass[2] = 0.3
        mass[5] = 0.7
        m = Measure(grid8, mass)
        # cumulative sums by hand: F = 0.3 from bin 2, 1.0 from bin 5
        assert quantile(m, 0.31) == pytest.approx(grid8.centers[5])
        assert quantile(m, 0.3) == pytest.approx(grid8.centers[2])

    def test_non_probability(self, grid8):
        m = Measure(grid8, np.full(8, 0.2))
        with pytest.raises(NonProbabilityError):
            quantile(m, 0.5)


class TestGaussianMixture:
    def test_flat_limit(self, grid10):
        m = gaussian_mixture(grid10, [(1.0, 0.5, 100.0)])
        assert m.total == pytest.approx(1.0, abs=1e-12)
        assert m.mass.max() / m.mass.min() == pytest.approx(1.0, rel=1e-4)

    def test_dirac_limit(self):
        g = TimeGrid(1.0, 50)
        mean = float(g.centers[25])
        m = gaussian_mixture(g, [(1.0, mean, 1e-3)])
        assert m.total == pytest.approx(1.0, abs=1e-12)
        assert m.mass[25] > 0.999

    def test_bimodal_peaks_and_density_formula(self):
        g = TimeGrid(1.0, 100)
        comps = [(0.5, 0.2, 0.05), (0.5, 0.8, 0.05)]
        m = gaussian_mixture(g, comps)
        # independent evaluation of the mixture density at bin centers
        t = g.centers
        dens = sum(w / (s * math.sqrt(2 * math.pi)) * np.exp(-0.5 * ((t - mu) / s) ** 2)
                   for w, mu, s in comps)
        assert np.allclose(m.mass, dens / dens.sum(), rtol=1e-12)
        left_peak = int(np.argmax(m.mass[:50]))
        right_peak = 50 + int(np.argmax(m.mass[50:]))
        assert left_peak in (19, 20)
        assert right_peak in (79, 80)

    def test_bad_mixture(self, grid8):
        with pytest.raises(MixtureError):
            gaussian_mixture(grid8, [(-0.1, 0.5, 0.1)])
        with pytest.raises(MixtureError):
            gaussian_mixture(grid8, [(1.0, 0.5, 0.0)])
        with pytest.raises(MixtureError):
            gaussian_mixture(grid8, [])

    @pytest.mark.parametrize("grid, components", [
        (TimeGrid(t_f=1e300, n_t=8), [(1.0, 0.5, 0.1)]),
        (TimeGrid(t_f=1.0, n_t=8), [(1.0, 0.5625, 1e-320)]),  # its mean on a bin center
    ], ids=["far-grid", "subnormal-stddev"])
    def test_overflowing_mixture(self, grid, components):
        # the density overflows to 0 or to inf and nan: an error, and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MixtureError, match="must be finite and positive"):
                gaussian_mixture(grid, components)


@st.composite
def measures(draw, n_t=12):
    vals = draw(st.lists(st.floats(0.0, 1.0), min_size=n_t, max_size=n_t))
    total = sum(vals)
    if total <= 0:
        vals[draw(st.integers(0, n_t - 1))] = 1.0
        total = sum(vals)
    return Measure(TimeGrid(1.0, n_t), np.array(vals) / total)


@settings(max_examples=60, deadline=None)
@given(measures())
def test_cdf_nondecreasing(m):
    f = cdf(m)
    assert np.all(np.diff(f) >= -1e-15)
    assert f[-1] == pytest.approx(m.total, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(measures(), st.floats(1e-6, 1.0))
def test_cdf_quantile_roundtrip(m, u):
    t = quantile(m, u)
    k = m.grid.bin_of(t)
    f = cdf(m)
    assert f[k] >= u - 1e-12
    if k > 0:
        assert f[k - 1] < u + 1e-12


def test_measure_validation(grid8):
    with pytest.raises(ValueError):
        Measure(grid8, np.full(7, 0.1))
    with pytest.raises(ValueError):
        Measure(grid8, np.array([1.0, -0.1] + [0.0] * 6))


def test_measure_csv_roundtrip(grid10):
    m = gaussian_mixture(grid10, [(1.0, 0.4, 0.2)])
    again = measure_from_csv(measure_to_csv(m))
    assert again.grid == m.grid
    assert np.allclose(again.mass, m.mass, rtol=0, atol=0)
